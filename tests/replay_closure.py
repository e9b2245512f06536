"""Digest of every closure-scan witness, to compare two versions of the scan.

Usage: PYTHONPATH=src python tests/replay_closure.py [N]    (N defaults to 8)

It records each distinct set that chainendo.analysis._closure_scan sees
during claims.run_all(N), and adds the sets of the closure and radius
benchmark workloads:

- the full simplex at n = 8;
- the full simplex at n = 7 and its seven 6-vertex faces;
- the neighbourhoods of vertices 1, 4 and 6 of the full simplex at n = 8,
  at radii 3 to 7.

Each set is scanned again at pair budgets 2**14, 40, 3 and 1, with the
class-pass gate as it is and at 0, under the four op orders.  Below 2**14,
sets of more than 800 maps are skipped: blocks of a few rows make them
slow.  It prints the number of scans and one sha256 digest of their
witnesses (i, j, op and the result's values), so a change to the scan
keeps every lex-first witness when it prints the digest of the code before
it.  Not collected by pytest.
"""

import hashlib
import sys

from chainendo import analysis, claims, simplex

BUDGETS = (2**14, 40, 3, 1)
OP_ORDERS = (("+",), ("*",), ("+", "*"), ("*", "+"))
LARGEST_UNDER_SMALL_BUDGETS = 800


def recorded_sets(n_max):
    """(n, values) of each distinct set that run_all(n_max) scans, in the
    order first scanned, then the benchmark sets."""
    found = {}
    scan = analysis._closure_scan

    def record(els, ops):
        s = analysis.Subset.of(els)
        found.setdefault((s.n, s.values.tobytes()), (s.n, s.values.copy()))
        return scan(els, ops)

    analysis._closure_scan = record
    try:
        claims.run_all(n_max)
    finally:
        analysis._closure_scan = scan
    full_7 = tuple(range(7))
    specs = [
        simplex.SimplexSpec(8, tuple(range(8))),
        simplex.SimplexSpec(7, full_7),
        *(simplex.SimplexSpec(7, tuple(v for v in full_7 if v != drop)) for drop in full_7),
    ]
    sets = [simplex.enumerate_simplex(spec) for spec in specs]
    sets += [simplex.discrete_neighborhood(specs[0], m, t) for m in (1, 4, 6) for t in range(3, 8)]
    for s in sets:
        found.setdefault((s.n, s.values.tobytes()), (s.n, s.values.copy()))
    return list(found.values())


def replay(sets):
    """(scans, sha256 hex digest) of every witness of the sets' scans."""
    digest, scans = hashlib.sha256(), 0
    budget, gate = analysis._PAIR_BUDGET, analysis._CLASS_PASS_BUDGETS
    try:
        for number, (n, values) in enumerate(sets):
            s = analysis.Subset.from_values(n, values)
            for scan_budget in BUDGETS:
                if scan_budget < 2**14 and len(s) > LARGEST_UNDER_SMALL_BUDGETS:
                    continue
                for scan_gate in (gate, 0):
                    analysis._PAIR_BUDGET, analysis._CLASS_PASS_BUDGETS = scan_budget, scan_gate
                    for ops in OP_ORDERS:
                        hit = analysis._closure_scan(s, ops)
                        if hit is not None:
                            hit = (*hit[:3], hit[3].values)
                        digest.update(repr(((number, scan_budget, scan_gate, ops), hit)).encode())
                        scans += 1
    finally:
        analysis._PAIR_BUDGET, analysis._CLASS_PASS_BUDGETS = budget, gate
    return scans, digest.hexdigest()


def main(argv):
    n_max = int(argv[0]) if argv else 8
    sets = recorded_sets(n_max)
    scans, digest = replay(sets)
    print(f"n_max={n_max} sets={len(sets)} scans={scans} digest={digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
