"""Registry of checkable structure claims with exhaustive verification.

Every statement the library relies on is recorded here as a Claim: a
human-readable sentence paired with a machine check over an explicit
family of parameters.  run_claim sweeps one claim over all admissible
parameters up to a chain size bound and reports the first failure, if
any, with a concrete witness.  Claims whose cost grows too fast carry a
hard cap (max_n) so that a large bound stays affordable.

A claim that holds vacuously (no admissible parameters below the bound)
reports checked = 0 and holds = True.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from time import perf_counter
from typing import Callable, Iterable, Iterator

import numpy as np

from . import analysis, counting, simplex, strings, triangle
from .core import (
    ChainEndo,
    all_endomorphisms,
    constant,
    format_compact,
    identity,
)
from .simplex import LayerId, SimplexSpec
from .strings import StringSpec
from .triangle import NotDecomposable, Region, TriangleSpec


class UnknownClaim(KeyError):
    pass


def _fmt(e: ChainEndo) -> str:
    return format_compact(e)


def _pair(witness) -> dict | None:
    """Flatten a ClosureWitness into a plain dict of compact strings."""
    if witness is None:
        return None
    return {
        "left": _fmt(witness.left),
        "right": _fmt(witness.right),
        "op": witness.op,
        "result": _fmt(witness.result),
    }


# ---------------------------------------------------------------------------
# parameter families (chain, string and triangle families come from counting)


def _simplex_family(n_max: int) -> Iterator[tuple]:
    for n in range(2, n_max + 1):
        for k in range(1, n + 1):
            for verts in combinations(range(n), k):
                yield (n, verts)


def _simplex_vertex_family(n_max: int) -> Iterator[tuple]:
    for n, verts in _simplex_family(n_max):
        for m in range(len(verts)):
            yield (n, verts, m)


def _internal_vertex_family(n_max: int) -> Iterator[tuple]:
    for n, verts, m in _simplex_vertex_family(n_max):
        if verts[0] >= 1 and verts[-1] <= n - 2:
            yield (n, verts, m)


def _internal_middle_family(n_max: int) -> Iterator[tuple]:
    # internal, at least three vertices, starting 1, 2
    for n, verts in _simplex_family(n_max):
        if len(verts) < 3 or verts[-1] > n - 2:
            continue
        if verts[0] == 1 and verts[1] == 2:
            yield (n, verts)


def _layered_simplex_family(n_max: int) -> Iterator[tuple]:
    # least vertex small enough that its top layer is a proper one
    for n, verts in _simplex_family(n_max):
        if len(verts) >= 2 and verts[0] <= n - 2:
            yield (n, verts)


def _vertex_pair_family(sizes: Callable[[int], Iterable[int]]):
    """(n, one, two) for n >= 3: two different vertex sets on the chain of
    n, both of a size in sizes(n), sizes in the order given."""

    def gen(n_max: int) -> Iterator[tuple]:
        for n in range(3, n_max + 1):
            for k in sizes(n):
                for one, two in combinations(combinations(range(n), k), 2):
                    yield (n, one, two)

    return gen


def _singleton_family(n_needed: int, params: tuple):
    def gen(n_max: int) -> Iterator[tuple]:
        if n_max >= n_needed:
            yield params

    return gen


# ---------------------------------------------------------------------------
# chain-wide checks


def _chk_semiring_laws(params):
    (n,) = params
    s = analysis.Subset.of(all_endomorphisms(n))
    els = s.elements
    # (N, N) member indices of x_i + x_j and x_i * x_j, built whole: N = 35 at n = 4
    A = s.index_of(analysis._sums(s.values, s))
    M = s.index_of(analysis._products(s.values, s))
    if (A < 0).any() or (M < 0).any():
        return False, {"note": "the maps of the chain are not closed"}
    bad = np.flatnonzero(A.diagonal() != np.arange(len(els)))
    if bad.size:
        return False, {"law": "idempotent addition", "x": _fmt(els[bad[0]])}
    bad = np.argwhere(A != A.T)
    if bad.size:
        x, y = bad[0]
        return False, {"law": "commutative addition", "x": _fmt(els[x]), "y": _fmt(els[y])}
    hit = analysis._triple_law_scan(A, M)
    if hit is not None:
        x, y, z, law = hit
        return False, {"law": law, "x": _fmt(els[x]), "y": _fmt(els[y]), "z": _fmt(els[z])}
    return True, None


def _chk_mul_noncommutative(params):
    (n,) = params
    els = list(all_endomorphisms(n))
    for x, y in combinations(els, 2):
        if x * y != y * x:
            return True, None
    return False, {"note": "every product commutes"}


def _chk_power_stabilization(params):
    # e**(n - 1) by its own gathers, against the atlas's power walk
    (n,) = params
    cap = max(1, n - 1)
    V, limits, exponents = counting._chain_atlas(n)
    stable = V
    for _ in range(cap - 1):
        stable = np.take_along_axis(V, stable, axis=1)
    checks = (
        (np.take_along_axis(stable, stable, axis=1) != stable).any(axis=1),
        (np.take_along_axis(V, stable, axis=1) != stable).any(axis=1) & (n >= 2),
        (limits != stable).any(axis=1),
        exponents > cap,
    )
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return True, None
    i = int(bad.argmax())
    element = _fmt(ChainEndo._wrap(n, tuple(V[i].tolist())))
    witnesses = (
        {"power": cap},
        {"note": "power sequence moved again"},
        {"note": "eventual idempotent mismatch"},
        {"exponent": int(exponents[i])},
    )
    return False, next({"element": element, **w} for c, w in zip(checks, witnesses) if c[i])


def _chk_catalan_count(params):
    (n,) = params
    found = counting._chain_census(n).nilpotent
    for a in range(n):
        want = counting.nilpotent_count(n, a)
        if found[a] != want:
            return False, {"target": a, "formula": want, "enumerated": found[a]}
    return True, None


def _chk_idempotent_count(params):
    (n,) = params
    tally = counting._chain_census(n).idempotent
    total = sum(tally.values())
    if tally.get(tuple(range(n)), 0) != 1:
        return False, {"note": "identity must be the only full-fix idempotent"}
    seen = 1
    for size in range(1, n):
        for fs in combinations(range(n), size):
            want = counting.idempotent_count(n, fs)
            got = tally.get(fs, 0)
            if got != want:
                return False, {"fixed": fs, "formula": want, "enumerated": got}
            seen += got
    if seen != total:
        return False, {"note": "an idempotent fell outside every fixed set"}
    return True, None


# ---------------------------------------------------------------------------
# simplex checks


def _closed(build: Callable[..., analysis.Subset]):
    """The check that the set build(*params) is a subsemiring."""

    def check(params):
        ok, wit = analysis.is_subsemiring(build(*params))
        return ok, _pair(wit)

    return check


def _chk_simplex_order(params):
    n, verts = params
    els = simplex.enumerate_simplex(SimplexSpec(n, verts))
    want = counting.simplex_order(n, len(verts))
    if len(els) != want:
        return False, {"formula": want, "enumerated": len(els)}
    if not analysis._strictly_ascending(els):
        return False, {"note": "enumeration must be strictly ascending"}
    return True, None


@counting._per_audit
def _closed_simplex(n: int, verts: tuple) -> tuple[np.ndarray, analysis.ClosureWitness | None]:
    """The value matrix of the simplex on verts (not the Subset, which would
    keep its tables in the memo) and its is_subsemiring witness: one
    enumeration and one closure scan per memo scope."""
    s = simplex.enumerate_simplex(SimplexSpec(n, verts))
    return s.values, analysis.is_subsemiring(s)[1]


def _chk_simplex_noniso(params):
    # strings and triangles are the simplices on two and three vertices
    n, one, two = params
    found = [_closed_simplex(n, verts) for verts in (one, two)]
    same, _ = analysis.iso_check(
        *(analysis.Subset.from_values(n, values) for values, _ in found),
        [witness for _, witness in found],
    )
    if same:
        return False, {"first": one, "second": two}
    return True, None


def _chk_face_complement(params):
    (n,) = params
    full = analysis.Subset.of(all_endomorphisms(n))
    for v in (0, n - 1):
        ok, wit = analysis.is_subsemiring(full[(full.values == v).any(axis=1)])
        if not ok:
            return False, {"kept_vertex": v, **_pair(wit)}
    for v in range(1, n - 1):
        ok, _ = analysis.is_subsemiring(full[(full.values == v).any(axis=1)])
        if ok:
            return False, {"kept_vertex": v, "note": "unexpectedly closed"}
        probe = ChainEndo(n, (0,) * (n - 1) + (v,))
        if v in (probe * probe).image():
            return False, {"probe": _fmt(probe)}
    return True, None


def _chk_dn1_internal(params):
    n, verts, m = params
    spec = SimplexSpec(n, verts)
    hood = simplex.discrete_neighborhood(spec, m, 1)
    v = analysis.triviality(hood)
    pivot = verts[m]
    if not v.is_trivial or v.iota != constant(n, pivot):
        return False, {"note": "products must collapse onto the vertex constant"}
    if v.iota_is_min != (m == 0) or v.iota_is_max != (m == spec.k - 1):
        return False, {"note": "flavor must follow the vertex position", "m": m}
    off = ~(hood.limits == pivot).all(axis=1)
    if off.any():
        return False, {"element": _fmt(hood[int(off.argmax())])}
    return True, None


def _chk_dn_fixpoint_equality(params):
    n, verts = params
    spec = SimplexSpec(n, verts)
    els = simplex.enumerate_simplex(spec)
    low, top = verts[0], verts[-1]
    for m, vertex, radius in ((0, low, n - low - 1), (spec.k - 1, top, top)):
        if radius < 1:
            continue
        if simplex.discrete_neighborhood(spec, m, radius) != els[els.values[:, vertex] == vertex]:
            return False, {"vertex": vertex, "radius": radius}
    return True, None


def _chk_top_layer(params):
    n, verts = params
    spec = SimplexSpec(n, verts)
    low = verts[0]
    lay = simplex.layer(LayerId(spec, 0, low + 1))
    ok, wit = analysis.is_subsemiring(lay)
    if not ok:
        return False, _pair(wit)
    nil = (lay.limits == low).all(axis=1)
    bad = nil | (lay.find(lay.limits) < 0)
    if bad.any():
        i = int(bad.argmax())
        note = "nilpotent inside the layer" if nil[i] else "idempotent left the layer"
        return False, {"element": _fmt(lay[i]), "note": note}
    return True, None


def _chk_nilpotency_criterion(params):
    n, verts = params
    spec = SimplexSpec(n, verts)
    low = verts[0]
    els = simplex.enumerate_simplex(spec)
    nil = (els.limits == low).all(axis=1)
    fixing = els.values[:, low] == low
    passes = np.zeros(len(els), dtype=bool)
    passes[fixing] = simplex.nilpotent_rows(spec, els.values[fixing])
    stray = nil & ~fixing
    bad = stray | (fixing & (passes != nil))
    if not bad.any():
        return True, None
    i = int(bad.argmax())
    if stray[i]:
        return False, {"element": _fmt(els[i]), "note": "nilpotent without fixing"}
    return False, {"element": _fmt(els[i]), "nilpotent": bool(nil[i])}


def _chk_min_radius_middle(params):
    n, verts = params
    spec = SimplexSpec(n, verts)
    scan = simplex.min_semiring_radius(spec, 1)
    want = tuple(t <= 2 or t == n for t in range(1, n + 1))
    if scan.closed != want:
        return False, {"closed": scan.closed, "expected": want}
    if scan.least != 1 or scan.semiring_prefix != 2:
        return False, {"least": scan.least, "prefix": scan.semiring_prefix}
    probe = ChainEndo(n, (1, 1, 1) + (2,) * (n - 3))
    if probe not in simplex.discrete_neighborhood(spec, 1, 3):
        return False, {"probe": _fmt(probe), "note": "probe missing at radius 3"}
    if probe * probe != constant(n, 1):
        return False, {"probe": _fmt(probe)}
    return True, None


# ---------------------------------------------------------------------------
# string checks


def _chk_string_partition(params):
    n, a, b = params
    spec = StringSpec(n, a, b)
    els = strings.elements(spec)
    if len(els) != n + 1 or not analysis._strictly_ascending(els):
        return False, {"note": "a string must be a chain of n + 1 members"}
    part = strings.partition_string(spec)
    sizes = (len(part.nil_low), len(part.idem), len(part.nil_high))
    want = (
        counting.string_nil_low_order(n, a, b),
        counting.string_idem_order(n, a, b),
        counting.string_nil_high_order(n, a, b),
    )
    if sizes != want:
        return False, {"sizes": sizes, "formulas": want}
    runs = (els[: n - b], els[n - b : n - a], els[n - a :])
    if (part.nil_low, part.idem, part.nil_high) != runs:
        return False, {"note": "blocks must be consecutive runs"}
    for block, square, note in (
        (part.nil_low, a, "square must be const a"),
        (part.idem, part.idem.values, "must be idempotent"),
        (part.nil_high, b, "square must be const b"),
    ):
        bad = (np.take_along_axis(block.values, block.values, axis=1) != square).any(axis=1)
        if bad.any():
            return False, {"element": _fmt(block[int(bad.argmax())]), "note": note}
    return True, None


def _chk_string_mul_cases(params):
    # products[r, k, ell] is elem(left, k) * elem(specs[r], ell), one block
    # per left string, against the rule's index table; the first failing
    # pair in the order left, right, k, ell is reported
    (n,) = params
    specs = [StringSpec(n, a, b) for a, b in combinations(range(n), 2)]
    # members by index: row i of a string's elements has index n - i
    Y = np.stack([strings.elements(spec).values[::-1] for spec in specs])
    index = np.arange(n + 1)
    for left, X in zip(specs, Y):
        products = np.take_along_axis(Y[:, None], X[None, :, None], axis=-1)
        predicted = Y[:, strings._product_index(left, index[:, None], index)]
        bad = (products != predicted).any(axis=-1)
        if bad.any():
            r, k, ell = map(int, np.unravel_index(bad.argmax(), bad.shape))
            right = specs[r]
            return False, {
                "left": _fmt(strings.elem(left, k)),
                "right": _fmt(strings.elem(right, ell)),
                "predicted": _fmt(strings.string_mul_cases(left, k, right, ell)),
            }
    return True, None


def _chk_string_right_identities(params):
    n, a, b = params
    spec = StringSpec(n, a, b)
    ids = analysis.identities(strings.elements(spec))
    if ids.right != strings.partition_string(spec).idem:
        return False, {"right": [_fmt(e) for e in ids.right]}
    if len(ids.left):
        return False, {"left": [_fmt(e) for e in ids.left]}
    return True, None


def _chk_string_trivial_parts(params):
    n, a, b = params
    part = strings.partition_string(StringSpec(n, a, b))
    low = analysis.triviality(part.nil_low)
    if not low.is_trivial or low.iota != constant(n, a):
        return False, {"block": "nil_low"}
    if not low.iota_is_min or low.iota_is_max != (b == n - 1):
        return False, {"block": "nil_low", "flavor": low.flavor}
    high = analysis.triviality(part.nil_high)
    if not high.is_trivial or high.iota != constant(n, b):
        return False, {"block": "nil_high"}
    if not high.iota_is_max or high.iota_is_min != (a == 0):
        return False, {"block": "nil_high", "flavor": high.flavor}
    return True, None


def _chk_string_families(params):
    n, a, b = params
    spec = StringSpec(n, a, b)
    for r in range(1, n + 1):
        if analysis.is_subsemiring(strings.family_top(spec, r))[0] != (r >= a + 1):
            return False, {"segment": "top", "cut": r}
    for s in range(n):
        if analysis.is_subsemiring(strings.family_bottom(spec, s))[0] != (s <= b):
            return False, {"segment": "bottom", "cut": s}
    return True, None


def _chk_string_fixpoint_unions(params):
    n, a, b = params
    spec = StringSpec(n, a, b)
    els = strings.elements(spec)
    part = strings.partition_string(spec)
    for name, union, vertex in (
        ("nil_low + idem", part.nil_low | part.idem, a),
        ("nil_high + idem", part.nil_high | part.idem, b),
    ):
        if union != els[els.values[:, vertex] == vertex]:
            return False, {"union": name, "vertex": vertex}
        ok, wit = analysis.is_subsemiring(union)
        if not ok:
            return False, _pair(wit)
    return True, None


def _chk_consecutive_union(params):
    n, a, b, c = params
    union = strings.consecutive_union(n, a, b, c)
    if len(union) != 2 * n + 1:
        return False, {"size": len(union)}
    ok, wit = analysis.is_subsemiring(union)
    if not ok:
        return False, _pair(wit)
    lower, upper = StringSpec(n, a, b), StringSpec(n, b, c)
    for k in range(n + 1):
        x = strings.elem(lower, k)
        for ell in range(n + 1):
            y = strings.elem(upper, ell)
            if x + y != y:
                return False, {"left": _fmt(x), "right": _fmt(y)}
    nil = strings.partition_string(lower).nil_high | strings.partition_string(upper).nil_low
    v = analysis.triviality(nil)
    if not v.is_trivial or v.iota != constant(n, b):
        return False, {"note": "joint nil block must collapse onto const b"}
    if v.iota_is_min != (a == 0) or v.iota_is_max != (c == n - 1):
        return False, {"flavor": v.flavor}
    return True, None


def _chk_three_string_union(params):
    n, a, b, c = params
    union = strings.three_string_union(n, a, b, c)
    if len(union) != 3 * n:
        return False, {"size": len(union)}
    add_ok, _ = analysis.is_closed(union, "+")
    if add_ok:
        return False, {"note": "unexpectedly closed under addition"}
    mul_ok, wit = analysis.is_closed(union, "*")
    if not mul_ok:
        return False, _pair(wit)
    ab, ac = StringSpec(n, a, b), StringSpec(n, a, c)
    for k in range(1, n):
        for m in range(k + 1, n):
            total = strings.elem(ab, k) + strings.elem(ac, m)
            want = ChainEndo(n, (a,) * k + (b,) * (m - k) + (c,) * (n - m))
            if total != want or total in union:
                return False, {"k": k, "m": m, "sum": _fmt(total)}
    return True, None


# ---------------------------------------------------------------------------
# triangle checks


def _chk_triangle_order(params):
    n, a, b, c = params
    els = triangle.elements(TriangleSpec(n, a, b, c))
    want = counting.triangle_order(n)
    if len(els) != want or want != comb(n + 2, 2):
        return False, {"formula": want, "enumerated": len(els)}
    if not analysis._strictly_ascending(els):
        return False, {"note": "enumeration must be strictly ascending"}
    return True, None


def _chk_eight_regions(params):
    n, a, b, c = params
    report = triangle.decompose(TriangleSpec(n, a, b, c))
    if not report.disjoint or not report.cover:
        return False, {"note": "regions must partition the triangle"}
    for region, summary in report.regions.items():
        if not summary.closed:
            return False, {"region": region.name, **_pair(summary.witness)}
        if not summary.order_matches:
            return False, {
                "region": region.name,
                "formula": summary.formula_order,
                "enumerated": len(summary.elements),
            }
        if not summary.elements:
            return False, {"region": region.name, "note": "region is empty"}
    return True, None


def _chk_nilpotent_regions(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    regions = triangle.regions(spec)
    els = triangle.elements(spec)
    corners = zip((a, b, c), (Region.NIL_A, Region.NIL_B, Region.NIL_C))
    fibers = {value: regions[region] for value, region in corners}
    for value, members in fibers.items():
        if els[(els.limits == value).all(axis=1)] != members:
            return False, {"value": value, "note": "region misses the fiber"}
    va = analysis.triviality(fibers[a])
    if va.is_trivial != (c == n - 1) or (va.is_trivial and va.iota != constant(n, a)):
        return False, {"region": "low corner", "trivial": va.is_trivial}
    vc = analysis.triviality(fibers[c])
    if vc.is_trivial != (a == 0) or (vc.is_trivial and vc.iota != constant(n, c)):
        return False, {"region": "high corner", "trivial": vc.is_trivial}
    vb = analysis.triviality(fibers[b])
    if not vb.is_trivial or vb.iota != constant(n, b):
        return False, {"region": "middle corner", "trivial": vb.is_trivial}
    if vb.iota_is_min != (a == 0) or vb.iota_is_max != (c == n - 1):
        return False, {"region": "middle corner", "flavor": vb.flavor}
    return True, None


def _chk_b_fixpoint_union(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    regions = triangle.regions(spec)
    els = triangle.elements(spec)
    fix = els[els.values[:, b] == b]
    parts = (Region.NIL_A, Region.NIL_B, Region.L_PAR, Region.R_PAR, Region.RIGHT_IDENTITIES)
    nil_a, nil_b, l_par, r_par, ri = (regions[region] for region in parts)
    if fix != nil_b | l_par | r_par | ri:
        return False, {"note": "fixing the middle vertex must match the four regions"}
    ok, wit = analysis.is_subsemiring(fix)
    if not ok:
        return False, _pair(wit)
    variant = nil_a | l_par | r_par | ri
    if variant == fix or constant(n, a) in fix:
        return False, {"note": "low-corner variant should not match"}
    return True, None


def _chk_interior_sum(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    ab, ac = (strings.elements(s).values for s in (spec.string_ab(), spec.string_ac()))
    # pairs[v]: how many u + w, u in the a-b string and w in the a-c string, have values v
    pairs = Counter(map(tuple, np.maximum(ab[:, None], ac[None]).reshape(-1, n).tolist()))
    bad = (constant(n, a), constant(n, c))
    els = triangle.elements(spec)
    uses_bc = ((els.values == b).any(axis=1) & (els.values == c).any(axis=1)).tolist()
    for e, decomposable in zip(els, uses_bc):
        if decomposable:
            left, right = triangle.interior_decompose(spec, e)
            if left + right != e:
                return False, {"element": _fmt(e)}
            if left in bad or right in bad:
                return False, {"element": _fmt(e), "note": "constant summand"}
            if pairs[e.values] != 1:
                return False, {"element": _fmt(e), "pairs": pairs[e.values]}
        else:
            try:
                triangle.interior_decompose(spec, e)
            except NotDecomposable:
                continue
            return False, {"element": _fmt(e), "note": "should not decompose"}
    return True, None


def _chk_boundary_interior(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    boundary = triangle.boundary(spec)
    inner = triangle.interior(spec)
    if boundary != strings.three_string_union(n, a, b, c):
        return False, {"note": "boundary must be the three strings"}
    if len(boundary) + len(inner) != counting.triangle_order(n):
        return False, {"boundary": len(boundary), "interior": len(inner)}
    ok, _ = analysis.is_closed(boundary, "*")
    if not ok:
        return False, {"note": "boundary must be multiplicatively closed"}
    ok, wit = analysis.is_closed(inner, "+")
    if not ok:
        return False, _pair(wit)
    mul_ok, _ = analysis.is_closed(inner, "*")
    if mul_ok != (n == 3):
        return False, {"note": "interior products escape except at n = 3"}
    witness, square = triangle.interior_square_witness(spec)
    if witness * witness != square:
        return False, {"witness": _fmt(witness)}
    if a >= 1 or b >= 2:
        if witness not in inner or square in inner:
            return False, {"witness": _fmt(witness), "square": _fmt(square)}
    elif witness != square or not witness.is_idempotent():
        return False, {"witness": _fmt(witness), "note": "degenerate case"}
    return True, None


def _chk_interior_idempotents(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    inner = triangle.interior(spec)
    idem = inner[(inner.limits == inner.values).all(axis=1)]
    if idem != triangle.right_identities(spec):
        return False, {"found": sorted(_fmt(e) for e in idem)}
    return True, None


def _chk_right_identity_existence(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    ids = analysis.identities(triangle.elements(spec))
    rid = triangle.right_identities(spec)
    region = triangle.regions(spec)[Region.RIGHT_IDENTITIES]
    if ids.right != rid or rid != region:
        return False, {"right": [_fmt(e) for e in ids.right]}
    moved = (rid.limits != rid.values).any(axis=1)
    if moved.any():
        return False, {"element": _fmt(rid[int(moved.argmax())])}
    if n == 3:
        if tuple(ids.left) != (identity(3),) or tuple(ids.two_sided) != (identity(3),):
            return False, {"left": [_fmt(e) for e in ids.left]}
    elif len(ids.left):
        return False, {"left": [_fmt(e) for e in ids.left]}
    return True, None


def _chk_no_right_similar(params):
    n, a, b, c = params
    pairs = triangle.find_similar_pairs(TriangleSpec(n, a, b, c), "right")
    if pairs:
        x, y = pairs[0]
        return False, {"first": _fmt(x), "second": _fmt(y)}
    return True, None


def _chk_left_similar(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    els = triangle.elements(spec).elements
    types = [triangle.elem_type(spec, e) for e in els]
    both = combinations(range(len(els)), 2)
    expected = tuple((els[i], els[j]) for i, j in both if types[i] == types[j])
    pairs = triangle.find_similar_pairs(spec, "left")
    if pairs != expected:
        return False, {"note": "left similarity must match vertex agreement"}
    witness = triangle.left_similar_witness(spec)
    if n == 3:
        if pairs or witness is not None:
            return False, {"note": "no pairs expected on the smallest chain"}
        return True, None
    if not pairs or witness is None or witness not in pairs:
        return False, {"witness": witness and tuple(map(_fmt, witness))}
    return True, None


def _chk_idempotent_sum_escape(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    escape = triangle.idempotent_sum_counterexample(spec)
    if not (escape.left.is_idempotent() and escape.right.is_idempotent()):
        return False, {"note": "counterexample ingredients must be idempotent"}
    if escape.total.is_idempotent() or escape.square != constant(n, c):
        return False, {"note": "counterexample sum must square to const c"}
    if escape.total + escape.total != escape.total:
        return False, {"note": "sums must stay additively idempotent"}
    els = triangle.elements(spec)
    ok, _ = analysis.is_closed(els[(els.limits == els.values).all(axis=1)], "+")
    if ok:
        return False, {"note": "idempotents unexpectedly add up"}
    return True, None


def _left_zeros(zeros: analysis.Subset, s: analysis.Subset) -> bool:
    """Whether x * y == x for every x in zeros and y in s: each row of s,
    read at the values of x, gives x again."""
    X = zeros.values
    return bool((s.values[:, X] == X).all())


def _chk_it_ideals(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    rep = triangle.idempotent_triangle(spec)
    if len(rep.it) != counting.it_order(n, a, b, c):
        return False, {"order": len(rep.it)}
    if len(rep.rest) != counting.it_rest_order(n, a, b, c):
        return False, {"rest": len(rep.rest)}
    regions = triangle.regions(spec)
    if rep.ri != regions[Region.RIGHT_IDENTITIES]:
        return False, {"note": "identity block mismatch"}
    if rep.corner_left != regions[Region.L_TRI]:
        return False, {"note": "left corner mismatch"}
    if rep.corner_right != regions[Region.R_TRI]:
        return False, {"note": "right corner mismatch"}
    if rep.ri | rep.corner_left | rep.corner_right != rep.it:
        return False, {"note": "corners and identities must partition the block"}
    if len(rep.ri) + len(rep.corner_left) + len(rep.corner_right) != len(rep.it):
        return False, {"note": "corner overlap"}
    for corner in (rep.corner_left, rep.corner_right):
        ok, wit = analysis.is_subsemiring(corner)
        if not ok:
            return False, _pair(wit)
    X, Y = rep.corner_left.values[:, None], rep.corner_right.values[None]
    bad = (X > Y).any(axis=-1) | (X == Y).all(axis=-1)
    if bad.any():
        i, j = map(int, np.unravel_index(bad.argmax(), bad.shape))
        return False, {"left": _fmt(rep.corner_left[i]), "right": _fmt(rep.corner_right[j])}
    ac = strings.elements(spec.string_ac())
    V = ac.values
    if rep.diagonal != ac[(ac.limits == V).all(axis=1) & (V[:, 0] != V[:, -1])]:
        return False, {"note": "diagonal mismatch"}
    for x in rep.diagonal:
        k = x.values.count(a)
        home = rep.corner_right if k <= b else rep.corner_left
        if x not in home:
            return False, {"element": _fmt(x)}
    # after the diagonal check, so that a wrong diagonal is reported as one
    for ok, name in (
        (analysis.is_subsemiring(rep.ri)[0], "ri_closed"),
        (analysis.is_subsemiring(rep.rest)[0], "rest_closed"),
        (analysis.is_ideal(rep.diagonal, rep.it)[0], "diagonal_ideal"),
        (analysis.is_ideal(rep.rest, rep.it)[0], "rest_ideal"),
        (_left_zeros(rep.diagonal, rep.it), "diagonal_left_zero"),
    ):
        if not ok:
            return False, {"verdict": name}
    return True, None


def _chk_ri_order_variant(params):
    n, a, b, c = params
    rid = triangle.right_identities(TriangleSpec(n, a, b, c))
    if len(rid) != counting.ri_order(n, a, b, c):
        return False, {"enumerated": len(rid)}
    if len(rid) == counting.ri_order_variant(n, a, b, c):
        return False, {"note": "variant formula unexpectedly matches"}
    return True, None


def _chk_it_fixed_point_variant(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    els = triangle.elements(spec)
    V = els.values
    fix_ac = els[(V[:, a] == a) & (V[:, c] == c)]
    if fix_ac != triangle.idempotent_triangle(spec).it:
        return False, {"note": "block must fix the two outer vertices"}
    sx = spec.simplex()
    low = simplex.discrete_neighborhood(sx, 0, n - a - 1)
    high = simplex.discrete_neighborhood(sx, 2, c)
    if low[high.find(low.values) >= 0] != fix_ac:
        return False, {"note": "neighborhood intersection mismatch"}
    corners = (
        strings.elem(spec.string_ac(), a + 1),
        strings.elem(spec.string_ac(), c),
        ChainEndo(n, (a,) * (a + 1) + (b,) * (c - a - 1) + (c,) * (n - c)),
    )
    for corner in corners:
        if corner not in fix_ac:
            return False, {"corner": _fmt(corner)}
    fix_ab = els[(V[:, a] == a) & (V[:, b] == b)]
    separator = strings.elem(spec.string_ac(), c)
    if fix_ab == fix_ac or separator in fix_ab:
        return False, {"note": "misread block must differ", "separator": _fmt(separator)}
    return True, None


def _chk_basic_layers(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    plan = (
        (a, range(a + 1, b + 1), (n - c, c - b, None),
         (Region.L_PAR, Region.RIGHT_IDENTITIES, Region.R_TRI)),
        (c, range(n - c, n - b), (None, b - a, a + 1),
         (Region.L_TRI, Region.RIGHT_IDENTITIES, Region.R_PAR)),
    )
    for vertex, ks, sizes, homes in plan:
        layers = triangle.basic_layers(spec, vertex)
        if [bl.k for bl in layers] != list(ks):
            return False, {"vertex": vertex, "ks": [bl.k for bl in layers]}
        for bl in layers:
            if len(bl.elements) != n - bl.k + 1:
                return False, {"vertex": vertex, "k": bl.k}
            if not analysis._strictly_ascending(bl.elements):
                return False, {"vertex": vertex, "k": bl.k, "note": "not ascending"}
            if any(e.values.count(vertex) != bl.k for e in bl.elements):
                return False, {"vertex": vertex, "k": bl.k, "note": "bad multiplicity"}
            left, middle, right = sizes
            if left is None:
                left = n - bl.k - b
            if right is None:
                right = b - bl.k + 1
            if (len(bl.left), len(bl.middle), len(bl.right)) != (left, middle, right):
                return False, {
                    "vertex": vertex,
                    "k": bl.k,
                    "blocks": (len(bl.left), len(bl.middle), len(bl.right)),
                }
            ok, wit = analysis.is_subsemiring(bl.elements)
            if not ok:
                return False, {"vertex": vertex, "k": bl.k, **_pair(wit)}
            for block, home in zip((bl.left, bl.middle, bl.right), homes):
                for e in block:
                    if triangle.region_of(spec, e) is not home:
                        return False, {"element": _fmt(e), "expected": home.name}
    return True, None


def _chk_layer_string_iso(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    for vertex in (a, c):
        for bl in triangle.basic_layers(spec, vertex):
            iso = triangle.layer_string_iso(spec, vertex, bl.k)
            if not iso.holds:
                return False, {"vertex": vertex, "k": bl.k}
            if vertex == a:
                want = StringSpec(n - bl.k, b - bl.k, c - bl.k)
            else:
                want = StringSpec(n - bl.k, a, b)
            if iso.target != want:
                return False, {"vertex": vertex, "k": bl.k, "target": iso.target}
            if iso.image != strings.elements(want):
                return False, {"vertex": vertex, "k": bl.k, "note": "not onto"}
            part = strings.partition_string(want)
            # layer member i maps to image member i: a run's image is its slice
            cut1, cut2 = len(bl.left), len(bl.left) + len(bl.middle)
            runs = (iso.image[:cut1], iso.image[cut1:cut2], iso.image[cut2:])
            if runs != (part.nil_low, part.idem, part.nil_high):
                return False, {"vertex": vertex, "k": bl.k, "note": "block drift"}
    return True, None


def _chk_middle_layer_counterexample(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    layer = simplex.layer(LayerId(spec.simplex(), 1, 2))
    add_ok, _ = analysis.is_closed(layer, "+")
    mul_ok, wit = analysis.is_closed(layer, "*")
    if not add_ok or mul_ok:
        return False, {"add": add_ok, "mul": mul_ok}
    probe = ChainEndo(n, (1, 2, 2, 3))
    if probe not in layer or (probe * probe).values.count(b) == 2:
        return False, {"probe": _fmt(probe)}
    return True, None


def _chk_triangle_add_iso(params):
    n, one, two = params
    els = triangle.elements(TriangleSpec(n, *one))
    targets = triangle.elements(TriangleSpec(n, *two))
    # both gather one (n, 3) pattern: matching by multiplicity vector is the identity
    p = np.arange(len(els))
    hit = analysis._hom_mismatch(els, targets, p, analysis._sums)
    if hit is not None:
        x, y = hit
        return False, {"x": _fmt(els.elements[x]), "y": _fmt(els.elements[y])}
    if analysis._hom_mismatch(els, targets, p, analysis._products) is not None:
        return True, None
    return False, {"note": "unexpected multiplicative isomorphism"}


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Claim:
    """One checkable statement over an explicit parameter family."""

    id: str
    statement: str
    params: Callable[[int], Iterator[tuple]]
    check: Callable[[tuple], tuple[bool, object]]
    max_n: int | None = None


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    n_max: int
    checked: int
    holds: bool
    failure_params: tuple | None
    witness: object
    elapsed: float


_CLAIMS = (
    Claim(
        "semiring-laws",
        "Pointwise join and composition make the monotone self-maps of a "
        "finite chain an additively idempotent semiring.",
        counting._chain_family(1),
        _chk_semiring_laws,
        max_n=4,
    ),
    Claim(
        "mul-noncommutative",
        "Composition is not commutative on any chain with two points or more.",
        counting._chain_family(2),
        _chk_mul_noncommutative,
    ),
    Claim(
        "power-stabilization",
        "The power sequence of any monotone self-map is constant from "
        "exponent n - 1 on, and the stable value is its unique idempotent power.",
        counting._chain_family(1),
        _chk_power_stabilization,
    ),
    Claim(
        "catalan-count",
        "The maps whose powers collapse onto the constant a number "
        "catalan(a) * catalan(n - 1 - a).",
        counting._chain_family(2),
        _chk_catalan_count,
    ),
    Claim(
        "idempotent-count",
        "Idempotents with a prescribed fixed-point set are counted by the "
        "product of the gaps between consecutive fixed points.",
        counting._chain_family(3),
        _chk_idempotent_count,
    ),
    Claim(
        "simplex-order",
        "The simplex on k vertices has binom(n + k - 1, k - 1) members, "
        "listed in strictly ascending order.",
        _simplex_family,
        _chk_simplex_order,
    ),
    Claim(
        "simplex-closed",
        "Every simplex is a subsemiring: restricting values to a fixed "
        "vertex set survives both operations.",
        _simplex_family,
        _closed(lambda n, verts: simplex.enumerate_simplex(SimplexSpec(n, verts))),
        max_n=7,
    ),
    Claim(
        "simplex-noniso",
        "No two simplices on the same chain with different vertex sets are "
        "isomorphic as semirings.",
        # one-vertex simplices are singletons, all isomorphic; start at two
        _vertex_pair_family(lambda n: range(2, n + 1)),
        _chk_simplex_noniso,
        max_n=4,
    ),
    Claim(
        "face-complement",
        "Dropping the face that omits an endpoint vertex leaves a "
        "subsemiring; dropping any inner face does not.",
        counting._chain_family(3),
        _chk_face_complement,
        max_n=6,
    ),
    Claim(
        "dn1-semiring",
        "The radius-1 neighborhood of any vertex of any simplex is a "
        "subsemiring.",
        _simplex_vertex_family,
        _closed(lambda n, verts, m: simplex.discrete_neighborhood(SimplexSpec(n, verts), m, 1)),
    ),
    Claim(
        "dn1-internal",
        "Inside an internal simplex the radius-1 neighborhood is trivial: "
        "all products collapse onto the vertex constant, every member is "
        "nilpotent onto it, and the flavor follows the vertex position.",
        _internal_vertex_family,
        _chk_dn1_internal,
    ),
    Claim(
        "dn2-internal-semiring",
        "Inside an internal simplex the radius-2 neighborhood of every "
        "vertex is a subsemiring.",
        _internal_vertex_family,
        _closed(lambda n, verts, m: simplex.discrete_neighborhood(SimplexSpec(n, verts), m, 2)),
    ),
    Claim(
        "dn-fixpoint-equality",
        "The neighborhood of the least vertex at radius n - a0 - 1 is "
        "exactly the members fixing a0; dually the biggest vertex at its "
        "own radius collects the members fixing it.",
        _simplex_family,
        _chk_dn_fixpoint_equality,
    ),
    Claim(
        "top-layer-semiring",
        "The layer with a0 + 1 copies of the least vertex a0 is a "
        "subsemiring without nilpotents whose idempotent powers stay inside.",
        _layered_simplex_family,
        _chk_top_layer,
    ),
    Claim(
        "nilpotency-criterion",
        "A simplex member collapses onto the least vertex constant exactly "
        "when it fixes a0, stays constant up to the second vertex, and "
        "drops below the diagonal beyond it.",
        _simplex_family,
        _chk_nilpotency_criterion,
    ),
    Claim(
        "min-radius-middle",
        "For an internal simplex with first vertices 1, 2 and a third one "
        "above, the neighborhoods of vertex 2 are closed exactly at radii "
        "1, 2 and n.",
        _internal_middle_family,
        _chk_min_radius_middle,
    ),
    Claim(
        "string-partition",
        "A string splits into three consecutive runs: squares onto const a, "
        "idempotents, squares onto const b, of sizes n - b, b - a, a + 1.",
        counting._string_family(3),
        _chk_string_partition,
    ),
    Claim(
        "string-mul-cases",
        "The product of two string members follows the three-way index "
        "rule and never needs the composition itself.",
        counting._chain_family(3),
        _chk_string_mul_cases,
    ),
    Claim(
        "string-right-identities",
        "The idempotent run of a string consists exactly of its right "
        "identities; no left identity exists.",
        counting._string_family(3),
        _chk_string_right_identities,
    ),
    Claim(
        "string-trivial-parts",
        "Both nilpotent runs of a string are trivial semirings collapsing "
        "onto their constant, one from below and one from above.",
        counting._string_family(3),
        _chk_string_trivial_parts,
    ),
    Claim(
        "string-families",
        "A top segment of a string is a subsemiring exactly when it stops "
        "above index a; a bottom segment exactly when it stops at or below "
        "index b.",
        counting._string_family(3),
        _chk_string_families,
    ),
    Claim(
        "string-fixpoint-unions",
        "Members fixing a form the union of the low nilpotent run and the "
        "idempotents; members fixing b the union of the high run and the "
        "idempotents; both are subsemirings.",
        counting._string_family(3),
        _chk_string_fixpoint_unions,
    ),
    Claim(
        "string-noniso",
        "No two strings on the same chain with different vertex pairs are "
        "isomorphic as semirings.",
        _vertex_pair_family(lambda n: (2,)),
        _chk_simplex_noniso,
    ),
    Claim(
        "consecutive-union",
        "Two strings sharing their middle vertex unite into a subsemiring "
        "of order 2n + 1 where cross sums land in the upper string and the "
        "joint nilpotent block is trivial onto const b.",
        counting._triangle_domain,
        _chk_consecutive_union,
    ),
    Claim(
        "three-string-union",
        "The union of all three strings on a vertex triple multiplies "
        "closed but fails addition: mixed sums use all three values.",
        counting._triangle_domain,
        _chk_three_string_union,
    ),
    Claim(
        "triangle-order",
        "A triangle has binom(n + 2, 2) members regardless of its vertices.",
        counting._triangle_domain,
        _chk_triangle_order,
    ),
    Claim(
        "eight-region-partition",
        "The vertex-image fibers cut a triangle into eight nonempty "
        "subsemirings whose orders match their closed formulas.",
        counting._triangle_domain,
        _chk_eight_regions,
    ),
    Claim(
        "nilpotent-regions",
        "The three corner regions are exactly the nilpotency fibers of the "
        "three vertices; the middle one is always trivial, the outer two "
        "exactly when their far vertex hits the chain end.",
        counting._triangle_domain,
        _chk_nilpotent_regions,
    ),
    Claim(
        "b-fixpoint-union",
        "The members fixing the middle vertex are the middle corner, both "
        "parallelograms and the right identities; swapping in the low "
        "corner instead never works.",
        counting._triangle_domain,
        _chk_b_fixpoint_union,
    ),
    Claim(
        "interior-sum",
        "Every member using both upper values splits uniquely as a sum of "
        "one a-b string member and one a-c string member, never a constant.",
        counting._triangle_domain,
        _chk_interior_sum,
    ),
    Claim(
        "boundary-interior",
        "The boundary multiplies closed but does not add up; the interior "
        "adds up but leaks under multiplication beyond n = 3, with a "
        "pinned square witness.",
        counting._triangle_domain,
        _chk_boundary_interior,
    ),
    Claim(
        "interior-idempotents",
        "The idempotent interior members are exactly the right identities.",
        counting._triangle_domain,
        _chk_interior_idempotents,
    ),
    Claim(
        "right-identity-existence",
        "Right identities of a triangle exist and are the members fixing "
        "all three vertices; left identities exist only on the smallest "
        "chain, where the identity map is two-sided.",
        counting._triangle_domain,
        _chk_right_identity_existence,
    ),
    Claim(
        "no-right-similar",
        "No two distinct triangle members act identically as left factors; "
        "right identities separate them.",
        counting._triangle_domain,
        _chk_no_right_similar,
    ),
    Claim(
        "left-similar-exists",
        "Two members are indistinguishable as right factors exactly when "
        "they agree on the three vertices; beyond n = 3 such pairs always "
        "exist and one can be written down directly.",
        counting._triangle_domain,
        _chk_left_similar,
    ),
    Claim(
        "idempotent-sum-escape",
        "Two boundary idempotents can sum to a member whose square is the "
        "top constant, so the idempotents of a triangle never add up.",
        counting._triangle_domain,
        _chk_idempotent_sum_escape,
    ),
    Claim(
        "it-ideals",
        "The members fixing both outer vertices form a block of order "
        "(c - a)(c - a + 1) / 2 cut into two closed corners and the right "
        "identities, with the a-c diagonal idempotents acting as left "
        "zeroes and the complement of the identities as an ideal.",
        counting._triangle_domain,
        _chk_it_ideals,
    ),
    Claim(
        "ri-order-variant",
        "The right identities number (b - a)(c - b); the look-alike "
        "formula (b - a)(c - a) never agrees.",
        counting._triangle_domain,
        _chk_ri_order_variant,
    ),
    Claim(
        "it-fixed-point-variant",
        "The outer-fixing block equals a neighborhood intersection and "
        "holds its three corner members; reading its fixed pair as a and b "
        "instead of a and c yields a different set.",
        counting._triangle_domain,
        _chk_it_fixed_point_variant,
    ),
    Claim(
        "basic-layers",
        "Multiplicity layers at the two outer corners are closed and cut "
        "into three runs landing in one parallelogram, the right "
        "identities, and one corner triangle.",
        counting._triangle_domain,
        _chk_basic_layers,
    ),
    Claim(
        "layer-string-iso",
        "Dropping the corner run maps each basic layer isomorphically onto "
        "a string over a shorter chain, run onto run.",
        counting._triangle_domain,
        _chk_layer_string_iso,
    ),
    Claim(
        "middle-layer-counterexample",
        "Layers at the middle vertex need not multiply closed: the "
        "two-copy layer of the inner triangle on four points leaks.",
        _singleton_family(4, (4, 1, 2, 3)),
        _chk_middle_layer_counterexample,
    ),
    Claim(
        "triangle-add-iso",
        "Matching members by multiplicity vectors is an additive "
        "isomorphism between any two triangles on the same chain, but "
        "never multiplicative for different vertex triples.",
        _vertex_pair_family(lambda n: (3,)),
        _chk_triangle_add_iso,
        max_n=7,
    ),
    Claim(
        "triangle-noniso",
        "No two triangles on the same chain with different vertex triples "
        "are isomorphic as semirings.",
        _vertex_pair_family(lambda n: (3,)),
        _chk_simplex_noniso,
        max_n=5,
    ),
)

REGISTRY: dict[str, Claim] = {claim.id: claim for claim in _CLAIMS}


def run_claim(claim_id: str, n_max: int) -> ClaimResult:
    """Sweep one claim up to the bound; stop at the first failure."""
    counting._require_bounds(n_max=n_max)
    try:
        claim = REGISTRY[claim_id]
    except KeyError:
        raise UnknownClaim(claim_id) from None

    def check(params):
        # a crash while checking is a failed verification, not a crash of
        # the whole sweep
        try:
            return claim.check(params)
        except (analysis.ChainTooLong, analysis.SetTooLarge):
            raise  # a limit of the checker says nothing about the claim
        except Exception as err:
            return False, {"error": repr(err)}

    limit = n_max if claim.max_n is None else min(n_max, claim.max_n)
    start = perf_counter()
    with counting._memo_scope():
        checked, params, witness = counting._first_failure(claim.params(limit), check)
    elapsed = perf_counter() - start
    return ClaimResult(claim_id, n_max, checked, params is None, params, witness, elapsed)


def run_all(n_max: int, jobs: int = 1, ids: list[str] | None = None) -> tuple[ClaimResult, ...]:
    """Run claims in the requested order (registry order when ids is None);
    fan out over min(jobs, number of claims) processes when that is over one."""
    counting._require_bounds(n_max=n_max, jobs=jobs)
    order = list(REGISTRY) if ids is None else list(ids)
    for claim_id in order:
        if claim_id not in REGISTRY:
            raise UnknownClaim(claim_id)
    # the pool forks all its workers at the first submit
    workers = min(jobs, len(order))
    if workers <= 1:
        with counting._memo_scope():  # claims that read one census share it
            return tuple(run_claim(claim_id, n_max) for claim_id in order)
    from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(pool.map(run_claim, order, [n_max] * len(order)))
