#!/usr/bin/env python3
"""Write perfbench/reference.json: one verdict digest per workload item.

Run from the root of a checkout, on a commit whose verdicts are trusted:

    python3 perfbench/make_reference.py

Each workload runs once in canonical order.  Before anything is written the
verdicts are cross-checked against the answers the paper and the README fix:
every registered claim holds, the wrong-variant traps included; the formula
audit is ok with ``ri_order_variant`` kept expected-unequal; every closure
set is closed.
"""

import json
import sys

from run import REFERENCE, load_program


def cross_check(name, raw):
    from chainendo import claims, counting

    errors = [key for key, r in raw.items() if isinstance(r, BaseException)]
    if errors:
        return [f"{name}: raised on {errors}"]
    problems = []
    if name == "sweep":
        if sorted(raw) != sorted(claims.REGISTRY):
            problems.append("sweep: results do not cover the registry")
        problems += [f"sweep: {cid} does not hold" for cid, r in raw.items() if not r.holds]
        for trap in ("ri-order-variant", "it-fixed-point-variant"):
            if trap not in raw:
                problems.append(f"sweep: trap claim {trap} missing")
    elif name == "audit":
        problems += [f"audit: {fid} not ok" for fid, r in raw.items() if not r.ok]
        if counting.FORMULAS["ri_order_variant"].expect_equal:
            problems.append("audit: ri_order_variant is no longer expected-unequal")
    elif name == "closure":
        problems += [f"closure: {key} not closed" for key, (_, ok, _) in raw.items() if not ok]
    return problems


def main() -> int:
    load_program()
    import workloads

    reference = {}
    problems = []
    for workload in workloads.WORKLOADS.values():
        raw = workload.execute(workload.prepare(None))
        problems += cross_check(workload.name, raw)
        verdicts = workload.verdicts(raw)
        reference[workload.name] = {
            "params": workload.params,
            "items": {key: workloads.digest(verdicts[key]) for key in sorted(verdicts)},
        }
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
