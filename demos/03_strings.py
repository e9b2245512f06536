"""Two-vertex simplices are chains with a three-block structure.

Run with: python3 demos/03_strings.py
"""

from chainendo import analysis, strings
from chainendo.core import format_compact
from chainendo.strings import StringSpec


def labels(block):
    return ", ".join(format_compact(e) for e in block) or "(empty)"


def main():
    spec = StringSpec(5, 1, 3)
    print(f"String on the vertices {{1, 3}} over a chain of {spec.n}:")
    part = strings.partition_string(spec)
    print(f"  collapse down : {labels(part.nil_low)}   (squares = const 1)")
    print(f"  right ids     : {labels(part.idem)}")
    print(f"  collapse up   : {labels(part.nil_high)}   (squares = const 3)")

    print("\nProducts depend only on which block the right factor is in:")
    for ell, regime in ((5, "right factor low"), (3, "right factor neutral"), (1, "right factor high")):
        product = strings.string_mul_cases(spec, 2, spec, ell)
        print(
            f"  elem(2) * elem({ell}) = {format_compact(product):<8} ({regime})"
        )

    print("\nTop and bottom segments, with their closure thresholds:")
    for r in range(1, spec.n + 1):
        ok, _ = analysis.is_subsemiring(strings.family_top(spec, r))
        print(f"  top segment from index {r}: subsemiring={ok}")
    for s in range(spec.n):
        ok, _ = analysis.is_subsemiring(strings.family_bottom(spec, s))
        print(f"  bottom segment up to index {s}: subsemiring={ok}")

    print("\nTwo strings sharing one vertex glue into a longer chain:")
    union = strings.consecutive_union(5, 0, 2, 4)
    ok, _ = analysis.is_subsemiring(union)
    print(f"  union of {{0,2}} and {{2,4}}: {len(union)} members, closed={ok}")

    print("\nAll three strings on {0, 2, 4} together stop being closed:")
    tri_union = strings.three_string_union(5, 0, 2, 4)
    ok, witness = analysis.is_closed(tri_union, "+")
    print(f"  additive closure: {ok}")
    print(
        f"  first escape: {format_compact(witness.left)} + "
        f"{format_compact(witness.right)} = {format_compact(witness.result)}"
    )


if __name__ == "__main__":
    main()
