"""The eight-region anatomy of a triangle, with its standard witnesses.

Run with: python3 demos/04_triangle_regions.py
"""

from chainendo import triangle
from chainendo.core import format_compact
from chainendo.triangle import TriangleSpec


def main():
    spec = TriangleSpec(6, 1, 3, 4)
    print(f"Triangle on vertices (1, 3, 4) over a chain of {spec.n}:")
    report = triangle.decompose(spec)
    for summary in report.regions.values():
        name = summary.region.name.lower()
        print(
            f"  {name:<18} {len(summary.elements):2d} members "
            f"(formula {summary.formula_order}), closed={summary.closed}"
        )
    print(
        f"  disjoint={report.disjoint} cover={report.cover} "
        f"orders_match={report.orders_match}"
    )

    print("\nEvery interior member splits uniquely into two string members:")
    for alpha in triangle.interior(spec)[:4]:
        left, right = triangle.interior_decompose(spec, alpha)
        print(
            f"  {format_compact(alpha):<12} = {format_compact(left):<10} + "
            f"{format_compact(right)}"
        )
    print("  ... and so on for the whole interior.")

    witness, square = triangle.interior_square_witness(spec)
    print(
        f"\nInterior members can square onto the boundary: "
        f"({format_compact(witness)})^2 = {format_compact(square)}"
    )

    first, second = triangle.left_similar_witness(spec)
    print(
        f"\n{format_compact(first)} and {format_compact(second)} are "
        "left-similar: every x * first equals x * second,"
    )
    print("yet neither is a right identity.")

    escape = triangle.idempotent_sum_counterexample(spec)
    print(
        f"\nIdempotents do not add up: {format_compact(escape.left)} + "
        f"{format_compact(escape.right)} = {format_compact(escape.total)},"
    )
    print(
        f"whose square is {format_compact(escape.square)}; "
        "the sum of two idempotents need not be one."
    )

    it = triangle.idempotent_triangle(spec)
    print(
        f"\nMembers fixing both outer vertices: {len(it.it)} "
        f"(= {len(it.ri)} right identities + {len(it.rest)} others);"
    )
    left_zero = all(x * alpha == x for x in it.diagonal for alpha in it.it)
    print(f"  the a-c string's neutral block acts as left zeroes: {left_zero}")


if __name__ == "__main__":
    main()
