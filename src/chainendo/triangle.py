"""Triangles: the three-vertex simplices.

A triangle on vertices a < b < c holds the C(n + 2, 2) maps with image
inside {a, b, c}.  Its elements are the multiplicity vectors (k, ell, m)
with k + ell + m = n, drawn as a triangular diagram with the three constant
maps at the corners.  What a member does to the three vertex positions,
the type triple (alpha(a), alpha(b), alpha(c)), determines its whole
multiplicative life: the eight fibers of the type-triple map are exactly
the regions of the diagram (three nilpotent blocks, two parallelograms,
two corner triangles, and the right identities), and all are subsemirings
partitioning the triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from . import analysis, counting, simplex, strings
from .core import ChainEndo, OutOfRange, constant
from .simplex import SimplexSpec, enumerate_simplex


class NotDecomposable(ValueError):
    """The element has no sum decomposition over the two boundary strings."""


class NotBasic(ValueError):
    """Layers at the middle vertex are not closed in general."""


@dataclass(frozen=True)
class TriangleSpec:
    """A chain size n >= 3 and three vertices a < b < c."""

    n: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.n < 3:
            raise OutOfRange(f"triangles need n >= 3, got {self.n}")
        if not 0 <= self.a < self.b < self.c <= self.n - 1:
            raise OutOfRange(
                f"need 0 <= a < b < c <= {self.n - 1}, "
                f"got ({self.a}, {self.b}, {self.c})"
            )

    def simplex(self) -> SimplexSpec:
        return SimplexSpec(self.n, (self.a, self.b, self.c))

    def string_ab(self) -> strings.StringSpec:
        return strings.StringSpec(self.n, self.a, self.b)

    def string_ac(self) -> strings.StringSpec:
        return strings.StringSpec(self.n, self.a, self.c)

    def string_bc(self) -> strings.StringSpec:
        return strings.StringSpec(self.n, self.b, self.c)


class TriElem(NamedTuple):
    """Multiplicities of the three vertex values, k + ell + m = n."""

    k: int
    ell: int
    m: int


def to_endo(spec: TriangleSpec, t: TriElem) -> ChainEndo:
    if min(t) < 0 or t.k + t.ell + t.m != spec.n:
        raise OutOfRange(f"multiplicities {t} do not fill a chain of {spec.n}")
    return ChainEndo._wrap(
        spec.n, (spec.a,) * t.k + (spec.b,) * t.ell + (spec.c,) * t.m
    )


def from_endo(spec: TriangleSpec, endo: ChainEndo) -> TriElem:
    if endo.n != spec.n or not set(endo.image()) <= {spec.a, spec.b, spec.c}:
        raise ValueError(f"{endo} is not in the triangle {spec}")
    return TriElem(
        endo.values.count(spec.a),
        endo.values.count(spec.b),
        endo.values.count(spec.c),
    )


def elem(spec: TriangleSpec, k: int, ell: int) -> ChainEndo:
    """Shorthand for the member with k copies of a and ell copies of b."""
    return to_endo(spec, TriElem(k, ell, spec.n - k - ell))


def elements(spec: TriangleSpec) -> tuple[ChainEndo, ...]:
    return enumerate_simplex(spec.simplex())


def interior(spec: TriangleSpec) -> tuple[ChainEndo, ...]:
    """Members using all three values: k, ell, m >= 1."""
    return simplex.interior(spec.simplex())


def boundary(spec: TriangleSpec) -> tuple[ChainEndo, ...]:
    """The three strings glued at the corner constants."""
    return simplex.boundary(spec.simplex())


class TypeTriple(NamedTuple):
    """Values at the three vertex positions: (alpha(a), alpha(b), alpha(c))."""

    at_a: int
    at_b: int
    at_c: int


def elem_type(spec: TriangleSpec, alpha: ChainEndo) -> TypeTriple:
    if alpha.n != spec.n:
        raise ValueError(f"{alpha} is not on a chain of {spec.n}")
    return TypeTriple(
        alpha.values[spec.a], alpha.values[spec.b], alpha.values[spec.c]
    )


class Region(Enum):
    """The eight type-triple fibers; values are the diagram letter codes."""

    NIL_A = "A"
    NIL_B = "B"
    NIL_C = "C"
    L_PAR = "p"
    R_PAR = "q"
    L_TRI = "l"
    R_TRI = "r"
    RIGHT_IDENTITIES = "E"

    @property
    def json_key(self) -> str:
        return self.name.lower()


def region_types(spec: TriangleSpec) -> Mapping[TypeTriple, Region]:
    """Which type triples land in which region; total on monotone triples."""
    a, b, c = spec.a, spec.b, spec.c
    return {
        TypeTriple(a, a, a): Region.NIL_A,
        TypeTriple(a, a, b): Region.NIL_A,
        TypeTriple(b, b, b): Region.NIL_B,
        TypeTriple(c, c, c): Region.NIL_C,
        TypeTriple(b, c, c): Region.NIL_C,
        TypeTriple(a, b, b): Region.L_PAR,
        TypeTriple(b, b, c): Region.R_PAR,
        TypeTriple(a, a, c): Region.L_TRI,
        TypeTriple(a, c, c): Region.R_TRI,
        TypeTriple(a, b, c): Region.RIGHT_IDENTITIES,
    }


def region_of(spec: TriangleSpec, alpha: ChainEndo) -> Region:
    """Region membership in O(1) by the type triple."""
    return region_types(spec)[elem_type(spec, alpha)]


_REGION_FORMULAS = {
    Region.NIL_A: counting.nil_a_order,
    Region.NIL_B: counting.nil_b_order,
    Region.NIL_C: counting.nil_c_order,
    Region.L_PAR: counting.l_par_order,
    Region.R_PAR: counting.r_par_order,
    Region.L_TRI: counting.l_tri_order,
    Region.R_TRI: counting.r_tri_order,
    Region.RIGHT_IDENTITIES: counting.ri_order,
}


@dataclass(frozen=True)
class RegionSummary:
    region: Region
    elements: tuple[ChainEndo, ...]
    closed: bool
    witness: analysis.ClosureWitness | None
    formula_order: int

    @property
    def order_matches(self) -> bool:
        return len(self.elements) == self.formula_order


@dataclass(frozen=True)
class RegionReport:
    """The eight-region decomposition with its verification flags."""

    spec: TriangleSpec
    regions: Mapping[Region, RegionSummary]
    disjoint: bool
    cover: bool

    @property
    def all_closed(self) -> bool:
        return all(s.closed for s in self.regions.values())

    @property
    def orders_match(self) -> bool:
        return all(s.order_matches for s in self.regions.values())

    @property
    def ok(self) -> bool:
        return self.disjoint and self.cover and self.all_closed and (
            self.orders_match
        )


def decompose(spec: TriangleSpec) -> RegionReport:
    """Assign every member to its region and verify the partition.

    Assignment is by type triple; closure of each region, disjointness,
    covering, and the closed-form orders are all checked here and reported,
    never assumed.
    """
    table = region_types(spec)
    members = elements(spec)
    buckets: dict[Region, list[ChainEndo]] = {region: [] for region in Region}
    for e in members:
        buckets[table[elem_type(spec, e)]].append(e)
    summaries = {}
    args = (spec.n, spec.a, spec.b, spec.c)
    for region in Region:
        els = tuple(buckets[region])
        closed, witness = analysis.is_subsemiring(els)
        summaries[region] = RegionSummary(
            region, els, closed, witness, _REGION_FORMULAS[region](*args)
        )
    sets = [set(s.elements) for s in summaries.values()]
    union = set().union(*sets)
    disjoint = sum(len(s) for s in sets) == len(union)
    cover = union == set(members)
    return RegionReport(spec, summaries, disjoint, cover)


def right_identities(spec: TriangleSpec) -> tuple[ChainEndo, ...]:
    """Members fixing all three vertices; the (b-a)(c-b) neutral block."""
    return tuple(
        e
        for e in elements(spec)
        if e.values[spec.a] == spec.a
        and e.values[spec.b] == spec.b
        and e.values[spec.c] == spec.c
    )


def interior_decompose(
    spec: TriangleSpec, alpha: ChainEndo
) -> tuple[ChainEndo, ChainEndo]:
    """Write alpha as (element of the a-b string) + (element of the a-c string).

    Defined exactly when alpha uses both b and c (the triangle interior plus
    the interior of the b-c string).  The summands are a_k b_(n-k) and
    a_(n-j) c_j for the multiplicities k, j of alpha; the decomposition is
    unique and never uses the corner constants const a, const c.
    """
    t = from_endo(spec, alpha)
    if t.ell < 1 or t.m < 1:
        raise NotDecomposable(
            f"{alpha} does not use both {spec.b} and {spec.c}"
        )
    left = strings.elem(spec.string_ab(), t.k)
    right = strings.elem(spec.string_ac(), spec.n - t.m)
    return left, right


def interior_square_witness(
    spec: TriangleSpec,
) -> tuple[ChainEndo, ChainEndo]:
    """An interior-flavoured element and its square on the boundary.

    For a > 0 the element a b_b c_(n-b-1) squares to b_(b+1) c_(n-b-1); for
    a = 0 the element 0 b_(b-1) c_(n-b) squares to 0 c_(n-1).  The witness
    is a genuine interior member except when a = 0, b = 1, where the
    formula degenerates to a boundary idempotent.
    """
    if spec.a > 0:
        witness = elem(spec, 1, spec.b)
        expected = elem(spec, 0, spec.b + 1)
    else:
        witness = elem(spec, 1, spec.b - 1)
        expected = strings.elem(spec.string_ac(), 1)
    return witness, expected


@dataclass(frozen=True)
class BasicLayer:
    """One closed layer at the a or c corner, split into three runs.

    elements is the whole layer in ascending order; left, middle, right cut
    it into the three consecutive blocks.  The middle block consists of
    idempotents that are right identities of the whole triangle.  At the a
    corner the blocks sit in the left parallelogram, the identity block,
    and the right corner triangle; at the c corner in the left corner
    triangle, the identity block, and the right parallelogram.
    """

    spec: TriangleSpec
    vertex: int
    k: int
    elements: tuple[ChainEndo, ...]
    left: tuple[ChainEndo, ...]
    middle: tuple[ChainEndo, ...]
    right: tuple[ChainEndo, ...]


def basic_layer(spec: TriangleSpec, vertex: int, k: int) -> BasicLayer:
    """The layer with k copies of the given corner value."""
    n = spec.n
    if vertex == spec.a:
        if not spec.a + 1 <= k <= spec.b:
            raise OutOfRange(
                f"a-corner layers have {spec.a + 1} <= k <= {spec.b}"
            )
        # ascending in the count i of copies of c
        layer = tuple(elem(spec, k, n - k - i) for i in range(n - k + 1))
        cut1 = n - spec.c  # i < cut1: left block
        cut2 = n - spec.b  # i >= cut2: right block
    elif vertex == spec.c:
        if not n - spec.c <= k <= n - spec.b - 1:
            raise OutOfRange(
                f"c-corner layers have {n - spec.c} <= k <= {n - spec.b - 1}"
            )
        # ascending means the count i of copies of a descending
        layer = tuple(
            elem(spec, i, n - k - i) for i in range(n - k, -1, -1)
        )
        cut1 = n - k - spec.b  # first n-k-b elements: left block
        cut2 = n - k - spec.a  # beyond: the a+1 right-block elements
    else:
        raise NotBasic(
            f"vertex must be {spec.a} or {spec.c}; layers at {vertex} are "
            "not closed in general"
        )
    return BasicLayer(
        spec,
        vertex,
        k,
        layer,
        layer[:cut1],
        layer[cut1:cut2],
        layer[cut2:],
    )


def basic_layers(spec: TriangleSpec, vertex: int) -> tuple[BasicLayer, ...]:
    """All closed layers at one of the two outer corners."""
    if vertex == spec.a:
        ks = range(spec.a + 1, spec.b + 1)
    elif vertex == spec.c:
        ks = range(spec.n - spec.c, spec.n - spec.b)
    else:
        raise NotBasic(
            f"vertex must be {spec.a} or {spec.c}; layers at {vertex} are "
            "not closed in general"
        )
    return tuple(basic_layer(spec, vertex, k) for k in ks)


@dataclass(frozen=True)
class LayerStringIso:
    """The explicit isomorphism from a basic layer onto a shorter string."""

    layer: BasicLayer
    target: strings.StringSpec
    pairs: tuple[tuple[ChainEndo, ChainEndo], ...]
    holds: bool


def layer_string_iso(
    spec: TriangleSpec, vertex: int, k: int
) -> LayerStringIso:
    """Map a basic layer onto its companion string and verify both laws.

    A layer with k copies of a maps onto the string on {b - k, c - k} over
    the chain of n - k by dropping the a-run and shifting; a layer with k
    copies of c maps onto the string on {a, b} over n - k by dropping the
    c-run.  Both are order bijections and semiring isomorphisms.
    """
    layer = basic_layer(spec, vertex, k)
    n = spec.n
    if vertex == spec.a:
        target = strings.StringSpec(n - k, spec.b - k, spec.c - k)

        def image(e: ChainEndo) -> ChainEndo:
            i = e.values.count(spec.c)
            return strings.elem(target, n - k - i)

    else:
        target = strings.StringSpec(n - k, spec.a, spec.b)

        def image(e: ChainEndo) -> ChainEndo:
            return strings.elem(target, e.values.count(spec.a))

    pairs = tuple((e, image(e)) for e in layer.elements)
    phi = dict(pairs)
    src, dst = analysis.Subset.of(phi), analysis.Subset.of(phi.values())
    position = {e: t for t, e in enumerate(dst)}
    p = [position[phi[e]] for e in src]  # phi as an index map
    holds = all(
        analysis._hom_mismatch(src, dst, p, op) is None
        for op in (analysis._sums, analysis._products)
    )
    return LayerStringIso(layer, target, pairs, holds)


@dataclass(frozen=True)
class ITReport:
    """The members fixing a and c, with their inner structure.

    it is the whole block, of order (c - a)(c - a + 1) / 2; ri the right
    identities; rest = it minus ri; corner_left / corner_right the two
    corner triangles (fibers of the types (a, a, c) and (a, c, c)), whose
    union with ri partitions it; diagonal the idempotents of the a-c
    string, which sit inside the two corner triangles and act as left
    zeroes of the whole block.
    """

    spec: TriangleSpec
    it: tuple[ChainEndo, ...]
    ri: tuple[ChainEndo, ...]
    rest: tuple[ChainEndo, ...]
    corner_left: tuple[ChainEndo, ...]
    corner_right: tuple[ChainEndo, ...]
    diagonal: tuple[ChainEndo, ...]
    ri_closed: bool
    rest_closed: bool
    diagonal_ideal: bool
    rest_ideal: bool
    diagonal_left_zero: bool


def idempotent_triangle(spec: TriangleSpec) -> ITReport:
    """Collect and verify the block of members fixing both a and c."""
    members = tuple(
        e
        for e in elements(spec)
        if e.values[spec.a] == spec.a and e.values[spec.c] == spec.c
    )
    ri = right_identities(spec)
    ri_set = set(ri)
    rest = tuple(e for e in members if e not in ri_set)
    table = region_types(spec)
    corner_left = tuple(
        e for e in members if table[elem_type(spec, e)] is Region.L_TRI
    )
    corner_right = tuple(
        e for e in members if table[elem_type(spec, e)] is Region.R_TRI
    )
    part = strings.partition_string(spec.string_ac())
    diagonal = tuple(sorted(part.idem))
    ri_closed, _ = analysis.is_subsemiring(ri)
    rest_closed, _ = analysis.is_subsemiring(rest)
    diagonal_ideal, _ = analysis.is_ideal(diagonal, members)
    rest_ideal, _ = analysis.is_ideal(rest, members)
    diagonal_left_zero = all(
        x * alpha == x for x in diagonal for alpha in members
    )
    return ITReport(
        spec,
        members,
        ri,
        rest,
        corner_left,
        corner_right,
        diagonal,
        ri_closed,
        rest_closed,
        diagonal_ideal,
        rest_ideal,
        diagonal_left_zero,
    )


def find_similar_pairs(
    spec: TriangleSpec, side: str
) -> tuple[tuple[ChainEndo, ChainEndo], ...]:
    """All one-sided indistinguishable pairs of the whole triangle."""
    return analysis.similar_pairs(elements(spec), side)


def left_similar_witness(
    spec: TriangleSpec,
) -> tuple[ChainEndo, ChainEndo] | None:
    """A constructed left-similar pair of non-identities; None for n = 3.

    Two members are left-similar exactly when they agree on the three
    vertex positions, so each case below just exhibits two distinct maps
    with the same type triple.
    """
    n, a, b, c = spec.n, spec.a, spec.b, spec.c
    if n == 3:
        return None
    if a > 0:
        pair = elem(spec, 1, 0), constant(n, c)
    elif b > 1:
        pair = elem(spec, 1, 1), elem(spec, 1, 0)
    elif c < n - 1:
        pair = elem(spec, 1, n - 2), elem(spec, 1, n - 1)
    else:
        pair = elem(spec, n - 1, 1), elem(spec, n - 2, 2)
    first, second = sorted(pair)
    return first, second


@dataclass(frozen=True)
class IdempotentSumEscape:
    """Two boundary idempotents whose sum squares to const c."""

    left: ChainEndo
    right: ChainEndo
    total: ChainEndo
    square: ChainEndo


def idempotent_sum_counterexample(spec: TriangleSpec) -> IdempotentSumEscape:
    """The standard witness that triangle idempotents do not add up.

    a_(a+1) c_(n-a-1) and b_(b+1) c_(n-b-1) are idempotent but their sum
    b_(a+1) c_(n-a-1) squares to const c.
    """
    n = spec.n
    left = strings.elem(spec.string_ac(), spec.a + 1)
    right = strings.elem(spec.string_bc(), spec.b + 1)
    total = left + right
    square = total * total
    if not (left.is_idempotent() and right.is_idempotent()):
        raise AssertionError("counterexample ingredients must be idempotent")
    if total.is_idempotent() or square != constant(n, spec.c):
        raise AssertionError("counterexample sum must square to const c")
    return IdempotentSumEscape(left, right, total, square)


def component_map(
    src: TriangleSpec, dst: TriangleSpec
) -> dict[ChainEndo, ChainEndo]:
    """Match members by multiplicity vector between two triangles.

    Always a bijection preserving addition; a semiring isomorphism only
    when the vertex triples coincide.
    """
    if src.n != dst.n:
        raise OutOfRange(f"chain sizes differ: {src.n} vs {dst.n}")
    return {
        e: to_endo(dst, from_endo(src, e)) for e in elements(src)
    }
