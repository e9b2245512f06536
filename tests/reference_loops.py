"""Pure-Python reference versions of loops the library replaced.

The pair loops are the object loops that the numpy table kernel in
``chainendo.analysis`` replaced.  They stay here, unchanged in scan order,
so that property tests can require the kernel to return the same verdicts
and the same lex-first witnesses.

The chain oracles are the per-tuple loops over every map of the chain that
``chainendo.counting`` replaced with one census per chain size, and the
object oracles of the string and triangle counts that it replaced with
gathers and row masks on value matrices; ``ORACLE_LOOPS`` names one loop
per registry entry, and tests require each oracle to equal its loop.

The power loops are the square test of ``eventual_idempotent`` and the
second walk of ``classify_element`` that ``ChainEndo._power_limit``
replaced; tests require the one loop to give the same limit and exponent.

The pair families are the three generators of vertex-set pairs that the
non-isomorphism claims and ``triangle-add-iso`` read before
``chainendo.claims`` gave them one family; tests require the claims'
families to yield the same tuples in the same order.

The simplex loops are the object enumeration of a simplex and the object
filters of its discrete neighborhoods, layers, interior and boundary that
``chainendo.simplex`` replaced with one value matrix per set; tests require
the matrix-backed sets to hold the same maps in the same order.

The pattern loops are what ``chainendo.simplex`` reads off one cached
(n, k) pattern instead: the ``np.fromiter`` enumeration over the value
tuples that the gather replaced, a per-row count of each vertex value that
the multiplicity matrix replaced, and the object-level matching of two
triangles by multiplicity vector that ``triangle-add-iso`` replaced with
the identity on member indices; tests require each to agree with what the
pattern gives.

The set loops are the object constructions of the string blocks and
segments, the unions of strings, the triangle regions, right identities,
fixing block and basic layers that ``chainendo.strings`` and
``chainendo.triangle`` replaced with slices and row masks of one
enumeration; tests require each ``Subset`` to hold the same maps in the
same order, and to be empty where the loop's tuple is (``assert_cut``).

The set algebra loops are plain Python set and dict versions of what
``Subset`` answers from its value rows: normalising a collection, the
union, the member index of each row, membership, and the two-sided
identities; tests require the row versions to agree with them.

The claim loops are eight checks of ``chainendo.claims`` as they read
before they asked ``Subset.limits`` once per set: each walks the powers of
every member (``is_nilpotent_to``, ``eventual_idempotent``,
``nilpotency_target``) or squares every member (``is_idempotent``) as a
``ChainEndo``.  ``interior_sum`` counts, for each member, the pairs of the
two strings that sum to it.  ``power_stabilization`` and
``string_mul_cases`` are the chain-wide object loops that the claims
replaced with gathers on the chain's atlas and on the strings' value
matrices.  They call the library through its modules, so
a test that patches one library call changes what both versions read, and
requires the check and its loop to return the same verdict and witness.
"""

from collections import Counter
from itertools import chain, combinations, combinations_with_replacement
from math import comb
from operator import add, mul

import numpy as np

from chainendo import analysis, counting, simplex, strings, triangle
from chainendo.analysis import (
    ElementClass,
    IdealWitness,
    Identities,
    NotClosed,
    NotSubset,
    Subset,
    TrivialityVerdict,
    is_closed,
)
from chainendo.claims import _pair
from chainendo.core import ChainEndo, all_endomorphisms, constant, format_compact, identity
from chainendo.simplex import LayerId, SimplexSpec
from chainendo.strings import StringSpec
from chainendo.triangle import NotDecomposable, Region, TriangleSpec

TRIPLE_LAWS = (
    "associative addition",
    "associative multiplication",
    "left distributivity",
    "right distributivity",
)


def closure_scan(elements, ops):
    """First (i, j, op, result) whose result leaves the set, pairs in lex order.

    Within one pair the ops are tried in the order given.
    """
    els = Subset.of(elements).elements
    members = set(els)
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            for op in ops:
                result = x + y if op == "+" else x * y
                if result not in members:
                    return i, j, op, result
    return None


def is_ideal(ideal, ambient):
    inner = Subset.of(ideal).elements
    outer = Subset.of(ambient).elements
    inner_set = set(inner)
    if not inner_set <= set(outer):
        raise NotSubset("candidate ideal is not inside the ambient set")
    for x in inner:
        for y in inner:
            s = x + y
            if s not in inner_set:
                return False, IdealWitness("add", x, y, s)
    for x in inner:
        for r in outer:
            p = r * x
            if p not in inner_set:
                return False, IdealWitness("left-absorb", x, r, p)
            q = x * r
            if q not in inner_set:
                return False, IdealWitness("right-absorb", x, r, q)
    return True, None


def triviality(elements):
    els = Subset.of(elements).elements
    closed, witness = is_closed(els, "*")
    if not closed:
        raise NotClosed(f"not multiplicatively closed: {witness}")
    products = {x * y for x in els for y in els}
    if len(products) != 1:
        return TrivialityVerdict(False, None, False, False)
    iota = products.pop()
    is_min = all(iota.pointwise_le(x) for x in els)
    is_max = all(x.pointwise_le(iota) for x in els)
    return TrivialityVerdict(True, iota, is_min, is_max)


def identities(elements):
    els = Subset.of(elements).elements
    left = tuple(e for e in els if all(e * x == x for x in els))
    right = tuple(e for e in els if all(x * e == x for x in els))
    return Identities(left, right)


def similar_pairs(elements, side):
    els = Subset.of(elements).elements
    pairs = []
    for i, alpha in enumerate(els):
        for beta in els[i + 1 :]:
            if side == "left":
                same = all(g * alpha == g * beta for g in els)
            else:
                same = all(alpha * g == beta * g for g in els)
            if same:
                pairs.append((alpha, beta))
    return tuple(pairs)


def triple_law_scan(els):
    """First (x, y, z, law) breaking a triple law, over ChainEndo objects."""
    for x in els:
        for y in els:
            for z in els:
                checks = (
                    (x + y) + z != x + (y + z),
                    (x * y) * z != x * (y * z),
                    x * (y + z) != x * y + x * z,
                    (x + y) * z != x * z + y * z,
                )
                for law, broken in zip(TRIPLE_LAWS, checks):
                    if broken:
                        return x, y, z, law
    return None


def triple_law_scan_tables(A, M):
    """The same scan over index tables: A[i, j] is i + j, M[i, j] is i * j."""
    size = len(A)
    for x in range(size):
        for y in range(size):
            for z in range(size):
                checks = (
                    A[A[x, y], z] != A[x, A[y, z]],
                    M[M[x, y], z] != M[x, M[y, z]],
                    M[x, A[y, z]] != A[M[x, y], M[x, z]],
                    M[A[x, y], z] != A[M[x, z], M[y, z]],
                )
                for law, broken in zip(TRIPLE_LAWS, checks):
                    if broken:
                        return x, y, z, law
    return None


def first_hom_break(phi, els, op):
    """First (x, y) with phi[op(x, y)] != op(phi[x], phi[y]), in lex order.

    A result outside els, which phi does not map, breaks too.
    """
    for x in els:
        for y in els:
            if phi.get(op(x, y)) != op(phi[x], phi[y]):
                return x, y
    return None


def _iso_profile(els):
    """Per element: down-set size, up-set size, idempotency, down-set size of its square."""

    def down(x):
        return sum(y.pointwise_le(x) for y in els)

    return [
        (down(x), sum(x.pointwise_le(y) for y in els), x * x == x, down(x * x))
        for x in els
    ]


def iso_check(first, second):
    """The object backtracking search for an isomorphism, in the kernel's order.

    Candidates for S[i] are the members of T with S[i]'s profile, in
    ascending order; both chains take the order-matching bijection at once.
    """
    S, T = Subset.of(first).elements, Subset.of(second).elements
    for name, els in (("first", S), ("second", T)):
        if closure_scan(els, ("+", "*")) is not None:
            raise NotClosed(f"{name} set is not a subsemiring")
    if len(S) != len(T):
        return False, None
    size = len(S)
    sig_s, sig_t = _iso_profile(S), _iso_profile(T)
    if sorted(sig_s) != sorted(sig_t):
        return False, None
    index_s = {e: i for i, e in enumerate(S)}

    def verify(assign):
        phi = dict(zip(S, assign))
        return all(
            phi[x + y] == phi[x] + phi[y] and phi[x * y] == phi[x] * phi[y]
            for x in S
            for y in S
        )

    if sorted(d for d, _, _, _ in sig_s) == list(range(1, size + 1)):
        assign = list(T)
        return (True, dict(zip(S, assign))) if verify(assign) else (False, None)

    candidates = [[t for k, t in enumerate(T) if sig_t[k] == sig_s[i]] for i in range(size)]
    assign = [None] * size
    used = set()

    def consistent(i):
        return all(
            (k := index_s[op(S[a], S[b])]) > i or assign[k] == op(assign[a], assign[b])
            for j in range(i)
            for a, b, op in ((i, j, add), (i, j, mul), (j, i, mul))
        )

    def backtrack(i):
        if i == size:
            return verify(assign)
        for t in candidates[i]:
            if t in used:
                continue
            assign[i] = t
            used.add(t)
            if consistent(i) and backtrack(i + 1):
                return True
            used.discard(t)
            assign[i] = None
        return False

    if backtrack(0):
        return True, dict(zip(S, assign))
    return False, None


def nilpotent_oracle(n, a):
    """Maps of the n-chain with one of their first n powers constantly a."""
    target = constant(n, a)
    count = 0
    for e in all_endomorphisms(n):
        power = e
        for _ in range(n):
            if power == target:
                count += 1
                break
            power = power * e
    return count


def idempotent_oracle(n, fixed):
    """Idempotents of the n-chain whose fixed-point set is ``fixed``."""
    fixed = tuple(sorted(fixed))
    count = 0
    for e in all_endomorphisms(n):
        if e * e == e and e.fixed_points() == fixed:
            count += 1
    return count


def simplex_oracle(n, k):
    """Maps of the n-chain with image inside the lowest k vertices."""
    vertices = set(range(k))
    return sum(1 for e in all_endomorphisms(n) if set(e.image()) <= vertices)


def triangle_oracle(n):
    """Maps of the n-chain with image inside the vertices 0, 1, 2."""
    return simplex_oracle(n, 3)


def classify_string(n, a, b):
    # Right identities before nilpotency: the two constants are idempotent
    # in every string but belong to the blocks that collapse onto them.
    spec = strings.StringSpec(n, a, b)
    els = strings.elements(spec)
    rids = {e for e in els if all(x * e == x for x in els)}
    low = high = idem = 0
    for e in els:
        if e in rids:
            idem += 1
            continue
        target = e.nilpotency_target()
        if target == a:
            low += 1
        elif target == b:
            high += 1
        else:
            raise AssertionError(f"unclassifiable string element {e}")
    return low, idem, high


def triangle_members(n, a, b, c):
    return triangle.elements(triangle.TriangleSpec(n, a, b, c))


def triangle_targets(n, a, b, c):
    """Members of the triangle by the constant their powers reach (or None)."""
    return Counter(e.nilpotency_target() for e in triangle_members(n, a, b, c))


def oracle_ri(n, a, b, c):
    return sum(
        1
        for e in triangle_members(n, a, b, c)
        if e.values[a] == a and e.values[b] == b and e.values[c] == c
    )


def oracle_it(n, a, b, c):
    return sum(
        1
        for e in triangle_members(n, a, b, c)
        if e.values[a] == a and e.values[c] == c
    )


def count_by_copies(n, a, b, c, inside):
    """Triangle members with inside(copies of a, copies of c) true."""
    return sum(
        1
        for e in triangle_members(n, a, b, c)
        if inside(e.values.count(a), e.values.count(c))
    )


def _nil_to(value):
    def oracle(n, a, b, c):
        target = {"a": a, "b": b, "c": c}[value]
        return triangle_targets(n, a, b, c)[target]

    return oracle


# formula id -> the loop its oracle in chainendo.counting must equal
ORACLE_LOOPS = {
    "nilpotent_count": nilpotent_oracle,
    "idempotent_count": idempotent_oracle,
    "simplex_order": simplex_oracle,
    "triangle_order": triangle_oracle,
    "string_nil_low_order": lambda n, a, b: classify_string(n, a, b)[0],
    "string_idem_order": lambda n, a, b: classify_string(n, a, b)[1],
    "string_nil_high_order": lambda n, a, b: classify_string(n, a, b)[2],
    "ri_order": oracle_ri,
    "ri_order_variant": oracle_ri,
    "it_order": oracle_it,
    "it_rest_order": lambda n, a, b, c: oracle_it(n, a, b, c) - oracle_ri(n, a, b, c),
    "l_tri_order": lambda n, a, b, c: count_by_copies(
        n, a, b, c, lambda k, i: k >= b + 1 and i >= n - c
    ),
    "r_tri_order": lambda n, a, b, c: count_by_copies(
        n, a, b, c, lambda k, i: k >= a + 1 and i >= n - b
    ),
    "nil_a_order": _nil_to("a"),
    "nil_b_order": _nil_to("b"),
    "nil_c_order": _nil_to("c"),
    "l_par_order": lambda n, a, b, c: count_by_copies(
        n, a, b, c, lambda k, i: a + 1 <= k <= b and i <= n - c - 1
    ),
    "r_par_order": lambda n, a, b, c: count_by_copies(
        n, a, b, c, lambda k, i: k <= a and n - c <= i <= n - b - 1
    ),
}


def eventual_idempotent(e):
    """The first power of e that squares to itself."""
    current = e
    for _ in range(e.n + 1):
        if current * current == current:
            return current
        current = current * e
    raise AssertionError(f"powers of {e!r} did not stabilise within n")


def classify_element(alpha):
    """Element class, with the exponent found by walking the powers again."""
    limit = eventual_idempotent(alpha)
    exponent = 1
    power = alpha
    while power != limit:
        power = power * alpha
        exponent += 1
    if exponent == 1:
        return ElementClass("idempotent", limit, 1, None)
    if limit.is_constant():
        return ElementClass("nilpotent", limit, exponent, limit.values[0])
    return ElementClass("root_of_idempotent", limit, exponent, None)


def simplex_pair_family(n_max):
    # one-vertex simplices are singletons, all isomorphic; start at two
    for n in range(3, n_max + 1):
        for k in range(2, n + 1):
            for one, two in combinations(combinations(range(n), k), 2):
                yield (n, one, two)


def string_pair_family(n_max):
    for n in range(3, n_max + 1):
        for one, two in combinations(combinations(range(n), 2), 2):
            yield (n, *one, *two)


def triangle_pair_family(n_max):
    for n in range(3, n_max + 1):
        for one, two in combinations(combinations(range(n), 3), 2):
            yield (n, one, two)


def enumerate_simplex(spec):
    return tuple(
        ChainEndo._wrap(spec.n, values)
        for values in combinations_with_replacement(spec.vertices, spec.n)
    )


def enumerate_simplex_fromiter(spec):
    """The (N, n) int64 value matrix, filled from the value tuples."""
    size = comb(spec.n + spec.k - 1, spec.n)
    flat = np.fromiter(
        chain.from_iterable(combinations_with_replacement(spec.vertices, spec.n)),
        dtype=np.int64,
        count=size * spec.n,
    )
    return flat.reshape(-1, spec.n)


def multiplicities(spec):
    """Per member, how often it takes each vertex value."""
    return [[e.values.count(v) for v in spec.vertices] for e in enumerate_simplex(spec)]


def component_map(src, dst):
    """Each member of src to the member of dst with its multiplicity vector."""
    return {
        e: triangle.to_endo(dst, triangle.from_endo(src, e))
        for e in enumerate_simplex(src.simplex())
    }


def discrete_neighborhood(spec, m, t):
    value = spec.vertices[m]
    return tuple(e for e in enumerate_simplex(spec) if e.values.count(value) >= spec.n - t)


def layer(spec, m, s):
    value = spec.vertices[m]
    return tuple(e for e in enumerate_simplex(spec) if e.values.count(value) == s)


def interior(spec):
    return tuple(e for e in enumerate_simplex(spec) if e.image() == spec.vertices)


def boundary(spec):
    return tuple(e for e in enumerate_simplex(spec) if e.image() != spec.vertices)


def proper_faces(spec):
    """Faces on the nonempty proper vertex subsets, smallest first."""
    subsets = (sub for size in range(1, spec.k) for sub in combinations(spec.vertices, size))
    return tuple(SimplexSpec(spec.n, sub) for sub in subsets)


def neighborhood_criterion(spec, alpha):
    """The per-map walk of simplex.nilpotent_rows for one member fixing a0."""
    a0 = spec.vertices[0]
    if spec.k == 1:
        return alpha == constant(spec.n, a0)
    a1 = spec.vertices[1]
    if any(alpha.values[i] != a0 for i in range(a1 + 1)):
        return False
    return all(alpha.values[i] < i for i in range(a1 + 1, spec.n))


def layers(spec, m):
    value = spec.vertices[m]
    buckets = [[] for _ in range(spec.n + 1)]
    for e in enumerate_simplex(spec):
        buckets[e.values.count(value)].append(e)
    return tuple(map(tuple, buckets))


def partition_string(spec):
    def block(lo, hi):
        # index descending = elements ascending
        return tuple(strings.elem(spec, ell) for ell in range(hi, lo - 1, -1))

    return block(spec.b + 1, spec.n), block(spec.a + 1, spec.b), block(0, spec.a)


def family_top(spec, r):
    return tuple(strings.elem(spec, ell) for ell in range(spec.n, r - 1, -1))


def family_bottom(spec, s):
    return tuple(strings.elem(spec, ell) for ell in range(s, -1, -1))


def consecutive_union(n, a, b, c):
    first = set(enumerate_simplex(StringSpec(n, a, b).simplex()))
    second = set(enumerate_simplex(StringSpec(n, b, c).simplex()))
    return tuple(sorted(first | second))


def three_string_union(n, a, b, c):
    members = set()
    for x, y in ((a, b), (a, c), (b, c)):
        members |= set(enumerate_simplex(StringSpec(n, x, y).simplex()))
    return tuple(sorted(members))


def decompose(spec):
    """Members of each region, bucketed by type triple, in Region order."""
    table = triangle.region_types(spec)
    buckets = {region: [] for region in triangle.Region}
    for e in enumerate_simplex(spec.simplex()):
        buckets[table[triangle.elem_type(spec, e)]].append(e)
    return {region: tuple(members) for region, members in buckets.items()}


def right_identities(spec):
    return tuple(
        e
        for e in enumerate_simplex(spec.simplex())
        if e.values[spec.a] == spec.a
        and e.values[spec.b] == spec.b
        and e.values[spec.c] == spec.c
    )


def idempotent_triangle(spec):
    """The set fields of the fixing-block report, by name."""
    members = tuple(
        e
        for e in enumerate_simplex(spec.simplex())
        if e.values[spec.a] == spec.a and e.values[spec.c] == spec.c
    )
    ri = right_identities(spec)
    ri_set = set(ri)
    table = triangle.region_types(spec)
    return {
        "it": members,
        "ri": ri,
        "rest": tuple(e for e in members if e not in ri_set),
        "corner_left": tuple(
            e for e in members if table[triangle.elem_type(spec, e)] is triangle.Region.L_TRI
        ),
        "corner_right": tuple(
            e for e in members if table[triangle.elem_type(spec, e)] is triangle.Region.R_TRI
        ),
        "diagonal": tuple(sorted(partition_string(spec.string_ac())[1])),
    }


def basic_layer(spec, vertex, k):
    """The whole layer and its left, middle and right runs."""
    n = spec.n
    if vertex == spec.a:
        # ascending in the count i of copies of c
        layer = tuple(triangle.elem(spec, k, n - k - i) for i in range(n - k + 1))
        cut1, cut2 = n - spec.c, n - spec.b
    else:
        # ascending means the count i of copies of a descending
        layer = tuple(triangle.elem(spec, i, n - k - i) for i in range(n - k, -1, -1))
        cut1, cut2 = n - k - spec.b, n - k - spec.a
    return layer, layer[:cut1], layer[cut1:cut2], layer[cut2:]


def assert_cut(got, want, where=None):
    """got is a Subset of the maps of the tuple want, in want's order, and
    empty exactly where want is."""
    assert isinstance(got, Subset), where
    if want:
        assert got == Subset.of(want), where
    else:
        assert len(got) == 0, where
    assert tuple(got) == want, where


def normalised(elements):
    """Distinct maps in lex order."""
    return tuple(sorted(set(elements)))


def union(first, second):
    return tuple(sorted(set(first) | set(second)))


def find(members, rows):
    """Index in members of the map with each row of values, -1 when absent."""
    position = {e.values: i for i, e in enumerate(members)}
    return [position.get(tuple(row), -1) for row in rows]


def contains(members, item):
    return item in set(members)


def two_sided(left, right):
    kept = set(right)
    return tuple(e for e in left if e in kept)


def dn1_internal(params):
    n, verts, m = params
    spec = SimplexSpec(n, verts)
    hood = simplex.discrete_neighborhood(spec, m, 1)
    v = analysis.triviality(hood)
    pivot = verts[m]
    if not v.is_trivial or v.iota != constant(n, pivot):
        return False, {"note": "products must collapse onto the vertex constant"}
    if v.iota_is_min != (m == 0) or v.iota_is_max != (m == spec.k - 1):
        return False, {"note": "flavor must follow the vertex position", "m": m}
    for x in hood:
        if not x.is_nilpotent_to(pivot):
            return False, {"element": format_compact(x)}
    return True, None


def top_layer(params):
    n, verts = params
    spec = SimplexSpec(n, verts)
    low = verts[0]
    lay = simplex.layer(LayerId(spec, 0, low + 1))
    ok, wit = analysis.is_subsemiring(lay)
    if not ok:
        return False, _pair(wit)
    limits = [x.eventual_idempotent() for x in lay]
    inside = lay.find([limit.values for limit in limits]) >= 0
    nil = constant(n, low)
    for x, limit, kept in zip(lay, limits, inside):
        if limit == nil:
            return False, {"element": format_compact(x), "note": "nilpotent inside the layer"}
        if not kept:
            return False, {"element": format_compact(x), "note": "idempotent left the layer"}
    return True, None


def nilpotency_criterion(params):
    n, verts = params
    spec = SimplexSpec(n, verts)
    low = verts[0]
    for e in simplex.enumerate_simplex(spec):
        nil = e.is_nilpotent_to(low)
        if e.values[low] != low:
            if nil:
                return False, {"element": format_compact(e), "note": "nilpotent without fixing"}
            continue
        if simplex.nilpotent_in_neighborhood(spec, e) != nil:
            return False, {"element": format_compact(e), "nilpotent": nil}
    return True, None


def nilpotent_regions(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    regions = triangle.regions(spec)
    els = triangle.elements(spec)
    corners = zip((a, b, c), (Region.NIL_A, Region.NIL_B, Region.NIL_C))
    fibers = {value: regions[region] for value, region in corners}
    targets = [e.nilpotency_target() for e in els]
    for value, members in fibers.items():
        if els[np.array([t == value for t in targets])] != members:
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


def interior_sum(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    ab_els = strings.elements(spec.string_ab())
    ac_els = strings.elements(spec.string_ac())
    bad = (constant(n, a), constant(n, c))
    els, M = simplex.enumerate_simplex(spec.simplex()), simplex._pattern(n, 3).M
    for e, (_, ell, m) in zip(els, M.tolist()):
        if ell >= 1 and m >= 1:
            left, right = triangle.interior_decompose(spec, e)
            if left + right != e:
                return False, {"element": format_compact(e)}
            if left in bad or right in bad:
                return False, {"element": format_compact(e), "note": "constant summand"}
            pairs = sum(1 for u in ab_els for v in ac_els if u + v == e)
            if pairs != 1:
                return False, {"element": format_compact(e), "pairs": pairs}
        else:
            try:
                triangle.interior_decompose(spec, e)
            except NotDecomposable:
                continue
            return False, {"element": format_compact(e), "note": "should not decompose"}
    return True, None


def interior_idempotents(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    inner = triangle.interior(spec)
    idem = inner[np.array([e.is_idempotent() for e in inner], dtype=bool)]
    if idem != triangle.right_identities(spec):
        return False, {"found": sorted(format_compact(e) for e in idem)}
    return True, None


def right_identity_existence(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    ids = analysis.identities(triangle.elements(spec))
    rid = triangle.right_identities(spec)
    region = triangle.regions(spec)[Region.RIGHT_IDENTITIES]
    if ids.right != rid or rid != region:
        return False, {"right": [format_compact(e) for e in ids.right]}
    for e in rid:
        if not e.is_idempotent():
            return False, {"element": format_compact(e)}
    if n == 3:
        if tuple(ids.left) != (identity(3),) or tuple(ids.two_sided) != (identity(3),):
            return False, {"left": [format_compact(e) for e in ids.left]}
    elif len(ids.left):
        return False, {"left": [format_compact(e) for e in ids.left]}
    return True, None


def idempotent_sum_escape(params):
    n, a, b, c = params
    spec = TriangleSpec(n, a, b, c)
    escape = triangle.idempotent_sum_counterexample(spec)
    if not (escape.left.is_idempotent() and escape.right.is_idempotent()):
        return False, {"note": "counterexample ingredients must be idempotent"}
    if escape.total.is_idempotent() or escape.square != constant(n, c):
        return False, {"note": "counterexample sum must square to const c"}
    if escape.total + escape.total != escape.total:
        return False, {"note": "sums must stay additively idempotent"}
    idem = [e for e in triangle.elements(spec) if e.is_idempotent()]
    ok, _ = analysis.is_closed(idem, "+")
    if ok:
        return False, {"note": "idempotents unexpectedly add up"}
    return True, None


def it_ideals(params):
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
    for x in rep.corner_left:
        for y in rep.corner_right:
            if not x.pointwise_le(y) or x == y:
                return False, {"left": format_compact(x), "right": format_compact(y)}
    ac = strings.elements(spec.string_ac())
    if rep.diagonal != ac[np.array([e * e == e and not e.is_constant() for e in ac])]:
        return False, {"note": "diagonal mismatch"}
    for x in rep.diagonal:
        k = x.values.count(a)
        home = rep.corner_right if k <= b else rep.corner_left
        if x not in home:
            return False, {"element": format_compact(x)}
    for ok, name in (
        (analysis.is_subsemiring(rep.ri)[0], "ri_closed"),
        (analysis.is_subsemiring(rep.rest)[0], "rest_closed"),
        (analysis.is_ideal(rep.diagonal, rep.it)[0], "diagonal_ideal"),
        (analysis.is_ideal(rep.rest, rep.it)[0], "rest_ideal"),
        (all(x * y == x for x in rep.diagonal for y in rep.it), "diagonal_left_zero"),
    ):
        if not ok:
            return False, {"verdict": name}
    return True, None


def power_stabilization(params):
    (n,) = params
    cap = max(1, n - 1)
    for e in all_endomorphisms(n):
        stable = e**cap
        if not stable.is_idempotent():
            return False, {"element": format_compact(e), "power": cap}
        if n >= 2 and stable * e != stable:
            return False, {"element": format_compact(e), "note": "power sequence moved again"}
        cls = analysis.classify_element(e)
        if cls.idempotent != stable:
            return False, {"element": format_compact(e), "note": "eventual idempotent mismatch"}
        if cls.exponent > cap:
            return False, {"element": format_compact(e), "exponent": cls.exponent}
    return True, None


def string_mul_cases(params):
    (n,) = params
    specs = [StringSpec(n, a, b) for a, b in combinations(range(n), 2)]
    for left in specs:
        for right in specs:
            for k in range(n + 1):
                x = strings.elem(left, k)
                for ell in range(n + 1):
                    want = strings.string_mul_cases(left, k, right, ell)
                    if x * strings.elem(right, ell) != want:
                        return False, {
                            "left": format_compact(x),
                            "right": format_compact(strings.elem(right, ell)),
                            "predicted": format_compact(want),
                        }
    return True, None
