"""The numpy Cayley-table kernel against the pure-Python reference loops."""

import itertools
from math import comb
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from chainendo import analysis, claims, strings, triangle
from chainendo.analysis import NotClosed, Subset, canonical
from chainendo.core import all_endomorphisms, parse_compact
from chainendo.strings import StringSpec
from chainendo.triangle import TriangleSpec

MAPS = {n: tuple(all_endomorphisms(n)) for n in range(1, 6)}


def _closed_sets():
    """Small sets closed under + and *, so every product path is reached."""
    sets = [MAPS[n] for n in range(1, 5)]
    for n in range(3, 6):
        for a, b in itertools.combinations(range(n), 2):
            part = strings.partition_string(StringSpec(n, a, b))
            sets += [strings.elements(StringSpec(n, a, b)), part.nil_low, part.idem, part.nil_high]
        for a, b, c in itertools.combinations(range(n), 3):
            sets.append(triangle.elements(TriangleSpec(n, a, b, c)))
    return [s for s in sets if s]


CLOSED = _closed_sets()


@st.composite
def random_picks(draw, max_size=24):
    """Maps of one random chain, in any order and with repeats."""
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.sampled_from(MAPS[n]), min_size=1, max_size=max_size))


def random_subsets(max_size=24):
    return random_picks(max_size).map(canonical)


map_sets = st.one_of(random_subsets(), st.sampled_from(CLOSED).map(canonical))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_picks(), st.sampled_from(CLOSED)))
def test_subset_carries_its_values_and_sorted_keys(picks):
    s = Subset.of(picks)
    assert s.elements == tuple(sorted(set(picks)))
    assert (np.diff(s.keys) > 0).all()
    assert s.values.dtype == np.int64
    assert s.values.tolist() == [list(e.values) for e in s.elements]
    # a Subset passed along is neither re-normalised nor re-packed
    assert Subset.of(s) is s
    assert s.values is s.values and s.keys is s.keys


def _under_small_blocks(fn, *args):
    """fn(*args), required to be the same under small pair budgets.

    Budget 1 makes every block one row tall, and 40 cuts most of the small
    sets drawn here into blocks of a few rows, so block seams fall inside
    them.
    """
    result = fn(*args)
    for budget in (1, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_PAIR_BUDGET", budget)
            again = fn(*args)
        if isinstance(result, tuple) and result and isinstance(result[0], np.ndarray):
            assert all(np.array_equal(a, b) for a, b in zip(result, again))
        else:
            assert again == result
    return result


def test_keys_are_lex_ranks():
    for n in range(1, 8):
        keys = Subset.of(all_endomorphisms(n)).keys
        assert np.array_equal(keys, np.arange(comb(2 * n - 1, n)))


@st.composite
def closed_with_strays(draw):
    """A closed set with a few maps of its chain added, so escapes come late."""
    closed = draw(st.sampled_from(CLOSED))
    strays = draw(st.lists(st.sampled_from(MAPS[closed[0].n]), max_size=3))
    return canonical((*closed, *strays))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(map_sets, closed_with_strays()),
    st.sampled_from([("+",), ("*",), ("+", "*")]),
)
def test_closure_scan_matches_reference(els, ops):
    expected = ref.closure_scan(els, ops)
    assert analysis._closure_scan(els, ops) == expected
    # budgets 1 and 3 keep blocks one row tall on all but one-map sets, 40
    # caps the doubling inside the set, and the default above lets it run to
    # the end: block seams and doubling steps fall on different rows
    for budget in (1, 3, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_PAIR_BUDGET", budget)
            assert analysis._closure_scan(els, ops) == expected


def test_closure_scan_tries_ops_in_the_given_order_within_a_pair():
    # the first pair escapes under both ops: 0_2 2 + 0 1_2 = 0 1 2 and
    # 0_2 2 * 0 1_2 = 0_2 1
    els = canonical([parse_compact("0_2 2", 3), parse_compact("0 1_2", 3)])
    for ops in (("+", "*"), ("*", "+")):
        hit = analysis._closure_scan(els, ops)
        assert hit == ref.closure_scan(els, ops)
        assert hit[:3] == (0, 1, ops[0])


@settings(max_examples=150, deadline=None)
@given(map_sets)
def test_table_entries_are_the_object_results(els):
    A, M = _under_small_blocks(analysis._cayley_tables, els)
    index = {e: k for k, e in enumerate(els)}
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            assert A[i, j] == index.get(x + y, -1)
            assert M[i, j] == index.get(x * y, -1)


@settings(max_examples=150, deadline=None)
@given(map_sets, st.sampled_from(["left", "right"]))
def test_similar_pairs_match_reference(els, side):
    got = _under_small_blocks(analysis.similar_pairs, els, side)
    assert got == ref.similar_pairs(els, side)


@settings(max_examples=150, deadline=None)
@given(map_sets)
def test_identities_match_reference(els):
    assert _under_small_blocks(analysis.identities, els) == ref.identities(els)


@settings(max_examples=150, deadline=None)
@given(map_sets)
def test_triviality_matches_reference(els):
    try:
        expected = ref.triviality(els)
    except NotClosed:
        with pytest.raises(NotClosed):
            analysis.triviality(els)
    else:
        assert _under_small_blocks(analysis.triviality, els) == expected


@settings(max_examples=150, deadline=None)
@given(map_sets, st.data())
def test_is_ideal_matches_reference(ambient, data):
    mask = data.draw(st.lists(st.booleans(), min_size=len(ambient), max_size=len(ambient)))
    ideal = [e for e, keep in zip(ambient, mask) if keep] or [ambient[0]]
    got = _under_small_blocks(analysis.is_ideal, ideal, ambient)
    assert got == ref.is_ideal(ideal, ambient)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLOSED).map(canonical), st.data())
def test_iso_check_finds_relabelled_copy(els, data):
    # a set is isomorphic to itself; the search must find that, whatever
    # block seams the profile and verify steps cross
    same, mapping = _under_small_blocks(analysis.iso_check, els, els)
    assert same and set(mapping) == set(els)
    for x in els:
        for y in els:
            assert mapping[x + y] == mapping[x] + mapping[y]
            assert mapping[x * y] == mapping[x] * mapping[y]


def _layer_string_pairs():
    """Each basic layer of a triangle with n <= 6 and its companion string."""
    pairs = []
    for n in range(3, 7):
        for a, b, c in itertools.combinations(range(n), 3):
            spec = TriangleSpec(n, a, b, c)
            for vertex in (a, c):
                for layer in triangle.basic_layers(spec, vertex):
                    iso = triangle.layer_string_iso(spec, vertex, layer.k)
                    pairs.append((layer.elements, strings.elements(iso.target)))
    return pairs


def _generated(gens):
    """The closure of gens under + and *."""
    found = set(gens)
    while new := {z for x in found for y in found for z in (x + y, x * y)} - found:
        found |= new
    return canonical(found)


# CLOSED and the closure of every pair of maps on C_2..C_4: many of these
# share a size and the invariants the iso search prunes by, so the search
# has to backtrack and to reject
CLOSED_POOL = list(
    dict.fromkeys(
        (
            *map(canonical, CLOSED),
            *(_generated(pair) for n in range(2, 5) for pair in itertools.combinations(MAPS[n], 2)),
        )
    )
)


@st.composite
def equal_sized_closed_pairs(draw):
    """Two closed sets of one chain with the same number of maps."""
    first = draw(st.sampled_from(CLOSED_POOL))
    same = [s for s in CLOSED_POOL if s[0].n == first[0].n and len(s) == len(first)]
    return first, draw(st.sampled_from(same))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.sampled_from(CLOSED_POOL).map(lambda s: (s, s)),
        equal_sized_closed_pairs(),
        st.sampled_from(_layer_string_pairs()),
    )
)
def test_iso_check_matches_reference(pair):
    # the index search must find the object search's verdict and its first
    # mapping; layers and strings are chains, on chains of different sizes
    first, second = pair
    got = _under_small_blocks(analysis.iso_check, first, second)
    assert got == ref.iso_check(first, second)


def test_semiring_laws_hold_on_small_chains():
    for n in range(1, 4):
        els = MAPS[n]
        assert analysis._triple_law_scan(*analysis._cayley_tables(els)) is None
        assert ref.triple_law_scan(els) is None
        assert claims._chk_semiring_laws((n,)) == (True, None)


@st.composite
def total_tables(draw):
    size = draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, size - 1), min_size=size * size, max_size=size * size)
    A = np.array(draw(cells), dtype=np.intp).reshape(size, size)
    M = np.array(draw(cells), dtype=np.intp).reshape(size, size)
    return A, M


@settings(max_examples=300, deadline=None)
@given(total_tables())
def test_triple_law_scan_order_on_random_tables(tables):
    A, M = tables
    got = _under_small_blocks(analysis._triple_law_scan, A, M)
    assert got == ref.triple_law_scan_tables(A, M)


@st.composite
def index_maps(draw):
    """(src, dst, p): two sets and an index map p from the first into the second.

    Half the time dst is src and p a permutation, the identity included, so
    on a set that is not closed only its escaping pairs can break.
    """
    src = draw(st.one_of(map_sets, closed_with_strays()))
    if draw(st.booleans()):
        return src, src, draw(st.permutations(range(len(src))))
    dst = draw(st.one_of(map_sets, st.sampled_from(CLOSED).map(canonical)))
    p = draw(st.lists(st.integers(0, len(dst) - 1), min_size=len(src), max_size=len(src)))
    return src, dst, p


@settings(max_examples=300, deadline=None)
@given(index_maps(), st.sampled_from([(analysis._sums, add), (analysis._products, mul)]))
def test_hom_mismatch_matches_reference(case, ops):
    src, dst, p = case
    kernel_op, object_op = ops
    hit = _under_small_blocks(analysis._hom_mismatch, Subset.of(src), Subset.of(dst), p, kernel_op)
    phi = {x: dst[t] for x, t in zip(src, p)}
    expected = ref.first_hom_break(phi, src, object_op)
    assert (hit and (src[hit[0]], src[hit[1]])) == expected


def test_hom_mismatch_reports_the_escaping_pair():
    # the identity on {0_3, 0_2 1, 0 2_2}, closed under + but not under *:
    # 0_2 1 * 0 2_2 = 0_2 2 leaves the set, and every earlier product stays
    s = Subset.of(parse_compact(c, 3) for c in ("0_3", "0_2 1", "0 2_2"))
    assert analysis._hom_mismatch(s, s, range(3), analysis._sums) is None
    assert analysis._hom_mismatch(s, s, range(3), analysis._products) == (1, 2)
    assert analysis._closure_scan(s, ("*",))[:2] == (1, 2)


class TestLawScanOrder:
    """Hand-built tables whose first broken triple and law are known.

    Elements are 0..N-1; A[x, y] is x + y and M[x, y] is x * y.
    """

    def test_lawful_tables_pass(self):
        # a chain under max and min is a distributive lattice
        A = np.maximum.outer(np.arange(4), np.arange(4))
        M = np.minimum.outer(np.arange(4), np.arange(4))
        assert analysis._triple_law_scan(A, M) is None

    def _scan(self, A, M):
        A, M = np.array(A), np.array(M)
        hit = analysis._triple_law_scan(A, M)
        assert hit == ref.triple_law_scan_tables(A, M)
        return hit

    def test_all_four_laws_break_reports_associative_addition(self):
        # (0, 0, 0) holds; at (0, 0, 1): (0+0)+1 = 1+1 = 0, 0+(0+1) = 0+0 = 1,
        # and both products and distributive sides disagree as well
        assert self._scan([[1, 0], [0, 0]], [[1, 0], [0, 0]]) == (
            0, 0, 1, "associative addition"
        )

    def test_associative_multiplication_before_distributivity(self):
        # A is constant 0, M[x, y] = 1 - y: at (0, 0, 0) (0*0)*0 = 1*0 = 1
        # but 0*(0*0) = 0*1 = 0, and 0*(0+0) = 1 while 0*0 + 0*0 = 0
        assert self._scan([[0, 0], [0, 0]], [[1, 0], [1, 0]]) == (
            0, 0, 0, "associative multiplication"
        )

    def test_left_distributivity_before_right(self):
        # A is constant 0, M is 0 except 0*0 = 1: (0*0)*0 = 0*(0*0) = 0, but
        # 0*(0+0) = 1 != 0*0 + 0*0 = 0 and (0+0)*0 = 1 != 0 likewise
        assert self._scan([[0, 0], [0, 0]], [[1, 0], [0, 0]]) == (
            0, 0, 0, "left distributivity"
        )

    def test_first_triple_in_lex_order(self):
        # max and min on 0 < 1 < 2 with 0*0 = 2: (0, 0, 0) still holds,
        # (0, 0, 1) breaks associativity ((0*0)*1 = 1, 0*(0*1) = 2) and
        # left distributivity; associativity is reported
        M = np.minimum.outer(np.arange(3), np.arange(3))
        M[0, 0] = 2
        A = np.maximum.outer(np.arange(3), np.arange(3))
        assert self._scan(A, M) == (0, 0, 1, "associative multiplication")

    def test_right_distributivity_alone(self):
        # max with M zero except 0*1 = 1: every triple before (0, 1, 1)
        # holds, and there (0+1)*1 = 0 but 0*1 + 1*1 = 1
        A = np.maximum.outer(np.arange(3), np.arange(3))
        M = np.zeros((3, 3), dtype=np.intp)
        M[0, 1] = 1
        assert self._scan(A, M) == (0, 1, 1, "right distributivity")
