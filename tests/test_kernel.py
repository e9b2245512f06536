"""The numpy Cayley-table kernel against the pure-Python reference loops."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from chainendo import analysis, claims, strings, triangle
from chainendo.analysis import NotClosed, canonical
from chainendo.core import all_endomorphisms
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
def random_subsets(draw, max_size=24):
    n = draw(st.integers(1, 5))
    picks = draw(st.lists(st.sampled_from(MAPS[n]), min_size=1, max_size=max_size))
    return canonical(picks)


map_sets = st.one_of(random_subsets(), st.sampled_from(CLOSED).map(canonical))


def _under_small_blocks(fn, *args):
    """fn(*args), required to be the same when tables are built 3 rows at a time.

    The small block puts block seams inside the small sets drawn here.
    """
    result = fn(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_BLOCK", 3)
        again = fn(*args)
    if isinstance(result, tuple) and result and isinstance(result[0], np.ndarray):
        assert all(np.array_equal(a, b) for a, b in zip(result, again))
    else:
        assert again == result
    return result


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CLOSED).map(canonical), st.data())
def test_first_mismatch_matches_additive_loop(src, data):
    # a random bijection from a closed set onto a relabelled copy of a
    # same-sized closed set: the first non-additive pair must agree
    dsts = [canonical(s) for s in CLOSED if len(s) == len(src)]
    dst = data.draw(st.sampled_from(dsts))
    image = data.draw(st.permutations(dst))
    phi = dict(zip(src, image))
    position = {e: k for k, e in enumerate(dst)}
    p = np.array([position[phi[x]] for x in src])
    A_src, _ = analysis._cayley_tables(src)
    A_dst, _ = analysis._cayley_tables(dst)
    hit = analysis._first_mismatch(p, A_src, A_dst)
    expected = ref.first_additive_break(phi, src)
    if expected is None:
        assert hit is None
    else:
        assert hit is not None and (src[hit[0]], src[hit[1]]) == expected


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
