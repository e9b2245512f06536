"""The numpy Cayley-table kernel against the pure-Python reference loops."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from math import comb
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from chainendo import analysis, claims, strings, triangle
from chainendo.analysis import ChainTooLong, NotClosed, Subset
from chainendo.core import ChainEndo, all_endomorphisms, parse_compact
from chainendo.simplex import SimplexSpec, discrete_neighborhood, enumerate_simplex
from chainendo.strings import StringSpec
from chainendo.triangle import TriangleSpec

MAPS = {n: tuple(all_endomorphisms(n)) for n in range(1, 7)}
SRC = Path(__file__).resolve().parent.parent / "src"


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


def _normalised(els):
    """The sorted, de-duplicated tuple of els."""
    return Subset.of(els).elements


@st.composite
def random_picks(draw, max_size=24):
    """Maps of one random chain, in any order and with repeats."""
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.sampled_from(MAPS[n]), min_size=1, max_size=max_size))


def random_subsets(max_size=24):
    return random_picks(max_size).map(_normalised)


map_sets = st.one_of(random_subsets(), st.sampled_from(CLOSED).map(_normalised))


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
    assert s.weights is s.weights and s.product_table is s.product_table


@st.composite
def simplex_specs(draw, n_max=6):
    n = draw(st.integers(1, n_max))
    vertices = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return SimplexSpec(n, tuple(vertices))


@settings(max_examples=100, deadline=None)
@given(simplex_specs(), st.data())
def test_from_values_carries_rows_in_key_order(spec, data):
    s = enumerate_simplex(spec)
    assert (np.diff(s.keys) > 0).all()
    assert "elements" not in vars(s)
    i = data.draw(st.integers(-len(s), len(s) - 1))
    assert s[i] == ChainEndo(s.n, s.values[i].tolist())  # wraps row i alone
    assert all(type(v) is int for v in s[i].values)
    assert "elements" not in vars(s)
    assert s.values.tolist() == [list(e.values) for e in s.elements]
    assert s[i] is s.elements[i]
    again = Subset.from_values(s.n, s.values)
    assert again == s == Subset.of(tuple(s)) and hash(again) == hash(s)
    rest = enumerate_simplex(spec)[1:]  # a slice is a Subset of the same rows
    assert isinstance(rest, Subset) and tuple(rest) == ref.enumerate_simplex(spec)[1:]


def test_subsets_differ_by_chain_or_rows():
    s = Subset.of(MAPS[3])
    assert s != Subset.from_values(3, s.values[1:])
    assert Subset.from_values(1, [[0]]) != Subset.from_values(2, [[0, 0]])
    with pytest.raises(ValueError, match="empty set"):  # empty is a set, not a check's input
        Subset.of(Subset.from_values(3, s.values[:0]))
    with pytest.raises(ValueError):
        Subset.from_values(2, s.values)


@pytest.mark.parametrize("other", [(), [], MAPS[3], list(MAPS[3]), MAPS[3][0], None])
def test_subset_compares_only_with_a_subset(other):
    # an equality with a tuple would read False, silently, on equal maps
    s = Subset.of(MAPS[3])
    with pytest.raises(TypeError, match="tuple"):
        s == other
    with pytest.raises(TypeError):
        other == s
    with pytest.raises(TypeError):
        s != other


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


@pytest.mark.parametrize(
    "spec",
    [SimplexSpec(n, tuple(range(n))) for n in range(1, 9)] + [SimplexSpec(15, (3, 9))],
    ids=str,
)
def test_keys_sum_the_weights(spec):
    s = enumerate_simplex(spec)
    assert np.array_equal(s.keys, analysis._pack(s.values, s.n))
    assert s.weights.shape == (s.n, len(s))
    assert s.weights.dtype == analysis._key_dtype(s.n)
    assert not s.weights.flags.writeable


def test_weights_beyond_the_limit_are_refused_before_any_allocation(monkeypatch):
    s = enumerate_simplex(SimplexSpec(16, (0, 5, 10, 15)))  # 969 maps
    # the limit is checked before the weights are looked up or gathered
    monkeypatch.setattr(analysis, "_key_weights", None)
    tracemalloc.start()
    try:
        for name in ("weights", "keys", "product_table"):
            with pytest.raises(ChainTooLong, match="n <= 15"):
                getattr(s, name)
        with pytest.raises(ChainTooLong, match="n <= 15"):  # sums read the weights
            analysis._sums(s.values, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.values.nbytes // 4
    assert not {"weights", "keys", "product_table"} & vars(s).keys()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_index_of_every_rank_matches_the_elements(n, data):
    s = Subset.of(data.draw(st.lists(st.sampled_from(MAPS[n]), min_size=1, max_size=60)))
    position = {_rank(e): k for k, e in enumerate(s.elements)}
    got = s.index_of(np.arange(comb(2 * n - 1, n)))
    assert got.tolist() == [position.get(r, -1) for r in range(len(got))]


@pytest.fixture(scope="module")
def maps_10():
    return tuple(all_endomorphisms(10))  # in lex order, so position = rank


@pytest.mark.parametrize(
    "size, dtype",
    [(126, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)],
)
def test_index_of_at_the_table_dtype_change(maps_10, size, dtype):
    # entries hold 1 + the member index in the smallest type that holds the
    # size; one type smaller wraps the last entry, which index_of's - 1
    # happens to undo at 128 and 32768 maps, so the type is pinned as well.
    # The members are every other map of C_10 and the top one.
    ranks = [*range(0, 2 * (size - 1), 2), len(maps_10) - 1]
    s = Subset.of(maps_10[r] for r in ranks)
    assert s.index_table.dtype == dtype
    expected = np.full(len(maps_10), -1)
    expected[ranks] = np.arange(size)
    assert np.array_equal(s.index_of(np.arange(len(maps_10))), expected)


def _rank(e):
    return int(analysis._pack(np.array(e.values), e.n))


def _kernel_keys(X, s, cols):
    # the pair loop keys a block of one row from the values, and a taller
    # one from the table: both keyers meet each input
    values = analysis._value_products(X, s.values.T[:, cols], s.n)
    return analysis._sums(X, s, cols), analysis._products(X, s, cols), values


def _assert_kernels_match_objects(xs, s, cols):
    """_sums, _products and _value_products keys of xs against
    s.elements[cols] are the ranks of the object sums and products, in the
    set's key dtype."""
    X = np.array([x.values for x in xs], dtype=np.int64).reshape(len(xs), s.n)
    sums, products, values = _under_small_blocks(_kernel_keys, X, s, cols)
    ys = np.array(s.elements, dtype=object)[cols].tolist()
    assert sums.dtype == products.dtype == values.dtype == analysis._key_dtype(s.n)
    assert sums.tolist() == [[_rank(x + y) for y in ys] for x in xs]
    assert products.tolist() == values.tolist() == [[_rank(x * y) for y in ys] for x in xs]


@st.composite
def column_selections(draw, size):
    """All columns, a slice, or an index array (any order, with repeats)."""
    kind = draw(st.sampled_from(["all", "slice", "array"]))
    if kind == "all":
        return slice(None)
    if kind == "slice":
        start = draw(st.integers(0, size))
        return slice(start, draw(st.integers(start, size)))
    return np.array(draw(st.lists(st.integers(0, size - 1), max_size=2 * size)), dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_kernel_keys_are_ranks_of_object_results(n, data):
    s = Subset.of(data.draw(st.lists(st.sampled_from(MAPS[n]), min_size=1, max_size=30)))
    xs = data.draw(st.lists(st.sampled_from(MAPS[n]), max_size=8))
    _assert_kernels_match_objects(xs, s, data.draw(column_selections(len(s))))


def _fixed_maps(n):
    """Constants at both ends (the top one has the largest rank), the
    identity, shifts both ways and two steps."""
    rows = [
        [0] * n,
        [n - 1] * n,
        list(range(n)),
        [min(k + 1, n - 1) for k in range(n)],
        [max(k - 1, 0) for k in range(n)],
        [k // 2 for k in range(n)],
        [0] * (n // 2) + [n - 1] * (n - n // 2),
    ]
    return [ChainEndo(n, v) for v in rows]


@pytest.mark.parametrize(
    "n, dtype", [(9, np.int16), (10, np.int32), (15, np.int32)]
)
def test_kernel_keys_at_the_dtype_change(n, dtype):
    # int16 holds every rank up to n = 9 (C(17, 9) - 1 = 24309), not at 10
    maps = _fixed_maps(n)
    s = Subset.of(maps)
    assert s.weights.dtype == s.product_table.dtype == dtype
    assert s.product_table.shape == (n * n, len(s))
    for cols in (slice(None), slice(2, 5), np.array([6, 0, 3, 3], dtype=np.intp)):
        _assert_kernels_match_objects(maps, s, cols)


@pytest.mark.parametrize("n", range(1, 34))
def test_rank_tables_cannot_overflow(n):
    # the key dtype holds the largest rank, and W is nonnegative, so no
    # partial sum of a key passes its rank; W's rows are nondecreasing, so
    # W[k, max(c, v)] = max(W[k, c], W[k, v]), the form _sums keys x + y in
    top = comb(2 * n - 1, n) - 1
    assert np.iinfo(analysis._key_dtype(n)).max >= top
    W = analysis._rank_weights(n)
    assert (W >= 0).all()
    assert (np.diff(W, axis=1) >= 0).all()
    assert int(W[:, n - 1].sum()) == top  # the top constant has the top rank


@pytest.mark.parametrize("n", [9, 10])
def test_closure_witness_at_the_dtype_change(n):
    # a 3-vertex simplex is closed; maps with other values break it
    els = (
        *enumerate_simplex(SimplexSpec(n, (0, n // 2, n - 1))),
        ChainEndo(n, [min(k, 2) for k in range(n)]),
        ChainEndo(n, [max(k - 1, 0) for k in range(n)]),
    )
    s = Subset.of(els)
    for ops, got in (
        (("+", "*"), analysis.is_subsemiring(els)),
        (("*",), analysis.is_closed(els, "*")),
    ):
        i, j, op, result = ref.closure_scan(els, ops)
        assert got == (False, analysis.ClosureWitness(s.elements[i], s.elements[j], op, result))


@st.composite
def closed_with_strays(draw):
    """A closed set with a few maps of its chain added, so escapes come late."""
    closed = draw(st.sampled_from(CLOSED))
    strays = draw(st.lists(st.sampled_from(MAPS[closed[0].n]), max_size=3))
    return _normalised((*closed, *strays))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(map_sets, closed_with_strays()),
    st.sampled_from([("+",), ("*",), ("+", "*")]),
)
def test_closure_scan_matches_reference(els, ops):
    expected = ref.closure_scan(els, ops)
    assert analysis._closure_scan(els, ops) == expected
    # budgets 1 and 3 keep blocks one row tall on all but one-map sets, 40
    # cuts most sets into a few blocks, and the default above scans most in
    # one: block seams fall on different rows
    for budget in (1, 3, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_PAIR_BUDGET", budget)
            assert analysis._closure_scan(els, ops) == expected


@pytest.fixture(scope="module")
def sweep_sets():
    """Every distinct set whose closure claims.run_all(5) scans."""
    seen = {}
    real = analysis._closure_scan

    def record(els, ops):
        s = Subset.of(els)
        seen.setdefault((s.n, s.values.tobytes()), s)
        return real(els, ops)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_closure_scan", record)
        claims.run_all(5)
    return list(seen.values())


def test_closure_scans_of_the_sweep_match_reference(sweep_sets):
    # the sets the claims scan, replayed under every op order with blocks of
    # the default size, of a few rows and of one row
    assert len(sweep_sets) == 496 and max(map(len, sweep_sets)) == 126
    for s in sweep_sets:
        for ops in (("+",), ("*",), ("+", "*"), ("*", "+")):
            _scan_under_budgets(s, ops, (analysis._PAIR_BUDGET, 40, 3, 1))


def test_closure_scan_tries_ops_in_the_given_order_within_a_pair():
    # the first pair escapes under both ops: 0_2 2 + 0 1_2 = 0 1 2 and
    # 0_2 2 * 0 1_2 = 0_2 1
    els = _normalised([parse_compact("0_2 2", 3), parse_compact("0 1_2", 3)])
    for ops in (("+", "*"), ("*", "+")):
        hit = analysis._closure_scan(els, ops)
        assert hit == ref.closure_scan(els, ops)
        assert hit[:3] == (0, 1, ops[0])


# Sets of C_4 whose first escape is known.  With 8 or 9 maps each spans
# several blocks under budgets 1 and 40, so the scan takes row 0 alone
# first.  hits: the first escape under ("+", "*") and ("*", "+").
ROW_ZERO_CASES = {
    "row 0 under + only": (
        ("0_2 2 3", "0_2 3_2", "0 1 2 3", "0 2_2 3", "1_3 3", "1_2 3_2", "1 2 3_2", "1 3_3"),
        ((0, 4, "+"), (0, 4, "+")),
    ),
    "row 0 under * only": (
        ("0_4", "0_2 1 3", "0 1 2 3", "0 1 3_2", "0 2_3", "0 2_2 3", "1_3 3", "1 2_3", "2_4"),
        ((0, 6, "*"), (0, 6, "*")),
    ),
    "row 0 under both at one pair": (
        ("0_2 2_2", "0_2 2 3", "0 1_3", "0 1 2 3", "0 3_3", "1_4", "1_2 3_2", "2_2 3_2", "3_4"),
        ((0, 2, "+"), (0, 2, "*")),
    ),
    "row 1": (
        ("0_4", "0_3 3", "0_2 1 2", "0_2 2_2", "0_2 3_2", "0 2_3", "2_4", "2_3 3"),
        ((1, 2, "+"), (1, 2, "*")),
    ),
}


def _scan_through_row_zero(monkeypatch, els, ops):
    """_closure_scan(els, ops) under small blocks, required to have scanned
    row 0 alone first, under every op, with both small budgets (and the
    whole set at once with the default)."""
    first = []

    def spy(s, rows, scanned):
        if rows.start == 0:
            first.append((rows.stop, scanned))
        return pair_escape(s, rows, scanned)

    pair_escape = analysis._pair_escape
    monkeypatch.setattr(analysis, "_pair_escape", spy)
    hit = _under_small_blocks(analysis._closure_scan, els, ops)
    assert first == [(len(els), ops), (1, ops), (1, ops)]
    return hit


@pytest.mark.parametrize("case", ROW_ZERO_CASES)
def test_row_zero_step_matches_reference(monkeypatch, case):
    maps, hits = ROW_ZERO_CASES[case]
    els = _normalised([parse_compact(m, 4) for m in maps])
    for ops, hit in zip((("+", "*"), ("*", "+")), hits):
        expected = ref.closure_scan(els, ops)
        assert expected[:3] == hit
        assert _scan_through_row_zero(monkeypatch, els, ops) == expected


@pytest.mark.parametrize("ops", [("+",), ("*",), ("+", "*")])
def test_row_zero_step_passes_closed_sets(monkeypatch, ops):
    closed = [_normalised(c) for c in CLOSED if len(c) ** 2 > 40]
    assert len(closed) > 10
    for els in closed:
        assert _scan_through_row_zero(monkeypatch, els, ops) is None


def test_row_zero_step_in_the_ideal_scan():
    # the additive scan of is_ideal escapes at row 0 of the candidate
    maps, _ = ROW_ZERO_CASES["row 0 under + only"]
    ideal = [parse_compact(m, 4) for m in maps]
    got = _under_small_blocks(analysis.is_ideal, ideal, MAPS[4])
    assert got == ref.is_ideal(ideal, MAPS[4])
    assert got[1].kind == "add"


def test_row_zero_escape_builds_no_rank_table():
    # the radius-7 neighborhood of vertex 1 of the n = 8 simplex has 3,432
    # maps and escapes at its first pair under *
    s = discrete_neighborhood(SimplexSpec(8, tuple(range(8))), 1, 7)
    assert analysis._closure_scan(s, ("+", "*")) == ref.closure_scan(s, ("+", "*"))
    assert analysis._closure_scan(s, ("+", "*"))[:3] == (0, 0, "*")
    assert "product_table" not in vars(s)
    closed = enumerate_simplex(SimplexSpec(8, (0, 2, 4, 6)))  # 165 maps, two blocks
    assert len(closed) ** 2 > analysis._PAIR_BUDGET
    assert analysis._closure_scan(closed, ("+", "*")) is None
    assert "product_table" in vars(closed)


def test_sums_stop_at_the_row_of_a_later_product_escape(monkeypatch):
    # the radius-4 neighborhood of vertex 4 of the n = 8 simplex (330 maps,
    # two or more blocks) keeps row 0 inside, is closed under + and escapes
    # first at row 4 under *; after row 0, only the sums of rows 1 to 4 can
    # come first
    s = discrete_neighborhood(SimplexSpec(8, tuple(range(8))), 4, 4)
    summed = []
    real = analysis._sums

    def spy(X, s, cols=slice(None)):
        summed.append(s.find(X).tolist())
        return real(X, s, cols)

    monkeypatch.setattr(analysis, "_sums", spy)
    for ops in (("+", "*"), ("*", "+")):
        summed.clear()
        hit = analysis._closure_scan(s, ops)
        assert hit == ref.closure_scan(s, ops) and hit[:3] == (4, 315, "*")
        assert summed == [[0], [1, 2, 3, 4]]
    assert analysis.is_closed(s, "+") == (True, None)


# The class pass.  After row 0, the products of a set above the gate, whose
# N**2 * n gathers exceed _CLASS_PASS_BUDGETS pair budgets, run by image
# class (the rows from 1 on that take one set of values): _restriction_classes
# gives each image the first member of each restriction class to it, and
# _class_escape keys a class against these alone, once per signature that
# has not stayed inside.  Budgets 1 and 3 open the gate on most small sets.


class _RepresentativeSpy:
    """Records the pair budgets under which _class_escape ran, and the
    (head row, hit) of each class it found an escape in."""

    def __init__(self, mp):
        self.budgets, self.hits = set(), []
        real = analysis._class_escape

        def spy(s, G, F, columns):
            hit = real(s, G, F, columns)
            self.budgets.add(analysis._PAIR_BUDGET)
            if hit is not None:
                self.hits.append((int(G[0]), hit))
            return hit

        mp.setattr(analysis, "_class_escape", spy)

    def scan(self, els, ops):
        """_closure_scan(els, ops) under the default budget and budgets 1, 3
        and 40, which must equal the reference loop's."""
        self.budgets.clear()
        self.hits.clear()
        hit = analysis._closure_scan(els, ops)
        assert hit == _scan_under_budgets(els, ops)
        return hit


def _class_heads(els):
    """First rows of the images that two or more rows from 1 on share."""
    rows = {}
    for i, e in enumerate(_normalised(els)[1:], 1):
        rows.setdefault(frozenset(e.values), []).append(i)
    return [group[0] for group in rows.values() if len(group) > 1]


def _above_the_gate(els, budget=1):
    return len(els) ** 2 * els[0].n > analysis._CLASS_PASS_BUDGETS * budget


@pytest.mark.parametrize("ops", [("*",), ("+", "*"), ("*", "+")])
def test_representatives_pass_closed_sets(monkeypatch, ops):
    spy = _RepresentativeSpy(monkeypatch)
    closed = [_normalised(c) for c in CLOSED if len(c) ** 2 > 40 and _class_heads(c)]
    assert len(closed) > 10
    under_3 = 0
    for els in closed:
        assert spy.scan(els, ops) is None
        assert 1 in spy.budgets and not spy.hits
        under_3 += 3 in spy.budgets
    assert under_3 > 10


@settings(max_examples=150, deadline=None)
@given(closed_with_strays(), st.sampled_from([("*",), ("+", "*"), ("*", "+")]))
def test_representatives_match_reference_with_strays(els, ops):
    with pytest.MonkeyPatch.context() as mp:
        spy = _RepresentativeSpy(mp)
        hit = spy.scan(els, ops)
    # the class pass runs on every set above the gate whose row 0 keeps
    # its products inside
    if _above_the_gate(els) and (hit is None or hit[0] > 0):
        assert 1 in spy.budgets


# Sets of C_5 whose first escape x_i * x_j, under both op orders, is in
# neither row 0 nor the head row of the image class of row i, so only the
# class pass keys it, under budgets 1 and 3 alike: (maps, (i, j, op), rows
# of the class, the members that agree with x_j on the image of x_i).  In
# the second, x_j is the first of three such members.
LATE_CLASS_ROWS = [
    (
        (
            "2_5", "2_4 3", "2_4 4", "2_3 3_2", "2_3 3 4", "2_2 3_3", "2_2 3_2 4", "2_2 3 4_2",
            "2_2 4_3", "2 3_3 4", "2 3_2 4_2", "2 3 4_3", "2 4_4", "3_5", "3_4 4", "3_3 4_2",
            "3_2 4_3", "3 4_4", "4_5",
        ),
        (7, 2, "*"),
        [4, 6, 7, 9, 10, 11],
        [2],
    ),
    (
        (
            "0_5", "0_4 1", "0_4 2", "0_3 1_2", "0_3 1 2", "0_3 2_2", "0_2 1_2 2", "0_2 1 2_2",
            "0_2 2_3", "0 1_4", "0 1_3 2", "0 1_2 2_2", "0 2_4", "1_5", "1_4 2", "1_3 2_2",
            "1_2 2_3", "1 2_4", "2_5",
        ),
        (6, 9, "*"),
        [4, 6, 7, 10, 11],
        [9, 10, 11],
    ),
]


@pytest.mark.parametrize("case", LATE_CLASS_ROWS, ids=["single", "first-of-three"])
def test_first_escape_in_a_later_row_of_a_class(monkeypatch, case):
    maps, want, rows, agreeing = case
    els = _normalised([parse_compact(m, 5) for m in maps])
    V = Subset.of(els).values
    image = np.unique(V[want[0]])
    assert [i for i in range(1, len(els)) if np.array_equal(np.unique(V[i]), image)] == rows
    assert [j for j in range(len(els)) if (V[j, image] == V[want[1], image]).all()] == agreeing
    spy = _RepresentativeSpy(monkeypatch)
    for ops in (("+", "*"), ("*", "+")):
        assert spy.scan(els, ops)[:3] == want
        assert {1, 3} <= spy.budgets
        assert (rows[0], want[:2]) in spy.hits


def test_sum_and_product_escape_on_one_pair_of_a_later_class_row(monkeypatch):
    # the first escape of both ops is 0_2 2_2 + 0 1_2 3 = 0 1 2_2 and
    # 0_2 2_2 * 0 1_2 3 = 0_2 1_2 at (3, 4); row 3 is the second of the
    # image class {0, 2} (rows 2, 3 and 5), keyed against representatives
    # under budget 1, while the sum is keyed in a block of its own; the set
    # gathers 7**2 * 4 = 196 pairs, so the gate is lowered below that
    maps = ("0_4", "0_3 1", "0_3 2", "0_2 2_2", "0 1_2 3", "0 2_3", "2_4")
    els = _normalised([parse_compact(m, 4) for m in maps])
    monkeypatch.setattr(analysis, "_CLASS_PASS_BUDGETS", 100)
    spy = _RepresentativeSpy(monkeypatch)
    for ops in (("+", "*"), ("*", "+")):
        assert spy.scan(els, ops)[:3] == (3, 4, ops[0])
        assert 1 in spy.budgets
        assert (2, (3, 4)) in spy.hits
    assert spy.scan(els, ("*",))[:3] == (3, 4, "*")
    assert spy.scan(els, ("+",))[:3] == (3, 4, "+")


def test_representatives_key_under_a_quarter_of_the_products(monkeypatch):
    s = enumerate_simplex(SimplexSpec(8, tuple(range(8))))
    keyed = []
    real = analysis._escape

    def counted(s, keys, rows, cols):
        keyed.append(keys.size)
        return real(s, keys, rows, cols)

    monkeypatch.setattr(analysis, "_escape", counted)
    assert analysis._closure_scan(s, ("*",)) is None  # every key is a product's
    assert sum(keyed) < len(s) ** 2 / 4


FULL_8 = SimplexSpec(8, tuple(range(8)))


class _ClassSpy:
    """Records each image, with its numbers of first members and of ranks,
    that _restriction_classes yields, and the image size of each class that
    _class_escape scans."""

    def __init__(self, mp):
        self.images, self.scanned = [], []
        classes, escape = analysis._restriction_classes, analysis._class_escape

        def spy_classes(*args):
            for I, F, R in classes(*args):
                self.images.append((I, len(F), len(R)))
                yield I, F, R

        def spy_escape(s, G, F, columns):
            self.scanned.append(len(np.unique(s.values[G[0]])))
            return escape(s, G, F, columns)

        mp.setattr(analysis, "_restriction_classes", spy_classes)
        mp.setattr(analysis, "_class_escape", spy_escape)


def test_image_classes_of_one_signature_scan_their_rows_once(monkeypatch):
    # on the full simplex the members restricted to an image I are every
    # monotone |I|-tuple, and the quotients of a class onto I are every
    # surjection, so a class's signature is fixed by |I|: 254 classes (all
    # images but {0}, row 0's alone) and 8 signatures, one G x F scan each
    s = enumerate_simplex(FULL_8)
    spy = _ClassSpy(monkeypatch)
    assert analysis._closure_scan(s, ("*",)) is None
    assert len(spy.images) == 254
    for I, first, ranks in spy.images:
        assert first == ranks == comb(8 + I.bit_count() - 1, I.bit_count())
    assert sorted(spy.scanned) == list(range(1, 9))
    assert "product_table" not in vars(s)


def test_images_of_equal_restriction_sets_share_a_signature_in_any_order(monkeypatch):
    # the full simplex of C_4 without the identity is closed under *; its
    # images {0, 1, 2} and {1, 2, 3} hold all 20 monotone triples as
    # restrictions, but 1 2 3 comes last on {1, 2, 3}, where the identity
    # would have held it first; their classes share one signature (a set of
    # restrictions), so only the first is scanned
    els = _normalised([e for e in MAPS[4] if e.values != (0, 1, 2, 3)])
    s = Subset.of(els)
    V = s.values
    first = {}
    for points in ((0, 1, 2), (1, 2, 3)):
        seen = dict.fromkeys(tuple(v) for v in V[:, points].tolist())
        first[points] = list(seen)
    assert set(first[0, 1, 2]) == set(first[1, 2, 3]) and len(first[0, 1, 2]) == 20
    assert first[0, 1, 2] != first[1, 2, 3]
    spy = _ClassSpy(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "_PAIR_BUDGET", 1)
        assert analysis._closure_scan(els, ("*",)) is None
    yielded = [I for I, _, _ in spy.images]
    assert {0b0111, 0b1110} <= set(yielded)
    assert spy.scanned.count(3) == 1
    for ops in (("+",), ("*",), ("+", "*"), ("*", "+")):
        _scan_under_budgets(els, ops)


# Sets of C_4 whose image classes G and H (rows from 1 on, given by their
# rows) share one signature and both escape under *; G is scanned first, but
# H holds the first escape: (maps, G, H, own first escape of G and of H).
ONE_SIGNATURE_CASES = [
    (
        # the full simplex of C_4 without 0 1 3_2, 0 2 3_2, 2_2 3_2 and 2 3_3
        (
            "0_4", "0_3 1", "0_3 2", "0_3 3", "0_2 1_2", "0_2 1 2", "0_2 1 3", "0_2 2_2",
            "0_2 2 3", "0_2 3_2", "0 1_3", "0 1_2 2", "0 1_2 3", "0 1 2_2", "0 1 2 3",
            "0 2_3", "0 2_2 3", "0 3_3", "1_4", "1_3 2", "1_3 3", "1_2 2_2", "1_2 2 3",
            "1_2 3_2", "1 2_3", "1 2_2 3", "1 2 3_2", "1 3_3", "2_4", "2_3 3", "3_4",
        ),
        [19, 21, 24],
        [3, 9, 17],
        ((21, 26), (9, 29)),
    ),
]


@pytest.mark.parametrize("case", ONE_SIGNATURE_CASES)
def test_a_later_class_of_one_signature_reports_its_own_escape(monkeypatch, case):
    # an escaping signature is not kept, so H is scanned and its escape,
    # the first of the set, is the witness
    maps, G, H, (own_g, own_h) = case
    els = _normalised([parse_compact(m, 4) for m in maps])
    want = ref.closure_scan(els, ("*",))
    assert want[:2] == own_h < own_g
    spy = _RepresentativeSpy(monkeypatch)
    for ops in (("*",), ("+", "*"), ("*", "+")):
        assert spy.scan(els, ops) == ref.closure_scan(els, ops)
        assert {(G[0], own_g), (H[0], own_h)} <= set(spy.hits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_PAIR_BUDGET", 1)
        spy.hits.clear()
        analysis._closure_scan(els, ("*",))
    heads = [head for head, _ in spy.hits]
    assert heads.index(G[0]) < heads.index(H[0])


# Sets that exercise the class pass around the cases above: (n, maps).
# "after a pass": a class stays inside, so its signature is kept, and a
# later class of another signature escapes.  "U short of the chain": the
# simplex on {0, 2, 4} of C_5 without 0 2_4, whose rows take no value 1 or
# 3, so U, the union of their images, is {0, 2, 4} and the restriction
# classes start below the whole chain.
CLASS_PASS_CASES = {
    "after a pass": (
        4,
        (
            "0_4", "0_2 1 2", "0 1_3", "0 1 2 3", "0 2 3_2", "0 3_3", "1_4", "1_3 3",
            "1 2_3", "1 2_2 3", "2_4", "2_2 3_2", "2 3_3", "3_4",
        ),
    ),
    "U short of the chain": (
        5,
        (
            "0_5", "0_4 2", "0_4 4", "0_3 2_2", "0_3 2 4", "0_3 4_2", "0_2 2_3", "0_2 2_2 4",
            "0_2 2 4_2", "0_2 4_3", "0 2_3 4", "0 2_2 4_2", "0 2 4_3", "0 4_4", "2_5",
            "2_4 4", "2_3 4_2", "2_2 4_3", "2 4_4", "4_5",
        ),
    ),
}


@pytest.mark.parametrize("case", CLASS_PASS_CASES)
def test_class_pass_cases_match_reference(monkeypatch, case):
    n, maps = CLASS_PASS_CASES[case]
    els = _normalised([parse_compact(m, n) for m in maps])
    spy = _RepresentativeSpy(monkeypatch)
    scans = []
    real = analysis._restriction_classes

    def spy_classes(s, VT, images):
        scans.append(int(np.bitwise_or.reduce(images)))
        return real(s, VT, images)

    monkeypatch.setattr(analysis, "_restriction_classes", spy_classes)
    for ops in (("+",), ("*",), ("+", "*"), ("*", "+")):
        spy.scan(els, ops)
    assert 1 in spy.budgets
    if case == "after a pass":
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "_PAIR_BUDGET", 1)
            spy.hits.clear()
            hit = analysis._closure_scan(els, ("*",))
        assert hit[:3] == ref.closure_scan(els, ("*",))[:3] and spy.hits
    else:
        assert set(scans) == {0b10101}


def _picks_of_one_chain():
    """Two to 60 maps of one chain of 3 to 6 points, with repeats."""
    return st.integers(3, 6).flatmap(
        lambda n: st.lists(st.sampled_from(MAPS[n]), min_size=2, max_size=60)
    )


@settings(max_examples=300, deadline=None)
@given(
    _picks_of_one_chain().map(_normalised),
    st.sampled_from([("+",), ("*",), ("+", "*"), ("*", "+")]),
    st.sampled_from([1, 3]),
)
def test_class_pass_matches_reference_on_random_sets(els, ops, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_PAIR_BUDGET", budget)
        assert analysis._closure_scan(els, ops) == ref.closure_scan(els, ops)


@settings(max_examples=100, deadline=None)
@given(_picks_of_one_chain())
def test_restriction_classes_match_a_direct_count(picks):
    # F: the first member of each distinct restriction y|I; R: their ranks
    # among the monotone |I|-tuples, the key of the map with n - |I| zeros
    # before the tuple
    s = Subset.of(picks)
    if len(s) < 2:
        return
    n, V = s.n, s.values
    images = sorted({sum(1 << v for v in set(row)) for row in V[1:].tolist()})
    VT = np.ascontiguousarray(V.T, dtype=np.int8).ravel()
    got = {I: (F.tolist(), R.tolist()) for I, F, R in analysis._restriction_classes(s, VT, images)}
    assert sorted(got) == images
    for I in images:
        points = [k for k in range(n) if I >> k & 1]
        first = {}
        for j, row in enumerate(V[:, points].tolist()):
            first.setdefault(tuple(row), j)
        ranks = sorted(_rank(ChainEndo(n, [0] * (n - len(points)) + list(r))) for r in first)
        assert got[I] == (sorted(first.values()), ranks)


# The prefix pass.  After row 0, when no product escapes first, the sums of a
# set above the gate (see the class pass) are decided per triple
# of suffix sets of its prefix classes, one representative pair of classes
# each, and the sums loop runs only over the first class that escapes.


class _PrefixSpy:
    """Records the representative pairs of each prefix pass, the rows and
    the number of columns of each pair of classes it keys (its blocks of
    the rows of one class against the columns of another), and the rows of
    each block the pair loop sums after row 0."""

    def __init__(self, mp):
        self.pairs, self.keyed, self.looped = [], [], []
        self.passing = False
        reps, sum_class, blocks, sums = (
            analysis._sum_representatives,
            analysis._sum_class,
            analysis._blocks,
            analysis._sums,
        )

        def spy_reps(s):
            found = reps(s)
            self.pairs.append(found)
            return found

        def spy_class(s):
            self.passing = True
            try:
                return sum_class(s)
            finally:
                self.passing = False

        def spy_blocks(size, width, first=0):
            # in the pass, one call per pair keyed: its left class's rows
            # against its right class's width columns
            if self.passing:
                self.keyed.append((slice(first, size), width))
            return blocks(size, width, first)

        def spy_sums(X, s, cols=slice(None)):
            rows = s.find(X)
            if rows[0] > 0:  # row 0 is summed alone before any pass
                self.looped.append(slice(int(rows[0]), int(rows[-1]) + 1))
            return sums(X, s, cols)

        mp.setattr(analysis, "_sum_representatives", spy_reps)
        mp.setattr(analysis, "_sum_class", spy_class)
        mp.setattr(analysis, "_blocks", spy_blocks)
        mp.setattr(analysis, "_sums", spy_sums)

    def clear(self):
        self.pairs.clear()
        self.keyed.clear()
        self.looped.clear()


def _scan_under_budgets(els, ops, budgets=(1, 3, 40)):
    """The reference loop's first escape, required of _closure_scan(els, ops)
    under each budget."""
    want = ref.closure_scan(els, ops)
    for budget in budgets:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_PAIR_BUDGET", budget)
            assert analysis._closure_scan(els, ops) == want, budget
    return want


@st.composite
def closed_with_holes(draw):
    """A closed set with a few of its maps taken out, so sums escape late."""
    closed = _normalised(draw(st.sampled_from(CLOSED)))
    holes = draw(st.sets(st.integers(0, len(closed) - 1), max_size=3))
    return tuple(e for i, e in enumerate(closed) if i not in holes) or closed


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(closed_with_holes(), closed_with_strays()),
    st.sampled_from([("+",), ("+", "*"), ("*", "+")]),
)
def test_prefix_pass_matches_reference(els, ops):
    with pytest.MonkeyPatch.context() as mp:
        spy = _PrefixSpy(mp)
        hit = _scan_under_budgets(els, ops)
    # under budget 1 every set above the gate whose sums are not cut short
    # by row 0 or a product escape takes the pass
    late = hit is None or (hit[2] == "+" and hit[0] > 0 and ops == ("+",))
    if late and _above_the_gate(els):
        assert spy.pairs


# Sets closed under * whose first escape is a sum after row 0, in a prefix
# class after the first: (n, maps, first escape, class of its row).  In
# the first the class's first pair is keyed and escapes; in the second the
# class of its row pairs with a class whose prefix it joins to none of the
# set's; in the third the class's first pair stays inside and a later one
# escapes, after the pairs of an earlier class all stayed inside.
LATE_SUM_CASES = {
    "keyed": (
        4,
        (
            "0_4", "0_3 1", "0_2 1_2", "0 1_3", "0 1 3_2", "1_4", "1_3 2", "1_3 3", "1_2 2_2",
            "1_2 3_2", "1 2_3", "1 2 3_2", "1 3_3", "2_4", "2_3 3", "2_2 3_2", "2 3_3", "3_4",
        ),
        (7, 8, "+"),
        2,
    ),
    "missing joined prefix": (
        5,
        (
            "0_5", "0_4 1", "0_4 2", "0_4 3", "0_3 1_2", "0_3 1 2", "0_3 1 3", "0_3 2_2",
            "0_3 2 3", "0_3 3 4", "0_2 1_3", "0_2 1_2 2", "0_2 1_2 3", "0_2 1 2_2",
            "0_2 1 2 3", "0_2 1 3 4", "0 1 2_3", "0 1 2_2 3",
        ),
        (9, 16, "+"),
        3,
    ),
    "later pair of the class": (
        6,
        (
            "0_6", "0_5 1", "0_5 2", "0_4 1_2", "0_4 1 2", "0_3 1_3", "0_3 1_2 2",
            "0_3 1 2_2", "0_3 2_3", "0_2 1_4", "0_2 1_3 2", "0_2 1 2_3",
        ),
        (7, 9, "+"),
        1,
    ),
}


@pytest.mark.parametrize("case", LATE_SUM_CASES)
def test_sums_escape_in_a_later_prefix_class(monkeypatch, case):
    n, maps, want, cls = LATE_SUM_CASES[case]
    els = _normalised([parse_compact(m, n) for m in maps])
    assert analysis.is_closed(els, "*") == (True, None)
    _, bounds = analysis._prefix_classes(Subset.of(els))
    assert np.searchsorted(bounds, want[0], side="right") - 1 == cls
    spy = _PrefixSpy(monkeypatch)
    for ops in (("+",), ("+", "*"), ("*", "+")):
        spy.clear()
        assert _scan_under_budgets(els, ops, (1, 3))[:3] == want
        # the pass ran under each budget, and the sums loop only over the
        # rows of the class
        assert len(spy.pairs) == 2
        rows = slice(bounds[cls], bounds[cls + 1])
        assert all(rows.start <= b.start < b.stop <= rows.stop for b in spy.looped)
    # budget 40 leaves the set below the gate, to the sums loop from row 1
    assert not _above_the_gate(els, 40)
    for ops in (("+",), ("+", "*"), ("*", "+")):
        assert _scan_under_budgets(els, ops, (40,))[:3] == want
    _, _, pairs, joined = spy.pairs[0]
    lost = joined[pairs[:, 0] == cls] < 0
    keyed_rows = [rows for rows, _ in spy.keyed]
    if case == "keyed":
        assert len(lost) and not lost.any()
        assert slice(bounds[cls], bounds[cls + 1]) in keyed_rows
    elif case == "missing joined prefix":
        # the class fails without a key: no member holds the joined prefix
        assert lost.any()
        assert slice(bounds[cls], bounds[cls + 1]) not in keyed_rows
    else:
        # each of the two passes keys the pairs in row order up to the one
        # that escapes: an earlier class's first, then two or more of the
        # class's, so that its first pair stayed inside
        assert len(lost) > 1 and not lost.any()
        every = [(slice(bounds[c], bounds[c + 1]), bounds[d + 1] - bounds[d]) for c, d in pairs]
        one = spy.keyed[: len(spy.keyed) // 2]
        assert spy.keyed == 2 * one and one == every[: len(one)] and len(one) < len(every)
        assert one[0][0].stop <= rows.start and one[-1][0] == rows
        assert keyed_rows[: len(one)].count(rows) > 1


def _distinct_triples(s, h):
    """Distinct triples of the prefix classes of prefix length h: the two
    suffix sets of a pair of classes, unordered, and the suffix set of the
    class of their joined prefix (None when no class has it)."""
    suffixes = {}
    for row in map(tuple, s.values.tolist()):
        suffixes.setdefault(row[:h], []).append(row[h:])
    suffixes = {p: frozenset(t) for p, t in suffixes.items()}
    triples = {}
    for p, q in itertools.combinations_with_replacement(suffixes, 2):
        join = tuple(map(max, p, q))
        triples[frozenset((suffixes[p], suffixes[q])), suffixes.get(join)] = None
    return len(suffixes), len(triples)


def test_closed_sets_key_one_pair_of_classes_per_triple(monkeypatch):
    s = enumerate_simplex(FULL_8)
    # the shortest prefix with C**2 >= N: 36**2 < 6,435 <= 120**2
    assert analysis._prefix_classes(s)[0] == 3
    assert _distinct_triples(s, 3) == (120, 36)
    spy = _PrefixSpy(monkeypatch)
    for ops in (("+",), ("+", "*")):
        spy.clear()
        assert analysis._closure_scan(s, ops) is None
        [(h, bounds, pairs, joined)] = spy.pairs
        assert len(pairs) == 36 and (joined >= 0).all()
        # each pair keyed once, in row order: the rows of its left class
        # against the columns of its right class; and no sums loop
        assert spy.keyed == [
            (slice(bounds[c], bounds[c + 1]), bounds[d + 1] - bounds[d]) for c, d in pairs
        ]
        assert spy.looped == []
    assert "product_table" not in vars(s)


def test_closure_scan_peak_stays_within_the_pair_loops(monkeypatch):
    # the pair loops this scan replaced peaked at 2,087 KiB here (rank
    # tables, index table and blocks); the bound leaves a quarter more,
    # while a representative block keyed in one piece adds about 9 MiB
    s = enumerate_simplex(FULL_8)
    tracemalloc.start()
    try:
        assert analysis.is_subsemiring(s) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2087 * 1024 * 5 // 4


def _shuffled_full_7(rng, drop=None):
    """The full simplex of C_7 without drop, its top constant first and the
    other rows shuffled, as a Subset that trusts that order."""
    V = enumerate_simplex(SimplexSpec(7, tuple(range(7)))).values
    V = V[[not np.array_equal(v, drop) for v in V]] if drop is not None else V
    rest = rng.permutation(len(V) - 1)
    return Subset.from_values(7, np.vstack((V[-1:], V[rest])))


def test_the_prefix_pass_refuses_rows_out_of_order():
    rng = np.random.default_rng(6)
    # closed, so the scan reaches the sums after row 0 and the products,
    # which the class pass takes in any row order
    closed = _shuffled_full_7(rng)
    assert _above_the_gate(closed, analysis._PAIR_BUDGET)
    with pytest.raises(ValueError, match="strictly ascending"):
        analysis.is_subsemiring(closed)
    # without the identity the sums escape after row 0 in lex order; row 0
    # here, the top constant, keeps every sum inside
    identity = np.arange(7)
    late = _shuffled_full_7(rng, identity)
    sorted_hit = ref.closure_scan(Subset.of(late.elements), ("+",))
    assert sorted_hit[0] > 0 and np.array_equal(sorted_hit[3].values, identity)
    with pytest.raises(ValueError, match="strictly ascending"):
        analysis.is_closed(late, "+")


def test_the_prefix_pass_refuses_rows_out_of_order_under_optimize():
    code = (
        "import numpy as np\n"
        "from chainendo import analysis, simplex\n"
        "V = simplex.enumerate_simplex(simplex.SimplexSpec(7, tuple(range(7)))).values\n"
        "s = analysis.Subset.from_values(7, V[np.random.default_rng(6).permutation(len(V))])\n"
        "try:\n"
        "    analysis.is_subsemiring(s)\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "strictly ascending" in done.stdout


def _index_tables(s):
    """(N, N) member indices of x_i + x_j and x_i * x_j, -1 outside the set."""
    return s.index_of(analysis._sums(s.values, s)), s.index_of(analysis._products(s.values, s))


@settings(max_examples=150, deadline=None)
@given(map_sets)
def test_table_entries_are_the_object_results(els):
    A, M = _index_tables(Subset.of(els))
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
    got, want = _under_small_blocks(analysis.identities, els), ref.identities(els)
    assert (tuple(got.left), tuple(got.right)) == (want.left, want.right)


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
@given(st.sampled_from(CLOSED).map(_normalised), st.data())
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
    return _normalised(found)


# CLOSED and the closure of every pair of maps on C_2..C_4: many of these
# share a size and the invariants the iso search prunes by, so the search
# has to backtrack and to reject
CLOSED_POOL = list(
    dict.fromkeys(
        (
            *map(_normalised, CLOSED),
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
        assert analysis._triple_law_scan(*_index_tables(Subset.of(els))) is None
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
    dst = draw(st.one_of(map_sets, st.sampled_from(CLOSED).map(_normalised)))
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
