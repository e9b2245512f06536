"""Set-level machinery: closure scans, ideals, triviality, isomorphism."""

import ast
import dataclasses
import inspect
import random
import typing
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import reference_loops as ref
from chainendo import analysis, claims, counting, simplex, strings, triangle
from chainendo.analysis import (
    ChainTooLong,
    ClosureWitness,
    NotClosed,
    NotSubset,
    Subset,
    classify_element,
    identities,
    is_closed,
    is_ideal,
    is_subsemiring,
    iso_check,
    similar_pairs,
    triviality,
)
from chainendo.core import (
    ChainEndo,
    ChainEndoError,
    SizeMismatch,
    all_endomorphisms,
    constant,
    identity,
    parse_compact,
)
from chainendo.simplex import SimplexSpec
from chainendo.strings import StringSpec
from chainendo.triangle import TriangleSpec


def endo(text, n):
    return parse_compact(text, n)


class TestCanonical:
    def test_sorts_and_deduplicates(self):
        a, b = constant(3, 0), constant(3, 1)
        assert Subset.of([b, a, b]).elements == (a, b)

    def test_rejects_mixed_sizes(self):
        with pytest.raises(SizeMismatch, match=r"mixed chain sizes \[3, 4\]"):
            Subset.of([constant(4, 0), constant(3, 0), constant(4, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Subset.of([])

    def test_subset_helper(self):
        sub = Subset.of([constant(3, 1), constant(3, 0)])
        assert sub.elements == (constant(3, 0), constant(3, 1))


class TestEmptySets:
    """A Subset may be empty; every check refuses it before any scan, where
    _blocks(0, 0) would divide by zero."""

    EMPTY = Subset.from_values(3, np.zeros((0, 3), dtype=np.int64))
    FULL = Subset.of(all_endomorphisms(3))

    def test_empty_subset_is_a_set_of_its_chain(self):
        assert len(self.EMPTY) == 0 and not self.EMPTY
        assert list(self.EMPTY) == [] and tuple(self.EMPTY) == ()
        assert self.EMPTY == self.FULL[:0] == self.FULL[np.zeros(len(self.FULL), dtype=bool)]
        assert hash(self.EMPTY) == hash(self.FULL[:0])
        assert self.EMPTY != Subset.from_values(4, np.zeros((0, 4), dtype=np.int64))
        assert identity(3) not in self.EMPTY

    @pytest.mark.parametrize("empty", [EMPTY, []], ids=["subset", "list"])
    @pytest.mark.parametrize(
        "check",
        [
            lambda e, s: is_closed(e, "+"),
            lambda e, s: is_closed(e, "*"),
            lambda e, s: is_subsemiring(e),
            lambda e, s: is_ideal(e, s),
            lambda e, s: is_ideal(s, e),
            lambda e, s: triviality(e),
            lambda e, s: identities(e),
            lambda e, s: similar_pairs(e, "left"),
            lambda e, s: similar_pairs(e, "right"),
            lambda e, s: iso_check(e, s),
            lambda e, s: iso_check(s, e),
        ],
        ids=[
            "is_closed+", "is_closed*", "is_subsemiring", "is_ideal-inner", "is_ideal-outer",
            "triviality", "identities", "similar_left", "similar_right", "iso-first", "iso-second",
        ],
    )
    def test_every_check_refuses_an_empty_set(self, check, empty, monkeypatch):
        def no_scan(size, width):
            raise AssertionError("an empty set reached a scan")

        monkeypatch.setattr(analysis, "_blocks", no_scan)
        with pytest.raises(ValueError, match="empty set of endomorphisms"):
            check(empty, self.FULL)


class TestIndexing:
    S = Subset.of(all_endomorphisms(3))

    def test_an_integer_gives_a_map(self):
        assert self.S[0] == constant(3, 0) and self.S[-1] == constant(3, 2)
        assert self.S[np.int64(1)] == self.S.elements[1]

    def test_slices_and_masks_give_subsets_in_order(self):
        mask = np.array([e.is_idempotent() for e in self.S])
        for cut, want in (
            (self.S[2:5], self.S.elements[2:5]),
            (self.S[-3:], self.S.elements[-3:]),
            (self.S[::1], self.S.elements),
            (self.S[mask], tuple(e for e in self.S.elements if e.is_idempotent())),
        ):
            assert isinstance(cut, Subset) and cut.n == 3
            assert tuple(cut) == want and cut == Subset.of(want)
            assert (np.diff(cut.keys) > 0).all()
        whole = simplex.enumerate_simplex(SimplexSpec(3, (0, 1, 2)))
        cuts = (whole[1:], whole[np.arange(len(whole)) % 2 == 0])
        assert all("elements" not in vars(s) for s in (whole, *cuts))  # no map built

    @pytest.mark.parametrize("step", [2, -1])
    def test_a_step_other_than_one_is_refused(self, step):
        # a reversed slice would break the strict ascent the set relies on
        with pytest.raises(ValueError, match="step 1"):
            self.S[::step]

    @pytest.mark.parametrize(
        "index",
        [np.array([0, 1]), np.array([0.0]), [0, 1], [True] * 10, 1.0, True, None, "0"],
        ids=["int-array", "float-array", "int-list", "bool-list", "float", "bool", "none", "str"],
    )
    def test_other_indexes_are_refused(self, index):
        with pytest.raises(TypeError, match="slice of step 1 or a boolean row mask"):
            self.S[index]

    def test_a_mask_of_the_wrong_length_is_refused(self):
        with pytest.raises(IndexError):
            self.S[np.ones(3, dtype=bool)]


class TestSetAlgebra:
    """Union, member lookup and membership answer from the value rows."""

    SUB = Subset.of([constant(3, 1), constant(3, 0)])
    LONG = StringSpec(40, 0, 39)

    def test_membership(self):
        assert constant(3, 1) in self.SUB and constant(3, 0) in self.SUB
        assert identity(3) not in self.SUB
        assert self.SUB == Subset.of([constant(3, 0), constant(3, 1)])

    @pytest.mark.parametrize(
        "item",
        [constant(4, 1), constant(2, 1), 1, (1, 1, 1), [1, 1, 1], np.array([1, 1, 1]), "1_3", None],
        ids=["longer-chain", "shorter-chain", "int", "tuple", "list", "array", "text", "none"],
    )
    def test_membership_is_false_for_other_chains_and_non_maps(self, item):
        assert item not in self.SUB

    def test_membership_on_an_empty_set(self):
        empty = self.SUB[:0]
        assert len(empty) == 0 and constant(3, 1) not in empty and identity(3) not in empty

    def test_membership_beyond_the_chain_limit(self):
        els = strings.elements(self.LONG)
        assert strings.elem(self.LONG, 7) in els and constant(40, 39) in els
        assert identity(40) not in els and constant(40, 1) not in els
        assert "keys" not in vars(els)  # answered without ranks

    def test_ideal_of_another_chain_is_not_a_subset(self):
        with pytest.raises(NotSubset):
            is_ideal([constant(3, 0)], all_endomorphisms(4))
        with pytest.raises(NotSubset):
            is_ideal(Subset.of(all_endomorphisms(4))[:1], Subset.of(all_endomorphisms(3)))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2), (6,), (3, 3, 1), ()])
    def test_find_refuses_rows_of_another_width(self, shape):
        full = Subset.of(all_endomorphisms(3))
        with pytest.raises(SizeMismatch, match="not maps of the chain of 3"):
            full.find(np.zeros(shape, dtype=np.int64))

    def test_find_takes_one_row_or_a_stack_of_them(self):
        full = Subset.of(all_endomorphisms(3))
        assert full.find(identity(3).values) == full.elements.index(identity(3))
        rows = np.array([[[0, 0, 0], [0, 1, 1]], [[2, 2, 2], [0, 1, 2]]])
        assert self.SUB.find(rows).tolist() == [[0, -1], [-1, -1]]

    def test_find_gives_minus_one_for_rows_that_are_no_maps(self):
        full = Subset.of(all_endomorphisms(3))
        rows = [[1, 0, 2], [2, 1, 0], [0, 2, 1], [-1, 0, 0], [0, 0, -1], [0, 0, 3], [3, 3, 3]]
        assert full.find(rows).tolist() == [-1] * len(rows)
        assert full.find([[0, 1, 2], [0, 2, 1]]).tolist() == [full.elements.index(identity(3)), -1]

    def test_find_beyond_the_chain_limit_is_refused(self):
        els = strings.elements(self.LONG)
        with pytest.raises(ChainTooLong):
            els.find(els.values[:1])

    def test_union_of_two_chains_is_refused(self):
        with pytest.raises(SizeMismatch):
            self.SUB | Subset.of([constant(4, 0)])
        with pytest.raises(TypeError):
            self.SUB | [constant(3, 2)]

    def test_union_with_an_empty_set(self):
        assert (self.SUB | self.SUB[:0]) == self.SUB == (self.SUB[:0] | self.SUB)
        assert len(self.SUB[:0] | self.SUB[:0]) == 0


def _shuffled_with_repeats(els, seed):
    """The maps of els in a random order, every third one twice."""
    rng = random.Random(seed)
    items = list(els) + list(els)[::3]
    rng.shuffle(items)
    return items


def _layer_cases(n):
    """(simplex, its layers) for every vertex of every simplex on the chain of n."""
    for k in range(1, n + 1):
        for verts in combinations(range(n), k):
            spec = SimplexSpec(n, verts)
            for m in range(k):
                yield simplex.enumerate_simplex(spec), simplex.layers(spec, m)


class TestSetAlgebraMatchesLoops:
    """Subset.of, |, find, in and Identities.two_sided against plain Python
    set and dict loops, on the layers of every simplex with n <= 6."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_of_union_find_and_membership(self, n):
        for full, layers in _layer_cases(n):
            for s, layer in enumerate(layers):
                nxt = layers[(s + 1) % len(layers)]
                if len(layer):
                    items = _shuffled_with_repeats(layer, seed=s)
                    assert tuple(Subset.of(items)) == ref.normalised(items) == tuple(layer)
                assert tuple(layer | nxt) == ref.union(layer, nxt)
                assert full.find(layer.values).tolist() == ref.find(full, layer.values.tolist())
                assert layer.find(full.values).tolist() == ref.find(layer, full.values.tolist())
                for e in (*layer, *nxt):  # members, then maps of another layer
                    assert (e in layer) == ref.contains(layer, e)
            whole = layers[0]
            for layer in layers[1:]:
                whole |= layer
            assert whole == full

    @pytest.mark.parametrize("n", range(1, 7))
    def test_two_sided_identities(self, n):
        for _, layers in _layer_cases(n):
            for layer in layers:
                if len(layer):
                    want = ref.identities(layer)
                    assert tuple(identities(layer).two_sided) == ref.two_sided(want.left, want.right)

    def test_of_and_union_beyond_the_chain_limit(self):
        low, high = StringSpec(40, 0, 39), StringSpec(40, 1, 39)
        first, second = strings.elements(low), strings.elements(high)
        assert tuple(first | second) == ref.union(first, second)
        items = _shuffled_with_repeats(first, seed=40)
        assert tuple(Subset.of(items)) == ref.normalised(items) == tuple(first)


class TestClosure:
    def test_whole_semiring_is_closed(self):
        ok, witness = is_subsemiring(all_endomorphisms(4))
        assert ok and witness is None

    def test_escape_reports_lex_first_witness(self):
        # three strings on {1, 2, 3} over four points: first escaping sum
        union = strings.three_string_union(4, 1, 2, 3)
        ok, witness = is_closed(union, "+")
        assert not ok
        assert witness.left == endo("1_3 3", 4)
        assert witness.right == endo("1_2 2_2", 4)
        assert witness.op == "+"
        assert witness.result == endo("1_2 2 3", 4)

    def test_addition_witness_precedes_multiplication(self):
        # a pair failing both ops must be reported with "+"
        bad = [endo("1_3 3", 4), endo("1_2 2_2", 4)]
        ok, witness = is_subsemiring(bad)
        assert not ok and witness.op == "+"

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            is_closed([identity(3)], "-")


class TestChainLimit:
    @pytest.mark.parametrize("n", [16, 20])
    def test_long_chain_is_refused_not_misjudged(self, n):
        # base-n keys of maps on C_16 overflow int64; the escape once reported
        # here, 3_16 * 3_3 9_13 = 9_16, is a member of the string
        with pytest.raises(ChainTooLong, match="n <= 15"):
            is_subsemiring(strings.elements(StringSpec(n, 3, 9)))

    def test_limit_is_a_chain_error(self):
        assert issubclass(ChainTooLong, ChainEndoError)

    def test_longest_supported_chain(self):
        ok, witness = is_subsemiring(strings.elements(StringSpec(15, 3, 9)))
        assert ok and witness is None

    def test_witness_at_the_longest_chain(self):
        # the same witnesses the base-n keys gave before keys became lex ranks
        n = 15
        halves = ChainEndo(n, tuple(min(v // 2 + 3, 14) for v in range(n)))
        shift = ChainEndo(n, tuple(min(v + 4, 14) for v in range(n)))
        step = ChainEndo(n, tuple(3 if v < 9 else 9 for v in range(n)))
        capped = ChainEndo(n, tuple(min(v // 2 + 3, 14) if v < 9 else 14 for v in range(n)))
        els = [halves, shift, step, capped]
        ok, witness = is_subsemiring(els)
        assert not ok
        assert witness == ClosureWitness(
            step, halves, "+", endo("3_2 4_2 5_2 6_2 7 9_5 10", n)
        )
        ok, witness = is_closed(els, "*")
        assert not ok
        assert witness == ClosureWitness(step, halves, "*", endo("4_9 7_6", n))


class TestIdeal:
    def test_nilpotent_block_is_ideal_of_lower_fixer(self):
        # nil_low absorbs inside fix(a) = nil_low + idem; the full string
        # breaks it (multiplying by an upper-run map lands on the top constant)
        part = strings.partition_string(StringSpec(5, 1, 3))
        fix_low = list(part.nil_low) + list(part.idem)
        ok, witness = is_ideal(part.nil_low, fix_low)
        assert ok and witness is None
        ok, witness = is_ideal(part.nil_low, strings.elements(StringSpec(5, 1, 3)))
        assert not ok and witness.kind == "right-absorb"

    def test_idempotent_block_is_not_ideal(self):
        part = strings.partition_string(StringSpec(5, 1, 3))
        ok, witness = is_ideal(part.idem, strings.elements(StringSpec(5, 1, 3)))
        assert not ok
        assert witness.kind in ("add", "left-absorb", "right-absorb")

    def test_ideal_must_be_subset(self):
        with pytest.raises(NotSubset):
            is_ideal([identity(4)], strings.elements(StringSpec(4, 0, 1)))


class TestTriviality:
    def test_lower_trivial_block(self):
        part = strings.partition_string(StringSpec(5, 1, 3))
        verdict = triviality(part.nil_low)
        assert verdict.is_trivial
        assert verdict.iota == constant(5, 1)
        assert verdict.flavor == "lower"

    def test_upper_trivial_block(self):
        part = strings.partition_string(StringSpec(5, 1, 3))
        verdict = triviality(part.nil_high)
        assert verdict.flavor == "upper"
        assert verdict.iota == constant(5, 3)

    def test_singleton_reads_upper(self):
        verdict = triviality([constant(4, 2)])
        assert verdict.is_trivial and verdict.iota_is_min and verdict.iota_is_max
        assert verdict.flavor == "upper"

    def test_non_trivial_set(self):
        verdict = triviality(strings.elements(StringSpec(4, 1, 2)))
        assert not verdict.is_trivial and verdict.iota is None
        assert verdict.flavor == "none"

    def test_requires_multiplicative_closure(self):
        with pytest.raises(NotClosed):
            triviality([endo("1_3 2", 4)])  # square is the constant, absent


class TestIdentities:
    def test_identity_map_is_two_sided(self):
        ids = identities(all_endomorphisms(3))
        assert tuple(ids.left) == (identity(3),)
        assert tuple(ids.right) == (identity(3),)
        assert tuple(ids.two_sided) == (identity(3),)

    def test_string_right_identities(self):
        ids = identities(strings.elements(StringSpec(4, 1, 2)))
        assert len(ids.left) == 0
        assert tuple(ids.right) == tuple(strings.partition_string(StringSpec(4, 1, 2)).idem)


class TestSimilarPairs:
    def test_left_similar_pairs_in_a_small_triangle(self):
        pairs = similar_pairs(triangle.elements(TriangleSpec(4, 1, 2, 3)), "left")
        assert (endo("1 2_3", 4), endo("2_4", 4)) in pairs
        # constants of different values act differently on the right
        assert (endo("1_4", 4), endo("2_4", 4)) not in pairs
        assert all(x < y for x, y in pairs)

    def test_no_right_similar_pairs(self):
        assert similar_pairs(triangle.elements(TriangleSpec(4, 1, 2, 3)), "right") == ()

    def test_side_validated(self):
        with pytest.raises(ValueError):
            similar_pairs([identity(3)], "middle")


class TestClassify:
    def test_idempotent(self):
        verdict = classify_element(endo("1_2 2_2", 4))
        assert verdict.kind == "idempotent"
        assert verdict.exponent == 1
        assert verdict.target is None

    def test_nilpotent(self):
        verdict = classify_element(endo("1_3 2", 4))
        assert verdict.kind == "nilpotent"
        assert verdict.idempotent == constant(4, 1)
        assert verdict.exponent == 2
        assert verdict.target == 1

    def test_root_of_idempotent(self):
        verdict = classify_element(endo("0_2 1 3_3", 6))
        assert verdict.kind == "root_of_idempotent"
        assert verdict.idempotent == endo("0_3 3_3", 6)
        assert verdict.exponent == 2
        assert verdict.idempotent == verdict.idempotent * verdict.idempotent
        assert verdict.target is None

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_power_loop_matches_the_reference_loops(self, n):
        for e in all_endomorphisms(n):
            limit = ref.eventual_idempotent(e)
            assert classify_element(e) == ref.classify_element(e), e
            assert e.eventual_idempotent() == limit, e
            want = limit.values[0] if limit.is_constant() else None
            assert e.nilpotency_target() == want, e


class TestLimits:
    """Subset.limits, one squaring pass over the value rows, against the power
    walk of ChainEndo._power_limit on every member."""

    @staticmethod
    def _assert_limits(s):
        assert s.limits.shape == (len(s), s.n)
        assert s.limits.tolist() == [list(e._power_limit()[0].values) for e in s]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_map_of_the_chain(self, n):
        self._assert_limits(simplex.enumerate_simplex(SimplexSpec(n, tuple(range(n)))))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_layers_and_neighborhoods_of_every_simplex(self, n):
        for k in range(1, n + 1):
            for verts in combinations(range(n), k):
                spec = SimplexSpec(n, verts)
                for m in range(k):
                    for s in simplex.layers(spec, m):
                        self._assert_limits(s)
                    for t in range(1, n + 1):
                        self._assert_limits(simplex.discrete_neighborhood(spec, m, t))

    def test_empty_set(self):
        empty = Subset.from_values(4, np.zeros((0, 4), dtype=np.int64))
        assert empty.limits.shape == (0, 4)

    @pytest.mark.parametrize("n", [20, 33])
    def test_strings_beyond_the_chain_limit(self, n):
        for a, b in ((0, 1), (0, n - 1), (n // 2, n // 2 + 1), (n - 2, n - 1)):
            self._assert_limits(strings.elements(StringSpec(n, a, b)))

    def test_a_map_that_needs_the_last_squaring(self):
        # exponent 5 at n = 6: two squarings reach only the fourth power
        shift = ChainEndo(6, (0, 0, 1, 2, 3, 4))
        assert shift._power_limit() == (constant(6, 0), 5)
        assert Subset.of([shift]).limits.tolist() == [[0] * 6]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_the_slowest_map_of_each_chain(self, n):
        # x -> max(x - 1, 0) has exponent n - 1, the largest on the chain
        shift = ChainEndo(n, (0, *range(n - 1)))
        assert shift._power_limit()[1] == max(1, n - 1)
        self._assert_limits(Subset.of([shift, identity(n), constant(n, n - 1)]))

    def test_limits_are_read_only(self):
        s = Subset.of(all_endomorphisms(3))
        with pytest.raises(ValueError, match="read-only"):
            s.limits[0, 0] = 1
        assert s.limits is s.limits  # built once


class TestIsoCheck:
    def test_set_is_isomorphic_to_itself(self):
        els = strings.elements(StringSpec(4, 1, 2))
        same, mapping = iso_check(els, els)
        assert same and all(mapping[e] == e for e in els)

    def test_first_isomorphism_in_assignment_order(self):
        # the two incomparable maps can be swapped, which is an automorphism
        # too; candidates are tried in ascending order, so the identity
        # comes first
        els = [endo("0_2 3_2", 4), endo("1_2 2_2", 4), endo("1_2 3_2", 4)]
        same, mapping = iso_check(els, els)
        assert same and all(mapping[e] == e for e in els)

    def test_layer_maps_onto_shorter_string(self):
        iso = triangle.layer_string_iso(TriangleSpec(6, 1, 3, 4), 4, 2)
        same, mapping = iso_check(
            [x for x, _ in iso.pairs], [y for _, y in iso.pairs]
        )
        assert same
        assert mapping == dict(iso.pairs)

    def test_distinct_strings_are_not_isomorphic(self):
        same, mapping = iso_check(
            strings.elements(StringSpec(4, 1, 2)),
            strings.elements(StringSpec(4, 1, 3)),
        )
        assert not same and mapping is None

    def test_size_mismatch_is_not_isomorphic(self):
        same, _ = iso_check(
            strings.elements(StringSpec(4, 1, 2)),
            simplex.enumerate_simplex(SimplexSpec(4, (1, 2, 3))),
        )
        assert not same

    def test_requires_closed_inputs(self):
        with pytest.raises(NotClosed):
            iso_check(
                strings.three_string_union(4, 1, 2, 3),
                strings.three_string_union(4, 1, 2, 3),
            )

    def test_chains_with_equal_profiles_differ_by_products(self):
        # both are two-element chains with idempotent members, so only the
        # final verification of the order-matching bijection can tell the
        # right-projection product of constants from the meet of {0, id}
        same, mapping = iso_check([constant(2, 0), constant(2, 1)], [constant(2, 0), identity(2)])
        assert not same and mapping is None

    def test_result_met_after_both_factors_is_checked_at_the_end(self):
        # two chains with equal invariants: the order-matching bijection
        # agrees on every result assigned when the search reaches it, but
        # (1 2_2) * (0 2_2) = 2_3 lands on the last element, which the
        # search assigns later, so only the final check tells them apart
        same, mapping = iso_check(
            [endo("0 2_2", 3), endo("1 2_2", 3), endo("2_3", 3)],
            [endo("0 1 2", 3), endo("1 2_2", 3), endo("2_3", 3)],
        )
        assert not same and mapping is None

    def test_candidate_is_freed_when_the_search_backtracks(self):
        # 0_2 2 3 is tried on 0_2 3_2 first, and that branch fails; after
        # backtracking, 0_2 3_2 must be free again for 2_4
        same, mapping = iso_check(
            [endo("0_2 2 3", 4), endo("2_4", 4), endo("2_3 3", 4)],
            [endo("0_2 3_2", 4), endo("0 1 2 3", 4), endo("0 1 3_2", 4)],
        )
        assert same
        assert mapping == {
            endo("0_2 2 3", 4): endo("0 1 2 3", 4),
            endo("2_4", 4): endo("0_2 3_2", 4),
            endo("2_3 3", 4): endo("0 1 3_2", 4),
        }

    def test_full_simplex_deeper_than_the_recursion_limit(self):
        # 1,716 maps: the search walks one level per map, more levels than
        # Python's default limit on nested calls
        els = tuple(all_endomorphisms(7))
        same, mapping = iso_check(els, els)
        assert same and all(mapping[e] == e for e in els)

    def test_triangles_with_different_vertices_differ(self):
        same, _ = iso_check(
            triangle.elements(TriangleSpec(4, 0, 1, 2)),
            triangle.elements(TriangleSpec(4, 1, 2, 3)),
        )
        assert not same


class TestChainWideClaimsWalkNoObjects:
    """The chain-wide claims read every map's powers from the chain's atlas
    and the string products from value blocks; they make a small number of
    ChainEndo products and power walks that does not grow with n."""

    IDS = ("power-stabilization", "string-mul-cases", "catalan-count", "idempotent-count")
    MOST_CALLS = 4

    @staticmethod
    def _object_calls(monkeypatch, claim_id, n_max):
        calls = Counter()
        with monkeypatch.context() as patch:
            for name in ("__mul__", "__pow__", "_power_limit"):
                real = getattr(ChainEndo, name)

                def counted(*args, _real=real, _name=name):
                    calls[_name] += 1
                    return _real(*args)

                patch.setattr(ChainEndo, name, counted)
            assert claims.run_claim(claim_id, n_max).holds
        return calls

    @pytest.mark.parametrize("claim_id", IDS)
    def test_object_calls_do_not_grow_with_n(self, monkeypatch, claim_id):
        six, seven = (self._object_calls(monkeypatch, claim_id, n) for n in (6, 7))
        assert six == seven and sum(seven.values()) <= self.MOST_CALLS

    def test_the_guard_counts_object_calls(self, monkeypatch):
        # the count claims read the census, and mul-noncommutative multiplies
        # its first pair of maps
        calls = self._object_calls(monkeypatch, "mul-noncommutative", 3)
        assert calls["__mul__"] >= 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_atlas_equals_the_power_walk(self, n):
        V, limits, exponents = counting._chain_atlas(n)
        assert len(V) == comb(2 * n - 1, n)
        for row, e in enumerate(all_endomorphisms(n)):
            cls = ref.classify_element(e)
            assert tuple(V[row].tolist()) == e.values
            assert tuple(limits[row].tolist()) == cls.idempotent.values
            assert int(exponents[row]) == cls.exponent


class TestOneSetType:
    """Every set of maps the library returns is a Subset.  Pairs of maps,
    such as similar_pairs or interior_decompose give, are not sets."""

    TUPLE_SET = tuple[ChainEndo, ...]

    @staticmethod
    def _hints():
        """(where, type) for the return types of the public functions and the
        fields and public members of the public classes of the set-returning
        modules; Subset itself is left out, its elements being the one tuple
        view of a set."""
        for module in (analysis, simplex, strings, triangle):
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                where = f"{module.__name__}.{name}"
                if inspect.isfunction(obj):
                    yield where, typing.get_type_hints(obj).get("return")
                elif inspect.isclass(obj) and obj is not Subset:
                    if dataclasses.is_dataclass(obj):
                        for field, hint in typing.get_type_hints(obj).items():
                            yield f"{where}.{field}", hint
                    for attr, member in vars(obj).items():
                        fn = member.fget if isinstance(member, property) else member
                        if inspect.isfunction(fn) and not attr.startswith("_"):
                            yield f"{where}.{attr}", typing.get_type_hints(fn).get("return")

    @classmethod
    def _is_tuple_set(cls, hint) -> bool:
        return hint == cls.TUPLE_SET or any(map(cls._is_tuple_set, typing.get_args(hint)))

    def test_no_set_of_maps_is_a_tuple(self):
        hints = dict(self._hints())
        assert hints["chainendo.triangle.BasicLayer.left"] is Subset
        assert hints["chainendo.simplex.layers"] == tuple[Subset, ...]
        assert not self._is_tuple_set(hints["chainendo.analysis.similar_pairs"])  # pairs
        assert [where for where, hint in hints.items() if self._is_tuple_set(hint)] == []

    @staticmethod
    def _set_builders(source: str):
        """(line, what) for every set(...) or frozenset(...) call and every
        set comprehension in the source."""
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.SetComp):
                yield node.lineno, "set comprehension"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
            ):
                yield node.lineno, f"{node.func.id}(...)"

    @pytest.mark.parametrize("module", [claims, analysis], ids=["claims", "analysis"])
    def test_no_python_set_of_maps_is_built(self, module):
        # set questions go to Subset: |, find, in, masks and slices
        assert list(self._set_builders(inspect.getsource(module))) == []

    POWER_WALKS = ("eventual_idempotent", "nilpotency_target", "is_nilpotent_to", "_power_limit")

    @staticmethod
    def _naming(source: str, names=POWER_WALKS):
        """(line, name) for every name, attribute, string constant, import or
        definition in the source that is one of names, by default the per-map
        power walks."""
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant):
                name = node.value
            elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
                name = node.name
            else:
                continue
            if name in names:
                yield node.lineno, name

    def test_claims_call_no_power_walk(self):
        # a set asks Subset.limits once; the walks are the one-map API
        assert list(self._naming(inspect.getsource(claims))) == []

    def test_only_simplex_reads_the_pattern(self):
        # every cut by multiplicity goes through simplex, and the cut of the
        # whole simplex with its multiplicity matrix is gone
        sources = {path.name: path.read_text() for path in Path(simplex.__file__).parent.glob("*.py")}
        assert len(sources) > 5
        naming = {
            module: [name for _, name in self._naming(source, ("_pattern", "_coordinates"))]
            for module, source in sources.items()
        }
        assert {module for module, names in naming.items() if names} == {"simplex.py"}
        assert set(naming["simplex.py"]) == {"_pattern"}
        assert not hasattr(simplex, "_coordinates")

    def test_the_guard_sees_every_call_form(self):
        source = (
            "a = x.eventual_idempotent()\n"
            "b = nilpotency_target(x)\n"
            "c = ChainEndo.is_nilpotent_to(x, 0)\n"
            "d = list(map(ChainEndo._power_limit, xs))\n"
            "e = getattr(x, 'eventual_idempotent')()\n"
            "f = s.limits[0].is_idempotent(eventual=1)\n"
        )
        assert sorted(self._naming(source)) == [
            (1, "eventual_idempotent"),
            (2, "nilpotency_target"),
            (3, "is_nilpotent_to"),
            (4, "_power_limit"),
            (5, "eventual_idempotent"),
        ]

    def test_the_guard_sees_a_python_set(self):
        source = "a = set(x)\nb = frozenset(y)\nc = {e for e in z}\nd = {1, 2}\ne: set[int] = {}\n"
        assert sorted(self._set_builders(source)) == [
            (1, "set(...)"),
            (2, "frozenset(...)"),
            (3, "set comprehension"),
        ]

    def test_the_guard_sees_a_tuple_set(self, monkeypatch):
        def layer_tuple(layer_id) -> tuple[tuple[ChainEndo, ...], ...]:
            return ()

        layer_tuple.__module__ = simplex.__name__
        monkeypatch.setattr(simplex, "layer_tuple", layer_tuple, raising=False)
        assert self._is_tuple_set(dict(self._hints())["chainendo.simplex.layer_tuple"])
