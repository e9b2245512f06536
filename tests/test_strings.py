"""Two-vertex chains: index arithmetic, partition, families, unions."""

from itertools import combinations

import pytest

import reference_loops as ref
from chainendo import analysis, strings
from chainendo.core import OutOfRange, SizeMismatch, constant, parse_compact
from chainendo.strings import (
    StringSpec,
    consecutive_union,
    elem,
    elements,
    family_bottom,
    family_top,
    index_of,
    partition_string,
    string_mul_cases,
    three_string_union,
)

SPEC = StringSpec(4, 1, 2)


def endo(text, n=4):
    return parse_compact(text, n)


class TestSpec:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            StringSpec(1, 0, 1)
        with pytest.raises(OutOfRange):
            StringSpec(4, 2, 2)
        with pytest.raises(OutOfRange):
            StringSpec(4, 1, 4)

    @pytest.mark.parametrize("fields", [(3, False, 2), (3, 0, 2.0), (3.0, 0, 2)])
    def test_rejects_values_that_are_not_ints(self, fields):
        with pytest.raises(OutOfRange, match="has type (bool|float), not int"):
            StringSpec(*fields)

    def test_simplex_view(self):
        assert SPEC.simplex().vertices == (1, 2)


class TestElem:
    def test_index_counts_low_values(self):
        assert elem(SPEC, 0) == endo("2_4")
        assert elem(SPEC, 1) == endo("1 2_3")
        assert elem(SPEC, 4) == endo("1_4")

    def test_index_bounds(self):
        with pytest.raises(OutOfRange):
            elem(SPEC, 5)
        with pytest.raises(OutOfRange):
            elem(SPEC, -1)

    def test_index_of_inverts_elem(self):
        for ell in range(5):
            assert index_of(SPEC, elem(SPEC, ell)) == ell

    def test_index_of_rejects_foreign_maps(self):
        with pytest.raises(ValueError):
            index_of(SPEC, endo("0_4"))
        with pytest.raises(ValueError):
            index_of(SPEC, endo("1_5", 5))

    def test_elements_ascend_as_index_descends(self):
        els = elements(SPEC)
        assert list(els) == sorted(els)
        assert [index_of(SPEC, e) for e in els] == [4, 3, 2, 1, 0]

    def test_chain_is_a_subsemiring(self):
        ok, _ = analysis.is_subsemiring(elements(SPEC))
        assert ok


class TestPartition:
    def test_frozen_blocks(self):
        part = partition_string(SPEC)
        assert tuple(part.nil_low) == (endo("1_4"), endo("1_3 2"))
        assert tuple(part.idem) == (endo("1_2 2_2"),)
        assert tuple(part.nil_high) == (endo("1 2_3"), endo("2_4"))

    def test_block_sizes(self):
        spec = StringSpec(7, 2, 5)
        part = partition_string(spec)
        assert len(part.nil_low) == spec.n - spec.b == 2
        assert len(part.idem) == spec.b - spec.a == 3
        assert len(part.nil_high) == spec.a + 1 == 3

    def test_blocks_behave_as_named(self):
        part = partition_string(StringSpec(6, 1, 4))
        for x in part.nil_low:
            assert x * x == constant(6, 1)
        for x in part.idem:
            assert x * x == x
        for x in part.nil_high:
            assert x * x == constant(6, 4)

    def test_idempotents_are_right_identities(self):
        ids = analysis.identities(elements(StringSpec(6, 1, 4)))
        assert set(ids.right) == set(partition_string(StringSpec(6, 1, 4)).idem)
        assert len(ids.left) == 0


class TestMulCases:
    def test_rule_matches_composition_within_one_string(self):
        spec = StringSpec(5, 1, 3)
        for k in range(6):
            for ell in range(6):
                by_rule = string_mul_cases(spec, k, spec, ell)
                assert by_rule == elem(spec, k) * elem(spec, ell)

    def test_rule_matches_composition_across_strings(self):
        left, right = StringSpec(5, 1, 3), StringSpec(5, 0, 2)
        for k in range(6):
            for ell in range(6):
                by_rule = string_mul_cases(left, k, right, ell)
                assert by_rule == elem(left, k) * elem(right, ell)

    def test_three_regimes(self):
        spec = StringSpec(5, 1, 3)
        assert string_mul_cases(spec, 2, spec, 4) == constant(5, 1)
        assert string_mul_cases(spec, 2, spec, 3) == elem(spec, 2)
        assert string_mul_cases(spec, 2, spec, 1) == constant(5, 3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            string_mul_cases(SPEC, 0, StringSpec(5, 1, 3), 0)

    def test_index_bounds(self):
        with pytest.raises(OutOfRange):
            string_mul_cases(SPEC, 9, SPEC, 0)
        with pytest.raises(OutOfRange):
            string_mul_cases(SPEC, 0, SPEC, 9)


class TestFamilies:
    def test_top_membership(self):
        spec = StringSpec(5, 1, 3)
        assert tuple(family_top(spec, 4)) == (elem(spec, 5), elem(spec, 4))
        with pytest.raises(OutOfRange):
            family_top(spec, 0)

    def test_bottom_membership(self):
        spec = StringSpec(5, 1, 3)
        assert tuple(family_bottom(spec, 1)) == (elem(spec, 1), elem(spec, 0))
        with pytest.raises(OutOfRange):
            family_bottom(spec, 5)

    def test_top_threshold(self):
        spec = StringSpec(6, 2, 4)
        for r in range(1, 7):
            assert analysis.is_subsemiring(family_top(spec, r))[0] == (r >= spec.a + 1)

    def test_bottom_threshold(self):
        spec = StringSpec(6, 2, 4)
        for s in range(6):
            assert analysis.is_subsemiring(family_bottom(spec, s))[0] == (s <= spec.b)


class TestUnions:
    def test_consecutive_union_order_and_closure(self):
        union = consecutive_union(5, 0, 2, 4)
        assert len(union) == 2 * 5 + 1
        ok, _ = analysis.is_subsemiring(union)
        assert ok

    def test_consecutive_union_shares_only_the_middle_constant(self):
        first = set(elements(StringSpec(5, 0, 2)))
        second = set(elements(StringSpec(5, 2, 4)))
        assert first & second == {constant(5, 2)}

    def test_cross_sum_lands_in_the_upper_string(self):
        upper = set(elements(StringSpec(5, 2, 4)))
        for x in elements(StringSpec(5, 0, 2)):
            for y in elements(StringSpec(5, 2, 4)):
                assert x + y in upper

    def test_three_string_union_order(self):
        union = three_string_union(5, 0, 2, 4)
        assert len(union) == 3 * 5

    def test_three_string_union_multiplicatively_closed_only(self):
        union = three_string_union(4, 1, 2, 3)
        ok, _ = analysis.is_closed(union, "*")
        assert ok
        ok, witness = analysis.is_closed(union, "+")
        assert not ok
        assert (witness.left, witness.right) == (endo("1_3 3"), endo("1_2 2_2"))
        assert witness.result == endo("1_2 2 3")

    def test_union_bounds(self):
        with pytest.raises(OutOfRange):
            consecutive_union(4, 0, 2, 4)
        with pytest.raises(OutOfRange):
            three_string_union(4, 2, 2, 3)


class TestCuts:
    """Every set of a string is a Subset cut from one enumeration; each
    must hold the maps of the object loop it replaced, in the same order."""

    def test_blocks_segments_and_identities_match_the_object_loops(self):
        for n in range(2, 8):
            for a, b in combinations(range(n), 2):
                spec = StringSpec(n, a, b)
                part = partition_string(spec)
                blocks = (part.nil_low, part.idem, part.nil_high)
                for got, want in zip(blocks, ref.partition_string(spec)):
                    ref.assert_cut(got, want, spec)
                for r in range(1, n + 1):
                    ref.assert_cut(family_top(spec, r), ref.family_top(spec, r), (spec, r))
                for s in range(n):
                    ref.assert_cut(family_bottom(spec, s), ref.family_bottom(spec, s), (spec, s))
                ids, want = analysis.identities(elements(spec)), ref.identities(elements(spec))
                ref.assert_cut(ids.left, want.left, spec)  # always empty
                ref.assert_cut(ids.right, want.right, spec)

    def test_unions_match_the_sorted_unions(self):
        for n in range(3, 8):
            for a, b, c in combinations(range(n), 3):
                got = consecutive_union(n, a, b, c)
                ref.assert_cut(got, ref.consecutive_union(n, a, b, c), (n, a, b, c))
                got = three_string_union(n, a, b, c)
                ref.assert_cut(got, ref.three_string_union(n, a, b, c), (n, a, b, c))
