"""Set-level machinery: closure scans, ideals, triviality, isomorphism."""

import pytest

from chainendo import analysis, simplex, strings, triangle
from chainendo.analysis import (
    ChainTooLong,
    NotClosed,
    NotSubset,
    Subset,
    canonical,
    classify_element,
    identities,
    is_closed,
    is_ideal,
    is_subsemiring,
    iso_check,
    similar_pairs,
    triviality,
)
from chainendo.core import ChainEndo, ChainEndoError, all_endomorphisms, constant, identity, parse_compact
from chainendo.simplex import SimplexSpec
from chainendo.strings import StringSpec
from chainendo.triangle import TriangleSpec


def endo(text, n):
    return parse_compact(text, n)


class TestCanonical:
    def test_sorts_and_deduplicates(self):
        a, b = constant(3, 0), constant(3, 1)
        assert canonical([b, a, b]) == (a, b)

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            canonical([constant(3, 0), constant(4, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical([])

    def test_subset_helper(self):
        sub = Subset.of([constant(3, 1), constant(3, 0)])
        assert sub.elements == (constant(3, 0), constant(3, 1))

    def test_subset_membership_set_is_built_once(self):
        sub = Subset.of([constant(3, 1), constant(3, 0)])
        assert constant(3, 1) in sub and identity(3) not in sub
        members = sub._members
        assert constant(3, 0) in sub
        assert sub._members is members == {constant(3, 0), constant(3, 1)}
        assert sub == Subset.of([constant(3, 0), constant(3, 1)])


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
        assert ids.left == (identity(3),)
        assert ids.right == (identity(3),)
        assert ids.two_sided == (identity(3),)

    def test_string_right_identities(self):
        ids = identities(strings.elements(StringSpec(4, 1, 2)))
        assert ids.left == ()
        assert ids.right == tuple(strings.partition_string(StringSpec(4, 1, 2)).idem)


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


class TestIsoCheck:
    def test_set_is_isomorphic_to_itself(self):
        els = strings.elements(StringSpec(4, 1, 2))
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

    def test_triangles_with_different_vertices_differ(self):
        same, _ = iso_check(
            triangle.elements(TriangleSpec(4, 0, 1, 2)),
            triangle.elements(TriangleSpec(4, 1, 2, 3)),
        )
        assert not same
