"""Three-vertex simplices: regions, layers, the fixing block, witnesses."""

import pytest

from chainendo import analysis, strings, triangle
from chainendo.core import OutOfRange, constant, parse_compact
from chainendo.strings import StringSpec
from chainendo.triangle import (
    NotBasic,
    NotDecomposable,
    Region,
    TriElem,
    TriangleSpec,
    basic_layer,
    basic_layers,
    boundary,
    component_map,
    decompose,
    elem,
    elem_type,
    elements,
    from_endo,
    idempotent_sum_counterexample,
    idempotent_triangle,
    interior,
    interior_decompose,
    interior_square_witness,
    layer_string_iso,
    left_similar_witness,
    region_of,
    right_identities,
    to_endo,
)

SPEC = TriangleSpec(4, 1, 2, 3)
BIG = TriangleSpec(6, 1, 3, 4)


def endo(text, n=4):
    return parse_compact(text, n)


def frozen(texts, n=4):
    return tuple(parse_compact(t, n) for t in texts)


class TestSpec:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            TriangleSpec(2, 0, 1, 2)
        with pytest.raises(OutOfRange):
            TriangleSpec(4, 1, 1, 3)
        with pytest.raises(OutOfRange):
            TriangleSpec(4, 1, 2, 4)

    def test_views(self):
        assert SPEC.simplex().vertices == (1, 2, 3)
        assert SPEC.string_ab() == StringSpec(4, 1, 2)
        assert SPEC.string_ac() == StringSpec(4, 1, 3)
        assert SPEC.string_bc() == StringSpec(4, 2, 3)


class TestCoordinates:
    def test_round_trip(self):
        for e in elements(SPEC):
            assert to_endo(SPEC, from_endo(SPEC, e)) == e

    def test_elem_shorthand(self):
        assert elem(SPEC, 1, 2) == endo("1 2_2 3")
        assert elem(SPEC, 0, 0) == endo("3_4")

    def test_bad_multiplicities(self):
        with pytest.raises(OutOfRange):
            to_endo(SPEC, TriElem(2, 2, 2))
        with pytest.raises(OutOfRange):
            to_endo(SPEC, TriElem(-1, 2, 3))

    def test_foreign_member_rejected(self):
        with pytest.raises(ValueError):
            from_endo(SPEC, endo("0_4"))

    def test_type_triple(self):
        assert elem_type(SPEC, endo("1 2_2 3")) == (2, 2, 3)
        with pytest.raises(ValueError):
            elem_type(SPEC, endo("1_5", 5))


class TestEnumeration:
    def test_order(self):
        assert len(elements(SPEC)) == 15
        assert len(elements(BIG)) == 28

    def test_interior_boundary_partition(self):
        inner, outer = set(interior(SPEC)), set(boundary(SPEC))
        assert inner | outer == set(elements(SPEC)) and not inner & outer
        assert interior(SPEC) == frozen(["1_2 2 3", "1 2_2 3", "1 2 3_2"])

    def test_boundary_is_the_three_strings(self):
        glued = set()
        for s in (SPEC.string_ab(), SPEC.string_ac(), SPEC.string_bc()):
            glued.update(strings.elements(s))
        assert glued == set(boundary(SPEC))


class TestRegions:
    @pytest.mark.parametrize("n", [16, 20])
    def test_long_chain_is_refused(self, n):
        with pytest.raises(analysis.ChainTooLong):
            decompose(TriangleSpec(n, 1, 2, 14))

    def test_frozen_partition_of_the_smallest_triangle(self):
        report = decompose(SPEC)
        want = {
            Region.NIL_A: ["1_4", "1_3 2"],
            Region.NIL_B: ["1 2_3", "2_4"],
            Region.NIL_C: ["1 2 3_2", "1 3_3", "2 3_3", "2_2 3_2", "3_4"],
            Region.L_PAR: ["1_2 2_2"],
            Region.R_PAR: ["1 2_2 3", "2_3 3"],
            Region.L_TRI: ["1_3 3"],
            Region.R_TRI: ["1_2 3_2"],
            Region.RIGHT_IDENTITIES: ["1_2 2 3"],
        }
        for region, texts in want.items():
            summary = report.regions[region]
            assert set(summary.elements) == set(frozen(texts)), region
            assert summary.closed and summary.witness is None
            assert summary.order_matches
        assert report.disjoint and report.cover and report.ok

    def test_region_counts_of_the_larger_example(self):
        report = decompose(BIG)
        counts = {r: len(s.elements) for r, s in report.regions.items()}
        assert counts == {
            Region.NIL_A: 5,
            Region.NIL_B: 4,
            Region.NIL_C: 7,
            Region.L_PAR: 4,
            Region.R_PAR: 2,
            Region.L_TRI: 1,
            Region.R_TRI: 3,
            Region.RIGHT_IDENTITIES: 2,
        }
        assert sum(counts.values()) == 28
        assert report.ok

    def test_region_of_matches_the_buckets(self):
        report = decompose(SPEC)
        for region, summary in report.regions.items():
            for e in summary.elements:
                assert region_of(SPEC, e) is region

    def test_letter_codes_and_json_keys(self):
        assert [r.value for r in Region] == ["A", "B", "C", "p", "q", "l", "r", "E"]
        assert Region.RIGHT_IDENTITIES.json_key == "right_identities"
        assert Region.NIL_A.json_key == "nil_a"

    def test_nilpotent_regions_collapse_onto_their_corners(self):
        report = decompose(BIG)
        for region, target in (
            (Region.NIL_A, constant(6, 1)),
            (Region.NIL_B, constant(6, 3)),
            (Region.NIL_C, constant(6, 4)),
        ):
            for e in report.regions[region].elements:
                assert e ** 5 == target


class TestRightIdentities:
    def test_frozen(self):
        assert right_identities(SPEC) == (endo("1_2 2 3"),)

    def test_they_are_neutral_on_the_right(self):
        for e in right_identities(BIG):
            assert all(x * e == x for x in elements(BIG))

    def test_interior_idempotents_are_exactly_the_right_identities(self):
        rid = set(right_identities(BIG))
        inner_idem = {e for e in interior(BIG) if e.is_idempotent()}
        assert inner_idem == rid


class TestInteriorDecomposition:
    def test_frozen_example(self):
        left, right = interior_decompose(SPEC, endo("1 2_2 3"))
        assert (left, right) == (endo("1 2_3"), endo("1_3 3"))

    def test_unique_string_summands_everywhere(self):
        for alpha in interior(BIG):
            left, right = interior_decompose(BIG, alpha)
            assert left + right == alpha
            assert set(left.image()) <= {BIG.a, BIG.b}
            assert set(right.image()) <= {BIG.a, BIG.c}
            assert left != constant(6, BIG.a) and right != constant(6, BIG.c)

    def test_rejects_members_missing_a_value(self):
        with pytest.raises(NotDecomposable):
            interior_decompose(SPEC, endo("1_2 2_2"))

    def test_square_witness(self):
        witness, square = interior_square_witness(SPEC)
        assert (witness, square) == (endo("1 2_2 3"), endo("2_3 3"))
        assert witness * witness == square
        assert witness in interior(SPEC) and square in boundary(SPEC)

    def test_square_witness_degenerate_flavor(self):
        witness, square = interior_square_witness(TriangleSpec(4, 0, 2, 3))
        assert witness in interior(TriangleSpec(4, 0, 2, 3))
        assert witness * witness == square


class TestIdempotentSum:
    def test_frozen_counterexample(self):
        escape = idempotent_sum_counterexample(SPEC)
        assert escape.left == endo("1_2 3_2")
        assert escape.right == endo("2_3 3")
        assert escape.total == endo("2_2 3_2")
        assert escape.square == endo("3_4")

    def test_holds_on_larger_triangles(self):
        escape = idempotent_sum_counterexample(BIG)
        assert escape.left.is_idempotent() and escape.right.is_idempotent()
        assert not escape.total.is_idempotent()
        assert escape.square == constant(6, BIG.c)


class TestFixingBlock:
    def test_frozen_small_report(self):
        report = idempotent_triangle(SPEC)
        assert report.it == frozen(["1_3 3", "1_2 2 3", "1_2 3_2"])
        assert report.ri == (endo("1_2 2 3"),)
        assert set(report.rest) == set(frozen(["1_3 3", "1_2 3_2"]))
        assert report.corner_left == (endo("1_3 3"),)
        assert report.corner_right == (endo("1_2 3_2"),)
        assert set(report.diagonal) == set(frozen(["1_3 3", "1_2 3_2"]))
        assert report.ri_closed and report.rest_closed
        assert report.diagonal_ideal and report.rest_ideal
        assert report.diagonal_left_zero

    def test_orders_on_the_larger_example(self):
        report = idempotent_triangle(BIG)
        assert len(report.it) == 6
        assert len(report.ri) == 2
        assert len(report.rest) == 4
        assert len(report.corner_left) == 1
        assert len(report.corner_right) == 3
        assert report.ri_closed and report.rest_closed
        assert report.diagonal_ideal and report.rest_ideal

    def test_corner_triangles_partition_with_ri(self):
        report = idempotent_triangle(BIG)
        pieces = [set(report.corner_left), set(report.corner_right), set(report.ri)]
        assert set().union(*pieces) == set(report.it)
        assert sum(len(p) for p in pieces) == len(report.it)

    def test_left_corner_sits_below_right_corner(self):
        report = idempotent_triangle(BIG)
        for x in report.corner_left:
            for y in report.corner_right:
                assert x.pointwise_le(y) and x != y

    def test_diagonal_splits_by_string_index(self):
        report = idempotent_triangle(BIG)
        spec_ac = BIG.string_ac()
        for e in report.diagonal:
            k = strings.index_of(spec_ac, e)
            if k <= BIG.b:
                assert e in report.corner_right
            else:
                assert e in report.corner_left


class TestSimilarity:
    def test_left_similar_witness_frozen(self):
        pair = left_similar_witness(SPEC)
        assert pair == (endo("1 3_3"), endo("3_4"))
        assert elem_type(SPEC, pair[0]) == elem_type(SPEC, pair[1])
        rid = set(right_identities(SPEC))
        assert pair[0] not in rid and pair[1] not in rid

    def test_witness_always_acts_identically_on_the_left(self):
        for spec in (SPEC, BIG, TriangleSpec(5, 0, 1, 4), TriangleSpec(4, 0, 1, 3)):
            first, second = left_similar_witness(spec)
            assert first != second
            for x in elements(spec):
                assert x * first == x * second

    def test_smallest_triangle_has_no_witness(self):
        assert left_similar_witness(TriangleSpec(3, 0, 1, 2)) is None

    def test_no_right_similar_pairs(self):
        assert triangle.find_similar_pairs(SPEC, "right") == ()


class TestBasicLayers:
    def test_a_corner_layer_blocks(self):
        layer = basic_layer(SPEC, 1, 2)
        assert layer.elements == frozen(["1_2 2_2", "1_2 2 3", "1_2 3_2"])
        assert layer.left == (endo("1_2 2_2"),)
        assert layer.middle == (endo("1_2 2 3"),)
        assert layer.right == (endo("1_2 3_2"),)

    def test_c_corner_layer_blocks(self):
        layer = basic_layer(SPEC, 3, 1)
        assert layer.elements == frozen(["1_3 3", "1_2 2 3", "1 2_2 3", "2_3 3"])
        assert layer.left == (endo("1_3 3"),)
        assert layer.middle == (endo("1_2 2 3"),)
        assert layer.right == (endo("1 2_2 3"), endo("2_3 3"))

    def test_blocks_land_in_the_advertised_regions(self):
        for layer in basic_layers(BIG, BIG.a):
            for e in layer.left:
                assert region_of(BIG, e) is Region.L_PAR
            for e in layer.middle:
                assert region_of(BIG, e) is Region.RIGHT_IDENTITIES
            for e in layer.right:
                assert region_of(BIG, e) is Region.R_TRI
        for layer in basic_layers(BIG, BIG.c):
            for e in layer.left:
                assert region_of(BIG, e) is Region.L_TRI
            for e in layer.middle:
                assert region_of(BIG, e) is Region.RIGHT_IDENTITIES
            for e in layer.right:
                assert region_of(BIG, e) is Region.R_PAR

    def test_every_basic_layer_is_closed(self):
        for vertex in (BIG.a, BIG.c):
            for layer in basic_layers(BIG, vertex):
                ok, _ = analysis.is_subsemiring(layer.elements)
                assert ok, (vertex, layer.k)

    def test_layer_bounds(self):
        with pytest.raises(OutOfRange):
            basic_layer(SPEC, 1, 3)
        with pytest.raises(OutOfRange):
            basic_layer(SPEC, 3, 2)

    def test_middle_vertex_layers_are_not_basic(self):
        with pytest.raises(NotBasic):
            basic_layer(SPEC, 2, 1)
        with pytest.raises(NotBasic):
            basic_layers(SPEC, 2)

    def test_middle_vertex_layer_fails_multiplicatively(self):
        # multiplicity 2 of the middle value: additively closed, but
        # products can change the multiplicity
        layer = [e for e in elements(SPEC) if e.values.count(2) == 2]
        ok, _ = analysis.is_closed(layer, "+")
        assert ok
        ok, witness = analysis.is_closed(layer, "*")
        assert not ok
        assert (witness.left, witness.right) == (endo("1_2 2_2"), endo("1 2_2 3"))
        assert witness.result == endo("2_4")


class TestLayerStringIso:
    def test_frozen_target(self):
        iso = layer_string_iso(BIG, 4, 2)
        assert iso.target == StringSpec(4, 1, 3)
        assert iso.holds
        assert len(iso.pairs) == 5

    def test_a_corner_targets_shift_both_vertices(self):
        iso = layer_string_iso(BIG, 1, 2)
        assert iso.target == StringSpec(4, 1, 2)
        assert iso.holds

    def test_runs_map_onto_runs(self):
        iso = layer_string_iso(BIG, 1, 2)
        part = strings.partition_string(iso.target)
        phi = dict(iso.pairs)
        assert {phi[e] for e in iso.layer.left} == set(part.nil_low)
        assert {phi[e] for e in iso.layer.middle} == set(part.idem)
        assert {phi[e] for e in iso.layer.right} == set(part.nil_high)

    def test_every_basic_layer_maps_isomorphically(self):
        for vertex in (BIG.a, BIG.c):
            for layer in basic_layers(BIG, vertex):
                assert layer_string_iso(BIG, vertex, layer.k).holds


class TestComponentMap:
    def test_preserves_addition_between_different_triangles(self):
        phi = component_map(TriangleSpec(4, 0, 1, 2), SPEC)
        for x in phi:
            for y in phi:
                assert phi[x + y] == phi[x] + phi[y]

    def test_breaks_multiplication_between_different_triangles(self):
        phi = component_map(TriangleSpec(4, 0, 1, 2), SPEC)
        assert any(
            phi[x * y] != phi[x] * phi[y] for x in phi for y in phi
        )

    def test_identity_when_specs_coincide(self):
        phi = component_map(SPEC, SPEC)
        assert all(phi[e] == e for e in elements(SPEC))

    def test_size_mismatch(self):
        with pytest.raises(OutOfRange):
            component_map(SPEC, TriangleSpec(5, 1, 2, 3))
