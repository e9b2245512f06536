"""Simplices: enumeration, faces, layers, discrete neighborhoods."""

from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

import reference_loops as ref
from chainendo import analysis, simplex
from chainendo.core import ChainEndo, OutOfRange, constant, parse_compact
from chainendo.simplex import (
    LayerId,
    SimplexSpec,
    boundary,
    discrete_neighborhood,
    enumerate_simplex,
    face,
    interior,
    is_internal,
    layer,
    layers,
    min_semiring_radius,
    nilpotent_in_neighborhood,
    proper_faces,
)

SPEC = SimplexSpec(4, (1, 2, 3))


def endo(text, n=4):
    return parse_compact(text, n)


class TestSpec:
    def test_vertices_sorted_and_deduplicated(self):
        spec = SimplexSpec(5, (3, 1, 3))
        assert spec.vertices == (1, 3)
        assert spec.k == 2

    def test_rejects_bad_chain_size(self):
        with pytest.raises(OutOfRange):
            SimplexSpec(0, (0,))

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            SimplexSpec(3, ())

    def test_rejects_outside_vertices(self):
        with pytest.raises(OutOfRange):
            SimplexSpec(3, (3,))
        with pytest.raises(OutOfRange):
            SimplexSpec(3, (-1,))

    @pytest.mark.parametrize(
        "n, vertices", [(3, (0, True)), (3, (0, 1.0)), (3.0, (0, 1)), (True, (0,))]
    )
    def test_rejects_values_that_are_not_ints(self, n, vertices):
        # True and 1.0 equal 1, so a range check alone lets them through
        with pytest.raises(OutOfRange, match="has type (bool|float), not int"):
            SimplexSpec(n, vertices)

    def test_vertex_constants(self):
        assert SPEC.vertex_constants() == (
            constant(4, 1),
            constant(4, 2),
            constant(4, 3),
        )


class TestEnumeration:
    def test_order_formula(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                spec = SimplexSpec(n, tuple(range(k)))
                assert len(enumerate_simplex(spec)) == comb(n + k - 1, k - 1)

    def test_matches_multiset_enumeration(self):
        spec = SimplexSpec(3, (0, 2))
        got = [e.values for e in enumerate_simplex(spec)]
        assert got == [(0, 0, 0), (0, 0, 2), (0, 2, 2), (2, 2, 2)]
        assert got == list(combinations_with_replacement((0, 2), 3))

    def test_lexicographically_sorted(self):
        els = enumerate_simplex(SPEC)
        assert list(els) == sorted(els)

    def test_is_a_subsemiring(self):
        ok, _ = analysis.is_subsemiring(enumerate_simplex(SPEC))
        assert ok


class TestInteriorBoundary:
    def test_partition(self):
        els = set(enumerate_simplex(SPEC))
        inner, outer = set(interior(SPEC)), set(boundary(SPEC))
        assert inner | outer == els and not inner & outer

    def test_interior_members(self):
        assert interior(SPEC) == (
            endo("1_2 2 3"),
            endo("1 2_2 3"),
            endo("1 2 3_2"),
        )

    def test_boundary_is_union_of_proper_faces(self):
        on_faces = set()
        for sub in proper_faces(SPEC):
            on_faces.update(enumerate_simplex(sub))
        assert on_faces == set(boundary(SPEC))


class TestFaces:
    def test_face_keeps_chain_size(self):
        sub = face(SPEC, (3, 1))
        assert sub == SimplexSpec(4, (1, 3))

    def test_face_rejects_foreign_vertices(self):
        with pytest.raises(OutOfRange):
            face(SPEC, (0, 1))

    def test_proper_face_count(self):
        assert len(proper_faces(SPEC)) == 2**SPEC.k - 2
        assert [f.vertices for f in proper_faces(SPEC)] == [
            (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
        ]

    def test_is_internal(self):
        assert is_internal(SimplexSpec(4, (1, 2)))
        assert not is_internal(SimplexSpec(4, (0, 2)))
        assert not is_internal(SimplexSpec(4, (1, 3)))


class TestLayers:
    def test_layer_id_validation(self):
        with pytest.raises(OutOfRange):
            LayerId(SPEC, 3, 0)
        with pytest.raises(OutOfRange):
            LayerId(SPEC, 0, 5)

    def test_layer_sizes_for_least_vertex(self):
        sizes = [len(layer(LayerId(SPEC, 0, s))) for s in range(5)]
        assert sizes == [5, 4, 3, 2, 1]

    def test_layers_partition_the_simplex(self):
        flat = [e for block in layers(SPEC, 1) for e in block]
        assert sorted(flat) == list(enumerate_simplex(SPEC))

    def test_full_multiplicity_layer_is_the_constant(self):
        assert layer(LayerId(SPEC, 2, 4)) == (constant(4, 3),)

    def test_layers_are_the_single_layers(self):
        for spec in (SPEC, SimplexSpec(5, (0, 2, 4)), SimplexSpec(6, (2, 3))):
            for m in range(spec.k):
                expected = tuple(layer(LayerId(spec, m, s)) for s in range(spec.n + 1))
                assert layers(spec, m) == expected

    @pytest.mark.parametrize("m", [-1, 3])
    def test_vertex_index_validated(self, m):
        with pytest.raises(OutOfRange):
            layers(SPEC, m)
        with pytest.raises(OutOfRange):
            discrete_neighborhood(SPEC, m, 1)


class TestNeighborhoods:
    def test_radius_validated(self):
        with pytest.raises(OutOfRange):
            discrete_neighborhood(SPEC, 0, 0)
        with pytest.raises(OutOfRange):
            discrete_neighborhood(SPEC, 0, 5)

    def test_radius_one_around_greatest_vertex(self):
        got = tuple(discrete_neighborhood(SPEC, 2, 1))
        assert got == (endo("1 3_3"), endo("2 3_3"), endo("3_4"))

    def test_neighborhood_is_constant_plus_top_layers(self):
        for spec in (SPEC, SimplexSpec(5, (0, 2, 4)), SimplexSpec(6, (2, 3))):
            for m in range(spec.k):
                for t in range(1, spec.n + 1):
                    members = {constant(spec.n, spec.vertices[m])}
                    for s in range(spec.n - t, spec.n):
                        members.update(layer(LayerId(spec, m, s)))
                    assert tuple(discrete_neighborhood(spec, m, t)) == tuple(sorted(members))

    def test_full_radius_recovers_the_simplex(self):
        assert discrete_neighborhood(SPEC, 0, 4) == enumerate_simplex(SPEC)

    def test_radius_one_is_always_closed(self):
        for spec in (SPEC, SimplexSpec(5, (0, 2, 4)), SimplexSpec(6, (2, 3))):
            for m in range(spec.k):
                ok, _ = analysis.is_subsemiring(discrete_neighborhood(spec, m, 1))
                assert ok, (spec, m)

    def test_radius_scan_frozen_example(self):
        scan = min_semiring_radius(SPEC, 0)
        assert scan.closed == (True, True, False, True)
        assert scan.least == 1
        assert scan.semiring_prefix == 2

    def test_scan_prefix_full_when_every_radius_closed(self):
        scan = min_semiring_radius(SimplexSpec(3, (0, 1, 2)), 0)
        assert scan.semiring_prefix == 3 == len(scan.closed)

    def test_fixing_set_equalities(self):
        # fix(a0) meets the simplex exactly in radius n-a0-1 of the least
        # vertex; fix(top) in radius a_top of the greatest vertex
        spec = SimplexSpec(5, (1, 3))
        els = enumerate_simplex(spec)
        low = {e for e in els if e(1) == 1}
        high = {e for e in els if e(3) == 3}
        assert set(discrete_neighborhood(spec, 0, 5 - 1 - 1)) == low
        assert set(discrete_neighborhood(spec, 1, 3)) == high


class TestNilpotencyTest:
    def test_accepts_descending_members(self):
        assert nilpotent_in_neighborhood(SPEC, endo("1_4"))
        assert nilpotent_in_neighborhood(SPEC, endo("1_3 2"))

    def test_rejects_slow_members(self):
        assert not nilpotent_in_neighborhood(SPEC, endo("1_3 3"))
        assert not nilpotent_in_neighborhood(SPEC, endo("1_2 2_2"))

    def test_verdict_matches_actual_powers(self):
        spec = SimplexSpec(6, (1, 3, 4))
        target = constant(6, 1)
        for alpha in enumerate_simplex(spec):
            if alpha(1) != 1:
                continue
            really = alpha ** 5 == target
            assert nilpotent_in_neighborhood(spec, alpha) == really, alpha

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            nilpotent_in_neighborhood(SPEC, endo("0_4"))

    def test_must_fix_least_vertex(self):
        with pytest.raises(ValueError):
            nilpotent_in_neighborhood(SPEC, endo("2_4"))

    def test_single_vertex_simplex(self):
        spec = SimplexSpec(4, (2,))
        assert nilpotent_in_neighborhood(spec, constant(4, 2))


def _vertex_sets(n_max):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for vertices in combinations(range(n), k):
                yield SimplexSpec(n, vertices)


class TestArrayBacked:
    """The value-matrix sets against the object loops they replaced."""

    def test_enumeration_matches_the_object_loop(self):
        for spec in _vertex_sets(7):
            got = enumerate_simplex(spec)
            assert tuple(got) == ref.enumerate_simplex(spec), spec
            assert all(type(v) is int for e in got for v in e.values)

    def test_neighborhoods_match_the_object_loop_and_scan_alike(self):
        # the same maps in the same order, and the matrix-backed set gives
        # the closure verdict and witness its tuple gives
        for spec in _vertex_sets(7):
            for m in range(spec.k):
                for t in range(1, spec.n + 1):
                    hood = discrete_neighborhood(spec, m, t)
                    assert tuple(hood) == ref.discrete_neighborhood(spec, m, t), (spec, m, t)
                    got = analysis.is_subsemiring(hood)
                    assert got == analysis.is_subsemiring(tuple(hood)), (spec, m, t)

    def test_layers_interior_and_boundary_match_the_object_loops(self):
        for spec in _vertex_sets(6):
            assert interior(spec) == ref.interior(spec), spec
            assert boundary(spec) == ref.boundary(spec), spec
            for m in range(spec.k):
                for s in range(spec.n + 1):
                    assert layer(LayerId(spec, m, s)) == ref.layer(spec, m, s), (spec, m, s)

    def test_length_and_an_escape_build_no_objects(self):
        hood = discrete_neighborhood(SPEC, 0, 3)
        assert len(hood) == 10
        ok, witness = analysis.is_subsemiring(hood)
        assert not ok
        # the witness wraps only its own rows
        assert "elements" not in vars(hood)
        assert (ok, witness) == analysis.is_subsemiring(ref.discrete_neighborhood(SPEC, 0, 3))

    def test_long_chain_enumerates(self):
        # a value matrix holds any chain; only the set checks stop at MAX_CHAIN
        els = enumerate_simplex(SimplexSpec(16, (0, 15)))
        assert len(els) == 17
        assert els[0] == constant(16, 0) and els[-1] == constant(16, 15)
        with pytest.raises(analysis.ChainTooLong, match="n <= 15"):
            analysis.is_subsemiring(els)
