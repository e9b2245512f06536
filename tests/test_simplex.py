"""Simplices: enumeration, faces, layers, discrete neighborhoods."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import numpy as np
import pytest

import reference_loops as ref
from chainendo import analysis, simplex
from chainendo.core import ChainEndo, ChainEndoError, OutOfRange, constant, parse_compact
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
)

SPEC = SimplexSpec(4, (1, 2, 3))
SRC = Path(__file__).resolve().parent.parent / "src"


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
        assert tuple(SPEC.vertex_constants()) == (
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
        assert tuple(interior(SPEC)) == (
            endo("1_2 2 3"),
            endo("1 2_2 3"),
            endo("1 2 3_2"),
        )

    def test_boundary_is_union_of_proper_faces(self):
        on_faces = set()
        for sub in ref.proper_faces(SPEC):
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
        assert len(ref.proper_faces(SPEC)) == 2**SPEC.k - 2
        assert [f.vertices for f in ref.proper_faces(SPEC)] == [
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
        assert tuple(layer(LayerId(SPEC, 2, 4))) == (constant(4, 3),)

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

    def test_errors_name_the_map(self):
        with pytest.raises(ValueError, match=r"^0_4 is not a member of the simplex"):
            nilpotent_in_neighborhood(SPEC, endo("0_4"))
        with pytest.raises(ValueError, match=r"^2_4 does not fix the least vertex 1$"):
            nilpotent_in_neighborhood(SPEC, endo("2_4"))
        with pytest.raises(ValueError, match=r"^1_5 is not a member of the simplex"):
            nilpotent_in_neighborhood(SPEC, endo("1_5", 5))

    def test_row_form_matches_the_per_map_walk(self):
        checked = 0
        for spec in _vertex_sets(6):
            els = enumerate_simplex(spec)
            low = spec.vertices[0]
            fixing = els[els.values[:, low] == low]
            got = simplex.nilpotent_rows(spec, fixing.values)
            assert got.dtype == bool and got.shape == (len(fixing),), spec
            want = [ref.neighborhood_criterion(spec, e) for e in fixing]
            assert got.tolist() == want, spec
            checked += len(fixing)
        assert checked > 1000

    def test_row_form_raises_for_its_first_bad_row(self):
        good, stray, outside = ([1, 1, 1, 1], [2, 2, 2, 2], [0, 1, 1, 1])
        with pytest.raises(ValueError, match=r"^2_4 does not fix the least vertex 1$"):
            simplex.nilpotent_rows(SPEC, [good, stray, outside])
        with pytest.raises(ValueError, match=r"^0 1_3 is not a member of the simplex"):
            simplex.nilpotent_rows(SPEC, [good, outside, stray])
        with pytest.raises(ValueError, match="not a member"):
            simplex.nilpotent_rows(SPEC, [[1, 3, 2, 2]])  # not monotone
        assert simplex.nilpotent_rows(SPEC, np.empty((0, 4), dtype=np.int64)).shape == (0,)


NON_INTEGER_ROWS = {
    "float": [1.9, 1, 2, 3],
    "half": [1.5, 1, 1, 1],
    "exact-float": [1.0, 1, 1, 1],
    "bool": [True, True, True, True],
}


class TestNonIntegerRows:
    """Subset.find and nilpotent_rows refuse rows that are not of an integer
    type, as _require_ints refuses a value that is not an int, rather than
    truncate them: [1.9, 1, 2, 3] would be found as 1_2 2 3, and
    [1.5, 1, 1, 1] would pass as the nilpotent 1_4."""

    CALLS = {
        "find": lambda rows: enumerate_simplex(SPEC).find(rows),
        "nilpotent_rows": lambda rows: simplex.nilpotent_rows(SPEC, rows),
    }

    @pytest.mark.parametrize("kind", NON_INTEGER_ROWS)
    @pytest.mark.parametrize("call", CALLS)
    def test_refused(self, call, kind):
        with pytest.raises(OutOfRange, match="are not integer values"):
            self.CALLS[call]([NON_INTEGER_ROWS[kind]])

    def test_rows_of_any_integer_type_are_read(self):
        els = enumerate_simplex(SPEC)
        for dtype in (np.int64, np.int8, np.uint8):
            assert els.find(np.array([[1, 1, 2, 3]], dtype=dtype)).tolist() == [4]
            assert simplex.nilpotent_rows(SPEC, np.array([[1, 1, 1, 1]], dtype=dtype)).tolist() == [True]
            # an unsigned difference would wrap: 1 3 2 2 is no member
            with pytest.raises(ValueError, match="not a member"):
                simplex.nilpotent_rows(SPEC, np.array([[1, 3, 2, 2]], dtype=dtype))

    def test_refused_under_optimize(self):
        code = (
            "from chainendo import simplex\n"
            "from chainendo.core import OutOfRange\n"
            "spec = simplex.SimplexSpec(4, (1, 2, 3))\n"
            "els = simplex.enumerate_simplex(spec)\n"
            f"for row in {list(NON_INTEGER_ROWS.values())}:\n"
            "    for call in (els.find, lambda rows: simplex.nilpotent_rows(spec, rows)):\n"
            "        try:\n"
            "            print(call([row]))\n"
            "        except OutOfRange:\n"
            "            print('refused')\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["refused"] * 2 * len(NON_INTEGER_ROWS)


class TestNonIntegerArguments:
    """A layer's vertex index m and count s, a neighbourhood's radius t and
    a basic layer's corner and count k are refused when they are not ints,
    as SimplexSpec refuses its fields: LayerId(spec, 0.5, 1) passed the
    range check and its layer ended in a numpy IndexError, and
    basic_layer(tri, 1, 2.0) returned a layer with k == 2.0."""

    # each call is source text, so that a python -O subprocess reads the same
    PRELUDE = (
        "from chainendo import simplex, triangle\n"
        "from chainendo.simplex import LayerId, SimplexSpec, discrete_neighborhood\n"
        "from chainendo.triangle import TriangleSpec\n"
        "SPEC, TRI = SimplexSpec(4, (0, 1)), TriangleSpec(6, 1, 3, 4)\n"
    )
    CALLS = [
        "simplex.layer(LayerId(SPEC, 0.5, 1))",
        "simplex.layer(LayerId(SPEC, False, 1))",
        "simplex.layer(LayerId(SPEC, 0, 1.0))",
        "simplex.layer(LayerId(SPEC, 0, True))",
        "discrete_neighborhood(SPEC, 0.0, 2)",
        "discrete_neighborhood(SPEC, 0, 2.0)",
        "discrete_neighborhood(SPEC, 0, True)",
        "triangle.basic_layer(TRI, 1.0, 2)",
        "triangle.basic_layer(TRI, True, 2)",
        "triangle.basic_layer(TRI, 1, 2.0)",
    ]

    @pytest.mark.parametrize("call", CALLS)
    def test_refused(self, call):
        scope = {}
        exec(self.PRELUDE, scope)
        with pytest.raises(OutOfRange, match="has type (float|bool), not int"):
            eval(call, scope)

    def test_refused_under_optimize(self):
        code = self.PRELUDE + "from chainendo.core import OutOfRange\n"
        for call in self.CALLS:
            code += f"try:\n    print({call})\nexcept OutOfRange:\n    print('refused')\n"
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["refused"] * len(self.CALLS)


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
        # every cut is a Subset of the same maps in the same order, empty
        # where the loop's tuple is
        for spec in _vertex_sets(7):
            ref.assert_cut(interior(spec), ref.interior(spec), spec)
            ref.assert_cut(boundary(spec), ref.boundary(spec), spec)
            constants = tuple(constant(spec.n, v) for v in spec.vertices)
            ref.assert_cut(spec.vertex_constants(), constants, spec)
            for m in range(spec.k):
                buckets = ref.layers(spec, m)
                assert len(layers(spec, m)) == len(buckets) == spec.n + 1
                for s, got in enumerate(layers(spec, m)):
                    ref.assert_cut(got, buckets[s], (spec, m, s))
                    ref.assert_cut(layer(LayerId(spec, m, s)), ref.layer(spec, m, s), (spec, m, s))

    def test_length_and_an_escape_build_no_objects(self):
        hood = discrete_neighborhood(SPEC, 0, 3)
        assert len(hood) == 10
        ok, witness = analysis.is_subsemiring(hood)
        assert not ok
        # the witness wraps only its own rows
        assert "elements" not in vars(hood)
        assert (ok, witness) == analysis.is_subsemiring(ref.discrete_neighborhood(SPEC, 0, 3))

    @pytest.mark.parametrize("n", [20, 40])
    def test_a_set_no_check_could_index_is_refused_before_allocating(self, n):
        # the full simplex at n = 20 would need 10 TiB, at n = 40 more maps
        # than an array index holds
        spec = SimplexSpec(n, tuple(range(n)))
        tracemalloc.start()
        try:
            with pytest.raises(analysis.SetTooLarge, match="77558760 of the full simplex at n = 15"):
                enumerate_simplex(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert issubclass(analysis.SetTooLarge, ChainEndoError)

    @pytest.mark.parametrize("n", [20, 40])
    def test_the_refusal_allocates_nothing_under_optimize(self, n):
        code = (
            "import tracemalloc\n"
            "from chainendo import analysis, simplex\n"
            f"spec = simplex.SimplexSpec({n}, tuple(range({n})))\n"
            "tracemalloc.start()\n"
            "try:\n"
            "    simplex.enumerate_simplex(spec)\n"
            "except analysis.SetTooLarge:\n"
            "    print(tracemalloc.get_traced_memory()[1])\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2**20

    def test_the_size_bound_follows_max_chain(self, monkeypatch):
        # the bound is the full simplex at MAX_CHAIN, C(2 * 3 - 1, 3) = 10 here
        monkeypatch.setattr(analysis, "MAX_CHAIN", 3)
        assert len(enumerate_simplex(SimplexSpec(3, (0, 1, 2)))) == 10
        for spec in (SimplexSpec(4, (0, 1, 2)), SimplexSpec(40, (0, 39))):
            with pytest.raises(analysis.SetTooLarge):
                enumerate_simplex(spec)
        with pytest.raises(analysis.SetTooLarge):
            layers(SimplexSpec(4, (0, 1, 2)), 0)

    def test_long_string_enumerates(self):
        els = enumerate_simplex(SimplexSpec(40, (0, 39)))
        assert len(els) == 41 and els[-1] == constant(40, 39)

    def test_long_chain_enumerates(self):
        # a value matrix holds any chain; only the set checks stop at MAX_CHAIN
        els = enumerate_simplex(SimplexSpec(16, (0, 15)))
        assert len(els) == 17
        assert els[0] == constant(16, 0) and els[-1] == constant(16, 15)
        with pytest.raises(analysis.ChainTooLong, match="n <= 15"):
            analysis.is_subsemiring(els)


class TestPattern:
    """Every simplex is one gather from a cached (n, k) pattern P, and its
    layers, neighbourhoods, interior and boundary are masks on the pattern's
    multiplicity matrix M."""

    def test_enumeration_matches_the_fromiter_fill(self):
        specs = [*_vertex_sets(7), SimplexSpec(9, tuple(range(9))), SimplexSpec(9, (1, 4, 6))]
        assert len(enumerate_simplex(specs[-1])) == 55
        for spec in specs:
            got = enumerate_simplex(spec).values
            assert got.dtype == np.int64, spec
            assert np.array_equal(got, ref.enumerate_simplex_fromiter(spec)), spec

    def test_multiplicities_match_the_row_count(self):
        for spec in _vertex_sets(7):
            els, M = enumerate_simplex(spec), simplex._pattern(spec.n, spec.k).M
            assert M.shape == (len(els), spec.k), spec
            assert M.tolist() == ref.multiplicities(spec), spec

    def test_multiplicities_hold_a_long_chain(self):
        # counts up to n = 300 overflow one signed byte
        spec = SimplexSpec(300, (0, 299))
        enumerate_simplex(spec)
        assert simplex._pattern(spec.n, spec.k).M.max() == 300
        assert len(layer(LayerId(spec, 0, 300))) == 1
        assert [len(s) for s in layers(spec, 1)] == [1] * 301
        assert len(interior(spec)) == 299

    def test_pattern_is_read_only(self):
        enumerate_simplex(SPEC)
        pattern = simplex._pattern(SPEC.n, SPEC.k)
        for matrix in (pattern.P, pattern.M):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1

    def test_a_value_matrix_shares_no_memory_with_the_pattern(self):
        els = enumerate_simplex(SPEC)
        pattern = simplex._pattern(SPEC.n, SPEC.k)
        assert not np.shares_memory(els.values, pattern.P)
        assert not np.shares_memory(els.values, pattern.M)
        for cut in (interior(SPEC), boundary(SPEC), *layers(SPEC, 0)):
            assert not np.shares_memory(cut.values, pattern.P)

    def test_only_the_last_pattern_is_held(self):
        enumerate_simplex(SimplexSpec(6, (0, 2, 5)))
        first = weakref.ref(simplex._pattern(6, 3).P)
        enumerate_simplex(SimplexSpec(5, (1, 3)))
        gc.collect()
        assert first() is None
        assert simplex._pattern.cache_info().currsize == 1
        enumerate_simplex(SimplexSpec(5, (0, 4)))  # same (n, k): a hit
        assert simplex._pattern.cache_info().currsize == 1
