"""The claim registry: integrity, sweeps, parallel determinism."""

import concurrent.futures
import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference_loops as ref
from chainendo import analysis, claims, counting, simplex, strings, triangle
from chainendo.claims import (
    REGISTRY,
    Claim,
    ClaimResult,
    UnknownClaim,
    run_all,
    run_claim,
)
from chainendo.core import ChainEndo, constant
from chainendo.simplex import SimplexSpec
from chainendo.triangle import Region, TriangleSpec

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRegistry:
    def test_ids_unique_and_nonempty(self):
        assert len(REGISTRY) == len(claims._CLAIMS) == 44
        for claim_id, claim in REGISTRY.items():
            assert claim.id == claim_id
            assert claim.statement.strip()

    def test_ids_are_kebab_case(self):
        for claim_id in REGISTRY:
            assert claim_id == claim_id.lower()
            assert " " not in claim_id

    def test_every_family_yields_something_by_six(self):
        for claim in REGISTRY.values():
            assert any(True for _ in claim.params(6)), claim.id


def _nested_string_pairs(n_max):
    for n, a1, b1, a2, b2 in ref.string_pair_family(n_max):
        yield (n, (a1, b1), (a2, b2))


class TestPairFamilies:
    @pytest.mark.parametrize("n_max", range(1, 10))
    @pytest.mark.parametrize(
        "claim_id, reference",
        [
            ("simplex-noniso", ref.simplex_pair_family),
            ("string-noniso", _nested_string_pairs),
            ("triangle-noniso", ref.triangle_pair_family),
            ("triangle-add-iso", ref.triangle_pair_family),
        ],
    )
    def test_one_family_yields_the_reference_tuples(self, claim_id, reference, n_max):
        assert list(REGISTRY[claim_id].params(n_max)) == list(reference(n_max))

    def test_the_noniso_claims_share_one_check(self):
        for claim_id in ("simplex-noniso", "string-noniso", "triangle-noniso"):
            assert REGISTRY[claim_id].check is claims._chk_simplex_noniso

    @pytest.mark.parametrize("verts", [(0, 2), (1, 2, 3)])
    def test_isomorphic_sets_fail_with_both_vertex_sets(self, verts):
        assert claims._chk_simplex_noniso((4, verts, verts)) == (
            False,
            {"first": verts, "second": verts},
        )

    def test_the_noniso_claims_enumerate_and_scan_each_vertex_set_once(self, monkeypatch):
        # the 168 pairs of string-noniso up to n = 6 share 34 strings
        calls = Counter()
        for module, name in ((simplex, "enumerate_simplex"), (analysis, "_closure_scan")):

            def counted(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        result = run_claim("string-noniso", 6)
        assert (result.holds, result.checked) == (True, 168)
        assert calls == {"enumerate_simplex": 34, "_closure_scan": 34}

    @pytest.mark.parametrize("open_set", [0, 1])
    def test_a_set_that_is_not_closed_fails_as_iso_check_does(self, monkeypatch, open_set):
        one, two = (0, 2), (1, 3)
        bad = simplex.enumerate_simplex(SimplexSpec(4, (one, two)[open_set]))
        witness = analysis.ClosureWitness(bad[0], bad[1], "*", bad[1])
        real = analysis.is_subsemiring
        monkeypatch.setattr(
            analysis, "is_subsemiring", lambda s: (False, witness) if s == bad else real(s)
        )
        with pytest.raises(analysis.NotClosed) as from_iso:
            analysis.iso_check(
                simplex.enumerate_simplex(SimplexSpec(4, one)),
                simplex.enumerate_simplex(SimplexSpec(4, two)),
            )
        with counting._memo_scope(), pytest.raises(analysis.NotClosed) as from_claim:
            claims._chk_simplex_noniso((4, one, two))
        assert str(from_claim.value) == str(from_iso.value)
        assert ("first", "second")[open_set] in str(from_iso.value)


class TestRunClaim:
    def test_unknown_id(self):
        with pytest.raises(UnknownClaim):
            run_claim("no-such-claim", 4)

    def test_vacuous_bound_passes_with_zero_checks(self):
        result = run_claim("triangle-order", 2)
        assert result.holds and result.checked == 0
        assert result.failure_params is None and result.witness is None

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_empty_bound_is_refused(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            run_claim("semiring-laws", n_max)

    @pytest.mark.parametrize("n_max", [True, 4.0, 2.5])
    def test_a_bound_that_is_no_int_is_refused(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an int"):
            run_claim("catalan-count", n_max)

    @pytest.mark.parametrize("k", [1, 2, 13, 25])
    def test_the_first_failing_tuple_and_its_position_are_reported(self, monkeypatch, k):
        entry = REGISTRY["simplex-order"]
        tuples = list(entry.params(4))
        assert len(tuples) == 25
        seen = []

        def check(params):
            seen.append(params)
            return params not in tuples[k - 1 :], {"at": params}

        monkeypatch.setitem(REGISTRY, entry.id, dataclasses.replace(entry, check=check))
        result = run_claim(entry.id, 4)
        assert not result.holds and result.checked == k
        assert result.failure_params == tuples[k - 1]
        assert result.witness == {"at": tuples[k - 1]}
        assert seen == tuples[:k]  # each tuple once, in order, none after the failure

    def test_alone_keeps_one_store_and_drops_it(self, monkeypatch):
        stores = TestRunAll._record_stores(monkeypatch, ["catalan-count"])
        assert run_claim("catalan-count", 6).holds
        (first, *rest) = seen = stores["catalan-count"]
        assert len(seen) == 5 and first is not None  # n = 2..6
        assert all(store is first for store in rest)
        assert counting._memo is None

    def test_single_claim_result_shape(self):
        result = run_claim("mul-noncommutative", 4)
        assert isinstance(result, ClaimResult)
        assert result.claim_id == "mul-noncommutative"
        assert result.n_max == 4
        assert result.holds and result.checked == 3
        assert result.elapsed >= 0

    def test_hard_cap_limits_the_sweep(self):
        capped = run_claim("semiring-laws", 9)
        direct = run_claim("semiring-laws", 4)
        assert capped.checked == direct.checked
        assert capped.n_max == 9  # the requested bound is still reported

    def test_crash_inside_a_check_reports_a_failure(self):
        claim_id = "synthetic-crash"
        assert claim_id not in REGISTRY
        REGISTRY[claim_id] = Claim(
            claim_id,
            "synthetic claim whose check raises",
            lambda n_max: iter([(3,)]),
            lambda params: 1 // 0,
        )
        try:
            result = run_claim(claim_id, 4)
            assert not result.holds
            assert result.failure_params == (3,)
            assert "ZeroDivisionError" in result.witness["error"]
        finally:
            del REGISTRY[claim_id]

    def test_chain_limit_is_raised_not_reported_as_a_failure(self, monkeypatch):
        # a chain past the set checks' limit says nothing about the claim
        monkeypatch.setattr(analysis, "MAX_CHAIN", 3)
        with pytest.raises(analysis.ChainTooLong):
            run_claim("simplex-closed", 4)

    def test_set_limit_is_raised_not_reported_as_a_failure(self, monkeypatch):
        # simplex-order reads no keys, so at n = 4 only the size of the full
        # simplex, 35 maps against C(5, 3) = 10, passes the limit
        monkeypatch.setattr(analysis, "MAX_CHAIN", 3)
        with pytest.raises(analysis.SetTooLarge):
            run_claim("simplex-order", 4)


class TestOrderClaims:
    """simplex-order and triangle-order test strict ascent on the value rows."""

    CASES = [
        ("simplex-order", simplex, "enumerate_simplex"),
        ("triangle-order", triangle, "elements"),
    ]

    @staticmethod
    def _swap_last_two(size):
        order = list(range(size))
        order[-2:] = order[-2:][::-1]
        return order

    @staticmethod
    def _repeat_next_to_last(size):
        order = list(range(size))
        order[-1] = order[max(size - 2, 0)]
        return order

    @pytest.mark.parametrize("claim_id", [case[0] for case in CASES])
    def test_hold_on_the_real_enumeration(self, claim_id):
        assert run_claim(claim_id, 6).holds

    @pytest.mark.parametrize("rows", ["_swap_last_two", "_repeat_next_to_last"])
    @pytest.mark.parametrize("claim_id, module, name", CASES)
    def test_fail_when_rows_do_not_ascend(self, monkeypatch, claim_id, module, name, rows):
        # a one-map set is unchanged; the first set of two maps or more fails
        real, order = getattr(module, name), getattr(self, rows)

        def broken(spec):
            s = real(spec)
            return analysis.Subset.from_values(s.n, s.values[order(len(s))])

        monkeypatch.setattr(module, name, broken)
        result = run_claim(claim_id, 4)
        assert not result.holds
        assert result.witness == {"note": "enumeration must be strictly ascending"}


class TestItIdealsDiagonal:
    """it-ideals finds the a-c diagonal as the string's non-constant
    idempotents, not the way idempotent_triangle builds it (the idempotent
    block of partition_string), so a diagonal shifted by one row fails even
    when the string partition shifts with it."""

    @staticmethod
    def _shift_diagonal(monkeypatch, params, shift):
        n, a, b, c = params
        spec = triangle.TriangleSpec(n, a, b, c)
        rep = triangle.idempotent_triangle(spec)
        start = n - c + shift  # the idempotent run starts at row n - c
        cut = strings.elements(spec.string_ac())[start : start + len(rep.diagonal)]
        real_partition = strings.partition_string
        monkeypatch.setattr(
            triangle, "idempotent_triangle", lambda _: dataclasses.replace(rep, diagonal=cut)
        )
        monkeypatch.setattr(
            strings, "partition_string", lambda s: dataclasses.replace(real_partition(s), idem=cut)
        )

    PARAMS = [(3, 0, 1, 2), (6, 1, 3, 4), (7, 0, 2, 6)]

    @pytest.mark.parametrize("params", PARAMS)
    def test_holds_with_the_diagonal_in_place(self, monkeypatch, params):
        self._shift_diagonal(monkeypatch, params, 0)
        assert claims._chk_it_ideals(params) == (True, None)

    @pytest.mark.parametrize("shift", [1, -1])
    @pytest.mark.parametrize("params", PARAMS)
    def test_a_diagonal_shifted_by_one_row_fails(self, monkeypatch, params, shift):
        self._shift_diagonal(monkeypatch, params, shift)
        assert claims._chk_it_ideals(params) == (False, {"note": "diagonal mismatch"})


class TestMovedVerdictsCanFail:
    """The claims, not the builders, compute these verdicts; a scan that
    answers wrongly must turn each into its witness."""

    PARAMS = (6, 1, 3, 4)

    @staticmethod
    def _fail_on(monkeypatch, name, target):
        real = getattr(analysis, name)

        def scan(first, *rest):
            return (False, None) if first == target else real(first, *rest)

        monkeypatch.setattr(claims.analysis, name, scan)

    @pytest.mark.parametrize(
        "name, field, verdict",
        [
            ("is_subsemiring", "ri", "ri_closed"),
            ("is_subsemiring", "rest", "rest_closed"),
            ("is_ideal", "diagonal", "diagonal_ideal"),
            ("is_ideal", "rest", "rest_ideal"),
        ],
    )
    def test_it_ideals_scan_verdicts(self, monkeypatch, name, field, verdict):
        rep = triangle.idempotent_triangle(triangle.TriangleSpec(*self.PARAMS))
        self._fail_on(monkeypatch, name, getattr(rep, field))
        assert claims._chk_it_ideals(self.PARAMS) == (False, {"verdict": verdict})

    def test_it_ideals_left_zero_verdict(self, monkeypatch):
        # the left-zero verdict is the one _left_zeros(...) of the check
        monkeypatch.setattr(claims, "_left_zeros", lambda zeros, s: False)
        assert claims._chk_it_ideals(self.PARAMS) == (
            False,
            {"verdict": "diagonal_left_zero"},
        )

    @pytest.mark.parametrize(
        "field, note",
        [
            ("left", "counterexample ingredients must be idempotent"),
            ("right", "counterexample ingredients must be idempotent"),
            ("total", "counterexample sum must square to const c"),
            ("square", "counterexample sum must square to const c"),
        ],
    )
    def test_idempotent_sum_notes(self, monkeypatch, field, note):
        # the interior square witness is not idempotent; const a is
        # idempotent, so a total of const a or a square of const a fails
        spec = triangle.TriangleSpec(*self.PARAMS)
        real = triangle.idempotent_sum_counterexample(spec)
        witness, _ = triangle.interior_square_witness(spec)
        bad = witness if field in ("left", "right") else constant(spec.n, spec.a)
        patched = dataclasses.replace(real, **{field: bad})
        monkeypatch.setattr(claims.triangle, "idempotent_sum_counterexample", lambda _: patched)
        assert claims._chk_idempotent_sum_escape(self.PARAMS) == (False, {"note": note})

    def test_string_families_top(self, monkeypatch):
        # with a = 1 the top segment from index 1 reaches const b and is not closed
        monkeypatch.setattr(claims.analysis, "is_subsemiring", lambda _: (True, None))
        assert claims._chk_string_families((5, 1, 3)) == (False, {"segment": "top", "cut": 1})

    def test_string_families_bottom(self, monkeypatch):
        # only bottom segments hold const b; flip their verdicts
        real, const_b = analysis.is_subsemiring, constant(5, 3)
        monkeypatch.setattr(
            claims.analysis,
            "is_subsemiring",
            lambda s: (not real(s)[0], None) if const_b in s else real(s),
        )
        assert claims._chk_string_families((5, 1, 3)) == (
            False,
            {"segment": "bottom", "cut": 0},
        )


class TestPortedChecksKeepTheirWitnesses:
    """The checks that ask Subset.limits once per set, and interior-sum's one
    count of the string sums, report what their per-member loops reported
    (reference_loops): each is made to fail by patching library calls it
    reads, and the check and its loop must return the same verdict and
    witness.  A member nilpotent onto a0 always fixes a0, so no patched set
    reaches nilpotency-criterion's "nilpotent without fixing"."""

    TRIANGLES = [(4, 0, 1, 3), (6, 1, 3, 4), (7, 0, 2, 6)]

    @staticmethod
    def _same(check, loop, params):
        got = check(params)
        assert got == loop(params)
        return got

    @pytest.mark.parametrize("flip", ["every", "nilpotent", "other"])
    @pytest.mark.parametrize("params", [(5, (1, 2, 4)), (6, (0, 2, 5)), (6, (2, 3, 4, 5))])
    def test_nilpotency_criterion(self, monkeypatch, params, flip):
        # the claim asks the set form once; the per-map form the loop asks
        # reads it through the module, so both see the same flip
        real = simplex.nilpotent_rows

        def criterion(spec, rows):
            verdict = real(spec, rows)
            return verdict ^ ((flip == "every") | (verdict == (flip == "nilpotent")))

        self._same(claims._chk_nilpotency_criterion, ref.nilpotency_criterion, params)
        monkeypatch.setattr(simplex, "nilpotent_rows", criterion)
        holds, witness = self._same(
            claims._chk_nilpotency_criterion, ref.nilpotency_criterion, params
        )
        assert not holds and witness["nilpotent"] == (flip != "other")

    @pytest.mark.parametrize("cut", ["simplex", "non-idempotents", "simplex-non-idempotents"])
    @pytest.mark.parametrize("params", [(6, (0, 2, 5)), (6, (1, 3, 4)), (5, (0, 1, 2, 3, 4))])
    def test_top_layer(self, monkeypatch, params, cut):
        # the whole simplex is closed but holds the nilpotents onto a0; a set
        # without idempotents, passed as closed, loses its members' limits
        real = simplex.layer

        def layer(layer_id):
            s = simplex.enumerate_simplex(layer_id.spec) if "simplex" in cut else real(layer_id)
            if "non-idempotents" in cut:
                s = s[np.array([not e.is_idempotent() for e in s])]
            return s

        monkeypatch.setattr(simplex, "layer", layer)
        if "non-idempotents" in cut:
            monkeypatch.setattr(analysis, "is_subsemiring", lambda _: (True, None))
        holds, witness = self._same(claims._chk_top_layer, ref.top_layer, params)
        assert not holds and "note" in witness

    @pytest.mark.parametrize("radius", [2, 3])
    @pytest.mark.parametrize("params", [(5, (1, 2, 3), 1), (6, (1, 3, 4), 0), (6, (1, 3, 4), 2)])
    def test_dn1_internal(self, monkeypatch, params, radius):
        # a wider neighborhood, with the verdict of the radius-1 one
        n, verts, m = params
        real = simplex.discrete_neighborhood
        verdict = analysis.triviality(real(SimplexSpec(n, verts), m, 1))
        monkeypatch.setattr(simplex, "discrete_neighborhood", lambda s, m, t: real(s, m, radius))
        monkeypatch.setattr(analysis, "triviality", lambda _: verdict)
        holds, witness = self._same(claims._chk_dn1_internal, ref.dn1_internal, params)
        assert not holds and "element" in witness

    @pytest.mark.parametrize("region", [Region.NIL_A, Region.NIL_B, Region.NIL_C])
    @pytest.mark.parametrize("params", TRIANGLES)
    def test_nilpotent_regions(self, monkeypatch, params, region):
        real = triangle.regions
        monkeypatch.setattr(
            triangle, "regions", lambda spec: {**real(spec), region: real(spec)[region][1:]}
        )
        holds, witness = self._same(claims._chk_nilpotent_regions, ref.nilpotent_regions, params)
        assert not holds and witness["note"] == "region misses the fiber"

    @pytest.mark.parametrize("swap", ["triangle", "half"])
    @pytest.mark.parametrize("params", TRIANGLES)
    def test_interior_sum(self, monkeypatch, params, swap):
        # more summands on the a-c side give some member two pairs, fewer none
        ac, real = TriangleSpec(*params).string_ac(), strings.elements

        def elements(spec):
            if spec != ac:
                return real(spec)
            if swap == "triangle":
                return triangle.elements(TriangleSpec(*params))
            return real(spec)[: spec.n // 2]

        monkeypatch.setattr(strings, "elements", elements)
        holds, witness = self._same(claims._chk_interior_sum, ref.interior_sum, params)
        assert not holds and "pairs" in witness

    @pytest.mark.parametrize("patch", ["right_identities", "interior"])
    @pytest.mark.parametrize("params", TRIANGLES)
    def test_interior_idempotents(self, monkeypatch, params, patch):
        if patch == "right_identities":
            real = triangle.right_identities
            monkeypatch.setattr(triangle, "right_identities", lambda spec: real(spec)[1:])
        else:
            monkeypatch.setattr(triangle, "interior", triangle.elements)
        check, loop = claims._chk_interior_idempotents, ref.interior_idempotents
        holds, witness = self._same(check, loop, params)
        assert not holds and witness["found"]

    @pytest.mark.parametrize("extra", ["interior", "boundary"])
    @pytest.mark.parametrize("params", TRIANGLES)
    def test_right_identity_existence(self, monkeypatch, params, extra):
        # the identities, the block and the region all read one set with
        # members that are not idempotent
        spec = TriangleSpec(*params)
        bad = triangle.right_identities(spec) | getattr(triangle, extra)(spec)
        ids, regions = analysis.identities, triangle.regions
        monkeypatch.setattr(
            analysis, "identities", lambda s: dataclasses.replace(ids(s), right=bad)
        )
        monkeypatch.setattr(triangle, "right_identities", lambda _: bad)
        monkeypatch.setattr(
            triangle, "regions", lambda s: {**regions(s), Region.RIGHT_IDENTITIES: bad}
        )
        check, loop = claims._chk_right_identity_existence, ref.right_identity_existence
        holds, witness = self._same(check, loop, params)
        assert not holds and "element" in witness

    @pytest.mark.parametrize("params", TRIANGLES)
    def test_idempotent_sum_escape(self, monkeypatch, params):
        # the idempotents of a string lie on one chain, so they add up
        check, loop = claims._chk_idempotent_sum_escape, ref.idempotent_sum_escape
        assert self._same(check, loop, params) == (True, None)
        spec = TriangleSpec(*params)
        monkeypatch.setattr(triangle, "elements", lambda _: strings.elements(spec.string_ac()))
        assert self._same(check, loop, params) == (
            False,
            {"note": "idempotents unexpectedly add up"},
        )

    @pytest.mark.parametrize("shift", [0, 1, -1])
    @pytest.mark.parametrize("params", TestItIdealsDiagonal.PARAMS)
    def test_it_ideals_diagonal(self, monkeypatch, params, shift):
        TestItIdealsDiagonal._shift_diagonal(monkeypatch, params, shift)
        holds, _ = self._same(claims._chk_it_ideals, ref.it_ideals, params)
        assert holds == (shift == 0)

    @pytest.mark.parametrize("params", TestItIdealsDiagonal.PARAMS)
    def test_it_ideals_corners_swapped(self, monkeypatch, params):
        # corners swapped in the report and in the regions pass every check
        # before the pointwise order, which then fails at its first pair
        real_report, real_regions = triangle.idempotent_triangle, triangle.regions

        def report(spec):
            rep = real_report(spec)
            return dataclasses.replace(
                rep, corner_left=rep.corner_right, corner_right=rep.corner_left
            )

        def regions(spec):
            cut = dict(real_regions(spec))
            cut[Region.L_TRI], cut[Region.R_TRI] = cut[Region.R_TRI], cut[Region.L_TRI]
            return cut

        monkeypatch.setattr(triangle, "idempotent_triangle", report)
        monkeypatch.setattr(triangle, "regions", regions)
        holds, witness = self._same(claims._chk_it_ideals, ref.it_ideals, params)
        assert not holds and set(witness) == {"left", "right"}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_power_stabilization(self, n):
        assert self._same(claims._chk_power_stabilization, ref.power_stabilization, (n,)) == (
            True,
            None,
        )

    @pytest.mark.parametrize(
        "field, witness",
        [
            ("limits", {"note": "eventual idempotent mismatch"}),
            ("exponents", {"exponent": 6}),
        ],
    )
    def test_power_stabilization_reads_the_atlas(self, monkeypatch, field, witness):
        # a wrong limit, or an exponent over the cap, at one row of the atlas
        # is reported at that row's map
        n, row = 6, 100
        atlas = counting._chain_atlas(n)
        table = getattr(atlas, field).copy()
        table[row] = n if field == "exponents" else table[row] ^ 1
        monkeypatch.setattr(
            counting, "_chain_atlas", lambda _: atlas._replace(**{field: table})
        )
        element = claims._fmt(ChainEndo(n, atlas.values[row].tolist()))
        assert claims._chk_power_stabilization((n,)) == (False, {"element": element, **witness})


class TestLayerStringIsoRuns:
    """layer-string-iso reads the images of the three runs of a basic layer
    from the layer's image at the runs' offsets; a run boundary moved by one
    row fails, although the runs still stack to the whole layer."""

    PARAMS = (6, 1, 3, 4)

    @staticmethod
    def _move_c_boundary(monkeypatch, shift):
        real = triangle.basic_layers

        def moved(spec, vertex):
            if vertex != spec.c:
                return real(spec, vertex)
            out = []
            for bl in real(spec, vertex):
                cut, end = len(bl.left) + shift, len(bl.left) + len(bl.middle)
                out.append(
                    dataclasses.replace(bl, left=bl.elements[:cut], middle=bl.elements[cut:end])
                )
            return tuple(out)

        monkeypatch.setattr(triangle, "basic_layers", moved)

    def test_holds_with_the_runs_in_place(self, monkeypatch):
        self._move_c_boundary(monkeypatch, 0)
        assert claims._chk_layer_string_iso(self.PARAMS) == (True, None)

    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_boundary_moved_by_one_row_fails(self, monkeypatch, shift):
        self._move_c_boundary(monkeypatch, shift)
        want = {"vertex": 4, "k": 2, "note": "block drift"}
        assert claims._chk_layer_string_iso(self.PARAMS) == (False, want)


# Falsifiers of the two count claims: the formula the claim and the audit
# both read, the tuple at which it is made off by one, and the keys of the
# claim's witness.
COUNT_FALSIFIERS = [
    pytest.param(
        "catalan-count", "nilpotent_count", (5, 2), ("target", "formula", "enumerated"),
        id="catalan-count",
    ),
    pytest.param(
        "idempotent-count", "idempotent_count", (5, (1, 3)), ("fixed", "formula", "enumerated"),
        id="idempotent-count",
    ),
]


class TestCountClaimsCanFail:
    """A formula off by one at one tuple fails its claim at that n and its
    audit at that tuple."""

    @pytest.mark.parametrize("claim_id, formula_id, wrong, keys", COUNT_FALSIFIERS)
    def test_claim_and_audit_fail_at_the_wrong_tuple(
        self, monkeypatch, claim_id, formula_id, wrong, keys
    ):
        real = getattr(counting, formula_id)

        def off_by_one(*params):
            return real(*params) + (params == wrong)

        # the claim calls the module function; the registry entry holds its own reference
        monkeypatch.setattr(counting, formula_id, off_by_one)
        entry = counting.FORMULAS[formula_id]
        wrong_entry = dataclasses.replace(entry, evaluate=off_by_one)
        monkeypatch.setitem(counting.FORMULAS, formula_id, wrong_entry)
        n, *where = wrong
        result = run_claim(claim_id, 7)
        assert not result.holds and result.failure_params == (n,)
        assert tuple(result.witness) == keys
        assert result.witness[keys[0]] == where[0]
        assert result.witness["formula"] == result.witness["enumerated"] + 1 == real(*wrong) + 1
        audited = {r.id: r for r in counting.audit(7).results}
        assert not audited[formula_id].ok
        assert audited[formula_id].first_mismatch == (wrong, real(*wrong) + 1, real(*wrong))
        assert audited[formula_id].checked == list(entry.domain(7)).index(wrong) + 1
        assert all(r.ok for r in audited.values() if r.id != formula_id)


# Falsifiers of string-mul-cases: the strings index rule made wrong at two
# (n, a, b, k, ell) pairs of the left factor, each given the index it then
# names; the claim must report the pair the old object loop met first, in
# the order left string, right string, k, ell.
STRING_RULE_FALSIFIERS = [
    pytest.param(
        ((5, 0, 2, 1, 4, 0), (5, 0, 1, 4, 0, 5)),
        {"left": "0_4 1", "right": "1_5", "predicted": "0_5"},
        id="earlier-left-string",
    ),
    pytest.param(
        ((5, 1, 3, 3, 1, 5), (5, 1, 3, 1, 4, 0)),
        {"left": "1 3_4", "right": "0_4 1", "predicted": "1_5"},
        id="same-left-string-lower-k",
    ),
]


class TestStringMulCasesCanFail:
    @pytest.mark.parametrize("wrong, witness", STRING_RULE_FALSIFIERS)
    def test_the_first_wrong_pair_is_reported(self, monkeypatch, wrong, witness):
        real = strings._product_index

        def rule(spec, k, ell):
            # ints or arrays, as the claim and string_mul_cases ask
            index = real(spec, k, ell)
            for n, a, b, at_k, at_ell, wrong_index in wrong:
                if (spec.n, spec.a, spec.b) == (n, a, b):
                    hit = (k == at_k) & (ell == at_ell)
                    index = index + (wrong_index - index) * hit
            return index

        monkeypatch.setattr(strings, "_product_index", rule)
        result = run_claim("string-mul-cases", 6)
        assert not result.holds and result.failure_params == (5,) and result.checked == 3
        assert result.witness == witness == ref.string_mul_cases((5,))[1]
        assert claims._chk_string_mul_cases((4,)) == (True, None)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_holds_as_the_loop_does(self, n):
        assert claims._chk_string_mul_cases((n,)) == ref.string_mul_cases((n,)) == (True, None)


class TestRunAll:
    def test_everything_holds_at_a_small_bound(self):
        results = run_all(4)
        assert len(results) == 44
        assert [r.claim_id for r in results] == list(REGISTRY)
        for result in results:
            assert result.holds, (result.claim_id, result.failure_params)

    def test_subset_selection_preserves_requested_order(self):
        picked = run_all(3, ids=["string-partition", "simplex-order"])
        assert [r.claim_id for r in picked] == ["string-partition", "simplex-order"]

    @pytest.mark.parametrize(
        "n_max, jobs, message",
        [(0, 1, "n_max must be at least 1"), (3, 0, "jobs must be at least 1"), (0, 0, "n_max")],
    )
    def test_empty_bound_or_no_workers_is_refused(self, n_max, jobs, message):
        with pytest.raises(ValueError, match=message):
            run_all(n_max, jobs=jobs)

    @pytest.mark.parametrize(
        "n_max, jobs, message",
        [
            (True, 1, "n_max must be an int, got True"),
            (2.5, 1, "n_max must be an int, got 2.5"),
            (3, 2.0, "jobs must be an int, got 2.0"),
            (3, True, "jobs must be an int, got True"),
        ],
    )
    def test_a_bound_or_job_count_that_is_no_int_is_refused(self, n_max, jobs, message):
        with pytest.raises(ValueError, match=message):
            run_all(n_max, jobs=jobs)

    def test_unknown_id_in_selection(self):
        with pytest.raises(UnknownClaim):
            run_all(3, ids=["simplex-order", "bogus"])

    @pytest.mark.parametrize(
        "jobs, ids, workers",
        [
            (64, ["mul-noncommutative", "simplex-order"], [2]),
            (2, ["mul-noncommutative", "simplex-order", "triangle-order"], [2]),
            (64, ["mul-noncommutative"], []),
            (2, [], []),
        ],
    )
    def test_pool_has_at_most_one_worker_per_claim(self, monkeypatch, jobs, ids, workers):
        built = self._pool_in_process(monkeypatch)
        results = run_all(3, jobs=jobs, ids=ids)
        assert built == workers
        assert [r.claim_id for r in results] == ids
        assert all(r.holds for r in results)

    @staticmethod
    def _pool_in_process(monkeypatch):
        """Run the pool's jobs in this process; a list of its worker counts."""
        built = []

        class InProcessPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_all imports the pool only when it builds one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return built

    @staticmethod
    def _count_enumerations(monkeypatch):
        """A Counter of the chains counting enumerates, by chain size."""
        enumerated = Counter()
        original = counting.all_endomorphisms

        def counted(n):
            enumerated[n] += 1
            return original(n)

        monkeypatch.setattr(counting, "all_endomorphisms", counted)
        return enumerated

    def test_a_sweep_enumerates_each_chain_once(self, monkeypatch):
        # catalan-count and idempotent-count read one census per n
        ids = ["catalan-count", "idempotent-count"]
        chains = {n for claim_id in ids for (n,) in REGISTRY[claim_id].params(7)}
        assert max(chains) == 7
        enumerated = self._count_enumerations(monkeypatch)
        results = run_all(7, ids=ids)
        assert all(r.holds for r in results)
        assert enumerated == {n: 1 for n in chains}
        assert counting._memo is None
        enumerated.clear()  # the next sweep starts afresh
        run_all(7, ids=ids)
        assert enumerated == {n: 1 for n in chains}

    @staticmethod
    def _record_stores(monkeypatch, ids):
        """claim id -> counting's store (or None) at each of its checks; the
        stores are kept, so that two of them are never told apart by a
        reused id."""
        stores = {}
        for claim_id in ids:
            entry, seen = REGISTRY[claim_id], stores.setdefault(claim_id, [])

            def check(params, real=entry.check, seen=seen):
                seen.append(counting._memo)
                return real(params)

            monkeypatch.setitem(REGISTRY, claim_id, dataclasses.replace(entry, check=check))
        return stores

    @pytest.mark.parametrize("jobs, shared", [(1, True), (2, False)])
    def test_a_sweep_shares_one_store_and_each_pooled_job_keeps_its_own(
        self, monkeypatch, jobs, shared
    ):
        self._pool_in_process(monkeypatch)
        ids = ["catalan-count", "idempotent-count"]
        stores = self._record_stores(monkeypatch, ids)
        assert all(r.holds for r in run_all(6, jobs=jobs, ids=ids))
        one, two = (stores[claim_id][0] for claim_id in ids)
        assert one is not None and two is not None
        assert all(store is one for store in stores[ids[0]])
        assert all(store is two for store in stores[ids[1]])
        assert (one is two) == shared
        assert counting._memo is None

    def test_the_pool_is_not_loaded_for_one_job(self):
        code = (
            "import sys\n"
            "from chainendo import claims\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "claims.run_all(3, ids=['catalan-count'])\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_the_census_is_dropped_when_a_sweep_raises(self, monkeypatch):
        def too_long(n):
            assert counting._memo is not None
            raise analysis.ChainTooLong(f"chain size {n}")

        monkeypatch.setattr(counting, "all_endomorphisms", too_long)
        with pytest.raises(analysis.ChainTooLong):
            run_all(5, ids=["simplex-order", "catalan-count"])
        assert counting._memo is None

    def test_parallel_matches_sequential(self):
        ids = [
            "mul-noncommutative",
            "simplex-order",
            "string-partition",
            "triangle-order",
            "eight-region-partition",
        ]
        seq = run_all(4, jobs=1, ids=ids)
        par = run_all(4, jobs=2, ids=ids)
        strip = lambda rs: [
            (r.claim_id, r.n_max, r.checked, r.holds, r.failure_params)
            for r in rs
        ]
        assert strip(seq) == strip(par)
