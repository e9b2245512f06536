"""Closed-form counts and the formula-versus-enumeration audit."""

import dataclasses
from collections import Counter

import pytest

import reference_loops as ref
from chainendo import counting
from chainendo.core import ChainEndo
from chainendo.counting import (
    DomainError,
    audit,
    catalan,
    evaluate,
    idempotent_count,
    it_order,
    it_rest_order,
    nil_a_order,
    nil_b_order,
    nil_c_order,
    nilpotent_count,
    ri_order,
    ri_order_variant,
    simplex_order,
    triangle_order,
)


class TestClosedForms:
    def test_catalan_values(self):
        assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        with pytest.raises(DomainError):
            catalan(-1)

    def test_nilpotent_count_values(self):
        # endpoints of the chain always admit exactly catalan(n - 1)
        assert nilpotent_count(5, 0) == 14
        assert nilpotent_count(5, 4) == 14
        assert nilpotent_count(5, 2) == 2 * 2
        with pytest.raises(DomainError):
            nilpotent_count(5, 5)
        with pytest.raises(DomainError):
            nilpotent_count(1, 0)

    def test_idempotent_count_is_the_gap_product(self):
        assert idempotent_count(6, (0, 2, 5)) == 2 * 3
        assert idempotent_count(6, (3,)) == 1
        with pytest.raises(DomainError):
            idempotent_count(2, (0,))
        with pytest.raises(DomainError):
            idempotent_count(6, ())
        with pytest.raises(DomainError):
            idempotent_count(6, (6,))
        with pytest.raises(DomainError):
            idempotent_count(3, (0, 1, 2))

    def test_simplex_order(self):
        assert simplex_order(4, 3) == 15
        assert simplex_order(6, 3) == 28
        assert simplex_order(5, 1) == 1
        with pytest.raises(DomainError):
            simplex_order(3, 4)

    def test_triangle_order(self):
        assert triangle_order(4) == 15
        assert triangle_order(6) == 28
        with pytest.raises(DomainError):
            triangle_order(2)

    def test_region_orders_for_the_smallest_triangle(self):
        args = (4, 1, 2, 3)
        assert nil_a_order(*args) == 2
        assert nil_b_order(*args) == 2
        assert nil_c_order(*args) == 5
        assert counting.l_par_order(*args) == 1
        assert counting.r_par_order(*args) == 2
        assert ri_order(*args) == 1
        assert counting.l_tri_order(*args) == 1
        assert counting.r_tri_order(*args) == 1
        total = sum(
            f(*args)
            for f in (
                nil_a_order,
                nil_b_order,
                nil_c_order,
                counting.l_par_order,
                counting.r_par_order,
                ri_order,
                counting.l_tri_order,
                counting.r_tri_order,
            )
        )
        assert total == triangle_order(4) == 15

    def test_fixing_both_outer_vertices(self):
        assert it_order(6, 1, 3, 4) == 3 * 4 // 2 == 6
        assert it_rest_order(6, 1, 3, 4) == (1 + 4 + 3) // 2 == 4
        assert it_order(6, 1, 3, 4) - ri_order(6, 1, 3, 4) == it_rest_order(
            6, 1, 3, 4
        )

    def test_variant_differs_whenever_defined(self):
        for n, a, b, c in ((4, 1, 2, 3), (6, 0, 2, 5), (7, 1, 3, 6)):
            assert ri_order_variant(n, a, b, c) != ri_order(n, a, b, c)

    def test_domain_guards_on_triangle_formulas(self):
        with pytest.raises(DomainError):
            ri_order(4, 2, 2, 3)
        with pytest.raises(DomainError):
            nil_a_order(2, 0, 1, 2)


class TestEvaluate:
    def test_dispatch(self):
        assert evaluate("triangle_order", (5,)) == 21
        assert evaluate("idempotent_count", (6, (0, 2, 5))) == 6

    def test_unknown_formula(self):
        with pytest.raises(KeyError):
            evaluate("no_such_formula", (3,))


class TestAudit:
    def test_every_formula_agrees_with_enumeration(self):
        report = audit(6)
        assert report.ok
        by_id = {r.id: r for r in report.results}
        assert set(by_id) == set(counting.FORMULAS)
        for result in report.results:
            assert result.checked > 0, result.id
            assert result.first_mismatch is None, result.id

    def test_variant_audit_passes_because_it_never_matches(self):
        report = audit(6)
        variant = next(r for r in report.results if r.id == "ri_order_variant")
        assert variant.ok

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_empty_bound_is_refused(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            audit(n_max)

    @pytest.mark.parametrize("n_max", [True, 3.0])
    def test_a_bound_that_is_no_int_is_refused(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an int"):
            audit(n_max)

    @pytest.mark.parametrize("formula_id", ["string_idem_order", "ri_order_variant"])
    @pytest.mark.parametrize("k", [1, 2, 10, 15])
    def test_the_first_mismatch_and_its_position_are_reported(self, monkeypatch, formula_id, k):
        # the variant fails where its oracle first agrees with it, an
        # ordinary formula where its oracle first disagrees
        entry = counting.FORMULAS[formula_id]
        tuples = list(entry.domain(5))
        assert len(tuples) >= 15  # 15 triangles, 20 strings at n <= 5
        calls = []

        def evaluate(*params):
            calls.append(("formula", params))
            return entry.evaluate(*params)

        def oracle(*params):
            calls.append(("oracle", params))
            counted = entry.oracle(*params)
            if params != tuples[k - 1]:
                return counted
            return entry.evaluate(*params) if not entry.expect_equal else counted + 1

        wrapped = dataclasses.replace(entry, evaluate=evaluate, oracle=oracle)
        monkeypatch.setitem(counting.FORMULAS, formula_id, wrapped)
        result = next(r for r in audit(5).results if r.id == formula_id)
        assert not result.ok and result.checked == k
        params, value, counted = result.first_mismatch
        assert params == tuples[k - 1]
        assert value == entry.evaluate(*params)
        assert (value == counted) != entry.expect_equal
        # formula, then oracle, once per tuple, in order, none after the mismatch
        assert calls == [(kind, t) for t in tuples[:k] for kind in ("formula", "oracle")]

    def test_domain_sizes_scale_with_bound(self):
        small, large = audit(3), audit(4)
        checked = {r.id: r.checked for r in small.results}
        for result in large.results:
            assert result.checked >= checked[result.id]


class TestChainCensus:
    def test_every_formula_has_a_loop(self):
        assert set(ref.ORACLE_LOOPS) == set(counting.FORMULAS)

    @pytest.mark.parametrize("formula_id", list(ref.ORACLE_LOOPS))
    def test_oracle_equals_the_per_tuple_loop(self, formula_id):
        # the object loop the oracle replaced, at every tuple up to n = 6,
        # and a plain int, never a numpy scalar
        formula, loop = counting.FORMULAS[formula_id], ref.ORACLE_LOOPS[formula_id]
        tuples = list(formula.domain(6))
        assert tuples
        for params in tuples:
            counted = formula.oracle(*params)
            assert type(counted) is int and counted == loop(*params), params

    def test_a_walk_past_the_cap_raises(self, monkeypatch):
        # the swap (1, 0) is no map of the chain: its powers alternate, and
        # the walk stops at n steps with an error, under python -O too
        maps = [ChainEndo._wrap(2, values) for values in ((0, 0), (1, 0), (1, 1))]
        monkeypatch.setattr(counting, "all_endomorphisms", lambda n: iter(maps))
        with pytest.raises(AssertionError, match=r"powers of \(1, 0\) did not stabilise within 2"):
            counting._chain_atlas(2)

    def test_audit_enumerates_each_chain_once(self, monkeypatch):
        enumerated = Counter()
        original = counting.all_endomorphisms

        def counted(n):
            enumerated[n] += 1
            return original(n)

        monkeypatch.setattr(counting, "all_endomorphisms", counted)
        for _ in range(2):  # a second audit enumerates again: no warm cache
            enumerated.clear()
            audit(5)
            assert enumerated == {n: 1 for n in range(1, 6)}


class TestMemoScope:
    def test_store_is_empty_after_audit(self):
        audit(5)
        assert counting._memo is None

    def test_store_is_empty_after_an_oracle_raises(self, monkeypatch):
        seen = []

        def broken(*params):
            seen.append(dict(counting._memo))
            raise RuntimeError("oracle failed")

        entry = counting.FORMULAS["simplex_order"]
        monkeypatch.setitem(
            counting.FORMULAS, entry.id, dataclasses.replace(entry, oracle=broken)
        )
        with pytest.raises(RuntimeError, match="oracle failed"):
            audit(5)
        assert counting._memo is None
        # the earlier chain oracles had filled the store while audit ran
        assert ("_chain_census", 5) in seen[0]

    def test_direct_oracle_call_keeps_nothing(self):
        assert counting.FORMULAS["idempotent_count"].oracle(5, (0, 4)) == 4
        assert counting._memo is None

    def test_consecutive_audits_agree(self):
        assert audit(6) == audit(6)

    def test_registry_order_does_not_change_the_report(self):
        forward = audit(6)
        saved = dict(counting.FORMULAS)
        counting.FORMULAS.clear()
        counting.FORMULAS.update(reversed(saved.items()))
        try:
            backward = audit(6)
        finally:
            counting.FORMULAS.clear()
            counting.FORMULAS.update(saved)
        assert [r.id for r in backward.results] == list(reversed(saved))
        assert sorted(backward.results, key=lambda r: r.id) == sorted(
            forward.results, key=lambda r: r.id
        )
