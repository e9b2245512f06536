"""Chain endomorphism arithmetic, enumeration, and compact notation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chainendo import analysis, simplex, strings, triangle
from chainendo.core import (
    ChainEndo,
    CompactForm,
    LengthMismatch,
    NotMonotone,
    OutOfRange,
    ParseError,
    SizeMismatch,
    SumMismatch,
    all_endomorphisms,
    constant,
    format_compact,
    identity,
    parse_compact,
)


def maps_on(n):
    """Random monotone self-maps of C_n: sorted value tuples are exactly those."""
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        lambda vals: ChainEndo(n, tuple(sorted(vals)))
    )


def endos(max_n=6):
    return st.integers(1, max_n).flatmap(maps_on)


def same_n_triples(max_n=5):
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(*(maps_on(n) for _ in range(3))))


class TestConstruction:
    def test_values_must_cover_the_chain_length(self):
        with pytest.raises(LengthMismatch):
            ChainEndo(3, (0, 1))

    def test_values_must_stay_in_range(self):
        with pytest.raises(OutOfRange):
            ChainEndo(3, (0, 1, 3))
        with pytest.raises(OutOfRange):
            ChainEndo(3, (-1, 0, 1))

    def test_bool_values_are_refused(self):
        # False/True would print as text that parse_compact rejects
        with pytest.raises(OutOfRange, match="has type bool, not int"):
            ChainEndo(2, (False, True))

    def test_non_int_values_get_a_type_message(self):
        with pytest.raises(OutOfRange, match=r"value np\.int64\(0\) has type int64, not int"):
            ChainEndo(2, (np.int64(0), 1))
        with pytest.raises(OutOfRange, match="has type float, not int"):
            ChainEndo(2, (0, 1.0))

    def test_values_must_be_monotone(self):
        with pytest.raises(NotMonotone):
            ChainEndo(3, (1, 0, 2))

    def test_n_must_be_positive(self):
        with pytest.raises(OutOfRange):
            ChainEndo(0, ())

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: ChainEndo(n, (0,) * 3),
            lambda n: constant(n, 0),
            lambda n: identity(n),
            lambda n: list(all_endomorphisms(n)),
        ],
        ids=["ChainEndo", "constant", "identity", "all_endomorphisms"],
    )
    @pytest.mark.parametrize("n", [3.0, True])
    def test_chain_size_must_be_an_int(self, make, n):
        # True and 3.0 equal 1 and 3, so a range check alone lets them through
        with pytest.raises(OutOfRange, match="has type (bool|float), not int"):
            make(n)

    def test_call_evaluates(self):
        e = ChainEndo(4, (1, 1, 2, 3))
        assert [e(i) for i in range(4)] == [1, 1, 2, 3]

    def test_identity_and_constant(self):
        assert identity(3).values == (0, 1, 2)
        assert constant(4, 2).values == (2, 2, 2, 2)
        with pytest.raises(OutOfRange):
            constant(3, 3)


class TestArithmetic:
    def test_addition_is_pointwise_max(self):
        x = ChainEndo(4, (0, 1, 1, 2))
        y = ChainEndo(4, (1, 1, 2, 2))
        assert (x + y).values == (1, 1, 2, 2)

    def test_multiplication_runs_left_factor_first(self):
        x = ChainEndo(3, (0, 0, 1))
        y = ChainEndo(3, (1, 2, 2))
        # (x * y)(i) = y(x(i))
        assert (x * y).values == (1, 1, 2)
        assert (y * x).values == (0, 1, 1)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(SizeMismatch):
            ChainEndo(3, (0, 1, 2)) + ChainEndo(4, (0, 1, 2, 3))
        with pytest.raises(SizeMismatch):
            ChainEndo(3, (0, 1, 2)) * ChainEndo(4, (0, 1, 2, 3))

    def test_power_counts_compositions(self):
        e = ChainEndo(4, (1, 1, 1, 2))
        assert e**1 == e
        assert e**2 == constant(4, 1)
        with pytest.raises(OutOfRange):
            e**0

    @given(endos())
    def test_addition_idempotent(self, x):
        assert x + x == x

    @given(same_n_triples())
    def test_semiring_laws_hold(self, triple):
        x, y, z = triple
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    @given(same_n_triples())
    def test_operations_preserve_pointwise_order(self, triple):
        x, y, z = triple
        if x.pointwise_le(y):
            assert (x + z).pointwise_le(y + z)
            assert (x * z).pointwise_le(y * z)
            assert (z * x).pointwise_le(z * y)


class TestOrder:
    def test_lex_order_extends_pointwise_order(self):
        els = list(all_endomorphisms(4))
        for x in els:
            for y in els:
                if x.pointwise_le(y):
                    assert x <= y

    def test_comparisons_sort_by_value_tuple(self):
        a = ChainEndo(3, (0, 0, 2))
        b = ChainEndo(3, (0, 1, 1))
        assert a < b and b > a and a != b

    def test_hash_agrees_with_equality(self):
        assert hash(ChainEndo(3, (0, 1, 2))) == hash(identity(3))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 10), (4, 35), (5, 126)])
    def test_counts_are_central_binomials(self, n, count):
        assert len(list(all_endomorphisms(n))) == count

    def test_enumeration_is_strictly_ascending(self):
        els = list(all_endomorphisms(4))
        assert els == sorted(set(els))

    def test_every_member_is_monotone(self):
        for e in all_endomorphisms(4):
            assert all(e(i) <= e(i + 1) for i in range(3))


def _validated(e):
    """e must equal the map the validating constructor builds from its values."""
    assert e == ChainEndo(e.n, e.values)


class TestUncheckedResultsAreValid:
    """Arithmetic and enumeration build maps without validation
    (ChainEndo._wrap); every such map must pass the validating constructor.
    """

    @given(same_n_triples(), st.integers(1, 6))
    def test_arithmetic(self, triple, count):
        x, y, _ = triple
        _validated(x + y)
        _validated(x * y)
        _validated(x**count)

    @given(st.integers(1, 7), st.data())
    def test_constant_and_identity(self, n, data):
        _validated(constant(n, data.draw(st.integers(0, n - 1))))
        _validated(identity(n))

    @given(st.integers(1, 6))
    def test_all_endomorphisms(self, n):
        for e in all_endomorphisms(n):
            _validated(e)

    @given(st.integers(1, 7), st.data())
    def test_simplex_enumeration(self, n, data):
        vertices = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        for e in simplex.enumerate_simplex(simplex.SimplexSpec(n, tuple(vertices))):
            _validated(e)

    @given(st.integers(2, 9), st.data())
    def test_string_elements(self, n, data):
        a, b = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2)))
        _validated(strings.elem(strings.StringSpec(n, a, b), data.draw(st.integers(0, n))))

    @given(st.integers(3, 9), st.data())
    def test_triangle_elements(self, n, data):
        a, b, c = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=3)))
        k = data.draw(st.integers(0, n))
        ell = data.draw(st.integers(0, n - k))
        spec = triangle.TriangleSpec(n, a, b, c)
        _validated(triangle.to_endo(spec, triangle.TriElem(k, ell, n - k - ell)))

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(maps_on(n), min_size=1, max_size=12)))
    def test_closure_witness(self, members):
        ok, witness = analysis.is_subsemiring(members)
        if not ok:
            _validated(witness.result)


class TestPowers:
    def test_eventual_idempotent_is_idempotent_power(self):
        for e in all_endomorphisms(5):
            stable = e.eventual_idempotent()
            assert stable.is_idempotent()
            assert stable == e ** max(1, 4)

    def test_nilpotency_target(self):
        assert ChainEndo(4, (1, 1, 1, 2)).nilpotency_target() == 1
        assert identity(4).nilpotency_target() is None
        assert constant(4, 2).nilpotency_target() == 2

    def test_is_nilpotent_to(self):
        e = ChainEndo(4, (0, 0, 1, 2))
        assert e.is_nilpotent_to(0)
        assert not e.is_nilpotent_to(1)

    def test_image_and_fixed_points(self):
        e = ChainEndo(4, (1, 1, 2, 2))
        assert e.image() == (1, 2)
        assert e.fixed_points() == (1, 2)
        assert e.is_idempotent()
        assert not e.is_constant()


class TestCompactNotation:
    def test_format_drops_unit_multiplicities(self):
        assert format_compact(ChainEndo(4, (1, 1, 2, 3))) == "1_2 2 3"
        assert format_compact(constant(4, 2)) == "2_4"
        assert format_compact(identity(3)) == "0 1 2"

    def test_parse_inverts_format(self):
        for e in all_endomorphisms(5):
            assert parse_compact(format_compact(e), 5) == e

    def test_parse_accepts_explicit_unit(self):
        assert parse_compact("1_1 2_3", 4) == ChainEndo(4, (1, 2, 2, 2))

    def test_parse_rejects_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_compact("x_2", 2)
        with pytest.raises(ParseError):
            parse_compact("1_0 2_3", 3)
        with pytest.raises(SumMismatch):
            parse_compact("1 2_3", 5)
        with pytest.raises(OutOfRange):
            parse_compact("5", 1)
        with pytest.raises(NotMonotone):
            parse_compact("2 1_2", 3)

    def test_compact_form_round_trip(self):
        form = CompactForm.from_endo(ChainEndo(5, (0, 2, 2, 4, 4)))
        assert form.runs == ((0, 1), (2, 2), (4, 2))
        assert form.to_endo() == ChainEndo(5, (0, 2, 2, 4, 4))
        assert form.render() == "0 2_2 4_2"

    def test_compact_form_validates_runs(self):
        with pytest.raises(NotMonotone):
            CompactForm(((2, 1), (1, 2)))
        with pytest.raises(ParseError):
            CompactForm(((0, 0),))

    @given(endos())
    def test_round_trip_property(self, e):
        assert parse_compact(format_compact(e), e.n) == e
