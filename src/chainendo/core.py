"""Endomorphisms of a finite chain.

The chain C_n is the join semilattice {0, ..., n-1} ordered as usual, with
join = max.  A self-map of C_n preserves joins exactly when it is monotone,
so the endomorphisms are the monotone n-tuples of chain values.  They form
an additively idempotent semiring without zero: addition is the pointwise
join, multiplication is composition written in diagram order,

    (alpha * beta)(x) = beta(alpha(x)).

Everything downstream (simplices, strings, triangles) is a subset of this
semiring, so this module also fixes the shared conventions: elements are
immutable, hashable, and totally ordered lexicographically by value tuple,
which is the deterministic enumeration order used everywhere.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from typing import Iterator, Sequence


class ChainEndoError(ValueError):
    """Base class for invalid chain-endomorphism data."""


class LengthMismatch(ChainEndoError):
    """Value tuple length differs from the declared chain size."""


class OutOfRange(ChainEndoError):
    """A chain element lies outside {0, ..., n-1}."""


class NotMonotone(ChainEndoError):
    """Values decrease somewhere, so the map does not preserve joins."""


class SizeMismatch(ChainEndoError):
    """Operands live on chains of different sizes."""


class ParseError(ChainEndoError):
    """Text does not match the run-length grammar."""


class SumMismatch(ParseError):
    """Run multiplicities do not sum to the chain size."""


def _require_ints(values) -> None:
    """Refuse a value that is not exactly an int: a bool passes
    isinstance(v, int) but prints as False/True, which parse_compact rejects."""
    for v in values:
        if type(v) is not int:
            raise OutOfRange(f"value {v!r} has type {type(v).__name__}, not int")


class ChainEndo:
    """A join-preserving self-map of the chain {0, ..., n-1}.

    Stored as the value tuple (alpha(0), ..., alpha(n-1)).  Monotonicity is
    checked once at construction; the arithmetic produces monotone tuples by
    construction and skips the check (a property test covers it).

    The comparison operators give the lexicographic order on value tuples.
    That order is total, extends the pointwise (additive) order, and makes
    ``sorted`` deterministic; use ``pointwise_le`` for the additive order
    itself.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Sequence[int]):
        _require_ints((n,))
        if n < 1:
            raise OutOfRange(f"chain size must be at least 1, got {n}")
        values = tuple(values)
        if len(values) != n:
            raise LengthMismatch(f"expected {n} values, got {len(values)}")
        _require_ints(values)
        for v in values:
            if not 0 <= v < n:
                raise OutOfRange(f"value {v!r} outside the chain 0..{n - 1}")
        for x, y in zip(values, values[1:]):
            if x > y:
                raise NotMonotone(f"values {values} decrease at {x} > {y}")
        self.n = n
        self.values = values

    @classmethod
    def _wrap(cls, n: int, values: tuple[int, ...]) -> "ChainEndo":
        # Fast path for arithmetic results: pointwise max and composition
        # of monotone maps are monotone, so skip full validation.
        self = object.__new__(cls)
        self.n = n
        self.values = values
        return self

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise OutOfRange(f"argument {x} outside the chain 0..{self.n - 1}")
        return self.values[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainEndo):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __lt__(self, other: "ChainEndo") -> bool:
        return (self.n, self.values) < (other.n, other.values)

    def __le__(self, other: "ChainEndo") -> bool:
        return (self.n, self.values) <= (other.n, other.values)

    def __gt__(self, other: "ChainEndo") -> bool:
        return (self.n, self.values) > (other.n, other.values)

    def __ge__(self, other: "ChainEndo") -> bool:
        return (self.n, self.values) >= (other.n, other.values)

    def __repr__(self) -> str:
        return f"ChainEndo({self.n}, {self.values})"

    def __str__(self) -> str:
        return format_compact(self)

    def _check_size(self, other: "ChainEndo") -> None:
        if not isinstance(other, ChainEndo):
            raise TypeError(f"expected ChainEndo, got {type(other).__name__}")
        if self.n != other.n:
            raise SizeMismatch(f"chain sizes differ: {self.n} vs {other.n}")

    def __add__(self, other: "ChainEndo") -> "ChainEndo":
        """Pointwise join."""
        self._check_size(other)
        return ChainEndo._wrap(
            self.n, tuple(map(max, self.values, other.values))
        )

    def __mul__(self, other: "ChainEndo") -> "ChainEndo":
        """Composition in diagram order: apply self first, then other."""
        self._check_size(other)
        return ChainEndo._wrap(
            self.n, tuple(other.values[v] for v in self.values)
        )

    def __pow__(self, count: int) -> "ChainEndo":
        if count < 1:
            raise OutOfRange(f"power count must be >= 1, got {count}")
        result = self
        for _ in range(count - 1):
            result = result * self
        return result

    def pointwise_le(self, other: "ChainEndo") -> bool:
        """The additive order: alpha <= beta iff alpha + beta == beta."""
        self._check_size(other)
        return all(x <= y for x, y in zip(self.values, other.values))

    def image(self) -> tuple[int, ...]:
        """Distinct values taken, ascending."""
        return tuple(sorted(set(self.values)))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == i)

    def is_constant(self) -> bool:
        return self.values[0] == self.values[-1]

    def is_idempotent(self) -> bool:
        return self * self == self

    def _power_limit(self) -> tuple["ChainEndo", int]:
        """(alpha^k, k) for the least k with alpha^k == alpha^(k+1).

        Each trajectory x, alpha(x), alpha(alpha(x)), ... is monotone on a
        chain of n points, so it stops moving within n - 1 steps, and the
        power sequence stops with it.  Once alpha^k == alpha^(k+1), every
        later power equals alpha^k, so alpha^(2k) == alpha^k: the power
        where the sequence stops is idempotent.  It is the only idempotent
        power: an idempotent alpha^j equals every alpha^(mj), which is
        alpha^k once mj >= k, so alpha^(j+1) == alpha^(k+1) == alpha^j and
        j >= k.  The loop takes one product per step; its cap is a hard
        error, not a tunable.
        """
        current = self
        for exponent in range(1, self.n + 1):
            following = current * self
            if following == current:
                return current, exponent
            current = following
        raise AssertionError(f"powers of {self!r} did not stabilise within n")

    def eventual_idempotent(self) -> "ChainEndo":
        """The unique idempotent among the powers of this map."""
        return self._power_limit()[0]

    def nilpotency_target(self) -> int | None:
        """The value a with some power equal to the constant a, if any."""
        limit = self.eventual_idempotent()
        if limit.is_constant():
            return limit.values[0]
        return None

    def is_nilpotent_to(self, a: int) -> bool:
        """True when some power equals the constant map onto a."""
        if not 0 <= a < self.n:
            raise OutOfRange(f"target {a} outside the chain 0..{self.n - 1}")
        return self.nilpotency_target() == a


def constant(n: int, a: int) -> ChainEndo:
    """The constant map onto the chain element a."""
    _require_ints((n,))
    if not 0 <= a < n:
        raise OutOfRange(f"constant value {a} outside the chain 0..{n - 1}")
    return ChainEndo._wrap(n, (a,) * n)


def identity(n: int) -> ChainEndo:
    _require_ints((n,))
    if n < 1:
        raise OutOfRange(f"chain size must be >= 1, got {n}")
    return ChainEndo._wrap(n, tuple(range(n)))


def all_endomorphisms(n: int) -> Iterator[ChainEndo]:
    """Every monotone self-map of C_n, in lexicographic order."""
    _require_ints((n,))
    if n < 1:
        raise OutOfRange(f"chain size must be >= 1, got {n}")
    for values in combinations_with_replacement(range(n), n):
        yield ChainEndo._wrap(n, values)


# --- run-length notation -------------------------------------------------
#
# An endomorphism prints as its runs: symbol, then multiplicity as a _
# suffix, multiplicity 1 left implicit.  (1, 1, 2, 3) on C_4 is "1_2 2 3".
# Symbols must strictly increase and multiplicities must sum to n, so the
# notation is a bijection with ChainEndo.

_RUN_RE = re.compile(r"(0|[1-9][0-9]*)(?:_(0|[1-9][0-9]*))?")


@dataclass(frozen=True)
class CompactForm:
    """Run-length form of a monotone tuple: ((symbol, multiplicity), ...)."""

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.runs:
            raise ParseError("empty run list")
        for symbol, mult in self.runs:
            if symbol < 0:
                raise OutOfRange(f"negative symbol {symbol}")
            if mult < 1:
                raise ParseError(f"multiplicity {mult} for symbol {symbol}")
        symbols = [s for s, _ in self.runs]
        if any(x >= y for x, y in zip(symbols, symbols[1:])):
            raise NotMonotone(f"symbols {symbols} not strictly increasing")

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.runs)

    @classmethod
    def from_endo(cls, endo: ChainEndo) -> "CompactForm":
        return cls(
            tuple(
                (symbol, len(list(group)))
                for symbol, group in groupby(endo.values)
            )
        )

    def to_endo(self, n: int | None = None) -> ChainEndo:
        if n is not None and n != self.n:
            raise SumMismatch(f"multiplicities sum to {self.n}, expected {n}")
        if self.n > sys.maxsize:
            raise OutOfRange(f"chain size {self.n} is above sys.maxsize")
        values = []
        for symbol, mult in self.runs:
            values.extend([symbol] * mult)
        return ChainEndo(self.n, values)

    def render(self) -> str:
        return " ".join(
            f"{symbol}_{mult}" if mult > 1 else str(symbol)
            for symbol, mult in self.runs
        )


def format_compact(endo: ChainEndo) -> str:
    """Canonical run-length text, single spaces, _1 omitted."""
    return CompactForm.from_endo(endo).render()


def _runs(text: str) -> Iterator[tuple[int, int]]:
    """(symbol, multiplicity) of each run of the text, in order."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty endomorphism text")
    for token in tokens:
        match = _RUN_RE.fullmatch(token)
        if match is None:
            raise ParseError(f"bad run {token!r}")
        mult = int(match.group(2)) if match.group(2) is not None else 1
        if mult < 1:
            raise ParseError(f"multiplicity 0 in run {token!r}")
        yield int(match.group(1)), mult


def parse_compact(text: str, n: int) -> ChainEndo:
    """Inverse of format_compact; accepts explicit _1 multiplicities."""
    runs = []
    for symbol, mult in _runs(text):
        if not 0 <= symbol < n:
            raise OutOfRange(f"symbol {symbol} outside the chain 0..{n - 1}")
        runs.append((symbol, mult))
    form = CompactForm(tuple(runs))
    return form.to_endo(n)
