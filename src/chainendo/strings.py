"""Strings: the two-vertex simplices.

A string on vertices a < b consists of the n + 1 maps with image inside
{a, b}.  Writing s_ell for the element taking the value a exactly ell
times, the string is the chain

    s_n = const a  <  s_{n-1}  <  ...  <  s_1  <  s_0 = const b

and index arithmetic on ell settles everything: the top n - b elements
square down to const a, the middle b - a are idempotent right identities,
the bottom a + 1 square up to const b.  Products of string elements, even
across different strings over the same chain, collapse to a three-case
rule on the index of the right factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis
from .core import ChainEndo, OutOfRange, SizeMismatch, _require_ints
from .simplex import SimplexSpec, enumerate_simplex


@dataclass(frozen=True)
class StringSpec:
    """A chain size n and two vertices a < b."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        _require_ints((self.n, self.a, self.b))
        if self.n < 2:
            raise OutOfRange(f"strings need n >= 2, got {self.n}")
        if not 0 <= self.a < self.b <= self.n - 1:
            raise OutOfRange(
                f"need 0 <= a < b <= {self.n - 1}, got a={self.a}, b={self.b}"
            )

    def simplex(self) -> SimplexSpec:
        return SimplexSpec(self.n, (self.a, self.b))


def elem(spec: StringSpec, ell: int) -> ChainEndo:
    """The element with the value a in the first ell places."""
    if not 0 <= ell <= spec.n:
        raise OutOfRange(f"index {ell} outside 0..{spec.n}")
    return ChainEndo._wrap(
        spec.n, (spec.a,) * ell + (spec.b,) * (spec.n - ell)
    )


def index_of(spec: StringSpec, endo: ChainEndo) -> int:
    """Inverse of elem; rejects maps outside the string."""
    if endo.n != spec.n or not set(endo.image()) <= {spec.a, spec.b}:
        raise ValueError(f"{endo} is not in the string {spec}")
    return endo.values.count(spec.a)


def elements(spec: StringSpec) -> analysis.Subset:
    """The whole chain in ascending (lexicographic) order."""
    return enumerate_simplex(spec.simplex())


@dataclass(frozen=True)
class StringPartition:
    """The three index blocks of a string, each in ascending order.

    nil_low squares down to const a (indices b+1..n), idem holds the right
    identities (indices a+1..b), nil_high squares up to const b (indices
    0..a).  Sizes are n - b, b - a, a + 1.  The two constants are idempotent
    as well but live at the ends of the collapse blocks they anchor.
    """

    spec: StringSpec
    nil_low: analysis.Subset
    idem: analysis.Subset
    nil_high: analysis.Subset


def partition_string(spec: StringSpec) -> StringPartition:
    """Split the string by index; row i of elements has index n - i."""
    els, n = elements(spec), spec.n
    return StringPartition(
        spec,
        nil_low=els[: n - spec.b],
        idem=els[n - spec.b : n - spec.a],
        nil_high=els[n - spec.a :],
    )


def string_mul_cases(
    spec: StringSpec, k: int, other: StringSpec, ell: int
) -> ChainEndo:
    """Product elem(spec, k) * elem(other, ell) by the index rule.

    With the left factor from the string on {a, b} and the right factor
    from the string on {x, y} over the same chain:

        index ell in b+1..n  ->  const x
        index ell in a+1..b  ->  the {x, y}-string element of index k
        index ell in 0..a    ->  const y

    This must agree with plain composition; the claim registry checks that
    on every pair.
    """
    if spec.n != other.n:
        raise SizeMismatch(f"chain sizes differ: {spec.n} vs {other.n}")
    if not 0 <= k <= spec.n:
        raise OutOfRange(f"index {k} outside 0..{spec.n}")
    if not 0 <= ell <= other.n:
        raise OutOfRange(f"index {ell} outside 0..{other.n}")
    return elem(other, _product_index(spec, k, ell))


def _product_index(spec: StringSpec, k, ell):
    """The index rule of string_mul_cases: the index, in the right factor's
    string, of elem(spec, k) times its member of index ell.  k and ell are
    ints, giving an int, or integer arrays, giving the array they broadcast
    to, so that the claim registry checks the same rule on every pair at once."""
    return (ell > spec.b) * spec.n + ((ell > spec.a) & (ell <= spec.b)) * k


def family_top(spec: StringSpec, r: int) -> analysis.Subset:
    """The top segment: elements of index r..n (const a downwards)."""
    if not 1 <= r <= spec.n:
        raise OutOfRange(f"cut {r} outside 1..{spec.n}")
    return elements(spec)[: spec.n - r + 1]


def family_bottom(spec: StringSpec, s: int) -> analysis.Subset:
    """The bottom segment: elements of index 0..s (const b upwards)."""
    if not 0 <= s <= spec.n - 1:
        raise OutOfRange(f"cut {s} outside 0..{spec.n - 1}")
    return elements(spec)[spec.n - s :]


def consecutive_union(n: int, a: int, b: int, c: int) -> analysis.Subset:
    """Union of the strings on {a, b} and {b, c}; shares only const b."""
    if not 0 <= a < b < c <= n - 1:
        raise OutOfRange(f"need 0 <= a < b < c <= {n - 1}")
    return elements(StringSpec(n, a, b)) | elements(StringSpec(n, b, c))


def three_string_union(n: int, a: int, b: int, c: int) -> analysis.Subset:
    """Union of all three strings on {a, b, c}; not additively closed."""
    if not 0 <= a < b < c <= n - 1:
        raise OutOfRange(f"need 0 <= a < b < c <= {n - 1}")
    ab, ac, bc = (elements(StringSpec(n, x, y)) for x, y in ((a, b), (a, c), (b, c)))
    return ab | ac | bc
