"""Closed-form counts and the audit that checks them against enumeration.

Every count in the library comes from one registry entry pairing a formula
with an independent enumeration oracle; the audit walks the admissible
parameter tuples up to a size bound and compares the two, exactly, in
arbitrary-precision integers.  One entry (ri_order_variant) is a
deliberately wrong variant kept to document that it disagrees with
enumeration everywhere; its audit passes only when the disagreement shows
up as expected.

The oracles for maps of the whole chain (nilpotent, idempotent and simplex
counts) read a census tallied from one atlas of the n-chain, built by one
brute-force enumeration and power walk per n per audit call.  The census
records what each map is by definition, never what a formula says, so it
stays independent of every formula it audits.  Nothing it holds outlives
the audit call that built it.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .core import all_endomorphisms


class DomainError(ValueError):
    """Parameters outside the formula's admissible range."""


def catalan(k: int) -> int:
    if k < 0:
        raise DomainError(f"catalan index must be >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def nilpotent_count(n: int, a: int) -> int:
    """Maps with some power constantly a: catalan(a) * catalan(n - 1 - a)."""
    if n < 2 or not 0 <= a <= n - 1:
        raise DomainError(f"need n >= 2 and 0 <= a < n, got n={n}, a={a}")
    return catalan(a) * catalan(n - 1 - a)


def idempotent_count(n: int, fixed: tuple[int, ...]) -> int:
    """Idempotents with the given fixed-point set: product of the gaps."""
    fixed = tuple(sorted(fixed))
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    if not fixed or len(set(fixed)) != len(fixed):
        raise DomainError(f"fixed-point set must be nonempty, got {fixed}")
    if fixed[0] < 0 or fixed[-1] >= n:
        raise DomainError(f"fixed points {fixed} outside the chain")
    if len(fixed) > n - 1:
        raise DomainError("formula is stated for at most n - 1 fixed points")
    return math.prod(y - x for x, y in zip(fixed, fixed[1:]))


def simplex_order(n: int, k: int) -> int:
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    return math.comb(n + k - 1, k - 1)


def triangle_order(n: int) -> int:
    if n < 3:
        raise DomainError(f"triangles need n >= 3, got {n}")
    return math.comb(n + 2, 2)


def _check_string(n: int, a: int, b: int) -> None:
    if n < 2 or not 0 <= a < b <= n - 1:
        raise DomainError(f"need 0 <= a < b <= n - 1, got {(n, a, b)}")


def string_nil_low_order(n: int, a: int, b: int) -> int:
    """Elements squaring down to const a: the top n - b of the chain."""
    _check_string(n, a, b)
    return n - b


def string_idem_order(n: int, a: int, b: int) -> int:
    _check_string(n, a, b)
    return b - a


def string_nil_high_order(n: int, a: int, b: int) -> int:
    """Elements squaring up to const b: the bottom a + 1 of the chain."""
    _check_string(n, a, b)
    return a + 1


def _check_triangle(n: int, a: int, b: int, c: int) -> None:
    if n < 3 or not 0 <= a < b < c <= n - 1:
        raise DomainError(f"need 0 <= a < b < c <= n - 1, got {(n, a, b, c)}")


def ri_order(n: int, a: int, b: int, c: int) -> int:
    """Right identities of the triangle: (b - a) * (c - b)."""
    _check_triangle(n, a, b, c)
    return (b - a) * (c - b)


def ri_order_variant(n: int, a: int, b: int, c: int) -> int:
    """Plausible-looking variant (b - a) * (c - a); always wrong since a < b."""
    _check_triangle(n, a, b, c)
    return (b - a) * (c - a)


def it_order(n: int, a: int, b: int, c: int) -> int:
    """Maps in the triangle fixing both a and c."""
    _check_triangle(n, a, b, c)
    return (c - a) * (c - a + 1) // 2


def it_rest_order(n: int, a: int, b: int, c: int) -> int:
    """Fixing a and c but not a right identity."""
    _check_triangle(n, a, b, c)
    return ((c - b) ** 2 + (b - a) ** 2 + (c - a)) // 2


def l_tri_order(n: int, a: int, b: int, c: int) -> int:
    _check_triangle(n, a, b, c)
    return (c - b) * (c - b + 1) // 2


def r_tri_order(n: int, a: int, b: int, c: int) -> int:
    _check_triangle(n, a, b, c)
    return (b - a) * (b - a + 1) // 2


def nil_a_order(n: int, a: int, b: int, c: int) -> int:
    """Triangle maps with some power constantly a."""
    _check_triangle(n, a, b, c)
    return (n - c) * (n + c - 2 * b + 1) // 2


def nil_b_order(n: int, a: int, b: int, c: int) -> int:
    _check_triangle(n, a, b, c)
    return (a + 1) * (n - c)


def nil_c_order(n: int, a: int, b: int, c: int) -> int:
    _check_triangle(n, a, b, c)
    return (a + 1) * (2 * b - a + 2) // 2


def l_par_order(n: int, a: int, b: int, c: int) -> int:
    _check_triangle(n, a, b, c)
    return (b - a) * (n - c)


def r_par_order(n: int, a: int, b: int, c: int) -> int:
    _check_triangle(n, a, b, c)
    return (a + 1) * (c - b)


# --- enumeration oracles -------------------------------------------------
#
# Each oracle counts by brute force from definitions that do not reuse the
# formula under audit: full enumeration of the chain's monotone maps, the
# power sequence for nilpotency and idempotency, literal fixed-point
# filters, and the index-range constructions for the triangle regions.
# Imports are local to keep this module importable from the triangle module.
#
# The chain oracles (nilpotent, idempotent, simplex) read a census of the
# n-chain, tallied from its atlas: the value matrix of all of its monotone
# maps, row r the map of lex rank r, one enumeration per n, with each row's
# limit and exponent from the literal power walk, one gather per power
# until a power equals the next, which is the definition of both facts,
# never a formula.  The census tallies the constant the limit is, the fixed
# points of each map that is its own limit (exponent 1), and each map's top
# value, so a lookup in it is the same count that a loop over all maps per
# tuple makes, and stays independent of the formula it audits.  The
# triangle oracles are row masks on the members' values and limits; the
# string oracle finds right identities by one gather and walks the powers
# of the few other members as ChainEndo objects.  tests/reference_loops.py
# keeps the object loops these replaced, and the tests require each oracle
# to equal its loop.
#
# Atlases, censuses, string classifications and triangle members are kept
# in _memo only while a _memo_scope() is open: one audit() call, one
# claims.run_claim call (a claim job of a pooled sweep), or one in-process
# claims.run_all sweep, whose claims share it.  So each of these enumerates
# each chain once, and none starts from an earlier scope's results.  An
# oracle or claim check called outside a scope builds what it needs and
# drops it.  The store is module state because oracles keep the signature
# oracle(*params).

_memo: dict | None = None


@contextlib.contextmanager
def _memo_scope():
    """Keep what the oracles build in _memo until the scope closes; a scope
    opened inside another shares the outer one's store."""
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _per_audit(build):
    """Keep build(*args) in _memo while a _memo_scope() is open."""

    @functools.wraps(build)
    def memoized(*args):
        memo = _memo
        if memo is None:
            return build(*args)
        key = (build.__name__, *args)
        if key not in memo:
            memo[key] = build(*args)
        return memo[key]

    return memoized


class _ChainAtlas(NamedTuple):
    values: np.ndarray  # (N, n), row r the map of lex rank r
    limits: np.ndarray  # (N, n), row r its eventual idempotent
    exponents: np.ndarray  # (N,), the least k with power k == power k + 1


@_per_audit
def _chain_atlas(n):
    """Every monotone map of the n-chain with its limit and exponent, each
    in the smallest unsigned type that holds it."""
    maps = (e.values for e in all_endomorphisms(n))
    V = np.fromiter(maps, dtype=(np.min_scalar_type(n - 1), n), count=math.comb(2 * n - 1, n))
    exponents = np.zeros(len(V), dtype=np.min_scalar_type(n))
    limits = V.copy()
    # the rows whose powers still move, and their current powers; every
    # trajectory stops moving within n - 1 steps (ChainEndo._power_limit)
    rows, power = np.arange(len(V)), V
    for exponent in range(1, n + 1):
        following = np.take_along_axis(V[rows], power, axis=1)
        moved = (following != power).any(axis=1)
        exponents[rows[~moved]] = exponent
        limits[rows[~moved]] = power[~moved]
        rows, power = rows[moved], following[moved]
        if not len(rows):
            for table in (V, limits, exponents):
                table.flags.writeable = False
            return _ChainAtlas(V, limits, exponents)
    stuck = tuple(V[rows[0]].tolist())
    raise AssertionError(f"powers of {stuck} did not stabilise within {n} steps")


class _ChainCensus(NamedTuple):
    nilpotent: Counter  # a -> maps whose powers reach the constant a
    idempotent: Counter  # fixed-point set -> idempotents with that set
    top: Counter  # largest value -> maps


@_per_audit
def _chain_census(n):
    V, L, exponents = _chain_atlas(n)
    fixed = (V[exponents == 1] == np.arange(n)).tolist()
    return _ChainCensus(
        Counter(L[L[:, 0] == L[:, -1], 0].tolist()),
        Counter(tuple(i for i, f in enumerate(row) if f) for row in fixed),
        Counter(V[:, -1].tolist()),
    )


def _oracle_nilpotent(n, a):
    return _chain_census(n).nilpotent[a]


def _oracle_idempotent(n, fixed):
    return _chain_census(n).idempotent[tuple(sorted(fixed))]


def _oracle_simplex(n, k):
    # Counts for the lowest k vertices, whose maps are those with top value
    # below k; the order depends only on k, which the per-subset claim in
    # the registry checks separately.
    return sum(count for top, count in _chain_census(n).top.items() if top < k)


def _oracle_triangle(n):
    return len(_triangle_members(n, 0, 1, 2))


@_per_audit
def _classify_string(n, a, b):
    # Right identities before nilpotency: the two constants are idempotent
    # in every string but belong to the blocks that collapse onto them.
    # Member j is one when x * member j == x for every member x: row j read
    # at every row, V[j][V[i]] == V[i], in one gather.
    from . import strings

    els = strings.elements(strings.StringSpec(n, a, b))
    V = els.values
    rids = (V[:, V] == V).all(axis=(1, 2))
    low = high = 0
    for e in els[~rids]:
        target = e.nilpotency_target()
        if target == a:
            low += 1
        elif target == b:
            high += 1
        else:
            raise AssertionError(f"unclassifiable string element {e}")
    return low, int(rids.sum()), high


def _oracle_string_nil_low(n, a, b):
    return _classify_string(n, a, b)[0]


def _oracle_string_idem(n, a, b):
    return _classify_string(n, a, b)[1]


def _oracle_string_nil_high(n, a, b):
    return _classify_string(n, a, b)[2]


@_per_audit
def _triangle_members(n, a, b, c):
    from . import triangle

    return triangle.elements(triangle.TriangleSpec(n, a, b, c))


@_per_audit
def _triangle_targets(n, a, b, c):
    """Members of the triangle by the constant their powers reach; members
    that reach no constant are left out."""
    L = _triangle_members(n, a, b, c).limits
    return Counter(L[L[:, 0] == L[:, -1], 0].tolist())


def _count_fixing(n, a, b, c, *vertices):
    """Triangle members that fix every one of vertices."""
    V = _triangle_members(n, a, b, c).values
    return int(np.logical_and.reduce([V[:, v] == v for v in vertices]).sum())


def _oracle_ri(n, a, b, c):
    return _count_fixing(n, a, b, c, a, b, c)


def _oracle_it(n, a, b, c):
    return _count_fixing(n, a, b, c, a, c)


def _oracle_it_rest(n, a, b, c):
    return _oracle_it(n, a, b, c) - _oracle_ri(n, a, b, c)


def _count_by_copies(n, a, b, c, inside):
    """Triangle members with inside(copies of a, copies of c) true, inside
    taking one array of copies per vertex."""
    V = _triangle_members(n, a, b, c).values
    return int(inside((V == a).sum(axis=1), (V == c).sum(axis=1)).sum())


def _oracle_l_tri(n, a, b, c):
    # Index-range construction: at least b + 1 copies of a and at least
    # n - c copies of c.
    return _count_by_copies(n, a, b, c, lambda k, i: (k >= b + 1) & (i >= n - c))


def _oracle_r_tri(n, a, b, c):
    return _count_by_copies(n, a, b, c, lambda k, i: (k >= a + 1) & (i >= n - b))


def _oracle_nil_to(value):
    def oracle(n, a, b, c):
        target = {"a": a, "b": b, "c": c}[value]
        return _triangle_targets(n, a, b, c)[target]

    return oracle


def _oracle_l_par(n, a, b, c):
    # Left blocks of the basic layers at the a corner: a + 1 <= k <= b
    # copies of a, at most n - c - 1 copies of c.
    return _count_by_copies(n, a, b, c, lambda k, i: (a + 1 <= k) & (k <= b) & (i <= n - c - 1))


def _oracle_r_par(n, a, b, c):
    return _count_by_copies(n, a, b, c, lambda k, i: (k <= a) & (n - c <= i) & (i <= n - b - 1))


# --- admissible parameter domains ---------------------------------------
#
# The claims registry draws its chain and triangle families from here too.


def _chain_family(lo):
    """Chain sizes (n,) from lo up to the bound."""

    def gen(n_max):
        for n in range(lo, n_max + 1):
            yield (n,)

    return gen


def _chain_domain(n_max):
    for n in range(2, n_max + 1):
        for a in range(n):
            yield (n, a)


def _fixed_set_domain(n_max):
    for n in range(3, n_max + 1):
        for size in range(1, n):
            for fixed in combinations(range(n), size):
                yield (n, fixed)


def _simplex_domain(n_max):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            yield (n, k)


def _string_family(lo):
    """String tuples (n, a, b), a < b, with n from lo up to the bound."""

    def gen(n_max):
        for n in range(lo, n_max + 1):
            for a, b in combinations(range(n), 2):
                yield (n, a, b)

    return gen


def _triangle_domain(n_max):
    for n in range(3, n_max + 1):
        for a, b, c in combinations(range(n), 3):
            yield (n, a, b, c)


def _require_bounds(**bounds) -> None:
    """Refuse a sweep bound (n_max, jobs) that is not an int of at least 1."""
    for name, value in bounds.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _first_failure(tuples, check):
    """The one sweep loop, of audit and claims.run_claim: check(params) ->
    (holds, witness) over the tuples in order up to the first that fails,
    giving (tuples checked, that tuple or None, its witness)."""
    checked = 0
    for params in tuples:
        checked += 1
        holds, witness = check(params)
        if not holds:
            return checked, params, witness
    return checked, None, None


@dataclass(frozen=True)
class CountFormula:
    """One audited count: closed form, oracle, and admissible tuples."""

    id: str
    evaluate: Callable[..., int]
    oracle: Callable[..., int]
    domain: Callable[[int], Iterator[tuple]]
    expect_equal: bool = True  # False marks a documented-wrong variant

    def _check(self, params):
        """Formula, then oracle, at one tuple: they stand as expect_equal
        says, and the two values are the witness."""
        value, counted = self.evaluate(*params), self.oracle(*params)
        return (value == counted) == self.expect_equal, (value, counted)


FORMULAS: dict[str, CountFormula] = {
    f.id: f
    for f in (
        CountFormula(
            "nilpotent_count",
            nilpotent_count,
            _oracle_nilpotent,
            _chain_domain,
        ),
        CountFormula(
            "idempotent_count",
            idempotent_count,
            _oracle_idempotent,
            _fixed_set_domain,
        ),
        CountFormula(
            "simplex_order",
            simplex_order,
            _oracle_simplex,
            _simplex_domain,
        ),
        CountFormula(
            "triangle_order",
            triangle_order,
            _oracle_triangle,
            _chain_family(3),
        ),
        CountFormula(
            "string_nil_low_order",
            string_nil_low_order,
            _oracle_string_nil_low,
            _string_family(2),
        ),
        CountFormula(
            "string_idem_order",
            string_idem_order,
            _oracle_string_idem,
            _string_family(2),
        ),
        CountFormula(
            "string_nil_high_order",
            string_nil_high_order,
            _oracle_string_nil_high,
            _string_family(2),
        ),
        CountFormula("ri_order", ri_order, _oracle_ri, _triangle_domain),
        CountFormula(
            "ri_order_variant",
            ri_order_variant,
            _oracle_ri,
            _triangle_domain,
            expect_equal=False,
        ),
        CountFormula("it_order", it_order, _oracle_it, _triangle_domain),
        CountFormula(
            "it_rest_order",
            it_rest_order,
            _oracle_it_rest,
            _triangle_domain,
        ),
        CountFormula(
            "l_tri_order",
            l_tri_order,
            _oracle_l_tri,
            _triangle_domain,
        ),
        CountFormula(
            "r_tri_order",
            r_tri_order,
            _oracle_r_tri,
            _triangle_domain,
        ),
        CountFormula(
            "nil_a_order",
            nil_a_order,
            _oracle_nil_to("a"),
            _triangle_domain,
        ),
        CountFormula(
            "nil_b_order",
            nil_b_order,
            _oracle_nil_to("b"),
            _triangle_domain,
        ),
        CountFormula(
            "nil_c_order",
            nil_c_order,
            _oracle_nil_to("c"),
            _triangle_domain,
        ),
        CountFormula(
            "l_par_order",
            l_par_order,
            _oracle_l_par,
            _triangle_domain,
        ),
        CountFormula(
            "r_par_order",
            r_par_order,
            _oracle_r_par,
            _triangle_domain,
        ),
    )
}


def evaluate(formula_id: str, params: tuple) -> int:
    """Closed-form value for one registry entry; DomainError outside."""
    if formula_id not in FORMULAS:
        raise KeyError(f"unknown formula {formula_id!r}")
    return FORMULAS[formula_id].evaluate(*params)


@dataclass(frozen=True)
class FormulaAudit:
    id: str
    checked: int
    ok: bool
    first_mismatch: tuple | None  # (params, formula value, enumerated)


@dataclass(frozen=True)
class AuditReport:
    n_max: int
    results: tuple[FormulaAudit, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def audit(n_max: int) -> AuditReport:
    """Compare every formula with its oracle on all tuples up to n_max; the
    documented-wrong variant passes only by disagreeing everywhere."""
    _require_bounds(n_max=n_max)
    with _memo_scope():
        results = []
        for formula in FORMULAS.values():
            checked, params, values = _first_failure(formula.domain(n_max), formula._check)
            mismatch = None if params is None else (params, *values)
            results.append(FormulaAudit(formula.id, checked, params is None, mismatch))
        return AuditReport(n_max, tuple(results))
