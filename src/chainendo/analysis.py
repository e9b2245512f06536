"""Structure checks over arbitrary sets of chain endomorphisms.

Everything here is exhaustive and deterministic: sets are normalised to
lexicographic order, pair scans run in that order, and the first violation
found is the witness reported.

A set is a Subset: its elements, the (N, n) int64 matrix of their values,
its contiguous (n, N) transpose and one exact int64 key per map, the map's
lexicographic rank among all C(2n-1, n) monotone maps of its chain.  These
are built on first use and kept on the Subset, so a check that passes its
Subset on to another check does not rebuild them; no other state survives
a call.  Building the matrix of a chain longer than MAX_CHAIN raises
ChainTooLong.

The scans run on these arrays, not on ChainEndo objects, and build the keys
of sums and products one column at a time.  The checks read the set's
Cayley tables: for each ordered pair, the key (or member index, -1 when the
result leaves the set) of the sum and of the product.  One pair budget,
_PAIR_BUDGET, sizes every block: a block of rows combined with width
columns each has _PAIR_BUDGET // width rows, or one row when a row alone is
wider, so the scratch arrays of each numpy call stay near the budget
whatever the set size.  The closure scan's blocks double from one row up to
that same height, so an early escape costs one row; it tests membership in
a dense table indexed by rank.  Only the private helpers behind claims on
small sets (_cayley_tables and the scans over its output) hold whole (N, N)
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Literal, Mapping

import numpy as np

from .core import ChainEndo, ChainEndoError, SizeMismatch

# Largest chain the set checks accept.  Ranks stay exact in int64 up to
# n = 33, but the closure scan's member table holds one byte per monotone
# map, C(2n-1, n) of them: 74 MiB of address space at n = 15, 286 MiB at 16.
MAX_CHAIN = 15

# Most pairs a scan combines in one numpy call.
_PAIR_BUDGET = 2**14


class NotClosed(ValueError):
    """The operation needs a multiplicatively closed set."""


class NotSubset(ValueError):
    """The candidate ideal is not contained in the ambient set."""


class ChainTooLong(ChainEndoError):
    """The chain is longer than the set kernels support (n <= MAX_CHAIN)."""


@dataclass(frozen=True)
class Subset:
    """Sorted, de-duplicated maps of one chain, with their values and keys."""

    n: int
    elements: tuple[ChainEndo, ...]

    @classmethod
    def of(cls, elements: Iterable[ChainEndo]) -> "Subset":
        """Normalise elements; a Subset is returned as it is."""
        if isinstance(elements, Subset):
            return elements
        normalised = tuple(sorted(set(elements)))
        if not normalised:
            raise ValueError("empty set of endomorphisms")
        sizes = {e.n for e in normalised}
        if len(sizes) > 1:
            raise SizeMismatch(f"mixed chain sizes {sorted(sizes)}")
        return cls(normalised[0].n, normalised)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    @cached_property
    def _members(self) -> frozenset[ChainEndo]:
        return frozenset(self.elements)

    @cached_property
    def values(self) -> np.ndarray:
        """Row i holds elements[i].values; raises ChainTooLong beyond MAX_CHAIN."""
        if self.n > MAX_CHAIN:
            raise ChainTooLong(
                f"chain size {self.n} is beyond the limit n <= {MAX_CHAIN} of the set checks"
            )
        return np.array([e.values for e in self.elements], dtype=np.int64)

    @cached_property
    def columns(self) -> np.ndarray:
        """The (n, N) transpose of values, contiguous: row k holds every value at k."""
        return np.ascontiguousarray(self.values.T)

    @cached_property
    def keys(self) -> np.ndarray:
        """Lex rank of each element among all maps of the chain; strictly increasing."""
        return _pack(self.values, self.n)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def canonical(elements: Iterable[ChainEndo]) -> tuple[ChainEndo, ...]:
    """Sorted, de-duplicated tuple; rejects mixed chain sizes."""
    return Subset.of(elements).elements


@dataclass(frozen=True)
class ClosureWitness:
    """First pair whose combination escapes the set."""

    left: ChainEndo
    right: ChainEndo
    op: str  # "+" or "*"
    result: ChainEndo


@cache
def _rank_weights(n: int) -> np.ndarray:
    """(n, n) table W such that the lex rank of a map v is the sum of W[k, v[k]].

    G(k, c) = C(2n-1-k, n-k) - C(2n-1-k-c, n-k) counts the monotone tails
    v[k:] whose first value is below c.  The maps before v that first differ
    from it at position k hold some c with v[k-1] <= c < v[k] there, so they
    number G(k, v[k]) - G(k, v[k-1]), with v[-1] = 0.  Summed over k this
    telescopes to the sum of W[k, v[k]] = G(k, v[k]) - G(k+1, v[k]).
    """

    def G(k: int, c: int) -> int:
        return comb(2 * n - 1 - k, n - k) - comb(2 * n - 1 - k - c, n - k)

    W = np.array(
        [[G(k, c) - G(k + 1, c) for c in range(n)] for k in range(n)], dtype=np.int64
    )
    W.flags.writeable = False
    return W


def _pack(matrix: np.ndarray, n: int) -> np.ndarray:
    """Lex rank of each row of a (..., n) value matrix."""
    W = _rank_weights(n)
    return W[np.arange(n), matrix].sum(axis=-1)


def _blocks(size: int, width: int):
    """Slices of consecutive rows covering range(size), for rows combined
    with width columns each: _PAIR_BUDGET // width rows, at least one."""
    height = max(1, _PAIR_BUDGET // width)
    for start in range(0, size, height):
        yield slice(start, min(start + height, size))


def _sums(X: np.ndarray, YT: np.ndarray, n: int) -> np.ndarray:
    """Keys of x + y for x in the rows of X and y in the columns of YT."""
    W = _rank_weights(n)
    acc = np.zeros((len(X), YT.shape[1]), dtype=np.int64)
    for k in range(n):
        acc += W[k][np.maximum(YT[k], X[:, k : k + 1])]
    return acc


def _products(X: np.ndarray, YT: np.ndarray, n: int) -> np.ndarray:
    """Keys of x * y (x first, then y) for x in the rows of X, y in the columns of YT."""
    W = _rank_weights(n)
    acc = np.zeros((len(X), YT.shape[1]), dtype=np.int64)
    for k in range(n):
        # YT[X[:, k]][i, j] is y_j at x_i's value at k, i.e. (x_i * y_j)[k].
        acc += W[k][YT[X[:, k]]]
    return acc


def _index(codes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Member index of each key in the sorted codes, -1 for non-members."""
    pos = np.searchsorted(codes, keys)
    pos[pos == len(codes)] = 0
    return np.where(codes[pos] == keys, pos, -1)


def _cayley_tables(elements: Iterable[ChainEndo]) -> tuple[np.ndarray, np.ndarray]:
    """The + and * tables of a set, as (N, N) member indices.

    A[i, j] is the index of x_i + x_j and M[i, j] that of x_i * x_j, x the
    elements of Subset.of(elements), or -1 where the result is not in the
    set.  Both tables together hold 2 * N**2 indices, so only private
    checks on sets of bounded size build them whole.
    """
    s = Subset.of(elements)
    V, VT, size = s.values, s.columns, len(s)
    A = np.empty((size, size), dtype=np.intp)
    M = np.empty((size, size), dtype=np.intp)
    for rows in _blocks(size, size):
        A[rows] = _index(s.keys, _sums(V[rows], VT, s.n))
        M[rows] = _index(s.keys, _products(V[rows], VT, s.n))
    return A, M


def _first_mismatch(
    p: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[int, int] | None:
    """First (i, j), in lex order, where p[src[i, j]] != dst[p[i], p[j]].

    p is an index map from one set to another and src, dst are the same
    operation's tables on the two sets, src total: the first pair on which
    p fails to carry the operation over.
    """
    bad = np.argwhere(p[src] != dst[p][:, p])
    if not bad.size:
        return None
    return int(bad[0, 0]), int(bad[0, 1])


_TRIPLE_LAWS = (
    "associative addition",
    "associative multiplication",
    "left distributivity",
    "right distributivity",
)


def _triple_law_scan(A: np.ndarray, M: np.ndarray) -> tuple[int, int, int, str] | None:
    """First triple (x, y, z) breaking a law in _TRIPLE_LAWS, with that law.

    A and M are total + and * tables over range(N) (no -1 entries).
    Triples are scanned in lex order and, at the first failing triple, the
    laws in _TRIPLE_LAWS order.  Returns None when every law holds.
    """
    for rows in _blocks(len(A), len(A) ** 2):
        Ax, Mx = A[rows], M[rows]
        broken = np.stack(
            (
                A[Ax] != Ax[:, A],  # (x + y) + z, x + (y + z)
                M[Mx] != Mx[:, M],  # (x * y) * z, x * (y * z)
                Mx[:, A] != A[Mx[:, :, None], Mx[:, None, :]],  # x(y + z), xy + xz
                M[Ax] != A[Mx[:, None, :], M[None, :, :]],  # (x + y)z, xz + yz
            )
        )
        hit = broken.any(axis=0)
        if hit.any():
            x, y, z = np.unravel_index(int(hit.argmax()), hit.shape)
            law = int(broken[:, x, y, z].argmax())
            return rows.start + int(x), int(y), int(z), _TRIPLE_LAWS[law]
    return None


def _closure_scan(els, ops):
    """First (i, j, op, result) whose result escapes, scanning pairs in lex order.

    i and j index the elements of Subset.of(els).  Within one pair the ops
    are tried in the order given.  Returns None when closed.
    """
    s = Subset.of(els)
    V, VT, n, size = s.values, s.columns, s.n, len(s)
    member = np.zeros(comb(2 * n - 1, n), dtype=bool)  # pages map on first touch
    member[s.keys] = True
    max_rows = max(1, _PAIR_BUDGET // size)
    start, height = 0, 1
    while start < size:
        stop = min(start + height, size)
        best = None  # (i, j, op) of the block's first escape
        for op in ops:
            if op == "+":
                # x + y = y + x: every pair (i, j) with j < start was
                # scanned as (j, i) in an earlier block
                first = start
                escaped = ~member[_sums(V[start:stop], VT[:, start:], n)]
            else:
                first = 0
                escaped = ~member[_products(V[start:stop], VT, n)]
            if escaped.any():
                i, j = np.unravel_index(int(escaped.argmax()), escaped.shape)
                hit = (start + int(i), first + int(j), op)
                if best is None or hit[:2] < best[:2]:
                    best = hit
        if best is not None:
            i, j, op = best
            x, y = V[i], V[j]
            values = np.maximum(x, y) if op == "+" else y[x]
            return i, j, op, ChainEndo._wrap(n, tuple(values.tolist()))
        start, height = stop, min(2 * height, max_rows)
    return None


def _closure(elements: Iterable[ChainEndo], ops) -> tuple[bool, ClosureWitness | None]:
    s = Subset.of(elements)
    hit = _closure_scan(s, ops)
    if hit is None:
        return True, None
    i, j, op, result = hit
    return False, ClosureWitness(s.elements[i], s.elements[j], op, result)


def is_closed(
    elements: Iterable[ChainEndo], op: Literal["+", "*"]
) -> tuple[bool, ClosureWitness | None]:
    """Closure under one operation, with the first escaping pair."""
    if op not in ("+", "*"):
        raise ValueError(f"op must be '+' or '*', got {op!r}")
    return _closure(elements, (op,))


def is_subsemiring(
    elements: Iterable[ChainEndo],
) -> tuple[bool, ClosureWitness | None]:
    """Closure under both + and *, with the first escaping pair."""
    return _closure(elements, ("+", "*"))


@dataclass(frozen=True)
class IdealWitness:
    kind: str  # "add", "left-absorb", "right-absorb"
    inner: ChainEndo
    outer: ChainEndo
    result: ChainEndo


def is_ideal(
    ideal: Iterable[ChainEndo], ambient: Iterable[ChainEndo]
) -> tuple[bool, IdealWitness | None]:
    """Additively closed and absorbing on both sides inside ambient."""
    inner, outer = Subset.of(ideal), Subset.of(ambient)
    if not inner._members <= outer._members:
        raise NotSubset("candidate ideal is not inside the ambient set")
    hit = _closure_scan(inner, ("+",))
    if hit is not None:
        i, j, _, result = hit
        return False, IdealWitness("add", inner.elements[i], inner.elements[j], result)
    n, VI, VO, codes = inner.n, inner.values, outer.values, inner.keys
    for rows in _blocks(len(inner), len(outer)):
        # [i, j, 0]: outer[j] * x escapes; [i, j, 1]: x * outer[j] escapes,
        # so the flat order is the scan order x, r, left before right.
        out = np.stack(
            (
                _index(codes, _products(VO, inner.columns[:, rows], n).T) < 0,
                _index(codes, _products(VI[rows], outer.columns, n)) < 0,
            ),
            axis=-1,
        )
        if out.any():
            i, j, side = np.unravel_index(int(out.argmax()), out.shape)
            x, r = inner.elements[rows.start + i], outer.elements[j]
            if side == 0:
                return False, IdealWitness("left-absorb", x, r, r * x)
            return False, IdealWitness("right-absorb", x, r, x * r)
    return True, None


@dataclass(frozen=True)
class TrivialityVerdict:
    """Whether every product collapses to one element iota.

    iota_is_min / iota_is_max refer to the additive (pointwise) order on the
    set itself.  A one-element set satisfies both; flavor then reads
    "upper".  flavor is "neither" when iota is an inner element or when the
    set is not trivial at all.
    """

    is_trivial: bool
    iota: ChainEndo | None
    iota_is_min: bool
    iota_is_max: bool

    @property
    def flavor(self) -> str:
        if not self.is_trivial:
            return "none"
        if self.iota_is_max:
            return "upper"
        if self.iota_is_min:
            return "lower"
        return "neither"


def triviality(elements: Iterable[ChainEndo]) -> TrivialityVerdict:
    """Detect one-product-value semirings; needs multiplicative closure."""
    s = Subset.of(elements)
    closed, witness = is_closed(s, "*")
    if not closed:
        raise NotClosed(f"not multiplicatively closed: {witness}")
    V, VT = s.values, s.columns
    first = _products(V[:1], VT[:, :1], s.n)[0, 0]
    for rows in _blocks(len(s), len(s)):
        if (_products(V[rows], VT, s.n) != first).any():
            return TrivialityVerdict(False, None, False, False)
    k = int(np.searchsorted(s.keys, first))  # a member: the set is closed
    is_min = bool((V[k] <= V).all())
    is_max = bool((V <= V[k]).all())
    return TrivialityVerdict(True, s.elements[k], is_min, is_max)


@dataclass(frozen=True)
class Identities:
    left: tuple[ChainEndo, ...]
    right: tuple[ChainEndo, ...]

    @property
    def two_sided(self) -> tuple[ChainEndo, ...]:
        right = set(self.right)
        return tuple(e for e in self.left if e in right)


def identities(elements: Iterable[ChainEndo]) -> Identities:
    """Left and right multiplicative identities of the set."""
    s = Subset.of(elements)
    V, codes = s.values, s.keys
    left = np.empty(len(s), dtype=bool)
    right = np.ones(len(s), dtype=bool)
    for rows in _blocks(len(s), len(s)):
        P = _products(V[rows], s.columns, s.n)  # P[i, j]: element i * element j
        left[rows] = (P == codes).all(axis=1)
        right &= (P == codes[rows, None]).all(axis=0)
    return Identities(
        tuple(s.elements[i] for i in np.flatnonzero(left)),
        tuple(s.elements[i] for i in np.flatnonzero(right)),
    )


def similar_pairs(
    elements: Iterable[ChainEndo], side: Literal["left", "right"]
) -> tuple[tuple[ChainEndo, ChainEndo], ...]:
    """Distinct pairs indistinguishable by one-sided multiplication.

    Left-similar: gamma * alpha == gamma * beta for every gamma in the set.
    Right-similar: alpha * gamma == beta * gamma for every gamma.  Pairs are
    returned in lexicographic order with alpha < beta.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    s = Subset.of(elements)
    V, VT = s.values, s.columns
    # Refine a class label per element, one block of gammas at a time: two
    # elements keep sharing a label while their products with every gamma
    # seen so far agree.
    labels = np.zeros((len(s), 1), dtype=np.int64)
    for rows in _blocks(len(s), len(s)):
        if side == "left":
            seen = _products(V[rows], VT, s.n).T  # [a, g]: gamma * alpha
        else:
            seen = _products(V, VT[:, rows], s.n)  # [a, g]: alpha * gamma
        keys = np.hstack((labels, seen))
        labels = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1, 1)
    classes: dict[int, list[int]] = {}
    for i, label in enumerate(labels[:, 0].tolist()):
        classes.setdefault(label, []).append(i)
    pairs = sorted(pair for group in classes.values() for pair in combinations(group, 2))
    return tuple((s.elements[i], s.elements[j]) for i, j in pairs)


@dataclass(frozen=True)
class ElementClass:
    """Multiplicative behaviour of one element under iterated powers."""

    kind: Literal["idempotent", "nilpotent", "root_of_idempotent"]
    idempotent: ChainEndo
    exponent: int  # least power equal to the idempotent
    target: int | None  # constant value when nilpotent


def classify_element(
    alpha: ChainEndo, members: Iterable[ChainEndo] | None = None
) -> ElementClass:
    """Idempotent, nilpotent onto a constant, or a root of an idempotent."""
    if members is not None and alpha not in set(members):
        raise ValueError(f"{alpha} is not a member of the given set")
    limit = alpha.eventual_idempotent()
    exponent = 1
    power = alpha
    while power != limit:
        power = power * alpha
        exponent += 1
    if exponent == 1:
        return ElementClass("idempotent", limit, 1, None)
    if limit.is_constant():
        return ElementClass("nilpotent", limit, exponent, limit.values[0])
    return ElementClass("root_of_idempotent", limit, exponent, None)


def iso_check(
    first: Iterable[ChainEndo], second: Iterable[ChainEndo]
) -> tuple[bool, Mapping[ChainEndo, ChainEndo] | None]:
    """Search for a semiring isomorphism between two closed sets.

    Both sets must be closed under + and *.  Candidate bijections must
    preserve both operations; the search prunes by order-theoretic and
    multiplicative invariants (down-set and up-set sizes, idempotency, the
    square's down-set size).  On chains the down-set sizes leave one
    candidate per element, so the search runs straight through without a
    special case.  Returns the first isomorphism found in lexicographic
    assignment order, or (False, None).
    """
    src, dst = Subset.of(first), Subset.of(second)
    for name, s in (("first", src), ("second", dst)):
        closed, witness = is_subsemiring(s)
        if not closed:
            raise NotClosed(f"{name} set is not a subsemiring: {witness}")
    if len(src) != len(dst):
        return False, None
    size = len(src)

    def profile(s):
        V = s.values
        down = np.zeros(size, dtype=np.int64)
        up = np.empty(size, dtype=np.int64)
        for rows in _blocks(size, size * s.n):
            leq = (V[rows, None, :] <= V[None, :, :]).all(axis=2)
            up[rows] = leq.sum(axis=1)
            down += leq.sum(axis=0)
        square = _index(s.keys, _pack(np.take_along_axis(V, V, axis=1), s.n))
        idempotent = square == np.arange(size)
        return list(
            zip(down.tolist(), up.tolist(), idempotent.tolist(), down[square].tolist())
        )

    sig_s, sig_t = profile(src), profile(dst)
    if sorted(sig_s) != sorted(sig_t):
        return False, None

    def combined(s, i, others):
        """Keys of x_i + x_k, x_i * x_k and x_k * x_i for k in others, x in s."""
        row, columns = s.values[i : i + 1], s.columns[:, others]
        return np.concatenate(
            (
                _sums(row, columns, s.n)[0],
                _products(row, columns, s.n)[0],
                _products(s.values[others], s.columns[:, i : i + 1], s.n)[:, 0],
            )
        )

    def verify(p):
        image = dst.values[p]  # image[i] holds the values of x_i's image
        imageT = dst.columns[:, p]
        for op in (_sums, _products):
            for rows in _blocks(size, size):
                result = _index(src.keys, op(src.values[rows], src.columns, src.n))
                if (dst.keys[p[result]] != op(image[rows], imageT, dst.n)).any():
                    return False
        return True

    candidates = [[t for t in range(size) if sig_t[t] == sig_s[i]] for i in range(size)]
    p = np.zeros(size, dtype=np.intp)  # p[i]: index in the second set of x_i's image
    used = np.zeros(size, dtype=bool)

    def backtrack(i: int) -> bool:
        if i == size:
            return verify(p)
        # results of x_i with each earlier x_j, as member indices: wherever
        # one is already assigned, its image must be the images' result
        k = _index(src.keys, combined(src, i, np.arange(i)))
        known = k <= i
        for t in candidates[i]:
            if used[t]:
                continue
            p[i] = t
            if (dst.keys[p[k[known]]] == combined(dst, t, p[:i])[known]).all():
                used[t] = True
                if backtrack(i + 1):
                    return True
                used[t] = False
        return False

    if backtrack(0):
        return True, dict(zip(src.elements, (dst.elements[t] for t in p.tolist())))
    return False, None
