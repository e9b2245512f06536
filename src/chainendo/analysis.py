"""Structure checks over arbitrary sets of chain endomorphisms.

Everything here is exhaustive and deterministic: sets are normalised to
lexicographic order, pair scans run in that order, and the first violation
found is the witness reported.

The scans run on numpy arrays, not on ChainEndo objects.  A set of N maps
on C_n becomes an (N, n) value matrix, and each map an exact int64 key
(its values as base-n digits, which fits for n <= MAX_CHAIN).  The closure
scan streams one row of pairs at a time.  The other checks read the set's
Cayley tables: for each ordered pair, the key (or member index, -1 when
the result leaves the set) of the sum and of the product.  Tables are built
_BLOCK rows at a time, so a public check holds O(_BLOCK * N * n) scratch
values whatever the set size, and nothing is cached between calls.  Only
the private helpers behind claims on small sets (_cayley_tables and the
scans over its output) hold whole (N, N) tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Literal, Mapping

import numpy as np

from .core import ChainEndo, ChainEndoError, SizeMismatch

# Largest chain whose maps have exact int64 keys: the key of a map is below
# n**n, and 16**16 > 2**63.
MAX_CHAIN = 15

# Rows of a Cayley table built in one numpy call.
_BLOCK = 64


class NotClosed(ValueError):
    """The operation needs a multiplicatively closed set."""


class NotSubset(ValueError):
    """The candidate ideal is not contained in the ambient set."""


class ChainTooLong(ChainEndoError):
    """The chain is longer than the set kernels support (n <= MAX_CHAIN)."""


def canonical(elements: Iterable[ChainEndo]) -> tuple[ChainEndo, ...]:
    """Sorted, de-duplicated tuple; rejects mixed chain sizes."""
    if isinstance(elements, Subset):
        return elements.elements
    result = tuple(sorted(set(elements)))
    if not result:
        raise ValueError("empty set of endomorphisms")
    sizes = {e.n for e in result}
    if len(sizes) > 1:
        raise SizeMismatch(f"mixed chain sizes {sorted(sizes)}")
    return result


@dataclass(frozen=True)
class Subset:
    """A normalised set of endomorphisms of one chain."""

    n: int
    elements: tuple[ChainEndo, ...]

    @classmethod
    def of(cls, elements: Iterable[ChainEndo]) -> "Subset":
        normalised = canonical(elements)
        return cls(normalised[0].n, normalised)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    @cached_property
    def _members(self) -> frozenset[ChainEndo]:
        return frozenset(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ClosureWitness:
    """First pair whose combination escapes the set."""

    left: ChainEndo
    right: ChainEndo
    op: str  # "+" or "*"
    result: ChainEndo


def _value_matrix(els: tuple[ChainEndo, ...]) -> np.ndarray:
    n = els[0].n
    if n > MAX_CHAIN:
        raise ChainTooLong(
            f"chain size {n} is beyond the limit n <= {MAX_CHAIN} of the set checks"
        )
    return np.array([e.values for e in els], dtype=np.int64)


def _pack(matrix: np.ndarray, n: int) -> np.ndarray:
    # Big-endian base-n packing, so code order matches lexicographic order.
    weights = n ** np.arange(matrix.shape[-1] - 1, -1, -1, dtype=np.int64)
    return matrix @ weights


def _blocks(size: int):
    """Slices of _BLOCK consecutive rows covering range(size)."""
    for start in range(0, size, _BLOCK):
        yield slice(start, min(start + _BLOCK, size))


def _sums(X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """Keys of x + y for x in the rows of X and y in the rows of Y."""
    return _pack(np.maximum(X[:, None, :], Y[None, :, :]), n)


def _products(X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """Keys of x * y (x first, then y) for x in the rows of X, y in Y."""
    # Y[:, X][j, i] is y_j applied to x_i's values, i.e. x_i * y_j.
    return _pack(Y[:, X], n).T


def _index(codes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Member index of each key in the sorted codes, -1 for non-members."""
    pos = np.searchsorted(codes, keys)
    pos[pos == len(codes)] = 0
    return np.where(codes[pos] == keys, pos, -1)


def _cayley_tables(els: tuple[ChainEndo, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The + and * tables of a canonical set, as (N, N) member indices.

    A[i, j] is the index of els[i] + els[j] and M[i, j] that of
    els[i] * els[j], or -1 where the result is not in the set.  Both
    tables together hold 2 * N**2 indices, so only private checks on sets
    of bounded size build them whole.
    """
    n, size = els[0].n, len(els)
    V = _value_matrix(els)
    codes = _pack(V, n)
    assert (np.diff(codes) > 0).all()  # canonical: sorted and de-duplicated
    A = np.empty((size, size), dtype=np.intp)
    M = np.empty((size, size), dtype=np.intp)
    for rows in _blocks(size):
        A[rows] = _index(codes, _sums(V[rows], V, n))
        M[rows] = _index(codes, _products(V[rows], V, n))
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
    for rows in _blocks(len(A)):
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
    """First (i, j, op) whose result escapes, scanning pairs in lex order.

    Within one pair "+" is tried before "*".  Returns None when closed.
    """
    n = els[0].n
    V = _value_matrix(els)
    codes = _pack(V, n)
    assert (np.diff(codes) > 0).all()  # canonical() sorted and de-duplicated
    for i in range(len(els)):
        best = None
        for op in ops:
            if op == "+":
                R = np.maximum(V, V[i])
            else:
                R = V[:, V[i]]  # row j becomes els[j] after els[i]
            out = _pack(R, n)
            pos = np.searchsorted(codes, out)
            pos[pos == len(els)] = 0
            bad = codes[pos] != out
            if bad.any():
                j = int(bad.argmax())
                if best is None or j < best[0]:
                    best = (j, op, tuple(int(v) for v in R[j]))
        if best is not None:
            j, op, values = best
            return i, j, op, ChainEndo._wrap(n, values)
    return None


def is_closed(
    elements: Iterable[ChainEndo], op: Literal["+", "*"]
) -> tuple[bool, ClosureWitness | None]:
    """Closure under one operation, with the first escaping pair."""
    if op not in ("+", "*"):
        raise ValueError(f"op must be '+' or '*', got {op!r}")
    els = canonical(elements)
    hit = _closure_scan(els, (op,))
    if hit is None:
        return True, None
    i, j, op_hit, result = hit
    return False, ClosureWitness(els[i], els[j], op_hit, result)


def is_subsemiring(
    elements: Iterable[ChainEndo],
) -> tuple[bool, ClosureWitness | None]:
    """Closure under both + and *, with the first escaping pair."""
    els = canonical(elements)
    hit = _closure_scan(els, ("+", "*"))
    if hit is None:
        return True, None
    i, j, op_hit, result = hit
    return False, ClosureWitness(els[i], els[j], op_hit, result)


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
    inner = canonical(ideal)
    outer = canonical(ambient)
    if not set(inner) <= set(outer):
        raise NotSubset("candidate ideal is not inside the ambient set")
    n = inner[0].n
    VI, VO = _value_matrix(inner), _value_matrix(outer)
    codes = _pack(VI, n)
    for rows in _blocks(len(inner)):
        out = _index(codes, _sums(VI[rows], VI, n)) < 0
        if out.any():
            i, j = np.unravel_index(int(out.argmax()), out.shape)
            x, y = inner[rows.start + i], inner[j]
            return False, IdealWitness("add", x, y, x + y)
    for rows in _blocks(len(inner)):
        # [i, j, 0]: outer[j] * x escapes; [i, j, 1]: x * outer[j] escapes,
        # so the flat order is the scan order x, r, left before right.
        out = np.stack(
            (
                _index(codes, _products(VO, VI[rows], n).T) < 0,
                _index(codes, _products(VI[rows], VO, n)) < 0,
            ),
            axis=-1,
        )
        if out.any():
            i, j, side = np.unravel_index(int(out.argmax()), out.shape)
            x, r = inner[rows.start + i], outer[j]
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
    els = canonical(elements)
    closed, witness = is_closed(els, "*")
    if not closed:
        raise NotClosed(f"not multiplicatively closed: {witness}")
    n = els[0].n
    V = _value_matrix(els)
    first = _products(V[:1], V[:1], n)[0, 0]
    for rows in _blocks(len(els)):
        if (_products(V[rows], V, n) != first).any():
            return TrivialityVerdict(False, None, False, False)
    k = int(np.searchsorted(_pack(V, n), first))  # a member: the set is closed
    is_min = bool((V[k] <= V).all())
    is_max = bool((V <= V[k]).all())
    return TrivialityVerdict(True, els[k], is_min, is_max)


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
    els = canonical(elements)
    n = els[0].n
    V = _value_matrix(els)
    codes = _pack(V, n)
    left = np.empty(len(els), dtype=bool)
    right = np.ones(len(els), dtype=bool)
    for rows in _blocks(len(els)):
        P = _products(V[rows], V, n)  # P[i, j]: els[i] * els[j]
        left[rows] = (P == codes).all(axis=1)
        right &= (P == codes[rows, None]).all(axis=0)
    return Identities(
        tuple(els[i] for i in np.flatnonzero(left)),
        tuple(els[i] for i in np.flatnonzero(right)),
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
    els = canonical(elements)
    n = els[0].n
    V = _value_matrix(els)
    # Refine a class label per element, one block of gammas at a time: two
    # elements keep sharing a label while their products with every gamma
    # seen so far agree.
    labels = np.zeros((len(els), 1), dtype=np.int64)
    for rows in _blocks(len(els)):
        if side == "left":
            seen = _products(V[rows], V, n).T  # [a, g]: gamma * alpha
        else:
            seen = _products(V, V[rows], n)  # [a, g]: alpha * gamma
        keys = np.hstack((labels, seen))
        labels = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1, 1)
    classes: dict[int, list[int]] = {}
    for i, label in enumerate(labels[:, 0].tolist()):
        classes.setdefault(label, []).append(i)
    pairs = sorted(pair for group in classes.values() for pair in combinations(group, 2))
    return tuple((els[i], els[j]) for i, j in pairs)


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
    square's down-set size) and, when both sets are chains, collapses to the
    unique monotone bijection.  Returns the first isomorphism found in
    lexicographic assignment order, or (False, None).
    """
    S = canonical(first)
    T = canonical(second)
    for name, els in (("first", S), ("second", T)):
        closed, witness = is_subsemiring(els)
        if not closed:
            raise NotClosed(f"{name} set is not a subsemiring: {witness}")
    if len(S) != len(T):
        return False, None

    n, size = S[0].n, len(S)
    VS, VT = _value_matrix(S), _value_matrix(T)
    codes_s, codes_t = _pack(VS, n), _pack(VT, n)

    def profile(els, V, codes):
        index = {e: i for i, e in enumerate(els)}
        down = np.zeros(size, dtype=np.int64)
        up = np.empty(size, dtype=np.int64)
        for rows in _blocks(size):
            leq = (V[rows, None, :] <= V[None, :, :]).all(axis=2)
            up[rows] = leq.sum(axis=1)
            down += leq.sum(axis=0)
        square = _index(codes, _pack(np.take_along_axis(V, V, axis=1), n))
        idempotent = square == np.arange(size)
        sig = list(
            zip(down.tolist(), up.tolist(), idempotent.tolist(), down[square].tolist())
        )
        return index, sig

    index_s, sig_s = profile(S, VS, codes_s)
    index_t, sig_t = profile(T, VT, codes_t)
    if sorted(sig_s) != sorted(sig_t):
        return False, None

    def verify(assign):
        p = np.array([index_t[t] for t in assign])
        image = VT[p]  # image[i] holds the values of assign[i]
        for op in (_sums, _products):
            for rows in _blocks(size):
                result = _index(codes_s, op(VS[rows], VS, n))
                if (codes_t[p[result]] != op(image[rows], image, n)).any():
                    return False
        return True

    down_sizes = sorted(d for d, _, _, _ in sig_s)
    both_chains = down_sizes == list(range(1, size + 1))
    if both_chains:
        # Total additive order on both sides: the only candidate is the
        # order-matching bijection.
        assign = list(T)
        if verify(assign):
            return True, dict(zip(S, assign))
        return False, None

    candidates = [
        [t for t in T if sig_t[index_t[t]] == sig_s[i]] for i in range(size)
    ]

    assign: list[ChainEndo | None] = [None] * size
    used: set[ChainEndo] = set()

    def backtrack(i: int) -> bool:
        if i == size:
            return verify(assign)
        for t in candidates[i]:
            if t in used:
                continue
            assign[i] = t
            used.add(t)
            ok = True
            for j in range(i):
                s_sum = S[i] + S[j]
                k = index_s[s_sum]
                if k <= i and assign[k] != assign[i] + assign[j]:
                    ok = False
                    break
                s_mul = S[i] * S[j]
                k = index_s[s_mul]
                if k <= i and assign[k] != assign[i] * assign[j]:
                    ok = False
                    break
                s_mul = S[j] * S[i]
                k = index_s[s_mul]
                if k <= i and assign[k] != assign[j] * assign[i]:
                    ok = False
                    break
            if ok and backtrack(i + 1):
                return True
            used.discard(t)
            assign[i] = None
        return False

    if backtrack(0):
        return True, dict(zip(S, assign))
    return False, None
