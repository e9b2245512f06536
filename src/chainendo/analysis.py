"""Structure checks over arbitrary sets of chain endomorphisms.

Everything here is exhaustive and deterministic: sets are normalised to
lexicographic order, pair scans run in that order, and the first violation
found is the witness reported.

A set is a Subset.  Its primary form is the (N, n) int64 matrix of its
maps' values, rows in lexicographic order; the enumerations in simplex
produce it directly, with no ChainEndo built, and every set derived from
an enumeration is a slice of step 1 or a boolean row mask of it, so the
rows stay in order.  A Subset may be empty; Subset.of, where every check
starts, refuses an empty set.  Subset.of lexsorts the maps' value rows and
drops repeats, the union s | t shares that step, x in s compares x's row
with the matrix, and s.limits squares the matrix to each map's eventual
idempotent; none of them reads keys, so they work at any n.  Derived from
the matrix are one (n, N) weight matrix, whose column j holds the weight of
each position of map j, so that it sums to one exact int64 key per map (the
map's lexicographic rank among all C(2n-1, n) monotone maps of its chain);
one (n*n, N) rank table for products; one index table over every rank of
the chain; and the ChainEndo objects themselves.  The weights and the table
are in the smallest integer type that holds every rank.  These and the
limits are built on first use and kept on the Subset, so a check that
passes its Subset on to another check does not rebuild them; no other state
survives a call.  A matrix may hold a chain of any length; building the
weights, keys or the rank table of a chain longer than MAX_CHAIN raises
ChainTooLong.

The scans run on these arrays, not on ChainEndo objects.  The rank of a map
is a sum of one weight per position, and the weights at a position never
fall as the value grows, so the keys of sums come from the weight matrix.  Row
k*n + c of the product table holds, for every y, the weight at k of x * y
when x holds c at k, so the keys of a block of products take one gather of
n table rows per x and one sum; the pair loop keys one row from the values.
One pair loop scans rows in blocks.  A closure scan runs it over the whole
of a set that fits one block, and over row 0 alone of a larger set first,
so a set that escapes there, as most escaping sets do, builds no rank
table.  Its later rows go to the pair loop, or, for N maps with N**2 * n
over _CLASS_PASS_BUDGETS pair budgets, to two class passes that build none.
Products go by image class (the rows with one image I): x * y reads y only
on I, so a class is keyed only against the first member of each
restriction class to I, and only when its signature (its step masks and
the set of restrictions to I) has not stayed inside yet; the restriction
classes come level by level, each image's from its parent's.  Sums go by
prefix class (a run of rows that share their first h values): whether the
sums of two classes stay inside depends only on their suffix sets and that
of the class of their joined prefix, so one pair of classes is keyed per
distinct triple, in row order, from the weights.  The pair loop stays the
witness finder of sums, bounded to a known escape: it runs only over the
first prefix class with an escaping pair, or up to the row of a product
escape, so every witness is still the lex-first pair.
Subset.index_of turns keys into member indices (-1 when the result leaves
the set) with one gather from the index table; it is the only way a key
becomes a member, and s.find(rows), the member index of each row of a value
matrix, goes through it.  One pair budget, _PAIR_BUDGET, sizes every block:
a block of rows combined with width columns each has _PAIR_BUDGET // width
rows, or one row when a row alone is wider, so the scratch arrays of each
numpy call stay near the budget whatever the set size.  One scan,
_hom_mismatch, checks whether a given bijection carries + or * over, for
iso_check and the claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, pairwise
from math import comb
from typing import Iterable, Literal, Mapping

import numpy as np

from .core import ChainEndo, ChainEndoError, OutOfRange, SizeMismatch

# Largest chain the set checks accept.  A value matrix may hold any chain;
# the limit is checked when a set's weights or rank tables are built.  Ranks
# stay exact in int64 up to n = 33, but each set's index table holds one
# entry per monotone map, C(2n-1, n) of them, in the smallest signed type
# that holds N, for N maps: one byte up to N = 127 (74 MiB of address space
# at n = 15, 286 MiB at 16), two up to 32767 and four beyond.  Only the
# members' pages are touched.  Each set's rank table adds n**2 * N entries.
MAX_CHAIN = 15

# Most pairs a scan combines in one numpy call.
_PAIR_BUDGET = 2**14

# A closure scan takes its class passes after row 0 (products by image
# class, sums by prefix class) only for a set of N maps of the chain of n
# whose pair loops would gather more than this many pair budgets, N**2 * n:
# below, the passes cost more to set up than they save.  On the closed sets
# of check --n-max 9 (both ops, interleaved, best of 7) 495 maps at n = 8
# (120 budgets) took 1.10 ms by the loops and 1.30 ms by the passes, 792
# maps at n = 7 (268) 2.64 and 2.30 ms: break-even near 200, the products
# alone near 220 and the sums alone near 115.
_CLASS_PASS_BUDGETS = 200


class NotClosed(ValueError):
    """The operation needs a multiplicatively closed set."""


class NotSubset(ValueError):
    """The candidate ideal is not contained in the ambient set."""


class ChainTooLong(ChainEndoError):
    """The chain is longer than the set kernels support (n <= MAX_CHAIN)."""


class SetTooLarge(ChainEndoError):
    """The set has more maps than the full simplex at MAX_CHAIN, the largest
    set a check can index."""


@dataclass(frozen=True, eq=False)
class Subset:
    """Distinct maps of one chain in lexicographic order: a read-only
    sequence of ChainEndo backed by their (N, n) value matrix, with weights,
    keys, rank table and index table (see the module docstring) and the
    ChainEndo objects themselves, each built on first use."""

    n: int
    values: np.ndarray  # row i holds the values of the i-th map

    @classmethod
    def from_values(cls, n: int, matrix) -> "Subset":
        """The set whose rows are already strictly ascending in lex order;
        an (0, n) matrix gives the empty set of the chain.  The order is
        taken on trust: checking it here would cost more than the cut that
        calls this, so the one scan that needs it, the prefix pass of a
        closure scan, checks it and refuses rows out of order."""
        values = np.asarray(matrix, dtype=np.int64).view()
        if values.ndim != 2 or values.shape[1] != n:
            raise ValueError(f"expected an (N, {n}) value matrix, got shape {values.shape}")
        values.flags.writeable = False  # keys and tables are derived from it
        return cls(n, values)

    @classmethod
    def of(cls, elements: Iterable[ChainEndo]) -> "Subset":
        """Normalise elements; a Subset is returned as it is.  Every check
        starts here, so an empty set, Subset or not, is refused."""
        if not isinstance(elements, Subset):
            els = list(elements)
            sizes = sorted(dict.fromkeys(e.n for e in els))
            if len(sizes) > 1:
                raise SizeMismatch(f"mixed chain sizes {sizes}")
            elements = cls._normalised(sizes[0], [e.values for e in els]) if els else ()
        if not len(elements):
            raise ValueError("empty set of endomorphisms")
        return elements

    @classmethod
    def _normalised(cls, n: int, rows) -> "Subset":
        """The set of the rows of an (N, n) value matrix in any order:
        lexsorted, repeats dropped.  Reads no keys, so any n."""
        V = np.asarray(rows, dtype=np.int64)
        V = V[np.lexsort(V.T[::-1])]
        fresh = np.ones(len(V), dtype=bool)
        fresh[1:] = (V[1:] != V[:-1]).any(axis=1)
        return cls.from_values(n, V[fresh])

    @cached_property
    def elements(self) -> tuple[ChainEndo, ...]:
        wrap, n = ChainEndo._wrap, self.n
        return tuple([wrap(n, row) for row in map(tuple, self.values.tolist())])

    def __getitem__(self, i):
        """The i-th map, or the Subset of the rows that a slice of step 1 or a
        boolean row mask selects; while elements is unbuilt, an index wraps
        only row i."""
        if isinstance(i, (int, np.integer)) and not isinstance(i, bool):
            elements = self.__dict__.get("elements")
            if elements is not None:
                return elements[i]
            return ChainEndo._wrap(self.n, tuple(self.values[i].tolist()))
        if isinstance(i, slice):
            if i.step not in (None, 1):
                raise ValueError(f"a Subset slice needs step 1, got {i.step}: rows stay ascending")
            return Subset.from_values(self.n, self.values[i])
        if isinstance(i, np.ndarray) and i.dtype == bool:
            return Subset.from_values(self.n, self.values[i])
        raise TypeError(
            "a Subset takes an integer, a slice of step 1 or a boolean row mask, "
            f"not {type(i).__name__}"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            raise TypeError(
                f"a Subset compares only with a Subset, not {type(other).__name__}; "
                "compare tuple(...) instead"
            )
        return self.n == other.n and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.n, self.values.tobytes()))

    def __or__(self, other: "Subset") -> "Subset":
        """The union of two sets of one chain."""
        if not isinstance(other, Subset):
            return NotImplemented
        if other.n != self.n:
            raise SizeMismatch(f"chain sizes differ: {self.n} vs {other.n}")
        return Subset._normalised(self.n, np.vstack((self.values, other.values)))

    def __contains__(self, item: object) -> bool:
        """Whether item's row is a row of the value matrix; reads no keys, so any n."""
        if not isinstance(item, ChainEndo) or item.n != self.n:
            return False
        return bool((self.values == item.values).all(axis=1).any())

    @cached_property
    def limits(self) -> np.ndarray:
        """Read-only (N, n): row i is member i's eventual idempotent.  Powers stop
        moving by exponent n - 1 (ChainEndo._power_limit), s squarings reach power
        2**s >= n - 1, and a map is idempotent exactly when it equals its limit."""
        L = self.values
        for _ in range(max(1, (self.n - 2).bit_length())):
            L = np.take_along_axis(L, L, axis=1)
        L.flags.writeable = False
        return L

    def _check_limit(self) -> None:
        """Raise ChainTooLong beyond MAX_CHAIN: the weights and the rank table start here."""
        if self.n > MAX_CHAIN:
            raise ChainTooLong(
                f"chain size {self.n} is beyond the limit n <= {MAX_CHAIN} of the set checks"
            )

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only (n, N) array in the key dtype: entry [k, j] is W[k, y_j[k]].

        W is _rank_weights(n) and y the elements, so column j sums to the
        rank of y_j.
        """
        self._check_limit()
        n = self.n
        # a C-ordered index: np.take copies an F-ordered one first
        at = np.add(self.values.T, np.arange(0, n * n, n)[:, None], order="C")
        weights = np.take(_key_weights(n), at)
        weights.flags.writeable = False
        return weights

    @cached_property
    def keys(self) -> np.ndarray:
        """Lex rank of each element among all maps of the chain; strictly increasing."""
        return self.weights.sum(axis=0, dtype=np.int64)

    @cached_property
    def product_table(self) -> np.ndarray:
        """(n*n, N) table: row k*n + c, column j holds W[k, y_j[c]], W and y
        as in weights.

        The key of x * y_j is the sum over k of row k*n + x[k] at column j.
        """
        self._check_limit()
        W = _key_weights(self.n).reshape(self.n, self.n)
        return W[:, self.values.T].reshape(self.n**2, len(self))

    @cached_property
    def index_table(self) -> np.ndarray:
        """Entry r holds 1 + the index of the member of rank r, or 0 when no
        member has rank r; one entry per map of the chain, in the smallest
        signed integer type that holds len(self) (pages map on first touch)."""
        keys = self.keys  # beyond MAX_CHAIN this raises before the allocation
        dtype = _index_dtype(len(self))
        table = np.zeros(comb(2 * self.n - 1, self.n), dtype=dtype)
        table[keys] = np.arange(1, len(self) + 1, dtype=dtype)
        return table

    def index_of(self, keys) -> np.ndarray:
        """Member index of each key (a rank of the chain), -1 for a non-member."""
        return np.take(self.index_table, keys) - 1

    def find(self, rows) -> np.ndarray:
        """Member index of each row of a (..., n) value matrix, -1 for a row
        that is no member, a map of the chain or not; another width, or rows
        not of an integer type, are refused."""
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":  # a float or bool row would be truncated
            raise OutOfRange(f"rows of type {rows.dtype} are not integer values")
        if rows.shape[-1:] != (self.n,):
            raise SizeMismatch(f"rows of shape {rows.shape} are not maps of the chain of {self.n}")
        self._check_limit()
        ascending = (rows[..., 1:] >= rows[..., :-1]).all(axis=-1)
        maps = (rows[..., 0] >= 0) & (rows[..., -1] < self.n) & ascending
        return np.where(maps, self.index_of(_pack(rows * maps[..., None], self.n)), -1)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.values)


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


@cache
def _key_dtype(n: int) -> np.dtype:
    """Smallest of int16, int32 and int64 that holds every rank, C(2n-1, n) - 1.

    W is nonnegative, so no partial sum of a rank exceeds the rank itself.
    """
    top = comb(2 * n - 1, n) - 1
    return next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= top)


@cache
def _key_weights(n: int) -> np.ndarray:
    """_rank_weights(n) flattened, in _key_dtype(n): entry k*n + c is W[k, c]."""
    W = _rank_weights(n).astype(_key_dtype(n)).ravel()
    W.flags.writeable = False
    return W


@cache
def _index_dtype(size: int) -> np.dtype:
    """Smallest of int8, int16, int32 and int64 that holds size."""
    types = (np.int8, np.int16, np.int32, np.int64)
    return next(np.dtype(t) for t in types if np.iinfo(t).max >= size)


def _pack(matrix: np.ndarray, n: int) -> np.ndarray:
    """Lex rank of each row of a (..., n) value matrix."""
    W = _rank_weights(n)
    return W[np.arange(n), matrix].sum(axis=-1)


def _blocks(size: int, width: int, first: int = 0):
    """Slices of consecutive rows covering range(first, size), for rows
    combined with width columns each: _PAIR_BUDGET // width rows, at least one."""
    height = max(1, _PAIR_BUDGET // width)
    for start in range(first, size, height):
        yield slice(start, min(start + height, size))


def _sums(X: np.ndarray, s: "Subset", cols=slice(None)) -> np.ndarray:
    """Keys of x + y for x in the rows of X and y in s.elements[cols]: rows of
    W (see _rank_weights) never descend, so W[k, max(c, v)] = max(W[k, c], W[k, v])."""
    right = s.weights[:, cols]  # beyond MAX_CHAIN this raises first
    left = np.take(_key_weights(s.n), X.T + np.arange(0, s.n**2, s.n)[:, None])
    return np.maximum(left[:, :, None], right[:, None, :]).sum(axis=0, dtype=right.dtype)


def _products(X: np.ndarray, s: "Subset", cols=slice(None)) -> np.ndarray:
    """Keys of x * y (x first, then y) for x in the rows of X and y in
    s.elements[cols], cols a slice or an index array, from product_table."""
    table, n = s.product_table, s.n
    # [k, i]: the table row of position k of x_i; the gather is position
    # first, so the sum over k adds whole (len(X), width) slabs
    rows = X.T + np.arange(0, n * n, n)[:, None]
    if isinstance(cols, slice):
        return table[rows, cols].sum(axis=0, dtype=table.dtype)
    # Whole table rows are gathered as contiguous runs, several times faster
    # per entry than scattered columns, so an index array picks its columns
    # from the keys of all of them (and the table is never copied).
    return table[rows].sum(axis=0, dtype=table.dtype)[:, cols]


def _value_products(X: np.ndarray, YT: np.ndarray, n: int) -> np.ndarray:
    """(len(X), width) keys of x * y for x in the rows of X and y in the
    columns of YT, the int64 values of the right operands transposed: the
    sum over k of W[k, y(x(k))], W as in _rank_weights."""
    at = YT[X.T]  # [k, i, j]: (x_i * y_j)[k] = y_j[x_i[k]]
    # in place: a fresh index array would slow every row-0 escape
    at += np.arange(0, n * n, n)[:, None, None]
    return np.take(_key_weights(n), at).sum(axis=0, dtype=_key_dtype(n))


def _hom_mismatch(src: Subset, dst: Subset, p, op) -> tuple[int, int] | None:
    """First (i, j), in lex order, where p(x_i op x_j) != p(x_i) op p(x_j).

    p is an index map from src into dst (p[i] is the index in dst of x_i's
    image) and op is _sums or _products.  A result that leaves src counts
    as a mismatch.  Returns None when p carries op over.
    """
    p = np.asarray(p, dtype=np.intp)
    for rows in _blocks(len(src), len(src)):
        result = src.index_of(op(src.values[rows], src))
        bad = (result < 0) | (dst.keys[p[result]] != op(dst.values[p[rows]], dst, p))
        if bad.any():
            i, j = np.unravel_index(int(bad.argmax()), bad.shape)
            return rows.start + int(i), int(j)
    return None


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


def _escape(s: Subset, keys: np.ndarray, rows, cols) -> tuple[int, int] | None:
    """(i, j) of the first key, row by row, that is no member's rank, or None;
    rows and cols hold the ascending member indices of the keys' rows and
    columns."""
    kept = np.take(s.index_table, keys)
    if kept.all():
        return None
    i, j = np.unravel_index(int(kept.argmin()), kept.shape)
    return int(rows[i]), int(cols[j])


def _pair_escape(s: Subset, rows: slice, ops) -> tuple[int, int, str] | None:
    """First (i, j, op) escaping with i in rows, a block of rows at a time
    against every member; a pair that escapes under several ops reports the
    first of them.  In a block, products are keyed first: from the values
    for a block of one row, so that a row-0 escape builds no rank table,
    and from product_table, about ten times faster per block, for a taller
    one.  Sums follow only up to the row of a product escape, as no later
    sum can come first, and from the block's first column: x + y = y + x,
    so a pair (i, j) with j before it was scanned as (j, i) in an earlier
    block, or in a row before rows, which callers leave out only when it
    has no escaping sum."""
    V, members = s.values, range(len(s))
    for b in _blocks(rows.stop, len(s), rows.start):
        found = []  # (i, j, position of op in ops)
        if "*" in ops:
            keys = _value_products(V[b], V.T, s.n) if b.stop - b.start == 1 else _products(V[b], s)
            if hit := _escape(s, keys, members[b], members):
                found.append((*hit, ops.index("*")))
                b = slice(b.start, hit[0] + 1)
        if "+" in ops:
            keys = _sums(V[b], s, slice(b.start, None))
            if hit := _escape(s, keys, members[b], members[b.start :]):
                found.append((*hit, ops.index("+")))
        if found:
            i, j, op = min(found)
            return i, j, ops[op]
    return None


def _restriction_classes(s: Subset, VT: np.ndarray, images: list[int]):
    """Yield (I, F, R) for each image mask I in images, level by level from
    the largest image down: F the ascending first members of the restriction
    classes to I (members that agree on the points of I), and R the sorted
    ranks of their restrictions y|I among the monotone |I|-tuples, the keys
    of the maps with n - |I| zeros before them.  VT is s.values transposed.

    The parent J of I is I with p, the least point of U (the union of
    images) that I lacks.  A first member of a restriction to I is one to
    J, so a node keys only its parent's first members; and as the a points
    of U below p are in I, y|I ranks y|J plus a change in the weights at
    these points and p: a + 1 gathers, not |I|.  A level runs in order of
    a, in chunks whose members and table of ranks fit the pair budget.
    """
    size, n = len(s), s.n
    top = int(np.bitwise_or.reduce(images))
    U = np.flatnonzero(top >> np.arange(n) & 1) * size
    parents, shifts = {top: -1}, {top: 0}
    for I in images:
        while I not in parents:
            p = (top & ~I) & -(top & ~I)
            parents[I], shifts[I] = I | p, (top & (p - 1)).bit_count()
            I |= p
    members, wanted = np.arange(size, dtype=_index_dtype(size)), dict.fromkeys(images)
    level = {-1: (members, np.zeros(size, dtype=_key_dtype(n)))}
    W = _key_weights(n).reshape(n, n)  # signed, so it holds their differences too
    for m in range(len(U), 0, -1):
        if m == len(U):  # U's ranks from scratch
            D = W[n - m :].ravel()
        else:  # D[a, k, c]: dropping position a of an (m + 1)-tuple v adds
            # the sum of D[a, k, v[k]] over k <= a to its rank
            D = np.zeros((m + 1, m + 1, n), dtype=W.dtype)
            for a in range(m + 1):
                D[a, :a] = W[n - m : n - m + a] - W[n - m - 1 : n - m - 1 + a]
                D[a, a] = -W[n - m - 1 + a]
            D = D.ravel()
        nodes = sorted((shifts[I], I) for I in parents if I.bit_count() == m)
        tuples, sizes = comb(n + m - 1, m), [len(level[parents[I]][0]) for _, I in nodes]
        above, level = level, {}
        for run in _blocks(len(nodes), max([tuples, *sizes])):
            chunk = [I for _, I in nodes[run]]
            members = np.concatenate([above[parents[I]][0] for I in chunk])
            owner = np.repeat(np.arange(len(chunk)), sizes[run])
            codes = owner * tuples + np.concatenate([above[parents[I]][1] for I in chunk])
            height = m if m == len(U) else nodes[run][-1][0] + 1
            at = np.arange(0, height * n, n)[:, None]
            shift = np.repeat([a * (m + 1) * n for a, _ in nodes[run]], sizes[run])
            for b in _blocks(len(members), height):
                gathered = np.take(VT, U[:height, None] + members[b])
                codes[b] += np.take(D, gathered + (at + shift[b])).sum(axis=0)
            # size - j of the first member j of each code, 0 where none
            table = np.zeros(len(chunk) * tuples, dtype=members.dtype)
            np.maximum.at(table, codes, size - members)
            kept = table[codes] == size - members
            counts = np.bincount(owner[kept], minlength=len(chunk))
            members, codes = members[kept], codes[kept]
            ranks = (codes - np.repeat(np.arange(0, len(table), tuples), counts)).astype(D.dtype)
            ends = np.cumsum(counts).tolist()
            for I, a, b in zip(chunk, [0, *ends], ends):
                level[I] = members[a:b], ranks[a:b]
                if I in wanted:
                    yield I, members[a:b], np.sort(ranks[a:b])


def _product_escape(s: Subset) -> tuple[int, int] | None:
    """First (i, j) with x_i * x_j outside s and i >= 1, by image class.

    (x * y)(k) = y(x(k)) reads y only on the image I of x: x * y is y|I
    after x's quotient onto I, which x's step mask fixes.  So the products
    of an image class G (the rows from 1 on with image I) are fixed by its
    signature, its step masks and the set of restrictions to I: a class
    whose signature stayed inside stays inside too.  Otherwise G is keyed
    against the first member of each restriction class alone, where each
    row's first escape lies; escaping signatures are not kept, and a class
    whose first row comes after the least escape so far is skipped.
    """
    V, n, size = s.values, s.n, len(s)
    images = np.bitwise_or.reduce(np.left_shift(1, V), axis=1)  # bit c: c is a value
    order = np.argsort(images[1:], kind="stable") + 1  # the rows from 1 on by image
    masks, starts = np.unique(images[order], return_index=True)
    classes = dict(zip(masks.tolist(), pairwise([*starts.tolist(), size - 1])))
    # bit n - 2 - k marks a step at k, so in a class the masks ascend with the rows
    steps = (np.diff(V[order], axis=1) > 0) @ (1 << np.arange(n - 2, -1, -1))
    VT = np.ascontiguousarray(V.T, dtype=np.int8)  # values fit int8 below MAX_CHAIN
    passed, best = {}, None  # the signatures of classes that stayed inside
    for I, F, R in _restriction_classes(s, VT.ravel(), masks.tolist()):
        a, b = classes[I]
        signature = (steps[a:b].tobytes(), R.tobytes())  # the masks give |I|
        if signature in passed or (best is not None and order[a] > best[0]):
            continue
        hit = _class_escape(s, order[a:b], F, V.T[:, F])
        if hit is None:
            passed[signature] = None
        elif best is None or hit < best:
            best = hit
    return best


def _class_escape(s: Subset, G: np.ndarray, F: np.ndarray, columns) -> tuple[int, int] | None:
    """First (i, j) with x_i * x_j outside s, for i in G and j in F, both
    ascending member indices, keyed by _value_products on columns, F's values."""
    for rows in _blocks(len(G), len(F) * s.n):
        hit = _escape(s, _value_products(s.values[G[rows]], columns, s.n), G[rows], F)
        if hit is not None:
            return hit
    return None


def _strictly_ascending(s: Subset) -> bool:
    """Whether the rows of s strictly ascend in lex order; reads no keys, so any n."""
    steps = np.diff(s.values, axis=0)
    return bool((steps[np.arange(len(steps)), (steps != 0).argmax(axis=1)] > 0).all())


def _prefix_classes(s: Subset) -> tuple[int, np.ndarray]:
    """(h, bounds): the prefix classes of s, the runs of rows that share
    their first h values, for the least h that gives C classes with
    C**2 >= len(s); class c holds rows bounds[c] to bounds[c + 1].

    from_values takes the row order on trust, and runs hold their classes
    only when the rows are strictly ascending, so this checks it and raises
    ValueError otherwise.
    """
    V, size = s.values, len(s)
    if not _strictly_ascending(s):
        raise ValueError("the rows of a Subset must be strictly ascending in lex order")
    split = (V[1:] != V[:-1]).argmax(axis=1)  # where each row first differs from the last
    classes = 1 + np.cumsum(np.bincount(split, minlength=s.n))  # [h - 1]: classes of prefix h
    h = 1 + int(np.argmax(classes**2 >= size))
    return h, np.concatenate(([0], np.flatnonzero(split < h) + 1, [size]))


def _sum_representatives(s: Subset) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(h, bounds, pairs, joined): the prefix classes of s from
    _prefix_classes; the first pair (c, d) of classes in row order of each
    distinct triple (see _sum_class), these pairs in row order; and the
    partial rank of each pair's joined prefix, -1 when no class has it.

    The partial rank of a prefix p is the sum of W[k, p[k]] over k < h, W
    as in _rank_weights; it ascends with p in lex order, so one search in
    the classes' partial ranks finds the class of a joined prefix.  A
    triple does not tell its two suffix sets apart, as x + y = y + x, so
    the first pair of each has c <= d.
    """
    V, n = s.values, s.n
    h, bounds = _prefix_classes(s)
    W = _key_weights(n).reshape(n, n)
    P = V[bounds[:-1], :h]
    partial = W[np.arange(h), P].sum(axis=1, dtype=W.dtype)
    joined = sum(W[k, np.maximum.outer(P[:, k], P[:, k])] for k in range(h))  # [c, d]
    join = np.searchsorted(partial, joined)
    held = partial[np.minimum(join, len(P) - 1, out=join)] == joined
    tails = V[:, h:].astype(np.int8)  # values fit int8 below MAX_CHAIN
    ids: dict[bytes, int] = {}  # suffix rows -> suffix set id
    runs = pairwise(bounds.tolist())
    T = np.array([ids.setdefault(tails[a:b].tobytes(), len(ids)) for a, b in runs])
    # one code per (lesser, greater suffix set id, 1 + that of the joined class or 0)
    triples = T[join] + 1
    triples *= held
    triples += (np.minimum.outer(T, T) * len(ids) + np.maximum.outer(T, T)) * (len(ids) + 1)
    first = np.sort(np.unique(triples, return_index=True)[1])
    pairs = np.stack(np.divmod(first, len(P)), axis=1)
    return h, bounds, pairs, np.where(held.ravel()[first], joined.ravel()[first], -1)


def _sum_class(s: Subset) -> slice | None:
    """Rows of the first prefix class, from row 1 on, that holds some x with
    x + y outside s for a y in s, or None when s is closed under +.

    Write x = (p, a) and y = (q, b), p and q the prefixes of their classes
    and a and b the suffixes: x + y = (p | q, a | b), a member exactly when
    p | q is the prefix of a class and a | b lies in its suffix set.  So
    whether a pair of classes escapes depends only on the triple of its two
    suffix sets and that of the class of p | q (equal sets one id), and a
    pair escapes outright when no class has the prefix p | q.  The first
    pair of each triple is keyed, one pair at a time in row order, from the
    weights at positions h on plus the partial rank of p | q, so the first
    class with a pair that escapes is the one named.
    """
    h, bounds, pairs, joined = _sum_representatives(s)
    bounds, weights = bounds.tolist(), s.weights[h:]
    lost = pairs[joined < 0, 0].tolist()  # classes with a joined prefix no class holds
    for (c, d), prefix in zip(pairs.tolist(), joined.tolist()):
        rows = slice(bounds[c], bounds[c + 1])
        if c in lost:  # fails before any of its pairs is keyed
            return slice(max(1, rows.start), rows.stop)
        right = weights[:, None, bounds[d] : bounds[d + 1]]
        for b in _blocks(rows.stop, bounds[d + 1] - bounds[d], rows.start):
            # W[k, max(c, v)] = max(W[k, c], W[k, v]): rows of W are nondecreasing
            keys = np.maximum(weights[:, b, None], right).sum(axis=0, dtype=weights.dtype)
            if not np.take(s.index_table, keys + prefix).all():
                return slice(max(1, rows.start), rows.stop)
    return None


def _later_escape(s: Subset, ops) -> tuple[int, int, str] | None:
    """First (i, j, op) escaping with i >= 1, for a set of more than one
    block whose row 0 stays inside: by the pair loop, or, when N**2 * n
    gathers exceed _CLASS_PASS_BUDGETS pair budgets, by the class passes,
    products by image class (_product_escape) and sums by prefix class
    (_sum_class).  The pair loop then finds the sums' witness from row 1 up
    to the row of the product escape, or else over the prefix class that
    _sum_class names, if any: a row before the class has no escaping sum.
    The least (i, j) wins, a tie going to the op given first."""
    if len(s) ** 2 * s.n <= _CLASS_PASS_BUDGETS * _PAIR_BUDGET:
        return _pair_escape(s, slice(1, len(s)), ops)
    found = []  # (i, j, op) of each pass's first escape
    if "*" in ops and (hit := _product_escape(s)):
        found.append((*hit, "*"))
    if "+" in ops:
        # the sets that escape late mostly do so under *, and no sum in a
        # later row than that escape can come first
        summed = slice(1, found[0][0] + 1) if found else _sum_class(s)
        if summed is not None and (hit := _pair_escape(s, summed, ("+",))):
            found.append(hit)
    return min(found, key=lambda hit: (*hit[:2], ops.index(hit[2])), default=None)


def _closure_scan(els, ops):
    """First (i, j, op, result) whose result escapes, scanning pairs in lex order.

    i and j index the elements of Subset.of(els).  Within one pair the ops
    are tried in the order given.  Returns None when closed.  The pair loop
    scans the first block, all of a set that fits one and row 0 alone of a
    larger set, where most escaping sets escape and build no rank table;
    the rows after it go to _later_escape.
    """
    s = Subset.of(els)
    V, n, size = s.values, s.n, len(s)
    first = size if size * size <= _PAIR_BUDGET else 1
    hit = _pair_escape(s, slice(0, first), ops)
    if hit is None and first < size:
        hit = _later_escape(s, ops)
    if hit is None:
        return None
    i, j, op = hit
    x, y = V[i], V[j]
    values = np.maximum(x, y) if op == "+" else y[x]
    return i, j, op, ChainEndo._wrap(n, tuple(values.tolist()))


def _closure(elements: Iterable[ChainEndo], ops) -> tuple[bool, ClosureWitness | None]:
    s = Subset.of(elements)
    hit = _closure_scan(s, ops)
    if hit is None:
        return True, None
    i, j, op, result = hit
    return False, ClosureWitness(s[i], s[j], op, result)


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
    if inner.n != outer.n or (outer.find(inner.values) < 0).any():
        raise NotSubset("candidate ideal is not inside the ambient set")
    hit = _closure_scan(inner, ("+",))
    if hit is not None:
        i, j, _, result = hit
        return False, IdealWitness("add", inner[i], inner[j], result)
    VI, VO = inner.values, outer.values
    for rows in _blocks(len(inner), len(outer)):
        # [i, j, 0]: outer[j] * x; [i, j, 1]: x * outer[j], so the flat order
        # of the escapes is the scan order x, r, left before right.
        products = np.stack((_products(VO, inner, rows).T, _products(VI[rows], outer)), axis=-1)
        out = inner.index_of(products) < 0
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
    s = Subset.of(elements)
    closed, witness = is_closed(s, "*")
    if not closed:
        raise NotClosed(f"not multiplicatively closed: {witness}")
    V = s.values
    first = _products(V[:1], s, slice(0, 1))[0, 0]
    for rows in _blocks(len(s), len(s)):
        if (_products(V[rows], s) != first).any():
            return TrivialityVerdict(False, None, False, False)
    k = int(s.index_of(first))  # a member: the set is closed
    is_min = bool((V[k] <= V).all())
    is_max = bool((V <= V[k]).all())
    return TrivialityVerdict(True, s[k], is_min, is_max)


@dataclass(frozen=True)
class Identities:
    left: Subset
    right: Subset

    @property
    def two_sided(self) -> Subset:
        return self.left[self.right.find(self.left.values) >= 0]


def identities(elements: Iterable[ChainEndo]) -> Identities:
    """Left and right multiplicative identities of the set."""
    s = Subset.of(elements)
    V, codes = s.values, s.keys
    left = np.empty(len(s), dtype=bool)
    right = np.ones(len(s), dtype=bool)
    for rows in _blocks(len(s), len(s)):
        P = _products(V[rows], s)  # P[i, j]: element i * element j
        left[rows] = (P == codes).all(axis=1)
        right &= (P == codes[rows, None]).all(axis=0)
    return Identities(s[left], s[right])


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
    V = s.values
    # Refine a class label per element, one block of gammas at a time: two
    # elements keep sharing a label while their products with every gamma
    # seen so far agree.
    labels = np.zeros((len(s), 1), dtype=np.int64)
    for rows in _blocks(len(s), len(s)):
        if side == "left":
            seen = _products(V[rows], s).T  # [a, g]: gamma * alpha
        else:
            seen = _products(V, s, rows)  # [a, g]: alpha * gamma
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


def classify_element(alpha: ChainEndo) -> ElementClass:
    """Idempotent, nilpotent onto a constant, or a root of an idempotent."""
    limit, exponent = alpha._power_limit()
    if exponent == 1:
        return ElementClass("idempotent", limit, 1, None)
    if limit.is_constant():
        return ElementClass("nilpotent", limit, exponent, limit.values[0])
    return ElementClass("root_of_idempotent", limit, exponent, None)


def iso_check(
    first: Iterable[ChainEndo], second: Iterable[ChainEndo], witnesses=None
) -> tuple[bool, Mapping[ChainEndo, ChainEndo] | None]:
    """Search for a semiring isomorphism between two closed sets.

    Both sets must be closed under + and *; witnesses, when given, are
    their is_subsemiring witnesses, so a caller that has them does not scan
    again.  Candidate bijections must preserve both operations; the search
    prunes by order-theoretic and multiplicative invariants (down-set and
    up-set sizes, idempotency, the square's down-set size).  On chains the
    down-set sizes leave one candidate per element, so the search runs
    straight through without a special case.  Returns the first isomorphism found in lexicographic
    assignment order, or (False, None).
    """
    src, dst = Subset.of(first), Subset.of(second)
    if witnesses is None:
        witnesses = (is_subsemiring(s)[1] for s in (src, dst))
    for name, witness in zip(("first", "second"), witnesses):
        if witness is not None:
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
        square = s.index_of(_pack(np.take_along_axis(V, V, axis=1), s.n))
        idempotent = square == np.arange(size)
        return list(
            zip(down.tolist(), up.tolist(), idempotent.tolist(), down[square].tolist())
        )

    sig_s, sig_t = profile(src), profile(dst)
    if sorted(sig_s) != sorted(sig_t):
        return False, None

    def combined(s, i, others):
        """Keys of x_i + x_k, x_i * x_k and x_k * x_i for k in others, x in s."""
        row = s.values[i : i + 1]
        return np.concatenate(
            (
                _sums(row, s, others)[0],
                _products(row, s, others)[0],
                _products(s.values[others], s, slice(i, i + 1))[:, 0],
            )
        )

    groups: dict[tuple, list[int]] = {}
    for t, sig in enumerate(sig_t):
        groups.setdefault(sig, []).append(t)
    candidates = [groups[sig] for sig in sig_s]  # ascending in the second set
    p = np.zeros(size, dtype=np.intp)  # p[i]: index in the second set of x_i's image
    used = np.zeros(size, dtype=bool)
    cursor = [0] * size  # per level: position in candidates[i] of the next try

    def advance(i: int) -> bool:
        """Give x_i its next unused candidate that agrees with p[:i]."""
        if cursor[i]:  # resumed after backtracking: free the last choice
            used[p[i]] = False
        # results of x_i with each earlier x_j, as member indices (rebuilt on
        # each visit, so no level holds arrays): wherever one is already
        # assigned, its image must be the images' result
        k = src.index_of(combined(src, i, slice(0, i)))
        known = k <= i
        for c in range(cursor[i], len(candidates[i])):
            t = candidates[i][c]
            if used[t]:
                continue
            p[i] = t
            if (dst.keys[p[k[known]]] == combined(dst, t, p[:i])[known]).all():
                cursor[i], used[t] = c + 1, True
                return True
        cursor[i] = 0
        return False

    # depth first in a loop: a set can have more maps than nested calls
    i = 0
    while i >= 0:
        if i < size:
            i += 1 if advance(i) else -1
        elif all(_hom_mismatch(src, dst, p, op) is None for op in (_sums, _products)):
            return True, dict(zip(src.elements, (dst.elements[t] for t in p.tolist())))
        else:
            i -= 1
    return False, None
