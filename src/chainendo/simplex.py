"""Simplices inside the chain endomorphism semiring.

Fixing a set A of k chain values, the maps whose image lies inside A form a
subsemiring of order C(n + k - 1, k - 1), here called the k-simplex on A.
Its vertices are the k constant maps, its faces are the simplices on the
subsets of A, and its interior consists of the maps hitting every value of
A.  Grouping elements by how often they take one fixed vertex value slices
the simplex into layers; a vertex together with the layers of highest
multiplicity forms its discrete neighborhood, the radius-t ball around the
constant map in the layer metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from . import analysis
from .core import ChainEndo, OutOfRange, _require_ints


@dataclass(frozen=True)
class SimplexSpec:
    """A chain size n and a nonempty vertex set inside 0..n-1."""

    n: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        _require_ints((self.n, *self.vertices))
        vertices = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", vertices)
        if self.n < 1:
            raise OutOfRange(f"chain size must be >= 1, got {self.n}")
        if not vertices:
            raise ValueError("vertex set must be nonempty")
        if vertices[0] < 0 or vertices[-1] >= self.n:
            raise OutOfRange(
                f"vertices {vertices} outside the chain 0..{self.n - 1}"
            )

    @property
    def k(self) -> int:
        """Number of vertices; the simplex has order C(n + k - 1, k - 1)."""
        return len(self.vertices)

    def vertex_constants(self) -> analysis.Subset:
        return analysis.Subset.from_values(self.n, [[v] * self.n for v in self.vertices])


class _Pattern:
    """P, combinations_with_replacement(range(k), n) as a read-only int8
    matrix, lex ordered as V[P] is for any sorted vertex tuple V; and M, built
    on first read, the read-only (N, k) count of each index in each row of P
    (a member's barycentric coordinates), in the least unsigned type for n."""

    def __init__(self, n: int, k: int):
        self.k = k
        flat = bytes(chain.from_iterable(combinations_with_replacement(range(k), n)))
        self.P = np.frombuffer(flat, dtype=np.int8).reshape(-1, n)

    @cached_property
    def M(self) -> np.ndarray:
        (N, n), k = self.P.shape, self.k
        cells = self.P + np.arange(0, N * k, k)[:, None]  # row i, index j -> i * k + j
        M = np.bincount(cells.ravel(), minlength=N * k).astype(np.min_scalar_type(n))
        M.flags.writeable = False
        return M.reshape(N, k)


@lru_cache(maxsize=1)
def _pattern(n: int, k: int) -> _Pattern:
    """The pattern of the last (n, k) asked for: a sweep holds one at a time."""
    return _Pattern(n, k)


def enumerate_simplex(spec: SimplexSpec, select=None) -> analysis.Subset:
    """All maps with image inside the vertex set, in lexicographic order, or
    those whose row of the multiplicity matrix M the boolean row mask
    select(M) keeps.

    One gather of the vertex values by the (n, k) pattern, or by the pattern
    rows that select keeps, fills the value matrix; no ChainEndo is built
    until the set is read as objects.  A set larger than the full simplex
    at MAX_CHAIN, which no check could index, is refused before anything is
    allocated.
    """
    n, size = spec.n, comb(spec.n + spec.k - 1, spec.n)
    top = analysis.MAX_CHAIN
    if size > comb(2 * top - 1, top):
        raise analysis.SetTooLarge(
            f"a simplex on {spec.k} vertices over a chain of {n} has {size} maps, beyond "
            f"the {comb(2 * top - 1, top)} of the full simplex at n = {top}, the largest set "
            "the checks index"
        )
    pattern = _pattern(n, spec.k)
    P = pattern.P if select is None else pattern.P[select(pattern.M)]
    # np.take by the int8 pattern beats fancy indexing, which casts the
    # pattern in a buffered loop; the vertices are in the least type that
    # holds n - 1, and from_values widens the result to int64 once
    vertices = np.asarray(spec.vertices, dtype=np.min_scalar_type(n - 1))
    return analysis.Subset.from_values(n, np.take(vertices, P))


def interior(spec: SimplexSpec) -> analysis.Subset:
    """Elements whose image is the whole vertex set."""
    return enumerate_simplex(spec, lambda M: (M > 0).all(axis=1))


def boundary(spec: SimplexSpec) -> analysis.Subset:
    """Elements missing at least one vertex value."""
    return enumerate_simplex(spec, lambda M: (M == 0).any(axis=1))


def face(spec: SimplexSpec, vertices) -> SimplexSpec:
    """The sub-simplex on a nonempty subset of the vertices."""
    sub = tuple(sorted(set(vertices)))
    if not set(sub) <= set(spec.vertices):
        raise OutOfRange(f"{sub} is not a subset of {spec.vertices}")
    return SimplexSpec(spec.n, sub)


def is_internal(spec: SimplexSpec) -> bool:
    """Neither chain endpoint is a vertex."""
    return 0 not in spec.vertices and (spec.n - 1) not in spec.vertices


def _check_vertex_index(spec: SimplexSpec, m: int) -> None:
    _require_ints((m,))
    if not 0 <= m < spec.k:
        raise OutOfRange(f"vertex index {m} outside 0..{spec.k - 1}")


@dataclass(frozen=True)
class LayerId:
    """Layer s of vertex index m: the value vertices[m] occurs s times."""

    spec: SimplexSpec
    m: int
    s: int

    def __post_init__(self):
        _check_vertex_index(self.spec, self.m)
        _require_ints((self.s,))
        if not 0 <= self.s <= self.spec.n:
            raise OutOfRange(f"layer index {self.s} outside 0..{self.spec.n}")


def layer(layer_id: LayerId) -> analysis.Subset:
    """Elements taking the chosen vertex value exactly s times."""
    return enumerate_simplex(layer_id.spec, lambda M: M[:, layer_id.m] == layer_id.s)


def layers(spec: SimplexSpec, m: int) -> tuple[analysis.Subset, ...]:
    """All layers of one vertex, s = 0 first; they partition the simplex."""
    return tuple(layer(LayerId(spec, m, s)) for s in range(spec.n + 1))


def discrete_neighborhood(spec: SimplexSpec, m: int, t: int) -> analysis.Subset:
    """The vertex constant (layer n) plus the t layers n - t .. n - 1 below it."""
    _require_ints((t,))
    if not 1 <= t <= spec.n:
        raise OutOfRange(f"radius {t} outside 1..{spec.n}")
    _check_vertex_index(spec, m)
    return enumerate_simplex(spec, lambda M: M[:, m] >= spec.n - t)


@dataclass(frozen=True)
class RadiusScan:
    """Subsemiring verdicts for every neighborhood radius of one vertex.

    closed[t - 1] says whether the radius-t neighborhood is a subsemiring.
    least is the smallest radius that is one (the full simplex at t = n
    guarantees existence).  semiring_prefix is the largest t with all radii
    1..t closed, so it equals n exactly when no radius fails.
    """

    spec: SimplexSpec
    m: int
    closed: tuple[bool, ...]

    @property
    def least(self) -> int:
        return self.closed.index(True) + 1

    @property
    def semiring_prefix(self) -> int:
        return (*self.closed, False).index(False)


def min_semiring_radius(spec: SimplexSpec, m: int) -> RadiusScan:
    """Scan every neighborhood radius of one vertex for closure."""
    hoods = (discrete_neighborhood(spec, m, t) for t in range(1, spec.n + 1))
    return RadiusScan(spec, m, tuple(analysis.is_subsemiring(h)[0] for h in hoods))


def _shown(row: list[int]) -> str:
    """A row in compact form when it is a map of its chain, else as a list."""
    if row and row == sorted(row) and 0 <= row[0] and row[-1] < len(row):
        return str(ChainEndo._wrap(len(row), tuple(row)))
    return str(row)


def nilpotent_rows(spec: SimplexSpec, rows) -> np.ndarray:
    """The criterion of nilpotent_in_neighborhood for every row of an (N, n)
    value matrix of members that fix the least vertex a0, as a boolean array.

    A row passes when it is constantly a0 up to the second vertex a1 and
    drops strictly below the diagonal after a1; with one vertex, only the
    constant a0 passes.  The first row that is no member of the simplex, or
    does not fix a0, raises ValueError, and rows not of an integer type
    raise OutOfRange.
    """
    V = np.asarray(rows)
    if V.dtype.kind not in "iu":  # a float or bool row would be truncated
        raise OutOfRange(f"rows of type {V.dtype} are not integer values")
    if V.ndim != 2:
        raise ValueError(f"expected an (N, {spec.n}) value matrix, got shape {V.shape}")
    a0 = spec.vertices[0]
    if V.shape[1] == spec.n:
        member = np.isin(V, spec.vertices).all(axis=1) & (V[:, 1:] >= V[:, :-1]).all(axis=1)
        fixing = V[:, a0] == a0
    else:
        member = fixing = np.zeros(len(V), dtype=bool)
    if not (member & fixing).all():
        i = int((~(member & fixing)).argmax())
        alpha = _shown(V[i].tolist())
        if not member[i]:
            raise ValueError(f"{alpha} is not a member of the simplex {spec}")
        raise ValueError(f"{alpha} does not fix the least vertex {a0}")
    if spec.k == 1:
        return (V == a0).all(axis=1)
    a1 = spec.vertices[1]
    low = (V[:, : a1 + 1] == a0).all(axis=1)
    return low & (V[:, a1 + 1 :] < np.arange(a1 + 1, spec.n)).all(axis=1)


def nilpotent_in_neighborhood(spec: SimplexSpec, alpha: ChainEndo) -> bool:
    """Pointwise-descent test inside the least vertex's fixing neighborhood.

    The neighborhood in question consists of the simplex members fixing the
    least vertex a0.  A member passes when it is constantly a0 up to the
    second vertex a1 and drops strictly below the diagonal after a1; passing
    forces some power to collapse onto the constant a0.  This is the
    one-row case of nilpotent_rows.
    """
    return bool(nilpotent_rows(spec, [alpha.values])[0])
