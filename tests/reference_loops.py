"""Pure-Python reference versions of the analysis pair loops.

These are the object loops that the numpy table kernel in
``chainendo.analysis`` replaced.  They stay here, unchanged in scan order,
so that property tests can require the kernel to return the same verdicts
and the same lex-first witnesses.
"""

from chainendo.analysis import (
    IdealWitness,
    Identities,
    NotClosed,
    NotSubset,
    TrivialityVerdict,
    canonical,
    is_closed,
)

TRIPLE_LAWS = (
    "associative addition",
    "associative multiplication",
    "left distributivity",
    "right distributivity",
)


def is_ideal(ideal, ambient):
    inner = canonical(ideal)
    outer = canonical(ambient)
    inner_set = set(inner)
    if not inner_set <= set(outer):
        raise NotSubset("candidate ideal is not inside the ambient set")
    for x in inner:
        for y in inner:
            s = x + y
            if s not in inner_set:
                return False, IdealWitness("add", x, y, s)
    for x in inner:
        for r in outer:
            p = r * x
            if p not in inner_set:
                return False, IdealWitness("left-absorb", x, r, p)
            q = x * r
            if q not in inner_set:
                return False, IdealWitness("right-absorb", x, r, q)
    return True, None


def triviality(elements):
    els = canonical(elements)
    closed, witness = is_closed(els, "*")
    if not closed:
        raise NotClosed(f"not multiplicatively closed: {witness}")
    products = {x * y for x in els for y in els}
    if len(products) != 1:
        return TrivialityVerdict(False, None, False, False)
    iota = products.pop()
    is_min = all(iota.pointwise_le(x) for x in els)
    is_max = all(x.pointwise_le(iota) for x in els)
    return TrivialityVerdict(True, iota, is_min, is_max)


def identities(elements):
    els = canonical(elements)
    left = tuple(e for e in els if all(e * x == x for x in els))
    right = tuple(e for e in els if all(x * e == x for x in els))
    return Identities(left, right)


def similar_pairs(elements, side):
    els = canonical(elements)
    pairs = []
    for i, alpha in enumerate(els):
        for beta in els[i + 1 :]:
            if side == "left":
                same = all(g * alpha == g * beta for g in els)
            else:
                same = all(alpha * g == beta * g for g in els)
            if same:
                pairs.append((alpha, beta))
    return tuple(pairs)


def triple_law_scan(els):
    """First (x, y, z, law) breaking a triple law, over ChainEndo objects."""
    for x in els:
        for y in els:
            for z in els:
                checks = (
                    (x + y) + z != x + (y + z),
                    (x * y) * z != x * (y * z),
                    x * (y + z) != x * y + x * z,
                    (x + y) * z != x * z + y * z,
                )
                for law, broken in zip(TRIPLE_LAWS, checks):
                    if broken:
                        return x, y, z, law
    return None


def triple_law_scan_tables(A, M):
    """The same scan over index tables: A[i, j] is i + j, M[i, j] is i * j."""
    size = len(A)
    for x in range(size):
        for y in range(size):
            for z in range(size):
                checks = (
                    A[A[x, y], z] != A[x, A[y, z]],
                    M[M[x, y], z] != M[x, M[y, z]],
                    M[x, A[y, z]] != A[M[x, y], M[x, z]],
                    M[A[x, y], z] != A[M[x, z], M[y, z]],
                )
                for law, broken in zip(TRIPLE_LAWS, checks):
                    if broken:
                        return x, y, z, law
    return None


def first_additive_break(phi, els):
    """First (x, y) with phi[x + y] != phi[x] + phi[y], in lex order."""
    for x in els:
        for y in els:
            if phi[x + y] != phi[x] + phi[y]:
                return x, y
    return None
