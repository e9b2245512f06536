"""Pure-Python reference versions of the analysis pair loops.

These are the object loops that the numpy table kernel in
``chainendo.analysis`` replaced.  They stay here, unchanged in scan order,
so that property tests can require the kernel to return the same verdicts
and the same lex-first witnesses.
"""

from operator import add, mul

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


def closure_scan(elements, ops):
    """First (i, j, op, result) whose result leaves the set, pairs in lex order.

    Within one pair the ops are tried in the order given.
    """
    els = canonical(elements)
    members = set(els)
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            for op in ops:
                result = x + y if op == "+" else x * y
                if result not in members:
                    return i, j, op, result
    return None


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


def first_hom_break(phi, els, op):
    """First (x, y) with phi[op(x, y)] != op(phi[x], phi[y]), in lex order.

    A result outside els, which phi does not map, breaks too.
    """
    for x in els:
        for y in els:
            if phi.get(op(x, y)) != op(phi[x], phi[y]):
                return x, y
    return None


def _iso_profile(els):
    """Per element: down-set size, up-set size, idempotency, down-set size of its square."""

    def down(x):
        return sum(y.pointwise_le(x) for y in els)

    return [
        (down(x), sum(x.pointwise_le(y) for y in els), x * x == x, down(x * x))
        for x in els
    ]


def iso_check(first, second):
    """The object backtracking search for an isomorphism, in the kernel's order.

    Candidates for S[i] are the members of T with S[i]'s profile, in
    ascending order; both chains take the order-matching bijection at once.
    """
    S, T = canonical(first), canonical(second)
    for name, els in (("first", S), ("second", T)):
        if closure_scan(els, ("+", "*")) is not None:
            raise NotClosed(f"{name} set is not a subsemiring")
    if len(S) != len(T):
        return False, None
    size = len(S)
    sig_s, sig_t = _iso_profile(S), _iso_profile(T)
    if sorted(sig_s) != sorted(sig_t):
        return False, None
    index_s = {e: i for i, e in enumerate(S)}

    def verify(assign):
        phi = dict(zip(S, assign))
        return all(
            phi[x + y] == phi[x] + phi[y] and phi[x * y] == phi[x] * phi[y]
            for x in S
            for y in S
        )

    if sorted(d for d, _, _, _ in sig_s) == list(range(1, size + 1)):
        assign = list(T)
        return (True, dict(zip(S, assign))) if verify(assign) else (False, None)

    candidates = [[t for k, t in enumerate(T) if sig_t[k] == sig_s[i]] for i in range(size)]
    assign = [None] * size
    used = set()

    def consistent(i):
        return all(
            (k := index_s[op(S[a], S[b])]) > i or assign[k] == op(assign[a], assign[b])
            for j in range(i)
            for a, b, op in ((i, j, add), (i, j, mul), (j, i, mul))
        )

    def backtrack(i):
        if i == size:
            return verify(assign)
        for t in candidates[i]:
            if t in used:
                continue
            assign[i] = t
            used.add(t)
            if consistent(i) and backtrack(i + 1):
                return True
            used.discard(t)
            assign[i] = None
        return False

    if backtrack(0):
        return True, dict(zip(S, assign))
    return False, None
