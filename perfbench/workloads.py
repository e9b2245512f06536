"""The four benchmark workloads and the verdict digests that gate them.

Every workload is exhaustive, so the program never receives random input.
The seed only permutes the order in which a workload's items run; each
verdict is keyed by its item, so digests compare across seeds and any
dependence on order shows as a mismatch.

A workload has three steps, plus ``busy``: the per-layer counts that must
not be 0 in its traced run, because the workload works in those layers.

* ``prepare(seed)`` builds the inputs; the benchmark times it as set-up.
* ``execute(inputs)`` is the timed pass.  It calls chainendo's public
  functions and returns one raw result per item (or the exception it
  raised), in run order.
* ``verdicts(raw)`` renders each raw result as canonical text: the verdict,
  the checked count, the failure parameters and the witness in compact
  notation, never an elapsed time.  It runs outside the timed pass.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
from contextlib import contextmanager

from chainendo import analysis, claims, counting, simplex
from chainendo.core import ChainEndo, format_compact

# Sizes are chosen so that one pass takes a few seconds on a 2-core
# machine, which leaves room for several passes in one measured run.
SWEEP_N_MAX = 6
AUDIT_N_MAX = 7
CLOSURE_N = 8
RADIUS_N = 8
RADIUS_VERTICES = (1, 4, 6)  # first, middle and last inner vertex
RADIUS_RADII = tuple(range(3, RADIUS_N))


def plain(obj):
    """JSON-ready form of a verdict object; maps print in compact notation."""
    if isinstance(obj, ChainEndo):
        return format_compact(obj)
    if isinstance(obj, enum.Enum):
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(plain(k)): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(x) for x in obj), key=repr)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def render(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shuffled(items, seed):
    """Items in seed order; seed None keeps the canonical order."""
    items = list(items)
    if seed is not None:
        random.Random(seed).shuffle(items)
    return items


def _error(err: BaseException) -> str:
    return render({"error": repr(err)})


class Sweep:
    """``claims.run_all`` over the whole registry, in one process."""

    name = "sweep"
    params = {"n_max": SWEEP_N_MAX, "jobs": 1}
    busy = (
        "core.mul_calls",
        "core.add_calls",
        "core.enum_maps",
        "simplex.enumerate_calls",
        "simplex.neighborhood_calls",
        "strings.calls",
        "triangle.elements_calls",
        "analysis.closure_calls",
        "analysis.pairloop_calls",
        "claims.checked",
    )

    def prepare(self, seed):
        return _shuffled(claims.REGISTRY, seed)

    def execute(self, ids):
        try:
            results = claims.run_all(SWEEP_N_MAX, jobs=1, ids=ids)
        except Exception as err:  # a crash fails every item of the pass
            return {claim_id: err for claim_id in ids}
        return {r.claim_id: r for r in results}

    def verdicts(self, raw):
        out = {}
        for claim_id, r in raw.items():
            if isinstance(r, BaseException):
                out[claim_id] = _error(r)
            else:
                out[claim_id] = render(
                    {
                        "holds": r.holds,
                        "checked": r.checked,
                        "failure_params": r.failure_params,
                        "witness": r.witness,
                    }
                )
        return out


@contextmanager
def _formula_order(order):
    """Run ``counting.audit`` over the formulas in the given order.

    audit() walks ``counting.FORMULAS`` in insertion order and takes no
    order argument, so the registry is re-inserted for the pass and put
    back afterwards.
    """
    saved = dict(counting.FORMULAS)
    counting.FORMULAS.clear()
    counting.FORMULAS.update((fid, saved[fid]) for fid in order if fid in saved)
    counting.FORMULAS.update(saved)  # formulas unknown to the order run last
    try:
        yield
    finally:
        counting.FORMULAS.clear()
        counting.FORMULAS.update(saved)


class Audit:
    """``counting.audit``: every formula against its enumeration oracle."""

    name = "audit"
    params = {"n_max": AUDIT_N_MAX}
    busy = ("core.mul_calls", "core.enum_maps", "counting.tuples", "triangle.elements_calls")

    def prepare(self, seed):
        return _shuffled(counting.FORMULAS, seed)

    def execute(self, order):
        try:
            with _formula_order(order):
                report = counting.audit(AUDIT_N_MAX)
        except Exception as err:
            return {fid: err for fid in order}
        return {r.id: r for r in report.results}

    def verdicts(self, raw):
        out = {}
        for fid, r in raw.items():
            if isinstance(r, BaseException):
                out[fid] = _error(r)
            else:
                out[fid] = render(
                    {"ok": r.ok, "checked": r.checked, "first_mismatch": r.first_mismatch}
                )
        return out


def _spec_key(spec) -> str:
    return f"n={spec.n} v={','.join(map(str, spec.vertices))}"


def _set_verdicts(raw):
    """Closure verdicts of (size, closed, witness) results, or errors."""
    out = {}
    for key, r in raw.items():
        if isinstance(r, BaseException):
            out[key] = _error(r)
        else:
            size, ok, witness = r
            out[key] = render({"size": size, "closed": ok, "witness": witness})
    return out


class Closure:
    """``is_subsemiring`` on large closed sets, so every pair is scanned.

    The full simplex at n = 8 sets peak memory; the full simplex at n = 7
    and its seven 6-vertex faces vary the set size.  Each set is
    enumerated inside the pass, as a user would.
    """

    name = "closure"
    params = {"n": CLOSURE_N}
    busy = ("simplex.enumerate_calls", "analysis.closure_calls")

    def specs(self):
        small = CLOSURE_N - 1
        full_small = tuple(range(small))
        faces = [
            tuple(v for v in full_small if v != drop) for drop in full_small
        ]
        return [
            simplex.SimplexSpec(CLOSURE_N, tuple(range(CLOSURE_N))),
            simplex.SimplexSpec(small, full_small),
            *(simplex.SimplexSpec(small, f) for f in faces),
        ]

    def prepare(self, seed):
        return _shuffled(self.specs(), seed)

    def execute(self, specs):
        raw = {}
        for spec in specs:
            try:
                els = simplex.enumerate_simplex(spec)
                ok, witness = analysis.is_subsemiring(els)
                raw[_spec_key(spec)] = (len(els), ok, witness)
            except Exception as err:
                raw[_spec_key(spec)] = err
        return raw

    def verdicts(self, raw):
        return _set_verdicts(raw)


class Radius:
    """The non-trivial part of ``min_semiring_radius`` on the full simplex.

    For a few vertices and the radii 3..n-1 it builds the discrete
    neighborhood and tests closure; most of these sets escape early with a
    lex-first witness, so building the neighborhoods dominates.
    """

    name = "radius"
    params = {"n": RADIUS_N, "vertices": RADIUS_VERTICES, "radii": RADIUS_RADII}
    busy = ("simplex.neighborhood_calls", "simplex.enumerate_calls", "analysis.closure_calls")

    def prepare(self, seed):
        spec = simplex.SimplexSpec(RADIUS_N, tuple(range(RADIUS_N)))
        pairs = [(m, t) for m in RADIUS_VERTICES for t in RADIUS_RADII]
        return spec, _shuffled(pairs, seed)

    def execute(self, inputs):
        spec, pairs = inputs
        raw = {}
        for m, t in pairs:
            key = f"n={spec.n} m={m} t={t}"
            try:
                hood = simplex.discrete_neighborhood(spec, m, t)
                ok, witness = analysis.is_subsemiring(hood)
                raw[key] = (len(hood), ok, witness)
            except Exception as err:
                raw[key] = err
        return raw

    def verdicts(self, raw):
        return _set_verdicts(raw)


WORKLOADS = {w.name: w for w in (Sweep(), Audit(), Closure(), Radius())}


def compare(verdicts: dict, reference: dict) -> list[str]:
    """Keys of the reference items whose verdict is missing or differs."""
    return [
        key
        for key, want in reference.items()
        if key not in verdicts or digest(verdicts[key]) != want
    ]
