"""Span and count recording around chainendo's public functions.

The tracer patches every binding of each layer's public functions, not just
the defining module: ``counting`` and ``claims`` import
``all_endomorphisms`` by name, and ``strings`` and ``triangle`` import
``enumerate_simplex`` by name, so a wrapper on the defining module alone
would miss those calls.  ``uncovered()`` lists any binding still pointing at
an unwrapped function, and the traced run fails when it is not empty.

A wrapped call opens a span when it crosses into another layer, or when the
function is one of the named kernels whose own time is reported.  Calls
inside the same layer only count, so the layer's self time is unchanged and
the span list stays small.  ``ChainEndo.__add__``/``__mul__`` and the maps
yielded by ``all_endomorphisms`` only count, to limit the overhead.

Spans are kept in memory as (id, parent, name, start_ns, end_ns) and written
out by ``write`` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import sys
from collections import Counter
from time import perf_counter_ns

from chainendo import analysis, claims, core, counting, simplex, strings, triangle
from tracereader import PAIR_LOOPS

# Kernels always open a span, even when called from their own layer.
KERNELS = {"analysis.closure", "claims.run_claim", "counting.oracle", "counting.formula"}
KERNELS.update(f"analysis.{name}" for name in PAIR_LOOPS)


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with _."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "chainendo" or name.startswith("chainendo."))
    ]


def _bound_values(module):
    """(where, value) for module attributes and one level of containers."""
    for name, value in vars(module).items():
        where = f"{module.__name__}.{name}"
        yield where, value
        items = ()
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, (list, tuple)):
            items = enumerate(value)
        for key, item in items:
            yield f"{where}[{key!r}]", item
            if dataclasses.is_dataclass(item) and not isinstance(item, type):
                for f in dataclasses.fields(item):
                    yield f"{where}[{key!r}].{f.name}", getattr(item, f.name)


class Tracer:
    """Install wrappers, record spans and counts, and remove the wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()  # calls per wrapped function
        self.work: Counter = Counter()  # work counts measured at the wrappers
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._undo: list = []
        self._originals: dict[int, object] = {}
        self._formula_wrappers: set[int] = set()

    # --- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name, before=None, after=None, span_name=None):
        layer = name.split(".", 1)[0]
        always = name in KERNELS
        calls, stack, spans, ids = self.calls, self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                args = before(args)
            if not always and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = next(ids)
                parent = stack[-1][0] if stack else None
                stack.append((sid, layer))
                label = name if span_name is None else span_name(args, kwargs)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    spans.append((sid, parent, label, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _closure_done(self, args, hit):
        els, ops = args
        size = len(els)
        rows = size if hit is None else hit[0] + 1
        self.work["analysis.closure_elems"] += size
        self.work["analysis.closure_pairs"] += rows * size * len(ops)

    def _similar_input(self, args):
        elements, *rest = args
        if not isinstance(elements, (tuple, analysis.Subset)):
            elements = tuple(elements)
        size = len(set(elements))
        self.work["analysis.similar_pairs_work"] += size**3
        return (elements, *rest)

    def _enumerated(self, args, result):
        self.work["simplex.enumerate_elems"] += len(result)

    def _claim_done(self, args, result):
        self.work["claims.checked"] += result.checked

    def _wrappers(self):
        """Map id(original) -> (original, wrapper) for module-level functions."""
        special = {
            "simplex.enumerate_simplex": {"after": self._enumerated},
            "analysis.similar_pairs": {"before": self._similar_input},
            "claims.run_claim": {
                "after": self._claim_done,
                "span_name": lambda a, k: "claims." + (a[0] if a else k["claim_id"]),
            },
        }
        wrappers = {}
        for module in (simplex, strings, triangle, analysis, counting, claims):
            layer = module.__name__.rsplit(".", 1)[1]
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                wrappers[id(fn)] = (fn, self._span_wrapper(fn, name, **special.get(name, {})))
        scan = analysis._closure_scan
        wrappers[id(scan)] = (
            scan,
            self._span_wrapper(scan, "analysis.closure", after=self._closure_done),
        )
        enum = core.all_endomorphisms
        work = self.work

        @functools.wraps(enum)
        def all_endomorphisms(n):
            for e in enum(n):
                work["core.enum_maps"] += 1
                yield e

        wrappers[id(enum)] = (enum, all_endomorphisms)
        return wrappers

    # --- install / remove -----------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        wrappers = self._wrappers()
        self._originals = {key: fn for key, (fn, _) in wrappers.items()}
        for module in _package_modules():
            for owner in (vars(module), *(v for v in vars(module).values() if isinstance(v, dict))):
                for key, value in list(owner.items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._set(owner, key, wrappers[id(value)][1])
        # The registry holds its own references to the formula and oracle
        # callables, so its entries are wrapped too.
        for fid, formula in list(counting.FORMULAS.items()):
            evaluate = self._span_wrapper(formula.evaluate, "counting.formula")
            oracle = self._span_wrapper(formula.oracle, "counting.oracle")
            self._formula_wrappers.update((id(evaluate), id(oracle)))
            self._set(
                counting.FORMULAS,
                fid,
                dataclasses.replace(formula, evaluate=evaluate, oracle=oracle),
            )
        work = self.work
        for op, key in (("__mul__", "core.mul"), ("__add__", "core.add")):
            original = getattr(core.ChainEndo, op)

            def counted(a, b, _op=original, _key=key):
                work[_key] += 1
                return _op(a, b)

            self._originals[id(original)] = original
            self._set(core.ChainEndo, op, functools.wraps(original)(counted))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value), self) is value

    def uncovered(self) -> list[str]:
        """Bindings that still reach an unwrapped function."""
        missed = [
            where
            for module in _package_modules()
            for where, value in _bound_values(module)
            if self._is_original(value)
        ]
        for fid, formula in counting.FORMULAS.items():
            for field in ("evaluate", "oracle"):
                if id(getattr(formula, field)) not in self._formula_wrappers:
                    missed.append(f"chainendo.counting.FORMULAS[{fid!r}].{field}")
        for op in ("__mul__", "__add__"):
            if self._is_original(getattr(core.ChainEndo, op)):
                missed.append(f"ChainEndo.{op}")
        return missed

    # --- output ----------------------------------------------------------

    def write(self, path, run_id: str, header: dict) -> None:
        """One JSON header line, then one span per line."""
        with open(path, "w") as out:
            head = dict(header, run_id=run_id, calls=dict(self.calls), work=dict(self.work))
            out.write(json.dumps(head, sort_keys=True) + "\n")
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps([sid, parent, name, start, end, run_id]) + "\n")
