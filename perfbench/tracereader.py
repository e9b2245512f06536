"""Per-layer metrics from a span file written by ``tracing.Tracer.write``.

A span's self time is its duration minus the time its direct child spans
cover.  A layer's time is the self time of its spans; time in ``core``
(which only counts) lands in the layer that called it.  The named kernel
times (closure scan, pair loops, oracles, formulas) are self times too.
``claims.<id>.s`` is the one exception: it is the whole time of that claim,
like the ``elapsed`` a user sees.

Which end-to-end metric each group should move, and on which workload
(an optimisation of that layer should leave the other workloads alone):

* ``core.*`` (``+``/``*`` counts and cost, maps enumerated): ``wall_s`` on
  audit, then sweep; nothing on closure.
* ``simplex.*`` (enumerations, elements, neighborhoods): ``wall_s`` on
  radius and sweep; nothing on closure or audit.
* ``strings.*``, ``triangle.*``: ``wall_s`` on sweep.
* ``analysis.closure_*``: ``wall_s`` and ``peak_rss_mb`` on closure;
  nothing on radius, where most sets escape at once.
* ``analysis.pairloop_*``, ``similar_pairs_*``, ``iso_check_s``:
  ``wall_s`` on sweep.
* ``counting.*``: ``wall_s`` on audit.
* ``claims.*``: ``wall_s`` on sweep.
"""

from __future__ import annotations

import json
from collections import defaultdict

SPAN_LAYERS = ("simplex", "strings", "triangle", "analysis", "counting", "claims")
PAIR_LOOPS = ("is_ideal", "identities", "similar_pairs", "triviality", "iso_check")
NS = 1e-9


def read(path):
    """(header, spans); a span is (id, parent, name, start_ns, end_ns, run_id)."""
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [tuple(json.loads(line)) for line in f if line.strip()]
    return header, spans


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def metrics(header: dict, spans, claim_ids) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    own = self_times(spans)
    self_ns = defaultdict(int)  # by layer and by span name
    total_ns = defaultdict(int)
    for sid, _parent, name, start, end, *_ in spans:
        self_ns[layer_of(name)] += own[sid]
        self_ns[name] += own[sid]
        total_ns[name] += end - start
    calls = defaultdict(int, header.get("calls", {}))
    work = defaultdict(int, header.get("work", {}))
    layer_calls = defaultdict(int)
    for name, count in calls.items():
        layer_calls[layer_of(name)] += count

    def secs(ns):
        return ns * NS

    closure_s = secs(self_ns["analysis.closure"])
    out = {
        "core.mul_calls": (work["core.mul"], "count"),
        "core.add_calls": (work["core.add"], "count"),
        "core.enum_maps": (work["core.enum_maps"], "count"),
        "core.mul_ns": (header["core_batch"]["mul_ns"], "ns"),
        "core.add_ns": (header["core_batch"]["add_ns"], "ns"),
        "simplex.enumerate_calls": (calls["simplex.enumerate_simplex"], "count"),
        "simplex.enumerate_elems": (work["simplex.enumerate_elems"], "count"),
        "simplex.neighborhood_calls": (calls["simplex.discrete_neighborhood"], "count"),
        "triangle.elements_calls": (calls["triangle.elements"], "count"),
        "analysis.closure_calls": (calls["analysis.closure"], "count"),
        "analysis.closure_elems": (work["analysis.closure_elems"], "count"),
        "analysis.closure_pairs": (work["analysis.closure_pairs"], "count"),
        "analysis.closure_s": (closure_s, "s"),
        "analysis.closure_pairs_per_s": (
            work["analysis.closure_pairs"] / closure_s if closure_s else 0.0,
            "1/s",
        ),
        "analysis.pairloop_calls": (
            sum(calls[f"analysis.{p}"] for p in PAIR_LOOPS),
            "count",
        ),
        "analysis.pairloop_s": (
            secs(sum(self_ns[f"analysis.{p}"] for p in PAIR_LOOPS)),
            "s",
        ),
        "analysis.similar_pairs_s": (secs(self_ns["analysis.similar_pairs"]), "s"),
        "analysis.similar_pairs_work": (work["analysis.similar_pairs_work"], "count"),
        "analysis.iso_check_s": (secs(self_ns["analysis.iso_check"]), "s"),
        "counting.tuples": (calls["counting.oracle"], "count"),
        "counting.oracle_s": (secs(self_ns["counting.oracle"]), "s"),
        "counting.formula_s": (secs(self_ns["counting.formula"]), "s"),
        "claims.checked": (work["claims.checked"], "count"),
    }
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = (layer_calls[layer], "count")
        out[f"{layer}.self_s"] = (secs(self_ns[layer]), "s")
    for claim_id in claim_ids:
        out[f"claims.{claim_id}.s"] = (secs(total_ns[f"claims.{claim_id}"]), "s")
    traced = header["traced_wall_s"]
    untraced = header["untraced_wall_s"]
    out["trace.wall_s"] = (traced, "s")
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.spans"] = (len(spans), "count")
    return out
