"""The tracer wraps every binding, counts at the boundaries, and undoes itself."""

import tracing
import tracereader
from chainendo import analysis, claims, core, counting, simplex, strings, triangle


def test_every_binding_is_wrapped_and_restored():
    before = (
        counting.all_endomorphisms,
        claims.all_endomorphisms,
        triangle.enumerate_simplex,
        strings.enumerate_simplex,
        analysis._closure_scan,
        core.ChainEndo.__mul__,
        dict(counting.FORMULAS),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.uncovered() == []
        assert counting.all_endomorphisms is claims.all_endomorphisms
        assert counting.all_endomorphisms is not before[0]
        assert triangle.enumerate_simplex is strings.enumerate_simplex is simplex.enumerate_simplex
    finally:
        tracer.uninstall()
    after = (
        counting.all_endomorphisms,
        claims.all_endomorphisms,
        triangle.enumerate_simplex,
        strings.enumerate_simplex,
        analysis._closure_scan,
        core.ChainEndo.__mul__,
        dict(counting.FORMULAS),
    )
    assert after == before


def test_counts_and_spans_on_small_calls():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counting.audit(4)
        spec = triangle.TriangleSpec(4, 0, 1, 3)
        triangle.find_similar_pairs(spec, "left")
    finally:
        tracer.uninstall()
    header = {
        "calls": dict(tracer.calls),
        "work": dict(tracer.work),
        "core_batch": {"mul_ns": 1.0, "add_ns": 1.0},
        "traced_wall_s": 1.0,
        "untraced_wall_s": 1.0,
    }
    spans = [(*s, "r") for s in tracer.spans]
    m = tracereader.metrics(header, spans, [])
    size = len(triangle.elements(spec))
    assert m["counting.tuples"][0] == sum(f.checked for f in counting.audit(4).results)
    assert m["core.enum_maps"][0] > 0 and m["core.mul_calls"][0] > 0
    assert m["triangle.elements_calls"][0] >= 1
    assert m["analysis.similar_pairs_work"][0] == size**3
    assert m["counting.oracle_s"][0] > 0
    # every span's parent was recorded before it ended, and ids are unique
    ids = [s[0] for s in tracer.spans]
    assert len(ids) == len(set(ids))
    assert {s[1] for s in tracer.spans} - {None} <= set(ids)
