"""The trace reader on a small synthetic span tree with known self times."""

import json

import tracereader

# id, parent, name, start_ns, end_ns, run id
SPANS = [
    (1, None, "claims.demo-claim", 0, 1000, "r"),
    (2, 1, "triangle.elements", 100, 400, "r"),
    (3, 2, "simplex.enumerate_simplex", 150, 250, "r"),
    (4, 1, "analysis.closure", 500, 800, "r"),
    (5, None, "analysis.similar_pairs", 2000, 2500, "r"),
    (6, 5, "analysis.closure", 2100, 2200, "r"),
]
HEADER = {
    "calls": {
        "triangle.elements": 1,
        "simplex.enumerate_simplex": 3,
        "analysis.closure": 2,
        "analysis.similar_pairs": 1,
        "analysis.canonical": 4,
    },
    "work": {"analysis.closure_pairs": 600, "core.mul": 7},
    "core_batch": {"mul_ns": 3000.0, "add_ns": 4000.0},
    "traced_wall_s": 2.5,
    "untraced_wall_s": 2.0,
}


def test_self_times_subtract_direct_children_only():
    own = tracereader.self_times(SPANS)
    assert own == {1: 400, 2: 200, 3: 100, 4: 300, 5: 400, 6: 100}


def test_layer_metrics_from_synthetic_tree():
    m = tracereader.metrics(HEADER, SPANS, ["demo-claim", "absent-claim"])
    ns = 1e-9
    assert m["claims.self_s"] == (400 * ns, "s")
    assert m["triangle.self_s"] == (200 * ns, "s")
    assert m["simplex.self_s"] == (100 * ns, "s")
    assert m["analysis.self_s"][0] == 800 * ns
    assert m["analysis.closure_s"][0] == 400 * ns
    assert m["analysis.similar_pairs_s"][0] == 400 * ns
    assert m["analysis.pairloop_s"][0] == 400 * ns
    assert m["analysis.closure_pairs_per_s"][0] == 600 / (400 * ns)
    assert m["claims.demo-claim.s"] == (1000 * ns, "s")  # whole claim, not self
    assert m["claims.absent-claim.s"] == (0, "s")
    assert m["analysis.calls"] == (7, "count")
    assert m["simplex.enumerate_calls"] == (3, "count")
    assert m["core.mul_calls"] == (7, "count")
    assert m["core.add_calls"] == (0, "count")
    assert m["trace.overhead_s"] == (0.5, "s")
    assert m["trace.spans"] == (6, "count")


def test_read_round_trip(tmp_path):
    path = tmp_path / "spans.jsonl"
    with open(path, "w") as out:
        out.write(json.dumps(HEADER) + "\n")
        for span in SPANS:
            out.write(json.dumps(list(span)) + "\n")
    header, spans = tracereader.read(path)
    assert header == HEADER
    assert spans == SPANS
