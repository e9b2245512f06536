"""Seeds permute items without changing them; digests are keyed by item."""

import json
from pathlib import Path

import pytest

import workloads

REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_permutes_the_same_items(name):
    w = workloads.WORKLOADS[name]
    first, second, canonical = w.prepare(1), w.prepare(2), w.prepare(None)
    assert w.prepare(1) == first  # same seed, same order
    if name == "radius":
        first, second, canonical = first[1], second[1], canonical[1]
    assert sorted(map(repr, first)) == sorted(map(repr, second)) == sorted(map(repr, canonical))
    assert first != second


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_matches_workload_parameters(name):
    w = workloads.WORKLOADS[name]
    assert REFERENCE[name]["params"] == json.loads(json.dumps(w.params))


def test_verdict_text_is_canonical():
    from chainendo.core import ChainEndo

    e = ChainEndo(4, (0, 0, 2, 3))
    assert workloads.render({"b": e, "a": (1, None)}) == '{"a":[1,null],"b":"0_2 2 3"}'


def test_compare_flags_missing_and_changed_items():
    ref = {"x": workloads.digest("ok"), "y": workloads.digest("ok"), "z": workloads.digest("ok")}
    assert workloads.compare({"x": "ok", "y": "changed", "extra": "ok"}, ref) == ["y", "z"]
