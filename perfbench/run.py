#!/usr/bin/env python3
"""Benchmark of chainendo, the exhaustive checker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

A single process with one caller runs the workload's passes back to back
(a closed loop, no parallel jobs) until ``--seconds`` is used up, checks
every verdict against ``perfbench/reference.json``, and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
instead and prints the per-layer metrics.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every verdict matched.

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import os

# Pinned before numpy loads, so that one process measures the program and
# not the scheduler.  Child processes inherit the setting.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7  # fresh processes timed for setup_s
CORE_BATCH = 100_000  # products and sums timed for core.mul_ns / core.add_ns
PROBE_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import chainendo from this checkout's src/, or exit with code 2."""
    package = SRC / "chainendo"
    if not (package / "__init__.py").is_file():
        fail(f"no chainendo sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import chainendo

    if Path(chainendo.__file__).resolve().parent != package.resolve():
        fail(f"chainendo imported from {chainendo.__file__}, not from {package}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "asserts": __debug__,
        "commit": git_commit(),
        "seed": seed,
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time the import plus the inputs, print seconds."""
    start = perf_counter()
    load_program()
    import workloads

    workloads.WORKLOADS[workload].prepare(seed)
    print(repr(perf_counter() - start))


def setup_times(workload: str, seed: int) -> list[float]:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Items attempted and failed against the reference digests."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, verdicts: dict, label: str) -> None:
        import workloads

        bad = workloads.compare(verdicts, self.reference)
        self.attempted += len(self.reference)
        self.failed += len(bad)
        for key in bad:
            print(f"perfbench: {label}: {key}: {verdicts.get(key, '<missing>')}", file=sys.stderr)


def timed_pass(workload, inputs):
    start = perf_counter()
    raw = workload.execute(inputs)
    wall = perf_counter() - start
    return wall, workload.verdicts(raw)


def measure(workload, inputs, seconds: float, tally: Tally) -> list[float]:
    """Passes back to back while the next one still fits in ``seconds``."""
    walls = []
    start = perf_counter()
    while True:
        wall, verdicts = timed_pass(workload, inputs)
        walls.append(wall)
        tally.check(verdicts, f"pass {len(walls)}")
        if perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def core_batch() -> dict:
    """Per-operation time of ChainEndo * and + over a fixed n = 8 batch.

    Results are dropped as they are made, so the garbage collector does not
    scan a growing list and the figure is the operation's own cost.
    """
    import operator
    from collections import deque

    from chainendo.core import all_endomorphisms

    els = list(all_endomorphisms(8))
    size = len(els)
    left = [els[i % size] for i in range(CORE_BATCH)]
    right = [els[(i * 4099 + 7) % size] for i in range(CORE_BATCH)]
    out = {}
    for name, op in (("mul_ns", operator.mul), ("add_ns", operator.add)):
        runs = []
        for _ in range(5):
            start = perf_counter()
            deque(map(op, left, right), maxlen=0)
            runs.append(perf_counter() - start)
        out[name] = statistics.median(runs) / CORE_BATCH * 1e9
    return out


def print_metrics(metrics: dict, notes: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {note}".rstrip())


def result_line(correct, tally, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def run_end_to_end(workload, seed, seconds, reference, facts) -> bool:
    setups = setup_times(workload.name, seed)
    inputs = workload.prepare(seed)
    tally = Tally(reference["items"])
    walls = measure(workload, inputs, seconds, tally)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    fail_ratio = tally.failed / tally.attempted
    print(f"# facts {json.dumps(facts, sort_keys=True)}")
    print(f"workload {workload.name} {json.dumps(reference['params'])}: end to end, tracing off")
    print_metrics(
        metrics,
        {
            "wall_s": f"median of {len(walls)} passes: "
            + " ".join(f"{w:.3f}" for w in walls),
            "setup_s": f"median of {len(setups)} fresh processes: "
            + " ".join(f"{s:.3f}" for s in setups),
            "peak_rss_mb": "peak resident memory of this process",
        },
    )
    print(f"  fail_ratio  {fail_ratio:.6g} ({tally.failed} of {tally.attempted} items)")
    correct = tally.failed == 0
    print(result_line(correct, tally, metrics))
    return correct


def run_traced(workload, seed, reference, facts, claim_ids) -> bool:
    import tracereader
    import tracing

    inputs = workload.prepare(seed)
    tally = Tally(reference["items"])
    untraced_wall, untraced = timed_pass(workload, inputs)
    tally.check(untraced, "untraced pass")

    tracer = tracing.Tracer()
    try:
        tracer.install()
        missed = tracer.uncovered()
        traced_wall, traced = timed_pass(workload, inputs)
    finally:
        tracer.uninstall()
    tally.check(traced, "traced pass")
    problems = [f"binding not wrapped: {where}" for where in missed]
    if traced != untraced:
        problems.append("traced verdicts differ from untraced verdicts")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    header = {
        "workload": workload.name,
        "params": reference["params"],
        "facts": facts,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "core_batch": core_batch(),
    }
    tracer.write(span_file, f"{workload.name}-seed{seed}-traced", header)
    header, spans = tracereader.read(span_file)
    metrics = tracereader.metrics(header, spans, claim_ids)
    problems += [
        f"{name} is 0, but this workload works in that layer"
        for name in workload.busy
        if not metrics[name][0]
    ]

    print(f"# facts {json.dumps(facts, sort_keys=True)}")
    print(f"workload {workload.name} {json.dumps(reference['params'])}: per layer, traced")
    print(f"  spans written to {span_file.relative_to(ROOT)}")
    print_metrics(metrics, {})
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(result_line(correct, tally, metrics))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text())
    reference = references[workload.name]
    facts = run_facts(args.seed)
    if args.trace:
        # one time per registry claim, whichever workload runs
        claim_ids = sorted(references["sweep"]["items"])
        ok = run_traced(workload, args.seed, reference, facts, claim_ids)
    else:
        ok = run_end_to_end(workload, args.seed, args.seconds, reference, facts)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
