"""Benchmark of streamcheck property runs: time per case, per property.

Usage, from the root of a checkout:

    python3 bench/run.py --workload default --seed 1 --seconds 50 --trace 0
    python3 bench/run.py                # every workload, each in its own process

``--trace 0`` times the workload untraced and reports the end-to-end metrics;
``--trace 1`` runs fixed traced passes and reports the per-layer metrics,
writing the first pass's spans to ``.bench_out/``.  Every line but the last
is for people: one metric per line, with its unit and sample count.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every verdict check passed, 1 when one
failed and 2 when the package cannot be found next to this directory.

A workload runs in one process, with at most two threads (the harness's
pool on the ``crosscheck-par2`` workload).  ``--workload all`` (the
default) runs each workload in a child process of its own, one after the
other, so each prints its own block ending in its own JSON line and has its
own peak resident set.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = SRC / "streamcheck" / "corpus"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 45

import suite  # noqa: E402  (this directory is on sys.path when run as a script)
from tracing import PER_LAYER_UNITS  # noqa: E402

TIMED = [
    "banning-stateless",
    "banning-stateful",
    "hashtags-extracted",
    "hashtags-counted",
    "top-hashtag-shift",
    "top-hashtag-unique",
    "counts-drain-to-zero",
    "peak-implies-top",
    suite.NEVER,
    suite.PERIODIC,
    suite.SCENARIO,
]
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    **{f"ms_per_case.{name}": "ms" for name in TIMED},
}


def timed_setup() -> Tuple[suite.Suite, suite.Ledger]:
    """Import the package and build every property, ``SETUP_REPEATS`` times.

    Each repeat starts from a collected heap, so the garbage of earlier
    imports neither slows it nor raises the process's peak resident set.
    """
    ledger = suite.Ledger()
    built = None
    for _ in range(SETUP_REPEATS):
        suite.purge_streamcheck()
        built = None
        gc.collect()
        start = perf_counter()
        built = suite.load_suite(CORPUS)
        ledger.sample("setup", perf_counter() - start)
        ledger.settle()
    return built, ledger


def describe(samples: List[float], raw: List[float]) -> str:
    """Sample count, the highest of p90/p95/p99 with ten samples beyond it, raw median."""
    text = f"n={len(samples)}"
    for pct in (99, 95, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            text += f" p{pct}={statistics.quantiles(samples, n=100)[pct - 1]:.6g}"
            break
    return f"{text} raw={statistics.median(raw):.6g}"


def end_to_end(ledger: suite.Ledger, setup: suite.Ledger) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Calibrated medians; a metric with no sample reads 0 (the run is then incorrect)."""
    sources = {"setup_s": (setup, "setup"), "wall_s": (ledger, suite.WALL)}
    sources.update({f"ms_per_case.{name}": (ledger, name) for name in TIMED})
    values: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    for metric, (source, key) in sources.items():
        samples = source.samples.get(key, [])
        values[metric] = statistics.median(samples) if samples else 0.0
        notes[metric] = describe(samples, source.raw[key]) if samples else "no samples"
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes["peak_rss_mb"] = "whole process, raw"
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    workload = suite.WORKLOADS[name]
    built, setup = timed_setup()
    gc.collect()
    if trace:
        ledger, values, tracer = suite.measure_layers(built, workload, seed, seconds)
        units = PER_LAYER_UNITS
        notes: Dict[str, str] = {}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        ledger = suite.measure(built, workload, seed, seconds)
        values, notes = end_to_end(ledger, setup)
        units = END_TO_END_UNITS

    error_ratio = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for metric, unit in units.items():
        note = notes.get(metric, "")
        print(f"{metric:40} {values[metric]:>14.6g} {unit:6} {note}")
    print(f"{'wrong_verdicts':40} {ledger.wrong:>14d} count")
    print(f"{'error_ratio':40} {error_ratio:>14.6g} ratio  {ledger.failed} of {ledger.attempted} operations raised")
    for problem in ledger.problems:
        print(f"# problem: {problem}")
    complete = trace or all(values.values())
    correct = ledger.wrong == 0 and ledger.failed == 0 and complete
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    print(json.dumps(result))
    return correct


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*suite.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "streamcheck" / "__init__.py").is_file():
        print(f"streamcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        return 0 if run_workload(args.workload, args.seed, args.seconds, bool(args.trace)) else 1
    codes = []
    for name in suite.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        codes.append(subprocess.run(command).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
