"""Self-tests of the benchmark.  Run with ``python -m pytest bench`` from the repo root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import suite  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", range(1, 13))
def test_long_word_closed_form_agrees_with_reference(n):
    from streamcheck import runtime, semantics

    formula = suite.long_word_formula(n)
    for period in [None, *range(1, n + 1)]:
        for seed in range(3):
            word, phase = suite.long_word(n, period, seed)
            symbol, step = suite.long_word_answer(n, period, phase)
            assert semantics.models(word, formula).symbol == symbol
            verdict, consumed = suite.run_word(runtime.Monitor, formula, word)
            assert (verdict.symbol, consumed) == (symbol, step)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, 0, "parent", 0.0, 10.0),
        (2, 1, "child", 1.0, 4.0),
        (3, 1, "child", 3.0, 6.0),  # overlaps its sibling, as on two threads
        (4, 1, "child", 9.0, 12.0),  # runs past its parent's end
    ]
    times = tracer.self_times()
    assert times["parent"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["child"] == pytest.approx(3.0 + 3.0 + 3.0)


def tiny_run(workload: str, trace: int, seed: int = 3):
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.2", "--trace", str(trace),
    ]
    out = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = tiny_run(workload, trace=0)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1] if line and not line.startswith("#")}
    assert set(declared) | {"wrong_verdicts", "error_ratio"} <= printed
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_traced_runs_with_one_seed_repeat_their_counts(workload):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    runs = [tiny_run(workload, trace=1)[1] for _ in range(2)]
    for result in runs:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert result["correct"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s" and k != "trace_overhead_ratio"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["runtime.steps"] > 0 and counts[0]["generators.prefixes"] > 0
