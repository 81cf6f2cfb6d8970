"""The property suite the benchmark times, and the checks on its verdicts.

A workload runs four parts, interleaved, each a closed loop (one property
run starts after the previous one returns):

* ``examples``: the 8 bundled examples at their own ``min_tests_ok`` over
  consecutive seeds, as ``streamcheck run all`` does;
* ``always-eventually-never`` / ``always-eventually-periodic``: a direct
  ``runtime.Monitor`` over ``Always(n, Eventually(n, p))`` on a long word
  where ``p`` never holds / holds every ``PERIOD``-th instant;
* ``scenario``: the bundled ``.sexpr`` scenarios through the
  ``streamcheck eval`` route, plus formula-driven word generation.

The workload decides the configuration: ``default`` is the user's default
path; ``crosscheck-par2`` turns the reference oracle on in every part and
runs the examples on two threads.

Nothing here imports ``streamcheck`` at module level: the benchmark
re-imports the package while it measures set-up, and every function reads
the modules of the latest import.
"""

from __future__ import annotations

import statistics
import sys
import typing
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibration import Calibrator, SegmentTimer
from tracing import Hooks, TracedHooks, Tracer, layer_counts, layer_times

# Below the recursion cliff of the monitor (about 496 for this formula): a
# fix for the cliff must not turn a quick error into a slow success here.
MONITOR_N = 400
PERIOD = 50
# Consecutive example seeds per traced pass.
TRACE_SEEDS = 4
# Scenario passes per scheduled run, so that one run outlasts a calibration.
SCENARIO_BATCH = 16
# Share of a run's wall time given to each part.
SHARES = {"examples": 0.40, "never": 0.30, "periodic": 0.15, "scenarios": 0.15}

WALL = "wall"  # sample key of one pass over the examples, in seconds
NEVER = "always-eventually-never"
PERIODIC = "always-eventually-periodic"
SCENARIO = "scenario"


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: bool
    parallelism: int


WORKLOADS: Dict[str, Workload] = {
    "default": Workload("default", oracle=False, parallelism=1),
    "crosscheck-par2": Workload("crosscheck-par2", oracle=True, parallelism=2),
}


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Suite:
    """Every property, built once before its first case."""

    examples: List[Tuple[Any, Callable, Any, Any]]  # (spec, gen, subject, formula)
    long_word_formula: Any
    scenarios: List[Tuple[str, str]]  # (name, text)


def purge_streamcheck() -> None:
    """Forget the package, so the next import runs it afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "streamcheck" or m.startswith("streamcheck.")]:
        del sys.modules[name]
    # typing caches the generic aliases the package's annotations build, and
    # through them would keep every purged copy of the package alive.
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def load_suite(corpus: Path) -> Suite:
    """Import the package and build every property."""
    import streamcheck  # noqa: F401
    from streamcheck import cli, examples  # noqa: F401

    built = [(spec, *spec.build()) for spec in examples.EXAMPLES.values()]
    texts = [(path.stem, path.read_text(encoding="utf-8")) for path in sorted(corpus.glob("*.sexpr"))]
    if not texts:
        raise FileNotFoundError(f"no scenarios under {corpus}")
    return Suite(built, long_word_formula(MONITOR_N), texts)


def _is_p(value: int) -> bool:
    return value % 2 == 0


def long_word_formula(n: int):
    from streamcheck import runtime

    return runtime.Always(n, runtime.Eventually(n, runtime.now(_is_p, "p")))


def long_word(n: int, period: Optional[int], seed: int) -> Tuple[List[Tuple[int, int]], int]:
    """Timed letters for the long-word formula, and the first instant where ``p`` holds.

    ``p`` holds exactly at the instants ``phase + k * period``; with no period
    it never holds (phase 0).  The word is long enough to decide the formula.
    """
    rng = Random(f"{seed}:{period}")
    phase = rng.randint(1, period) if period else 0
    word = []
    for instant in range(1, 2 * n):
        even = 2 * rng.randrange(1 << 20)
        holds = bool(period) and (instant - phase) % period == 0
        word.append((even if holds else even + 1, instant))
    return word, phase


def long_word_answer(n: int, period: Optional[int], phase: int) -> Tuple[str, int]:
    """Closed-form verdict symbol and deciding step of the long-word formula.

    Never ``p``: the first obligation fails at step n.  ``p`` every ``period``
    instants (``period <= n``): every obligation is met, the last one at the
    first instant of ``p`` at or after n.
    """
    if not period:
        return "F", n
    return "T", phase + (n - phase + period - 1) // period * period


def run_word(monitor_cls, formula, word, between_steps: Callable[[], None] = lambda: None):
    """Step a monitor over timed letters until it decides, then close it out.

    Returns the verdict and the number of letters consumed.
    """
    monitor = monitor_cls(formula)
    for letter, time in word:
        if monitor.verdict is not None:
            break
        monitor.step(letter, time)
        between_steps()
    return monitor.finish(), monitor.consumed


# ---------------------------------------------------------------------------
# Bookkeeping


@dataclass
class Ledger:
    """Samples, operation counts and failed checks of one benchmark run.

    A sample waits in ``pending`` until the calibration kernel has run on
    both sides of it; :meth:`settle` then files it raw and calibrated.
    """

    calibrator: Calibrator = field(default_factory=Calibrator)
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    raw: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    pending: List[Tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.pending.append((name, value))

    def settle(self) -> None:
        if not self.pending:
            return
        factor = self.calibrator.factor()
        for name, value in self.pending:
            self.raw[name].append(value)
            self.samples[name].append(value * factor)
        self.pending.clear()

    def sample_timed(self, name: str, timer: SegmentTimer, scale: float) -> None:
        """File a sample that a :class:`SegmentTimer` calibrated piecewise."""
        self.raw[name].append(timer.raw * scale)
        self.samples[name].append(timer.calibrated * scale)

    def error(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self._note(f"{what} raised {exc!r}")

    def wrong_verdict(self, message: str) -> None:
        self.wrong += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)


@dataclass
class Context:
    suite: Suite
    workload: Workload
    hooks: Hooks
    ledger: Ledger
    examples: List[Tuple[Any, Callable, Any, Any]]
    references: Dict[str, Any] = field(default_factory=dict)


def make_context(suite: Suite, workload: Workload, hooks: Hooks, ledger: Ledger) -> Context:
    wrapped = [(spec, hooks.gen(g), hooks.subject(s), f) for spec, g, s, f in suite.examples]
    return Context(suite, workload, hooks, ledger, wrapped)


# ---------------------------------------------------------------------------
# Parts: each has a run step (timed) and a check step (not timed)


def run_examples(ctx: Context, seed: int) -> list:
    """One ``run all`` pass; returns the reports in suite order (None if one raised).

    The pass starts at a different example for each seed: the first run after
    a calibration meets cold caches, and no property should always pay that.
    """
    from streamcheck import harness

    count = len(ctx.examples)
    reports: list = [None] * count
    start = perf_counter()
    for index in range(seed, seed + count):
        spec, gen, subject, formula = ctx.examples[index % count]
        cfg = harness.HarnessConfig(
            min_tests_ok=spec.min_tests_ok,
            seed=seed,
            parallelism=ctx.workload.parallelism,
            oracle_crosscheck=ctx.workload.oracle,
        )
        ctx.ledger.attempted += 1
        t0 = perf_counter()
        try:
            report = ctx.hooks.property_run(
                harness.for_all_stream, gen, subject, formula, cfg, spec.name
            )
        except Exception as exc:  # noqa: BLE001 - counted and reported as a failed operation
            ctx.ledger.error(f"{spec.name} seed {seed}", exc)
            continue
        ctx.ledger.sample(spec.name, (perf_counter() - t0) * 1000 / report.cases)
        ctx.hooks.add("harness.cases_reported", report.cases)
        reports[index % count] = report
    ctx.ledger.sample(WALL, perf_counter() - start)
    return reports


def check_examples(ctx: Context, seed: int, reports: list) -> None:
    from streamcheck import examples, harness

    for (spec, gen, subject, formula), report in zip(ctx.suite.examples, reports):
        if report is None:
            continue
        outcome = examples.observed_outcome(report)
        if outcome != spec.expected:
            ctx.ledger.wrong_verdict(f"{spec.name} seed {seed}: {outcome}, expected {spec.expected}")
        if ctx.workload.oracle or ctx.workload.parallelism > 1:
            cfg = harness.HarnessConfig(min_tests_ok=spec.min_tests_ok, seed=seed)
            try:
                plain = harness.for_all_stream(gen, subject, formula, cfg, spec.name)
            except Exception as exc:  # noqa: BLE001
                ctx.ledger.error(f"{spec.name} seed {seed} (default config)", exc)
                continue
            if harness.report_to_json(plain) != harness.report_to_json(report):
                ctx.ledger.wrong_verdict(f"{spec.name} seed {seed}: report differs from the default config")


def run_long_word(ctx: Context, name: str, period: Optional[int], seed: int):
    word, phase = long_word(MONITOR_N, period, seed)
    formula = ctx.suite.long_word_formula
    ctx.ledger.attempted += 1
    timer = SegmentTimer(ctx.ledger.calibrator)
    try:
        verdict, consumed = run_word(ctx.hooks.monitor_cls(), formula, word, timer.tick)
        reference = ctx.hooks.models(word[:consumed], formula) if ctx.workload.oracle else None
    except Exception as exc:  # noqa: BLE001
        ctx.ledger.error(f"{name} seed {seed}", exc)
        return None
    finally:
        timer.stop()
    ctx.ledger.sample_timed(name, timer, 1000)
    return period, phase, verdict, consumed, reference


def check_long_word(ctx: Context, name: str, seed: int, result) -> None:
    if result is None:
        return
    period, phase, verdict, consumed, reference = result
    expected = long_word_answer(MONITOR_N, period, phase)
    if (verdict.symbol, consumed) != expected:
        ctx.ledger.wrong_verdict(
            f"{name} seed {seed}: {verdict.symbol} at step {consumed}, expected {expected}"
        )
    if reference is not None and reference is not verdict:
        ctx.ledger.wrong_verdict(f"{name} seed {seed}: oracle says {reference.symbol}")


@dataclass
class ScenarioOutcome:
    formula: Any
    word: Any
    interp: Any
    verdict: Any
    expected: Any
    reference: Any
    relaxed: Any  # relaxed judgment of the generated word; None when none was generated


def scenario_route(ctx: Context, name: str, text: str, seed: int) -> ScenarioOutcome:
    """``streamcheck eval`` on one scenario, then a word generated from its next form."""
    from streamcheck import cli, sexpr, symbolic, wordgen

    call = ctx.hooks.call
    formula, word, expected = call("sexpr", sexpr.parse_scenario, text)
    interp = call("cli.interp", cli.default_interpretation, formula, word)
    compiled = call("symbolic.compile", symbolic.compile_formula, formula, interp)
    verdict, _consumed = run_word(ctx.hooks.monitor_cls(), compiled, word)
    reference = None
    if ctx.workload.oracle:
        reference = call("symbolic.judge", symbolic.judge, word, 1, formula, interp)
    relaxed = None
    try:
        expanded = call("symbolic.next_form", symbolic.next_form, formula, interp)
    except symbolic.OpenFormula:
        # A timeout computed from a consumed letter has no next form ahead of time.
        expanded = None
    if expanded is not None:
        ctx.hooks.add("wordgen.attempts")
        generated = call("wordgen", wordgen.generate_word, expanded, interp, Random(f"{seed}:{name}"))
        if generated is wordgen.GEN_ERR:
            ctx.hooks.add("wordgen.gen_err")
        else:
            relaxed = call("wordgen", wordgen.relaxed_judge, expanded, generated, interp)
    return ScenarioOutcome(formula, word, interp, verdict, expected, reference, relaxed)


def run_scenarios(ctx: Context, seed: int) -> list:
    outcomes = []
    start = perf_counter()
    for name, text in ctx.suite.scenarios:
        ctx.ledger.attempted += 1
        try:
            outcomes.append((name, scenario_route(ctx, name, text, seed)))
        except Exception as exc:  # noqa: BLE001
            ctx.ledger.error(f"scenario {name} seed {seed}", exc)
    ctx.ledger.sample(SCENARIO, (perf_counter() - start) * 1000 / len(ctx.suite.scenarios))
    return outcomes


def check_scenarios(ctx: Context, seed: int, outcomes: list) -> None:
    from streamcheck import symbolic, truth

    for name, out in outcomes:
        if out.verdict is not out.expected:
            ctx.ledger.wrong_verdict(
                f"scenario {name}: {out.verdict.symbol}, expected {out.expected.symbol}"
            )
        reference = out.reference
        if reference is None:
            # The reference judgment does not depend on the seed.
            if name not in ctx.references:
                ctx.references[name] = symbolic.judge(out.word, 1, out.formula, out.interp)
            reference = ctx.references[name]
        if out.verdict is not reference:
            ctx.ledger.wrong_verdict(f"scenario {name}: symbolic.judge says {reference.symbol}")
        if out.relaxed is not None and out.relaxed is not truth.TRUE:
            ctx.ledger.wrong_verdict(
                f"scenario {name} seed {seed}: generated word relaxed-judges {out.relaxed.symbol}"
            )


# ---------------------------------------------------------------------------
# Runs


def _part_runners(ctx: Context, base: int) -> Dict[str, Callable[[int], None]]:
    def examples(i: int) -> None:
        check_examples(ctx, base + i, run_examples(ctx, base + i))

    def never(i: int) -> None:
        check_long_word(ctx, NEVER, base + i, run_long_word(ctx, NEVER, None, base + i))

    def periodic(i: int) -> None:
        check_long_word(ctx, PERIODIC, base + i, run_long_word(ctx, PERIODIC, PERIOD, base + i))

    def scenarios(i: int) -> None:
        for seed in range(base + i * SCENARIO_BATCH, base + (i + 1) * SCENARIO_BATCH):
            check_scenarios(ctx, seed, run_scenarios(ctx, seed))

    return {"examples": examples, "never": never, "periodic": periodic, "scenarios": scenarios}


def base_seed(seed: int) -> int:
    """First case seed of a run; consecutive seeds follow."""
    return seed * 100_000


def measure(suite: Suite, workload: Workload, seed: int, seconds: float) -> Ledger:
    """Untraced run: interleave the parts by wall-time share until ``seconds`` pass.

    The calibration kernel runs between any two part runs, and inside long ones.
    """
    ledger = Ledger()
    runners = _part_runners(make_context(suite, workload, Hooks(), ledger), base_seed(seed))
    spent = {name: 0.0 for name in runners}
    runs = {name: 0 for name in runners}
    deadline = perf_counter() + seconds
    while True:
        name = min(runners, key=lambda part: spent[part] / SHARES[part])
        t0 = perf_counter()
        runners[name](runs[name])
        spent[name] += perf_counter() - t0
        runs[name] += 1
        ledger.settle()
        if perf_counter() >= deadline and all(runs.values()):
            return ledger


def _fixed_pass(suite: Suite, workload: Workload, seed: int, hooks: Hooks, ledger: Ledger) -> SegmentTimer:
    """The fixed work of a traced pass, with ``hooks`` installed; returns its timer.

    The timer ticks after every example and scenario pass; the long-word
    runs tick it from inside through their own timers.
    """
    ctx = make_context(suite, workload, hooks, ledger)
    base = base_seed(seed)
    seeds = range(base, base + TRACE_SEEDS)
    reports, outcomes = [], []
    timer = SegmentTimer(ledger.calibrator)
    with hooks.installed():
        for s in seeds:
            reports.append(run_examples(ctx, s))
            timer.tick()
        never = run_long_word(ctx, NEVER, None, base)
        periodic = run_long_word(ctx, PERIODIC, PERIOD, base)
        for s in seeds:
            outcomes.append(run_scenarios(ctx, s))
            timer.tick()
    timer.stop()
    ledger.pending.clear()
    for s, r in zip(seeds, reports):
        check_examples(ctx, s, r)
    check_long_word(ctx, NEVER, base, never)
    check_long_word(ctx, PERIODIC, base, periodic)
    for s, o in zip(seeds, outcomes):
        check_scenarios(ctx, s, o)
    return timer


def measure_layers(
    suite: Suite, workload: Workload, seed: int, seconds: float
) -> Tuple[Ledger, Dict[str, float], Tracer]:
    """Traced run: pairs of untraced and traced fixed passes until ``seconds`` pass.

    Counts come from the first traced pass and must repeat exactly in every
    later one; self times are calibrated medians over the traced passes.
    Returns the ledger, the per-layer metrics and the first pass's tracer.
    """
    ledger = Ledger()
    plain_times: List[float] = []
    traced_times: List[float] = []
    times: Dict[str, List[float]] = defaultdict(list)
    first: Optional[Tracer] = None
    counts: Dict[str, float] = {}
    deadline = perf_counter() + seconds
    pair = 0
    while True:
        pair_start = perf_counter()
        tracer = Tracer()
        if pair % 2:
            traced = _fixed_pass(suite, workload, seed, TracedHooks(tracer), ledger)
        plain = _fixed_pass(suite, workload, seed, Hooks(), ledger)
        if not pair % 2:
            traced = _fixed_pass(suite, workload, seed, TracedHooks(tracer), ledger)
        plain_times.append(plain.calibrated)
        traced_times.append(traced.calibrated)
        if first is None:
            first, counts = tracer, layer_counts(tracer)
        elif layer_counts(tracer) != counts:
            ledger.wrong_verdict("per-layer counts differ between identical traced passes")
        for key, value in layer_times(tracer).items():
            times[key].append(value * traced.calibrated / traced.raw)
        pair += 1
        # Stop before a pair that would end past the deadline.
        if 2 * perf_counter() - pair_start >= deadline:
            break
    metrics = dict(counts)
    metrics.update({key: statistics.median(values) for key, values in times.items()})
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1
    )
    return ledger, metrics, first
