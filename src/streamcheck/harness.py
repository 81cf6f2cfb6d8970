"""Deterministic micro-batch stream simulator and temporal property runner.

The simulator replaces a real stream engine: a transformation is a pure,
per-batch stateful operator producing exactly one output batch per input
batch. A test case zips the generated input prefix, the computed output and a
monotone clock into a word of letters, feeds the word to a stepwise monitor,
and stops early as soon as the formula is solved.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Any, Callable, Generic, Iterable, Mapping, Optional, Tuple, TypeVar

from . import semantics, truth
from .generators import Batch, GenFn, StreamPrefix, batches_of
from .runtime import Formula, Monitor, StepTrace
from .truth import Verdict

I = TypeVar("I")
O = TypeVar("O")
S = TypeVar("S")


class HarnessError(Exception):
    pass


class CaseError(HarnessError):
    """User code raised during one test case; reported in the errors bucket."""

    stage: str

    def __init__(self, step: int, cause: BaseException):
        super().__init__(f"{self.stage} failed at step {step}: {cause!r}")
        self.step = step
        self.cause = cause


class TransformationError(CaseError):
    """A test subject raised while processing a batch."""

    stage = "transformation"


class PredicateError(CaseError):
    """A predicate or consumer of the formula raised while judging a letter."""

    stage = "predicate"


class OracleMismatch(HarnessError):
    """Stepwise verdict disagreed with the reference judgment."""


@dataclass(frozen=True)
class IoLetter(Generic[I, O]):
    """What the property observes at one instant: input batch, output batch, time."""

    input: Batch
    output: Batch
    time: int


@dataclass(frozen=True)
class HarnessConfig:
    batch_interval_ms: int = 100
    start_time_ms: int = 0
    min_tests_ok: int = 100
    seed: int = 0
    parallelism: int = 1
    oracle_crosscheck: bool = False

    def __post_init__(self) -> None:
        if self.batch_interval_ms < 1:
            raise ValueError("batch_interval_ms must be positive")
        if self.start_time_ms < 0:
            raise ValueError("start_time_ms must be non-negative")
        if self.min_tests_ok < 1:
            raise ValueError("min_tests_ok must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")


def time_of(instant: int, cfg: HarnessConfig) -> int:
    """Timestamp of the 1-based ``instant``: start + (instant - 1) * interval."""
    if instant < 1:
        raise ValueError("instants are 1-based")
    return cfg.start_time_ms + (instant - 1) * cfg.batch_interval_ms


# ---------------------------------------------------------------------------
# Transformations


@dataclass(frozen=True)
class Transformation(Generic[S, I, O]):
    """Synchronous micro-batch operator: one output batch per input batch.

    ``step`` must be pure and deterministic; it returns the successor state
    together with the output batch and must not mutate its arguments.
    """

    initial: S
    step: Callable[[S, Batch, int], Tuple[S, Batch]]

    def then(self, other: "Transformation") -> "Transformation":
        def step(state: Tuple[Any, Any], batch: Batch, time: int) -> Tuple[Tuple[Any, Any], Batch]:
            first, second = state
            first, mid = self.step(first, batch, time)
            second, out = other.step(second, mid, time)
            return (first, second), out

        return Transformation((self.initial, other.initial), step)


def map_batch(fn: Callable[[Batch], Iterable[Any]]) -> Transformation:
    """Stateless whole-batch operator."""
    return Transformation(None, lambda state, batch, _t: (state, Batch(fn(batch))))


def map_elements(fn: Callable[[Any], Any]) -> Transformation:
    return map_batch(lambda batch: (fn(e) for e in batch))


def filter_elements(keep: Callable[[Any], bool]) -> Transformation:
    return map_batch(lambda batch: (e for e in batch if keep(e)))


def flat_map(fn: Callable[[Any], Iterable[Any]]) -> Transformation:
    return map_batch(lambda batch: (x for e in batch for x in fn(e)))


def stateful_by_key(initial_value: Any, update: Callable[[Any, list], Any]) -> Transformation:
    """Keyed state over (key, value) pairs, emitted in full every instant.

    ``update`` receives the previous state for a key (``initial_value`` the
    first time) and the list of values arriving this instant (empty for keys
    with no new input) and returns the new state. The output batch holds one
    ``(key, state)`` pair per tracked key, in first-seen order.
    """

    def step(state: Mapping[Any, Any], batch: Batch, _t: int) -> Tuple[Mapping[Any, Any], Batch]:
        arrived: dict = {}
        for key, value in batch:
            arrived.setdefault(key, []).append(value)
        new_state: dict = {}
        for key, old in state.items():
            new_state[key] = update(old, arrived.pop(key, []))
        for key, values in arrived.items():
            new_state[key] = update(initial_value, values)
        return new_state, Batch(new_state.items())

    return Transformation({}, step)


def window(length: int) -> Transformation:
    """Sliding window with slide 1: instant i emits input batches max(1, i-length+1)..i."""
    if length < 1:
        raise ValueError("window length must be positive")

    def step(state: Tuple[Batch, ...], batch: Batch, _t: int) -> Tuple[Tuple[Batch, ...], Batch]:
        kept = state + (batch,)
        out = Batch(e for b in kept for e in b)
        return kept[-(length - 1):] if length > 1 else (), out

    return Transformation((), step)


def count_by_value() -> Transformation:
    """Batch of elements to batch of (value, count) pairs, first-seen order."""

    def counts(batch: Batch) -> Iterable[Any]:
        tally: dict = {}
        for e in batch:
            tally[e] = tally.get(e, 0) + 1
        return tally.items()

    return map_batch(counts)


def reduce_by_key(op: Callable[[Any, Any], Any]) -> Transformation:
    """Per-batch keyed reduction over (key, value) pairs."""

    def reduce(batch: Batch) -> Iterable[Any]:
        acc: dict = {}
        for key, value in batch:
            acc[key] = op(acc[key], value) if key in acc else value
        return acc.items()

    return map_batch(reduce)


# ---------------------------------------------------------------------------
# Running one test case


def run_test_case(
    batches: Iterable[Batch],
    transformation: Transformation,
    formula: Formula,
    cfg: HarnessConfig,
) -> Tuple[Verdict, Tuple[StepTrace, ...]]:
    """Feed one generated prefix through the subject and the monitor.

    ``batches`` is any iterable of input batches, such as a ``StreamPrefix``
    or a generator's ``batches_of`` iterator.  A batch is pulled only while
    the formula is unsolved, so nothing is read past the deciding step; an
    exhausted prefix is closed out with the empty letter, which may leave the
    verdict inconclusive.  With ``oracle_crosscheck`` the reference judges the
    word the monitor consumed: a decided verdict on a finite word never
    changes when the word is extended, so the unread rest cannot matter.
    """
    verdict, trace, _word = _run_case(batches, transformation, formula, cfg)
    return verdict, trace


def _run_case(
    batches: Iterable[Batch],
    transformation: Transformation,
    formula: Formula,
    cfg: HarnessConfig,
) -> Tuple[Verdict, Tuple[StepTrace, ...], list]:
    """:func:`run_test_case`, also returning the consumed word."""
    monitor = Monitor(formula)
    state = transformation.initial
    word = []
    if monitor.verdict is None:
        for instant, batch in enumerate(batches, 1):
            batch = Batch(batch)
            time_ms = time_of(instant, cfg)
            try:
                state, out = transformation.step(state, batch, time_ms)
            except Exception as exc:  # noqa: BLE001 - subject code is arbitrary
                raise TransformationError(instant, exc) from exc
            letter = IoLetter(batch, Batch(out), time_ms)
            word.append((letter, time_ms))
            try:
                monitor.step(letter, time_ms)
            except Exception as exc:  # noqa: BLE001 - predicates are arbitrary
                raise PredicateError(instant, exc) from exc
            if monitor.verdict is not None:
                break
        else:
            monitor.finish()  # the empty letter calls no predicate
    verdict = monitor.verdict
    assert verdict is not None
    if cfg.oracle_crosscheck:
        expected = semantics.models(word, formula)
        if expected is not verdict:
            raise OracleMismatch(
                f"stepwise verdict {verdict.symbol} != reference {expected.symbol}"
            )
    return verdict, tuple(monitor.trace), word


# ---------------------------------------------------------------------------
# Property running


@dataclass(frozen=True)
class Counterexample:
    case_index: int
    prefix: StreamPrefix
    trace: Tuple[StepTrace, ...]
    failing_step: int


@dataclass(frozen=True)
class PropertyReport:
    property_name: str
    seed: int
    cases: int
    passed: int
    inconclusive: int
    failed: int
    errors: int
    counterexample: Optional[Counterexample] = None
    error_message: Optional[str] = None

    @property
    def inconclusive_ratio(self) -> float:
        return self.inconclusive / self.cases if self.cases else 0.0

    def ok(self) -> bool:
        return self.failed == 0 and self.errors == 0


def case_rng(seed: int, case_index: int) -> Random:
    """Independent, platform-stable generator for one test case."""
    return Random(f"{seed}:{case_index}")


def for_all_stream(
    gen: GenFn,
    transformation: Transformation,
    formula: Formula,
    cfg: HarnessConfig,
    property_name: str = "property",
) -> PropertyReport:
    """Try to refute the formula over generated prefixes.

    Runs until ``min_tests_ok`` non-false verdicts accumulate or a
    counterexample (or user-code error) appears.  Inconclusive verdicts are
    not failures but count toward the case budget.  Cases run in waves of
    ``parallelism`` consecutive indices, on threads when it exceeds one; the
    run stops after the wave that holds the first failure or error, and the
    results are folded in index order, so the report is the same for every
    ``parallelism``.
    """

    def run_case(index: int):
        batches = batches_of(gen, case_rng(cfg.seed, index))
        try:
            verdict, trace, word = _run_case(batches, transformation, formula, cfg)
        except CaseError as exc:
            return None, None, exc
        if verdict is not truth.FALSE:
            return verdict, None, None
        # The counterexample keeps the whole prefix: the batches read, then the rest.
        prefix = StreamPrefix(chain((letter.input for letter, _t in word), batches))
        failing_step = trace[-1].step if trace else 0
        return verdict, Counterexample(index, prefix, trace, failing_step), None

    def results(run_wave):
        end = cfg.min_tests_ok + 1
        for first in range(1, end, cfg.parallelism):
            wave = range(first, min(first + cfg.parallelism, end))
            yield from zip(wave, run_wave(run_case, wave))

    passed = inconclusive = failed = errors = 0
    counterexample = None
    error_message = None
    cases = 0
    threads = ThreadPoolExecutor(cfg.parallelism) if cfg.parallelism > 1 else nullcontext()
    with threads as pool:
        run_wave = map if pool is None else pool.map
        for index, (verdict, refutation, error) in results(run_wave):
            cases += 1
            if error is not None:
                errors = 1
                error_message = f"case {index}: {error}"
                break
            if verdict is truth.TRUE:
                passed += 1
            elif verdict is truth.INCONCLUSIVE:
                inconclusive += 1
            else:
                failed = 1
                counterexample = refutation
                break
    return PropertyReport(
        property_name=property_name,
        seed=cfg.seed,
        cases=cases,
        passed=passed,
        inconclusive=inconclusive,
        failed=failed,
        errors=errors,
        counterexample=counterexample,
        error_message=error_message,
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _trace_to_dict(entry: StepTrace) -> dict:
    out: dict = {"step": entry.step, "time_ms": entry.time_ms, "size": entry.formula_size}
    if entry.verdict is not None:
        out["verdict"] = entry.verdict.symbol
    return out


def _trace_from_dict(data: Mapping) -> StepTrace:
    verdict = Verdict.from_symbol(data["verdict"]) if "verdict" in data else None
    return StepTrace(data["step"], data["time_ms"], data["size"], verdict)


def _encode_element(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_encode_element(v) for v in value]
    return value


def _decode_element(value: Any) -> Any:
    # JSON has no tuples; arrays inside a prefix decode back to tuples.
    if isinstance(value, list):
        return tuple(_decode_element(v) for v in value)
    return value


def report_to_dict(report: PropertyReport) -> dict:
    out: dict = {
        "property": report.property_name,
        "seed": report.seed,
        "cases": report.cases,
        "passed": report.passed,
        "inconclusive": report.inconclusive,
        "failed": report.failed,
        "errors": report.errors,
        "counterexample": None,
    }
    if report.counterexample is not None:
        cex = report.counterexample
        out["counterexample"] = {
            "case_index": cex.case_index,
            "prefix": [[_encode_element(e) for e in batch] for batch in cex.prefix],
            "trace": [_trace_to_dict(t) for t in cex.trace],
            "failing_step": cex.failing_step,
        }
    if report.error_message is not None:
        out["error_message"] = report.error_message
    return out


def report_from_dict(data: Mapping) -> PropertyReport:
    counterexample = None
    if data.get("counterexample") is not None:
        cex = data["counterexample"]
        counterexample = Counterexample(
            case_index=cex["case_index"],
            prefix=StreamPrefix(
                Batch(_decode_element(e) for e in batch) for batch in cex["prefix"]
            ),
            trace=tuple(_trace_from_dict(t) for t in cex["trace"]),
            failing_step=cex["failing_step"],
        )
    return PropertyReport(
        property_name=data["property"],
        seed=data["seed"],
        cases=data["cases"],
        passed=data["passed"],
        inconclusive=data["inconclusive"],
        failed=data["failed"],
        errors=data["errors"],
        counterexample=counterexample,
        error_message=data.get("error_message"),
    )


def report_to_json(report: PropertyReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def report_from_json(text: str) -> PropertyReport:
    return report_from_dict(json.loads(text))
