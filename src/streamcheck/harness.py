"""Deterministic micro-batch stream simulator and temporal property runner.

The simulator replaces a real stream engine: a transformation is a pure,
per-batch stateful operator producing exactly one output batch per input
batch. A test case zips the generated input prefix, the computed output and a
monotone clock into a word of letters, feeds the word to a stepwise monitor,
and stops early as soon as the formula is solved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Generic, Iterable, Iterator, Mapping, Optional, Tuple, TypeVar

from . import semantics, truth
from .generators import Batch, GenFn, StreamPrefix, batches_of, check_count
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


class GeneratorError(CaseError):
    """The prefix generator raised while drawing the batch of a step."""

    stage = "generator"


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
    """Clock, case budget, seed and oracle switch of a property run.

    The seed, the clock fields and the counts are integers, not booleans:
    the seed may be any integer, ``start_time_ms`` may be 0 and the other
    three must be positive.  ``oracle_crosscheck`` is a bool.
    ``parallelism`` is validated and otherwise ignored: cases
    always run one at a time on the calling thread, so it changes neither
    how or where they run nor any report.
    """

    batch_interval_ms: int = 100
    start_time_ms: int = 0
    min_tests_ok: int = 100
    seed: int = 0
    parallelism: int = 1
    oracle_crosscheck: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if type(self.oracle_crosscheck) is not bool:
            raise ValueError(f"oracle_crosscheck must be a bool, got {self.oracle_crosscheck!r}")
        check_count(self.batch_interval_ms, "batch_interval_ms")
        check_count(self.start_time_ms, "start_time_ms", least=0)
        check_count(self.min_tests_ok, "min_tests_ok")
        check_count(self.parallelism, "parallelism")


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
    check_count(length, "window length")

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
    verdict inconclusive.  Batches are pulled through :func:`_pulled`, the
    one place where a raise in drawing or converting a batch becomes a
    :class:`GeneratorError` at the step of that batch.  With
    ``oracle_crosscheck`` the reference judges the word the monitor consumed:
    a decided verdict on a finite word never changes when the word is
    extended, so the unread rest cannot matter.
    """
    monitor, _word = _run_case(_pulled(batches), transformation, formula, cfg)
    return monitor.verdict, tuple(monitor.trace)


def _run_case(
    batches: Iterator[Batch],
    transformation: Transformation,
    formula: Formula,
    cfg: HarnessConfig,
) -> Tuple[Monitor, list]:
    """:func:`run_test_case` on :func:`_pulled` batches, returning the decided
    monitor and the consumed word; the monitor's trace is sized only if the
    caller reads it."""
    monitor = Monitor(formula)
    state = transformation.initial
    word = []
    if monitor.verdict is None:
        for instant, batch in enumerate(batches, 1):
            time_ms = time_of(instant, cfg)
            try:
                state, out = transformation.step(state, batch, time_ms)
                out = Batch(out)
            except Exception as exc:  # noqa: BLE001 - subject code is arbitrary
                raise TransformationError(instant, exc) from exc
            letter = IoLetter(batch, out, time_ms)
            word.append((letter, time_ms))
            try:
                monitor.step(letter, time_ms)
            except Exception as exc:  # noqa: BLE001 - predicates are arbitrary
                raise PredicateError(instant, exc) from exc
            if monitor.verdict is not None:
                break
        if monitor.verdict is None:
            monitor.finish()  # the empty letter calls no predicate
    verdict = monitor.verdict
    assert verdict is not None
    if cfg.oracle_crosscheck:
        # The reference may call a predicate the monitor never needed (an
        # operand of a connective the monitor decided from the other one).
        try:
            expected = semantics.models(word, formula)
        except Exception as exc:  # noqa: BLE001 - predicates are arbitrary
            raise PredicateError(len(word), exc) from exc
        if expected is not verdict:
            raise OracleMismatch(
                f"stepwise verdict {verdict.symbol} != reference {expected.symbol}"
            )
    return monitor, word


# ---------------------------------------------------------------------------
# Property running


@dataclass(frozen=True)
class Counterexample:
    """The refuted case: its index, its prefix, the monitor's trace and the step it failed at."""

    case_index: int
    prefix: StreamPrefix
    trace: Tuple[StepTrace, ...]
    failing_step: int


@dataclass(frozen=True)
class PropertyReport:
    """Counts of one property run and, when it failed or raised, why."""

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

    Runs cases ``1..min_tests_ok`` in index order, one at a time on the
    calling thread, until ``min_tests_ok`` non-false verdicts accumulate or a
    counterexample (or user-code error) appears.  Inconclusive verdicts are
    not failures but count toward the case budget.  An
    :class:`OracleMismatch` is not a case error: it propagates, its message
    prefixed with ``case <index>: ``.

    A raise in the generator is a :class:`GeneratorError` at the step whose
    batch was being drawn, named by :func:`_pulled`; a generator that is not
    a ``PrefixGen`` draws its whole prefix at the first pull, so its raise
    names step 1, and it is not called for a case decided before step 1
    that passes.  A refuted case's counterexample holds its whole prefix, so
    the unread rest is pulled from the same iterator: a raise there turns
    the refutation into that generator error.
    """
    passed = inconclusive = failed = errors = 0
    counterexample = None
    error_message = None
    for index in range(1, cfg.min_tests_ok + 1):
        try:
            batches = _pulled(batches_of(gen, case_rng(cfg.seed, index)))
            monitor, word = _run_case(batches, transformation, formula, cfg)
            if monitor.verdict is truth.FALSE:
                prefix = StreamPrefix([letter.input for letter, _t in word] + list(batches))
        except CaseError as exc:
            errors = 1
            error_message = f"case {index}: {exc}"
            break
        except OracleMismatch as exc:
            raise OracleMismatch(f"case {index}: {exc}") from exc
        verdict = monitor.verdict
        if verdict is truth.TRUE:
            passed += 1
        elif verdict is truth.INCONCLUSIVE:
            inconclusive += 1
        else:
            failed = 1
            trace = tuple(monitor.trace)
            counterexample = Counterexample(index, prefix, trace, len(trace))
            break
    return PropertyReport(
        property_name=property_name,
        seed=cfg.seed,
        cases=passed + inconclusive + failed + errors,
        passed=passed,
        inconclusive=inconclusive,
        failed=failed,
        errors=errors,
        counterexample=counterexample,
        error_message=error_message,
    )


def _pulled(batches: Iterable[Any]) -> Iterator[Batch]:
    """Each of ``batches`` as a ``Batch``: the one iterator every batch of a
    case is pulled through.  A raise in drawing or converting the k-th batch
    is a :class:`GeneratorError` at step k."""
    step = 1
    try:
        for batch in batches:
            yield Batch(batch)
            step += 1
    except Exception as exc:  # noqa: BLE001 - generators are arbitrary
        raise GeneratorError(step, exc) from exc


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
