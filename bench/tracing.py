"""Span recorder and the wrappers a traced benchmark pass installs.

Spans are kept in memory as ``(span_id, parent_id, name, start, end)`` tuples
and written out when the run ends.  The wrappers sit at the program's public
boundaries only:

* the ``GenFn`` handed to ``harness.for_all_stream``;
* a ``Transformation`` whose ``step`` wraps the subject's;
* a ``runtime.Monitor`` subclass bound as ``harness.Monitor``;
* ``semantics.models`` as the harness calls it (``harness.semantics``);
* direct calls on the monitor and scenario routes.

An untraced pass uses :class:`Hooks`, whose wrappers are the identity, so the
timed runs carry no tracing code inside the program.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

Span = Tuple[int, int, str, float, float]


class Tracer:
    """Collects spans and counts from every thread of one traced pass.

    A span opened on a thread with no open span is parented to ``root``, the
    property run in progress, so the spans of the harness's worker threads
    hang under the run that started them.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.root = 0
        self.in_harness = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: List[Counter] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def root_call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Like :meth:`call`, and adopts spans opened on other threads meanwhile."""
        span_id = next(self._ids)
        previous = self.root
        self.root = span_id
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.root = previous
            self.spans.append((span_id, previous, name, start, end))

    def counter(self) -> Counter:
        """This thread's counter; threads never share one, so no update is lost."""
        try:
            return self._local.counter
        except AttributeError:
            counter = Counter()
            self._local.counter = counter
            with self._lock:
                self._counters.append(counter)
            return counter

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for counter in self._counters:
            for key, value in counter.items():
                if key.endswith("_max"):
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name: each span's duration minus what its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, start, end in self.spans:
            children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            totals[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end})
                )
                handle.write("\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``.

    Children of one span overlap when the harness runs cases on threads.
    """
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Hooks:
    """Untraced pass: every wrapper is the identity."""

    def gen(self, gen_fn: Callable) -> Callable:
        return gen_fn

    def subject(self, transformation):
        return transformation

    def monitor_cls(self):
        from streamcheck import runtime

        return runtime.Monitor

    def call(self, _name: str, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def property_run(self, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def models(self, word, phi):
        from streamcheck import semantics

        return semantics.models(word, phi)

    def add(self, _key: str, _n: int = 1) -> None:
        pass

    @contextmanager
    def installed(self) -> Iterator[None]:
        yield


class TracedHooks(Hooks):
    """Traced pass: spans and counts at every public boundary."""

    def __init__(self, tracer: Tracer):
        from streamcheck import runtime

        self.tracer = tracer

        class TracedMonitor(runtime.Monitor):
            def __init__(self, formula):
                tracer.call("runtime.init", super().__init__, formula)
                tracer.counter()["runtime.monitors"] += 1

            def step(self, letter, time_ms):
                verdict = tracer.call("runtime.step", super().step, letter, time_ms)
                counter = tracer.counter()
                counter["runtime.steps"] += 1
                if tracer.in_harness:
                    counter["harness.monitor_steps"] += 1
                _count_residual(counter, self.trace[-1].formula_size)
                return verdict

            def finish(self):
                before = len(self.trace)
                verdict = tracer.call("runtime.finish", super().finish)
                counter = tracer.counter()
                counter["runtime.finishes"] += 1
                if len(self.trace) > before:
                    _count_residual(counter, self.trace[-1].formula_size)
                return verdict

        self._monitor_cls = TracedMonitor

    def gen(self, gen_fn: Callable) -> Callable:
        tracer = self.tracer

        def traced(rng):
            prefix = tracer.call("generators", gen_fn, rng)
            counter = tracer.counter()
            counter["generators.prefixes"] += 1
            counter["generators.batches"] += len(prefix)
            counter["generators.elements"] += sum(map(len, prefix))
            return prefix

        return traced

    def subject(self, transformation):
        tracer = self.tracer
        step = transformation.step

        def traced_step(state, batch, time_ms):
            state, out = tracer.call("harness.subject", step, state, batch, time_ms)
            counter = tracer.counter()
            counter["harness.subject_steps"] += 1
            counter["harness.subject_elements_out"] += len(out)
            return state, out

        return dataclasses.replace(transformation, step=traced_step)

    def monitor_cls(self):
        return self._monitor_cls

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        return self.tracer.call(name, fn, *args)

    def property_run(self, fn: Callable, *args: Any) -> Any:
        self.tracer.in_harness = True
        try:
            return self.tracer.root_call("harness.run", fn, *args)
        finally:
            self.tracer.in_harness = False

    def models(self, word, phi):
        from streamcheck import semantics

        counter = self.tracer.counter()
        counter["semantics.calls"] += 1
        counter["semantics.letters"] += len(word)
        return self.tracer.call("semantics", semantics.models, word, phi)

    def add(self, key: str, n: int = 1) -> None:
        self.tracer.counter()[key] += n

    @contextmanager
    def installed(self) -> Iterator[None]:
        from streamcheck import harness

        saved = harness.Monitor, harness.semantics
        harness.Monitor = self._monitor_cls
        harness.semantics = _SemanticsProxy(saved[1], self)
        try:
            yield
        finally:
            harness.Monitor, harness.semantics = saved


def _count_residual(counter: Counter, size: int) -> None:
    counter["runtime.residual_nodes"] += size
    if size > counter["runtime.residual_max"]:
        counter["runtime.residual_max"] = size


class _SemanticsProxy:
    """Stands in for the ``semantics`` module inside ``harness``."""

    def __init__(self, module, hooks: TracedHooks):
        self._module = module
        self._hooks = hooks

    def models(self, word, phi):
        return self._hooks.models(word, phi)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


# Per-layer metrics of one traced pass: name -> unit.  Times are seconds of
# self time summed over the pass; ratios are unitless shares.
PER_LAYER_UNITS: Dict[str, str] = {
    "generators.prefixes": "count",
    "generators.batches": "count",
    "generators.elements": "count",
    "generators.self_s": "s",
    "harness.subject_steps": "count",
    "harness.subject_self_s": "s",
    "harness.subject_elements_out": "count",
    "harness.replay_steps": "count",
    "harness.cases_run": "count",
    "harness.cases_reported": "count",
    "harness.useful_case_ratio": "ratio",
    "harness.consumed_batch_ratio": "ratio",
    "harness.loop_self_s": "s",
    "runtime.monitors": "count",
    "runtime.steps": "count",
    "runtime.finishes": "count",
    "runtime.init_s": "s",
    "runtime.self_s": "s",
    "runtime.residual_max": "count",
    "runtime.residual_nodes": "count",
    "semantics.calls": "count",
    "semantics.letters": "count",
    "semantics.self_s": "s",
    "sexpr.self_s": "s",
    "cli.interp_s": "s",
    "symbolic.compile_s": "s",
    "symbolic.next_form_s": "s",
    "symbolic.judge_s": "s",
    "wordgen.words": "count",
    "wordgen.gen_err_ratio": "ratio",
    "wordgen.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(tracer: Tracer) -> Dict[str, float]:
    """Count-valued per-layer metrics; these repeat exactly for a given seed."""
    c = tracer.counts()
    get = lambda key: c.get(key, 0)  # noqa: E731
    attempts = get("wordgen.attempts")
    return {
        "generators.prefixes": get("generators.prefixes"),
        "generators.batches": get("generators.batches"),
        "generators.elements": get("generators.elements"),
        "harness.subject_steps": get("harness.subject_steps"),
        "harness.subject_elements_out": get("harness.subject_elements_out"),
        "harness.replay_steps": get("harness.subject_steps") - get("harness.monitor_steps"),
        # Every case the harness runs draws exactly one prefix.
        "harness.cases_run": get("generators.prefixes"),
        "harness.cases_reported": get("harness.cases_reported"),
        "harness.useful_case_ratio": _ratio(get("harness.cases_reported"), get("generators.prefixes")),
        "harness.consumed_batch_ratio": _ratio(get("harness.monitor_steps"), get("generators.batches")),
        "runtime.monitors": get("runtime.monitors"),
        "runtime.steps": get("runtime.steps"),
        "runtime.finishes": get("runtime.finishes"),
        "runtime.residual_max": get("runtime.residual_max"),
        "runtime.residual_nodes": get("runtime.residual_nodes"),
        "semantics.calls": get("semantics.calls"),
        "semantics.letters": get("semantics.letters"),
        "wordgen.words": attempts - get("wordgen.gen_err"),
        "wordgen.gen_err_ratio": _ratio(get("wordgen.gen_err"), attempts),
    }


def layer_times(tracer: Tracer) -> Dict[str, float]:
    """Self-time per-layer metrics, in seconds."""
    t = tracer.self_times()
    get = lambda key: t.get(key, 0.0)  # noqa: E731
    return {
        "generators.self_s": get("generators"),
        "harness.subject_self_s": get("harness.subject"),
        "harness.loop_self_s": get("harness.run"),
        "runtime.init_s": get("runtime.init"),
        "runtime.self_s": get("runtime.init") + get("runtime.step") + get("runtime.finish"),
        "semantics.self_s": get("semantics"),
        "sexpr.self_s": get("sexpr"),
        "cli.interp_s": get("cli.interp"),
        "symbolic.compile_s": get("symbolic.compile"),
        "symbolic.next_form_s": get("symbolic.next_form"),
        "symbolic.judge_s": get("symbolic.judge"),
        "wordgen.self_s": get("wordgen"),
    }
