"""Machine-speed calibration for the benchmark's timings.

The VM this benchmark was defined on (2 vCPUs) runs identical Python work at
speeds that differ by up to 1.6x from one stretch of a second or so to the
next, in wall and CPU time alike (neighbouring load on shared cores).  Raw
medians of 50-second runs spread by 19 to 46% between runs.  Every timed
sample is therefore scaled by how long a fixed reference kernel took right
before and right after it, and long samples piecewise (:class:`SegmentTimer`):

    calibrated = raw * REFERENCE_S / mean(kernel before, kernel after)

The kernel shares no code with ``streamcheck``, so a faster program still
reads faster; it runs with the garbage collector off, so the program's heap
size does not leak into it.  Its op mix (small frozen dataclasses,
``isinstance`` dispatch, recursion, tuples, dicts, strings, closures) is the
program's.  Calibrated times read as milliseconds on a machine where the
kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from random import Random
from time import perf_counter
from typing import Any, List

# About the kernel's time on the 2-vCPU Xeon VM the benchmark was defined on
# (2.8 to 5 ms with Python 3.11, depending on neighbouring load).  A constant,
# so calibrated numbers compare across runs and commits.
REFERENCE_S = 0.004


@dataclass(frozen=True)
class _Node:
    op: str
    left: Any
    right: Any


def _build(rng: Random, depth: int) -> Any:
    if depth == 0:
        return rng.random() < 0.5 or ("atom", rng.randrange(8))
    return _Node(rng.choice("&|"), _build(rng, depth - 1), _build(rng, depth - 1))


def _simplify(node: Any, env: dict) -> Any:
    if isinstance(node, _Node):
        left = _simplify(node.left, env)
        right = _simplify(node.right, env)
        absorbing = node.op == "|"
        if left is absorbing or right is absorbing:
            return absorbing
        if left is (not absorbing):
            return right
        if right is (not absorbing):
            return left
        return _Node(node.op, left, right)
    if isinstance(node, tuple):
        return env.get(node, node)
    return node


def _kernel_once() -> None:
    rng = Random(1812)
    env = {("atom", k): k % 3 == 0 for k in range(0, 8, 2)}
    tally: dict = {}
    for _ in range(6):
        tree = _simplify(_build(rng, 8), env)
        words = [f"#{rng.randrange(40)}" for _ in range(120)]
        for word in filter(lambda w: len(w) > 2, words):
            tally[word] = tally.get(word, 0) + (tree is True)
    sorted(tally.items())


def kernel_seconds() -> float:
    """Wall time of the reference kernel: the faster of two passes, which
    drops a pass that a page fault or a scheduler hiccup happened to hit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            start = perf_counter()
            _kernel_once()
            times.append(perf_counter() - start)
        return min(times)
    finally:
        if enabled:
            gc.enable()


# A segment this long or longer is cut in two by a calibration; see
# :class:`SegmentTimer`.
SEGMENT_S = 0.1


class Calibrator:
    """Turns raw seconds into calibrated ones, by the kernel on either side.

    Every kernel run closes the current segment of every open
    :class:`SegmentTimer`, so timers may nest: a segment never contains a
    kernel run, and the kernels on its two sides are the ones that scale it.
    """

    def __init__(self) -> None:
        self._last = kernel_seconds()
        self.open: List["SegmentTimer"] = []

    def factor(self) -> float:
        """Run the kernel; the factor for the time since its previous run."""
        end = perf_counter()
        after = kernel_seconds()
        factor = REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        restart = perf_counter()
        for timer in self.open:
            segment = end - timer.start
            timer.raw += segment
            timer.calibrated += segment * factor
            timer.start = restart
        return factor


class SegmentTimer:
    """Times one long computation in segments of about ``SEGMENT_S``.

    The machine's speed changes within a second, so a sample that lasts
    seconds is calibrated piecewise: :meth:`tick`, called between steps of
    the computation, closes a segment once it is long enough, and so does
    any other kernel run while the timer is open.  The timer opens with a
    kernel run, so its first segment has a fresh kernel before it too.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.raw = 0.0
        self.calibrated = 0.0
        calibrator.factor()
        self.start = perf_counter()
        calibrator.open.append(self)

    def tick(self) -> None:
        if perf_counter() - self.start >= SEGMENT_S:
            self.calibrator.factor()

    def stop(self) -> None:
        """Close the last segment; the totals are final."""
        self.calibrator.factor()
        self.calibrator.open.remove(self)
