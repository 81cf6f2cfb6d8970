"""Direct recursive judgment of runtime formulas over finite timed words.

This is the trusted oracle: it has unrestricted lookahead into the word and
revisits positions freely, so it is only meant for tests and cross-checks,
not for the property-running hot path.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

from . import runtime, truth
from .truth import Verdict

Word = Sequence[Tuple[Any, int]]

# The folds below spell out the judgment clauses for the timed operators.
# Over decided sub-verdicts they coincide with the familiar existential /
# universal readings: eventually is true iff some window position is true and
# false iff all are false; until is true iff the right operand turns true
# within the window with the left true before it, and dually for refutation.
# Inconclusive sub-verdicts (the word ended before a sub-formula resolved)
# propagate through the three-valued connectives.


def eventually_fold(window: Sequence[int], at: Callable[[int], Verdict]) -> Verdict:
    return truth.disj_any(at(k) for k in window)


def always_fold(window: Sequence[int], at: Callable[[int], Verdict]) -> Verdict:
    return truth.conj_all(at(k) for k in window)


def until_fold(
    window: Sequence[int],
    left_at: Callable[[int], Verdict],
    right_at: Callable[[int], Verdict],
) -> Verdict:
    acc = truth.FALSE  # an exhausted window refutes
    for k in reversed(window):
        acc = truth.disj(right_at(k), truth.conj(left_at(k), acc))
    return acc


def release_fold(
    window: Sequence[int],
    left_at: Callable[[int], Verdict],
    right_at: Callable[[int], Verdict],
) -> Verdict:
    acc = truth.TRUE  # surviving the whole window without a release succeeds
    for k in reversed(window):
        acc = truth.disj(
            truth.conj(left_at(k), right_at(k)),
            truth.conj(right_at(k), acc),
        )
    return acc


# The folds by operator class name, which is the same in both formula algebras.
WINDOW_FOLDS = {
    "Eventually": eventually_fold,
    "Always": always_fold,
    "Until": until_fold,
    "Release": release_fold,
}


def judge(word: Word, position: int, phi: runtime.Formula) -> Verdict:
    """Verdict of ``phi`` at the 1-based ``position`` of ``word``."""
    if position < 1:
        raise ValueError("positions are 1-based")
    if isinstance(phi, runtime.Solved):
        return phi.value
    if isinstance(phi, runtime.Not):
        return truth.neg(judge(word, position, phi.body))
    if isinstance(phi, runtime.And):
        return truth.conj(judge(word, position, phi.left), judge(word, position, phi.right))
    if isinstance(phi, runtime.Or):
        return truth.disj(judge(word, position, phi.left), judge(word, position, phi.right))
    if isinstance(phi, runtime.Implies):
        return truth.implies(judge(word, position, phi.left), judge(word, position, phi.right))
    if isinstance(phi, runtime.Next):
        return judge(word, position + 1, phi.body)
    if isinstance(phi, runtime.Consume):
        if position <= len(word):
            value, time = word[position - 1]
            return judge(word, position + 1, phi.consumer(value, time))
        return truth.INCONCLUSIVE
    if isinstance(phi, (runtime.Eventually, runtime.Always, runtime.Until, runtime.Release)):
        fold = WINDOW_FOLDS[type(phi).__name__]
        window = range(position, position + phi.timeout)
        if isinstance(phi, (runtime.Until, runtime.Release)):
            return fold(window, lambda k: judge(word, k, phi.left), lambda k: judge(word, k, phi.right))
        return fold(window, lambda k: judge(word, k, phi.body))
    raise runtime.FormulaError(f"cannot judge {phi!r}")


def models(word: Word, phi: runtime.Formula) -> Verdict:
    """Judgment of ``phi`` at the start of ``word``."""
    return judge(word, 1, phi)
