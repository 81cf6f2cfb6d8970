"""Reference folds of the timed operators' windows, for the tests' judges.

The folds spell out the judgment clauses for the timed operators.  Over
decided sub-verdicts they coincide with the familiar existential / universal
readings: eventually is true iff some window position is true and false iff
all are false; until is true iff the right operand turns true within the
window with the left true before it, and dually for refutation.
Inconclusive sub-verdicts (the word ended before a sub-formula resolved)
propagate through the three-valued connectives.
"""

from typing import Callable, Iterable, Sequence

from streamcheck import truth
from streamcheck.truth import FALSE, TRUE, Verdict


def conj_all(values: Iterable[Verdict]) -> Verdict:
    """Meet of ``values``; stops consuming them at the first FALSE."""
    result = TRUE
    for v in values:
        if v is FALSE:
            return FALSE
        result = truth.conj(result, v)
    return result


def disj_any(values: Iterable[Verdict]) -> Verdict:
    """Join of ``values``; stops consuming them at the first TRUE."""
    result = FALSE
    for v in values:
        if v is TRUE:
            return TRUE
        result = truth.disj(result, v)
    return result


def eventually_fold(window: Sequence[int], at: Callable[[int], Verdict]) -> Verdict:
    return disj_any(at(k) for k in window)


def always_fold(window: Sequence[int], at: Callable[[int], Verdict]) -> Verdict:
    return conj_all(at(k) for k in window)


def until_fold(
    window: Sequence[int],
    left_at: Callable[[int], Verdict],
    right_at: Callable[[int], Verdict],
) -> Verdict:
    acc = FALSE  # an exhausted window refutes
    for k in reversed(window):
        acc = truth.disj(right_at(k), truth.conj(left_at(k), acc))
    return acc


def release_fold(
    window: Sequence[int],
    left_at: Callable[[int], Verdict],
    right_at: Callable[[int], Verdict],
) -> Verdict:
    acc = TRUE  # surviving the whole window without a release succeeds
    for k in reversed(window):
        acc = truth.disj(
            truth.conj(left_at(k), right_at(k)),
            truth.conj(right_at(k), acc),
        )
    return acc


# The folds by operator class name.
WINDOW_FOLDS = {
    "Eventually": eventually_fold,
    "Always": always_fold,
    "Until": until_fold,
    "Release": release_fold,
}
