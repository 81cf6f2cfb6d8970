"""Direct recursive judgment of runtime formulas over finite timed words.

This is the trusted oracle: it has unrestricted lookahead into the word and
revisits positions freely, so it is only meant for tests and cross-checks,
not for the property-running hot path.  Within one call of :func:`judge`,
each operand of a timed operator is judged at most once per position, however
many windows cover that position (the verdict table of LTL path checking).
Predicates and consumers must therefore be pure, as ``runtime.Consume``
already requires: a repeated evaluation is answered from that table.

Next to its verdicts, each ``Eventually`` / ``Always`` operand keeps a skip
map per neutral verdict (F for ``Eventually``, T for ``Always``) that points
from a position over a run of positions known to judge neutral.  A window
scans upward, steps over those runs, points the run it walked at its end,
and stops at the first absorbing verdict, so the windows of a nested
``Always(n, Eventually(n, p))`` cost amortised linear time in the word.

Every position past the word judges alike: a ``Consume`` there is ``?`` and
calls no user code.  So a window of any of the four operators that reaches
past the word judges only the first position past it, once, and stops there.
``Until`` / ``Release`` still fold their window right to left.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, Tuple

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
    """Verdict of ``phi`` at the 1-based ``position`` of ``word``.

    Each window operand is judged at most once per position within this
    call, so predicates and consumers must be pure.  The table of those
    verdicts, and the skip maps of the ``Eventually`` / ``Always`` windows,
    live only as long as the call.  Windows are scanned in ascending order
    and stop at the first absorbing verdict, as :data:`WINDOW_FOLDS` does,
    and a window's positions past the end of the word are judged once, as
    the first of them: the same predicate call raises first as in a plain
    fold over the whole window.
    """
    if position < 1:
        raise ValueError("positions are 1-based")
    return _judge(word, position, phi, {})


# The window operands of one ``judge`` call, by operand identity.  Each entry
# holds its operand, which pins the id for the whole call, its verdicts by
# position and its skip maps by neutral verdict: ``skip[i] = j`` records that
# the operand judges neutral at every position from ``i`` to ``j - 1``.
_Entry = Tuple[runtime.Formula, Dict[int, Verdict], Dict[Verdict, Dict[int, int]]]
_Memo = Dict[int, _Entry]


def _judge(word: Word, position: int, phi: runtime.Formula, memo: _Memo) -> Verdict:
    if isinstance(phi, runtime.Solved):
        return phi.value
    if isinstance(phi, runtime.Not):
        return truth.neg(_judge(word, position, phi.body, memo))
    if isinstance(phi, runtime.And):
        return truth.conj(_judge(word, position, phi.left, memo), _judge(word, position, phi.right, memo))
    if isinstance(phi, runtime.Or):
        return truth.disj(_judge(word, position, phi.left, memo), _judge(word, position, phi.right, memo))
    if isinstance(phi, runtime.Implies):
        return truth.implies(_judge(word, position, phi.left, memo), _judge(word, position, phi.right, memo))
    if isinstance(phi, runtime.Next):
        return _judge(word, position + 1, phi.body, memo)
    if isinstance(phi, runtime.Consume):
        if position <= len(word):
            value, time = word[position - 1]
            return _judge(word, position + 1, phi.consumer(value, time), memo)
        return truth.INCONCLUSIVE
    if isinstance(phi, runtime.Timed):
        # Every position past the word judges alike, so the window stops at
        # the first of them.  Repeating it would change nothing: join and
        # meet are idempotent, and from its seed an ``Until`` / ``Release``
        # step over a repeated position gives the right operand's verdict at
        # once, by absorption.
        past = len(word) + 1
        window = range(min(position, past), min(position + phi.timeout, past + 1))
        if isinstance(phi, (runtime.Until, runtime.Release)):
            fold = WINDOW_FOLDS[type(phi).__name__]
            return fold(window, _operand_at(word, phi.left, memo), _operand_at(word, phi.right, memo))
        neutral = truth.FALSE if isinstance(phi, runtime.Eventually) else truth.TRUE
        return _skip_fold(word, window, phi.body, neutral, memo)
    raise runtime.FormulaError(f"cannot judge {phi!r}")


def _entry(memo: _Memo, operand: runtime.Formula) -> _Entry:
    entry = memo.get(id(operand))
    if entry is None:
        entry = memo[id(operand)] = (operand, {}, {})
    return entry


def _operand_at(word: Word, operand: runtime.Formula, memo: _Memo) -> Callable[[int], Verdict]:
    """``k -> verdict of operand at k``, judged once per position and call."""
    verdicts = _entry(memo, operand)[1]

    def at(k: int) -> Verdict:
        verdict = verdicts.get(k)
        if verdict is None:
            # Stored only once judged: a raising predicate leaves no entry.
            verdict = verdicts[k] = _judge(word, k, operand, memo)
        return verdict

    return at


def _skip_fold(
    word: Word, window: range, operand: runtime.Formula, neutral: Verdict, memo: _Memo
) -> Verdict:
    """Join (``neutral`` F) or meet (``neutral`` T) of ``operand`` over
    ``window``, ascending, stopping at the first absorbing verdict and
    stepping over the neutral runs its skip map records."""
    _, verdicts, skips = _entry(memo, operand)
    skip = skips.setdefault(neutral, {})
    result = neutral
    walked = []  # positions of the neutral run being crossed
    k, stop = window.start, window.stop
    while k < stop:
        j = skip.get(k)
        if j is not None:
            walked.append(k)
            k = j
            continue
        verdict = verdicts.get(k)
        if verdict is None:
            verdict = verdicts[k] = _judge(word, k, operand, memo)
        if verdict is neutral:
            walked.append(k)
            k += 1
            continue
        for w in walked:
            skip[w] = k
        walked = []
        if verdict is not truth.INCONCLUSIVE:
            return verdict
        result = verdict
        k += 1
    for w in walked:
        skip[w] = k
    return result


def models(word: Word, phi: runtime.Formula) -> Verdict:
    """Judgment of ``phi`` at the start of ``word``."""
    return judge(word, 1, phi)
