"""Reference judgment of runtime formulas over finite timed words.

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
and stops at the first absorbing verdict.  A window that starts at ``first``
and stops at an absorbing verdict at ``m`` has that verdict at every start
from ``first`` to ``m``: its operand is neutral or ``?`` before ``m``, and
T or ? is T, F and ? is F.  When the window is itself a window operand, it
points its entry's skip map for that verdict from ``first + 1`` to ``m + 1``,
so an enclosing window for which that verdict is neutral steps over those
starts.  The inner window of a nested ``Always(n, Eventually(n, p))`` is
thus scanned once per decided run, not once per start.  The lowered windows
of :func:`symbolic.judge` are fresh nodes that are no window operand, so
this never applies there.  A window judges an atom operand (a ``Consume``)
at a position of the word in place: a decided result is the verdict without
a frame of its own.

Every position past the word judges alike: a ``Consume`` there is ``?`` and
calls no user code.  So a window of any of the four operators that reaches
past the word judges only the first position past it, once, and stops there.
``Until`` / ``Release`` still fold their window right to left.

The judgment is one loop over an explicit stack of frames, one per node
waiting for the verdict of a child, so its depth is bounded by memory, not
by Python's recursion limit: eager next forms at timeout 10,000 judge as
their lazy forms do.  :func:`symbolic.judge` runs on the same loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from . import runtime, truth
from .runtime import Always, And, Consume, Eventually, Implies, Next, Not, Or, Release, Solved, Until
from .truth import Verdict

Word = Sequence[Tuple[Any, int]]

# The window operands of one ``judge`` call, by operand identity.  Each entry
# holds its operand, which pins the id for the whole call, its verdicts by
# position and its skip maps by neutral verdict: ``skip[i] = j`` records that
# the operand judges neutral at every position from ``i`` to ``j - 1``.
_Entry = Tuple[runtime.Formula, Dict[int, Verdict], Dict[Verdict, Dict[int, int]]]
_Memo = Dict[int, _Entry]

# Frame tags.  A frame waits for the verdict of the node judged above it:
# _LEFT (tag, connective, node, position) for a connective's left operand,
# then _RIGHT (tag, connective, left verdict) for its right; _NOT (tag,);
# _SCAN (tag, window, operand, verdicts, skip, neutral, first, position,
# stop, walked, result) for an ``Eventually`` / ``Always`` window that
# started at ``first``; and
# _FOLD (tag, is until, first, second, first verdicts, second verdicts,
# position, start, accumulator, first's verdict or None) for an ``Until`` /
# ``Release`` window, whose first operand is judged before its second at
# each position.
_SCAN, _LEFT, _RIGHT, _NOT, _FOLD = range(5)
_NOT_FRAME = (_NOT,)
_CONNECTIVES = {And: truth.conj, Or: truth.disj, Implies: truth.implies}


def _foreign(node: Any) -> runtime.Formula:
    raise runtime.FormulaError(f"cannot judge {node!r}")


def _entry(memo: _Memo, operand: runtime.Formula) -> _Entry:
    entry = memo.get(id(operand))
    if entry is None:
        entry = memo[id(operand)] = (operand, {}, {})
    return entry


def judge(word: Word, position: int, phi: runtime.Formula, lower: Callable = _foreign) -> Verdict:
    """Verdict of ``phi`` at the 1-based ``position`` of ``word``.

    Each window operand is judged at most once per position within this
    call, so predicates and consumers must be pure; a window operand that is
    itself an ``Eventually`` / ``Always`` window is not judged at the later
    starts that one of its decided judgments covers, and its verdict there is
    inferred.  The table of those verdicts, and the skip maps of the
    ``Eventually`` / ``Always`` windows, live only as long as the call.
    Windows are scanned in ascending order and stop at the first absorbing
    verdict, as a left-to-right fold of the window's verdicts through the
    connectives does, and a window's positions past the end of the word are
    judged once, as the first of them: the same predicate call raises first
    as in a plain fold over the whole window.

    The judgment keeps its pending nodes on a stack of its own, not on
    Python's, and calls predicates and consumers in a fixed order: a
    connective's left operand before its right, and at each position of an
    ``Until`` window its right operand before its left (of a ``Release``
    window, its left before its right).  A node of any other type than the
    runtime formula types is judged as the node ``lower`` returns for it:
    :func:`symbolic.judge` lowers its atoms, windows and consumes there,
    while the connectives and verdict leaves it shares with the runtime are
    judged here directly.  By default such a node is foreign, as in the
    monitor, even a subclass of a formula type: it raises
    :class:`runtime.FormulaError`.
    """
    if position < 1:
        raise ValueError("positions are 1-based")
    FALSE, INCONCLUSIVE, TRUE = truth.FALSE, truth.INCONCLUSIVE, truth.TRUE
    last = len(word)
    past = last + 1
    memo: _Memo = {}
    stack: List[tuple] = []
    node, k = phi, position
    while True:
        # Descend from ``node`` at ``k`` until a verdict is known.  A consume
        # and a next hand their position on to their continuation in place.
        kind = type(node)
        if kind is Consume:
            if k <= last:
                letter, time = word[k - 1]
                node = node.consumer(letter, time)
                k += 1
                continue
            verdict = INCONCLUSIVE
        elif kind is Solved:
            verdict = node.value
        elif kind is And or kind is Or or kind is Implies:
            stack.append((_LEFT, _CONNECTIVES[kind], node, k))
            node = node.left
            continue
        elif kind is Next:
            node = node.body
            k += 1
            continue
        elif kind is Not:
            stack.append(_NOT_FRAME)
            node = node.body
            continue
        elif kind is Eventually or kind is Always or kind is Until or kind is Release:
            # Every position past the word judges alike, so the window stops
            # at the first of them.  Repeating it would change nothing: join
            # and meet are idempotent, and from its seed an ``Until`` /
            # ``Release`` step over a repeated position gives the right
            # operand's verdict at once, by absorption.
            start = k if k < past else past
            stop = k + node.timeout
            if stop > past:
                stop = past + 1
            if kind is Eventually or kind is Always:
                neutral = FALSE if kind is Eventually else TRUE
                _, verdicts, skips = _entry(memo, node.body)
                skip = skips.setdefault(neutral, {})
                frame = (_SCAN, node, node.body, verdicts, skip, neutral, start, start, stop, [], neutral)
            else:
                lefts, rights = _entry(memo, node.left)[1], _entry(memo, node.right)[1]
                if kind is Until:
                    frame = (_FOLD, True, node.right, node.left, rights, lefts, stop - 1, start, FALSE, None)
                else:
                    frame = (_FOLD, False, node.left, node.right, lefts, rights, stop - 1, start, TRUE, None)
            stack.append(frame)
            verdict = None  # the window frame starts without a verdict
        else:
            node = lower(node)
            continue

        # Ascend: hand ``verdict`` to the waiting frames until one of them
        # needs another node judged.
        while stack:
            frame = stack.pop()
            tag = frame[0]
            if tag == _SCAN:
                _, window, operand, verdicts, skip, neutral, first, j, stop, walked, result = frame
                if verdict is not None:  # the operand's verdict at j, just judged
                    verdicts[j] = verdict
                while True:
                    if verdict is not None:
                        if verdict is neutral:
                            walked.append(j)
                        else:
                            for w in walked:
                                skip[w] = j
                            walked = []
                            if verdict is not INCONCLUSIVE:
                                # Absorbing: the window's verdict, and its
                                # verdict at every later start up to j,
                                # unless a longer run of them is known.
                                entry = memo.get(id(window)) if j > first else None
                                if entry is not None:
                                    runs = entry[2].setdefault(verdict, {})
                                    if runs.get(first + 1, 0) <= j:
                                        runs[first + 1] = j + 1
                                break
                            result = verdict
                        j += 1
                    while j < stop:
                        s = skip.get(j)
                        if s is None:
                            break
                        walked.append(j)
                        j = s
                    if j >= stop:
                        for w in walked:
                            skip[w] = j
                        verdict = result
                        break
                    verdict = verdicts.get(j)
                    if verdict is None:
                        if type(operand) is Consume and j <= last:
                            # An atom is judged in place: a decided result
                            # is its verdict at j, without a frame.
                            letter, time = word[j - 1]
                            node, k = operand.consumer(letter, time), j + 1
                            if type(node) is Solved:
                                verdict = verdicts[j] = node.value
                                continue
                        else:
                            node, k = operand, j
                        stack.append(
                            (_SCAN, window, operand, verdicts, skip, neutral, first, j, stop, walked, result)
                        )
                        break
                if verdict is None:
                    break  # judge the operand at j
            elif tag == _LEFT:
                _, connective, parent, k = frame
                stack.append((_RIGHT, connective, verdict))
                node = parent.right
                break
            elif tag == _RIGHT:
                verdict = frame[1](frame[2], verdict)
            elif tag == _NOT:
                verdict = truth.neg(verdict)
            else:
                _, until, first, second, vfirst, vsecond, j, start, acc, a = frame
                if verdict is not None:  # the verdict at j of the operand asked for
                    if a is None:
                        vfirst[j] = verdict
                    else:
                        vsecond[j] = verdict
                while j >= start:
                    if a is None:
                        a = vfirst.get(j)
                        if a is None:
                            node = first
                            break
                    b = vsecond.get(j)
                    if b is None:
                        node = second
                        break
                    if until:  # a is the right operand, b the left
                        acc = truth.disj(a, truth.conj(b, acc))
                    else:  # a is the left operand, b the right
                        acc = truth.disj(truth.conj(a, b), truth.conj(b, acc))
                    a = None
                    j -= 1
                else:
                    verdict = acc
                    continue
                stack.append((_FOLD, until, first, second, vfirst, vsecond, j, start, acc, a))
                k = j
                break
        else:
            return verdict


def models(word: Word, phi: runtime.Formula) -> Verdict:
    """Judgment of ``phi`` at the start of ``word``."""
    return judge(word, 1, phi)
