"""Random word generation driven by next-form formulas.

The generator tries to build a word that makes the formula true.  Each
position of the generated word is a finite set (a batch) of domain elements;
conjunction generates both operands from the same position, disjunction picks
a branch at random and backtracks if it fails, implication generates from the
conclusion only, and a consume picks a witness from the interpretation's
declared constant pool.  The word is built once, from the records kept.

The negation operator and the false and inconclusive verdict leaves are
outside the generatable fragment, as is any consume whose time variable occurs
in the body (times are attached later by the harness clock).
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from . import runtime, symbolic, truth
from .symbolic import App, Env, Interpretation, SymFormula
from .truth import Verdict


class GeneratorFragmentError(Exception):
    """The formula is outside the fragment word generation supports."""


class _ErrWord:
    """Erroneous sequence: the result of a generation that failed."""

    _instance: "_ErrWord" = None  # type: ignore[assignment]

    def __new__(cls) -> "_ErrWord":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "GEN_ERR"


GEN_ERR = _ErrWord()

Batches = List[FrozenSet[object]]
GenResult = Union[Batches, _ErrWord]
# A position the word reaches, with no element at a ``next`` and with the
# witness at a consume whose body was generated.
_Kept = List[Tuple[int, Tuple[object, ...]]]


def _kind(phi: SymFormula) -> object:
    """A node's type, or the verdict of a verdict leaf."""
    return phi.value if type(phi) is runtime.Solved else type(phi)


_GENERATABLE = {
    truth.TRUE, symbolic.Pred, symbolic.Eq, symbolic.And, symbolic.Or, symbolic.Implies,
    symbolic.Next, symbolic.Consume,
}
_NOT_GENERATABLE = {
    symbolic.Not: "negation is not generatable",
    truth.FALSE: "the false constant is not generatable",
    truth.INCONCLUSIVE: "the inconclusive constant is not generatable",
    symbolic.Consume: "time variable {phi.time_var!r} may not occur in a generated body",
}


_Scan = Tuple[Set[str], Optional[SymFormula]]


def _scan(phi: SymFormula, kids: Sequence[_Scan]) -> _Scan:
    """Free variables of ``phi`` and its first node outside the fragment, in pre-order."""
    free = symbolic.node_free_vars(phi, [kid_free for kid_free, _ in kids])
    kind = _kind(phi)
    if kind not in _GENERATABLE or (kind is symbolic.Consume and phi.time_var in kids[0][0]):
        return free, phi
    for _, bad in kids:
        if bad is not None:
            return free, bad
    return free, None


def generate_word(
    phi: SymFormula, interp: Interpretation, rng: random.Random
) -> GenResult:
    """Generate a word of batches satisfying ``phi``, or ``GEN_ERR``.

    ``phi`` must be closed, in next form and inside the generatable fragment;
    fragment violations raise, plain generation failure returns ``GEN_ERR``.
    """
    free, bad = runtime.fold(phi, symbolic.CHILDREN, _scan)
    if free:
        raise GeneratorFragmentError("formula must be closed")
    if bad is not None:
        template = _NOT_GENERATABLE.get(_kind(bad), "formula is not in next form: {phi!r}")
        raise GeneratorFragmentError(template.format(phi=bad))
    kept: _Kept = []
    if not _fill(phi, 0, kept, interp, rng, symbolic.NO_BINDINGS):
        return GEN_ERR
    word = [set() for _ in range(max((pos for pos, _ in kept), default=-1) + 1)]
    for pos, elements in kept:
        word[pos].update(elements)
    return [frozenset(batch) for batch in word]


def _fill(
    phi: SymFormula, pos: int, kept: _Kept, interp: Interpretation, rng: random.Random, env: Env
) -> bool:
    """Generate ``phi`` from ``pos`` on into ``kept``, and say whether it was generated.

    ``env`` binds the variable of each enclosing consume to the witness tried
    for it; the body is not rewritten.  The records of a choice that failed
    are cut before the next one is tried.  The walk loops down a
    conjunction's right operand and the bodies of ``next`` and ``implies``,
    so it recurses only into left operands and choices, and ``ok`` says
    whether every left operand on the way passed.
    """
    ok = True
    while isinstance(phi, (symbolic.And, symbolic.Implies, symbolic.Next)):
        if isinstance(phi, symbolic.Next):
            kept.append((pos, ()))
            phi, pos = phi.body, pos + 1
        else:
            if isinstance(phi, symbolic.And):  # the right draws even if the left failed
                ok = _fill(phi.left, pos, kept, interp, rng, env) and ok
            phi = phi.right
    if type(phi) is runtime.Solved:
        return ok  # only a ``true`` leaf passes the fragment check
    if isinstance(phi, (symbolic.Pred, symbolic.Eq)):
        return symbolic._holds(phi, interp, False, env) and ok
    mark = len(kept)
    if isinstance(phi, symbolic.Or):
        branches = [phi.left, phi.right]
        rng.shuffle(branches)
        for branch in branches:
            if _fill(branch, pos, kept, interp, rng, env):
                return ok
            del kept[mark:]
        return False
    if isinstance(phi, symbolic.Consume):
        pool = list(interp.constants)
        rng.shuffle(pool)
        for name in pool:
            witness = App(name)
            if _fill(phi.body, pos + 1, kept, interp, rng, {**env, phi.var: witness}):
                kept.append((pos, (symbolic.eval_term(witness, interp),)))
                return ok
            del kept[mark:]
    return False


def as_batch_word(batches: Sequence[FrozenSet[object]]):
    """Pair generated batches with the clock ``0, 1, 2, ...``, yielding judgeable letters."""
    return [(symbolic.Const(frozenset(batch)), i) for i, batch in enumerate(batches)]


def relaxed_judge(phi: SymFormula, batches: Sequence[FrozenSet[object]], interp: Interpretation) -> Verdict:
    """Judge ``phi`` over a word of batches, reading equality as containment."""
    return symbolic.judge(as_batch_word(batches), 1, phi, interp, relaxed=True)
