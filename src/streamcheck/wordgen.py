"""Random word generation driven by next-form formulas.

The generator tries to build a word that makes the formula true.  Each
position of the generated word is a finite set (a batch) of domain elements;
conjunction merges the words of both operands positionwise, disjunction picks
a branch at random and backtracks if it fails, implication generates from the
conclusion only, and a consume picks a witness from the interpretation's
declared constant pool.

The negation operator and the false and inconclusive verdict leaves are
outside the generatable fragment, as is any consume whose time variable occurs
in the body (times are attached later by the harness clock).
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from . import runtime, symbolic, truth
from .symbolic import App, Interpretation, SymFormula
from .truth import Verdict


class GeneratorFragmentError(Exception):
    """The formula is outside the fragment word generation supports."""


class _ErrWord:
    """Erroneous sequence: absorbing failure result of generation."""

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


def word_union(u: GenResult, v: GenResult) -> GenResult:
    """Positionwise union; the longer suffix is kept; err absorbs."""
    if u is GEN_ERR or v is GEN_ERR:
        return GEN_ERR
    merged = [a | b for a, b in zip(u, v)]
    longer = u if len(u) >= len(v) else v
    return merged + list(longer[len(merged):])


def _prepend(batch: FrozenSet[object], u: GenResult) -> GenResult:
    if u is GEN_ERR:
        return GEN_ERR
    return [batch] + u


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
    return _generate(phi, interp, rng)


def _generate(phi: SymFormula, interp: Interpretation, rng: random.Random) -> GenResult:
    if type(phi) is runtime.Solved:
        return []  # only a ``true`` leaf passes the fragment check
    if isinstance(phi, (symbolic.Pred, symbolic.Eq)):
        return [] if symbolic._holds(phi, interp, relaxed=False) else GEN_ERR
    if isinstance(phi, symbolic.Or):
        branches = [phi.left, phi.right]
        rng.shuffle(branches)
        for branch in branches:
            result = _generate(branch, interp, rng)
            if result is not GEN_ERR:
                return result
        return GEN_ERR
    if isinstance(phi, symbolic.And):
        return word_union(
            _generate(phi.left, interp, rng), _generate(phi.right, interp, rng)
        )
    if isinstance(phi, symbolic.Implies):
        return _generate(phi.right, interp, rng)
    if isinstance(phi, symbolic.Next):
        return _prepend(frozenset(), _generate(phi.body, interp, rng))
    if isinstance(phi, symbolic.Consume):
        pool = list(interp.constants)
        rng.shuffle(pool)
        for name in pool:
            witness = App(name)
            rest = _generate(symbolic.substitute(phi.body, {phi.var: witness}), interp, rng)
            if rest is not GEN_ERR:
                element = symbolic.eval_term(witness, interp)
                return _prepend(frozenset({element}), rest)
        return GEN_ERR
    return GEN_ERR


def as_batch_word(batches: Sequence[FrozenSet[object]]):
    """Pair generated batches with the clock ``0, 1, 2, ...``, yielding judgeable letters."""
    return [(symbolic.Const(frozenset(batch)), i) for i, batch in enumerate(batches)]


def relaxed_judge(phi: SymFormula, batches: Sequence[FrozenSet[object]], interp: Interpretation) -> Verdict:
    """Judge ``phi`` over a word of batches, reading equality as containment."""
    return symbolic.judge(as_batch_word(batches), 1, phi, interp, relaxed=True)
