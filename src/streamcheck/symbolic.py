"""First-order syntax: terms, formulas, interpretation structures.

Formulas here are purely syntactic.  They are evaluated either directly
(:func:`judge`, substitution-based, with unrestricted lookahead, on the
explicit-stack loop of :func:`semantics.judge`) or by compiling to the
runtime algebra (:func:`compile_formula`) and running the stepwise monitor.
Compilation and word generation bind a consume's names in an environment
instead of substituting them, so the two routes apply the binder by two
independent mechanisms.  Letters of the words judged here are closed terms
paired with a timestamp.

The connectives ``Not``, ``And``, ``Or``, ``Implies`` and ``Next`` are the
runtime node types, here over symbolic operands, and the constants ``true``
and ``false`` are the runtime verdict leaves ``TOP`` and ``BOTTOM``.  Only the
atoms, the timed operators (their timeouts are terms) and ``Consume`` are
classes of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_not
from typing import Any, Callable, Mapping, Optional, Sequence, Set, Tuple, Union

from . import runtime, semantics
from .runtime import BOTTOM, TOP, And, Implies, Next, Not, Or, Solved
from .truth import Verdict


class SymbolicError(Exception):
    pass


class UninterpretedSymbol(SymbolicError):
    """A function or predicate symbol has no entry in the interpretation."""


class OpenFormula(SymbolicError):
    """A formula expected to be closed still has free variables."""


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lit(Term):
    """Natural-number literal; interprets to itself."""

    value: int


@dataclass(frozen=True)
class App(Term):
    """Function symbol application; constants are nullary applications."""

    symbol: str
    args: Tuple[Term, ...] = ()


@dataclass(frozen=True)
class Const(Term):
    """Opaque already-evaluated value injected into a term position."""

    value: Any


TermLike = Union[Term, int, str]


def as_term(value: TermLike) -> Term:
    """Coerce plain ints to literals and strings to constant symbols."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        raise SymbolicError("booleans are not terms")
    if isinstance(value, int):
        return Lit(value)
    if isinstance(value, str):
        return App(value)
    raise SymbolicError(f"cannot treat {value!r} as a term")


# ---------------------------------------------------------------------------
# Formulas


class SymFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Pred(SymFormula):
    name: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Eq(SymFormula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Eventually(SymFormula):
    timeout: Term
    body: SymFormula


@dataclass(frozen=True)
class Always(SymFormula):
    timeout: Term
    body: SymFormula


@dataclass(frozen=True)
class Until(SymFormula):
    timeout: Term
    left: SymFormula
    right: SymFormula


@dataclass(frozen=True)
class Release(SymFormula):
    timeout: Term
    left: SymFormula
    right: SymFormula


@dataclass(frozen=True)
class Consume(SymFormula):
    """Bind the current letter to ``var`` and its time to ``time_var``."""

    var: str
    time_var: str
    body: SymFormula


def pred(name: str, *args: TermLike) -> Pred:
    return Pred(name, tuple(as_term(a) for a in args))


def eq(left: TermLike, right: TermLike) -> Eq:
    return Eq(as_term(left), as_term(right))


def eventually(timeout: TermLike, body: SymFormula) -> Eventually:
    return Eventually(as_term(timeout), body)


def always(timeout: TermLike, body: SymFormula) -> Always:
    return Always(as_term(timeout), body)


def until(timeout: TermLike, left: SymFormula, right: SymFormula) -> Until:
    return Until(as_term(timeout), left, right)


def release(timeout: TermLike, left: SymFormula, right: SymFormula) -> Release:
    return Release(as_term(timeout), left, right)


_TIMED = (Eventually, Always, Until, Release)

# Subformulas of each node, for :func:`runtime.fold`; runtime windows included.
CHILDREN = {
    **dict.fromkeys((Solved, Pred, Eq), runtime.no_children),
    **dict.fromkeys((Not, Next, Consume, Eventually, Always), runtime.body_child),
    **dict.fromkeys((And, Or, Implies, Until, Release), runtime.pair_children),
    **{kind: runtime.CHILDREN[kind] for kind in runtime._TIMED},
}


def node_terms(phi: SymFormula) -> Tuple[Term, ...]:
    """The terms a node holds itself: predicate arguments, equality sides or a symbolic timeout."""
    if isinstance(phi, Pred):
        return phi.args
    if isinstance(phi, Eq):
        return (phi.left, phi.right)
    return (phi.timeout,) if isinstance(phi, _TIMED) else ()


# ---------------------------------------------------------------------------
# Free variables, constants and substitution


# The names bound by the consumes enclosing a node, each to its closed term.
Env = Mapping[str, Term]
NO_BINDINGS: Env = {}


def term_free_vars(term: Term, env: Env = NO_BINDINGS) -> Set[str]:
    """Free variables of ``term`` once each name bound in ``env`` stands for its term."""
    if isinstance(term, Var):
        bound = env.get(term.name)
        return {term.name} if bound is None else term_free_vars(bound)
    if isinstance(term, App) and term.args:
        return set().union(*[term_free_vars(arg, env) for arg in term.args])
    return set()


def node_free_vars(phi: SymFormula, kid_vars: Sequence[Set[str]]) -> Set[str]:
    """Free variables of ``phi``, given those of its subformulas."""
    kind = type(phi)
    if kind is Consume:
        return kid_vars[0] - {phi.var, phi.time_var}
    if kind not in CHILDREN:
        raise SymbolicError(f"unknown formula {phi!r}")
    out = set().union(*kid_vars)
    for term in node_terms(phi):
        out |= term_free_vars(term)
    return out


def free_vars(phi: SymFormula) -> Set[str]:
    """Free variables, including those appearing inside timeout terms."""
    return runtime.fold(phi, CHILDREN, node_free_vars)


def term_constants(term: Term) -> Set[str]:
    """Nullary function symbols of a term."""
    if not isinstance(term, App):
        return set()
    if not term.args:
        return {term.symbol}
    return set().union(*map(term_constants, term.args))


def constants(phi: SymFormula) -> Set[str]:
    """Nullary function symbols of a formula, timeout terms included."""
    return runtime.fold(phi, CHILDREN, _node_constants)


def _node_constants(phi: SymFormula, kid_constants: Sequence[Set[str]]) -> Set[str]:
    return set().union(*kid_constants, *map(term_constants, node_terms(phi)))


def substitute_term(term: Term, bindings: Mapping[str, Term]) -> Term:
    """Replace each bound variable of ``term``; a term in which no variable is
    bound is returned itself."""
    if isinstance(term, Var):
        return bindings.get(term.name, term)
    if isinstance(term, App) and term.args:
        args = tuple([substitute_term(a, bindings) for a in term.args])
        return App(term.symbol, args) if any(map(is_not, args, term.args)) else term
    return term


def substitute(phi: SymFormula, bindings: Mapping[str, Term]) -> SymFormula:
    """Replace free occurrences of each bound name by its closed term, in one fold.

    A node is rebuilt from its :func:`node_terms` and its subformulas, in
    field order, when one of them changed; otherwise it is returned itself.
    A predicate keeps its name and a runtime window its integer timeout.  A
    consume rebinding a bound name is walked with the remaining bindings, or
    returned itself when none remain.  A firing consume binds ``{time_var:
    Lit(time), var: letter}``: when both binders share a name, the letter wins.
    """

    def unshielded(node: Consume) -> Tuple[SymFormula, ...]:
        return () if node.var in bindings or node.time_var in bindings else (node.body,)

    def visit(node: Any, kids: Sequence[SymFormula]) -> SymFormula:
        kind = type(node)
        if kind is Consume:
            if kids:
                return node if kids[0] is node.body else Consume(node.var, node.time_var, kids[0])
            rest = {k: v for k, v in bindings.items() if k != node.var and k != node.time_var}
            return substitute(node, rest) if rest else node
        children = CHILDREN.get(kind)
        if children is None:
            raise SymbolicError(f"unknown formula {node!r}")
        terms = node_terms(node)
        new_terms = [substitute_term(term, bindings) for term in terms]
        if kind is Pred:
            return Pred(node.name, tuple(new_terms)) if any(map(is_not, new_terms, terms)) else node
        if any(map(is_not, new_terms, terms)) or kids and any(map(is_not, kids, children(node))):
            return kind(node.timeout, *kids) if kind in runtime._TIMED else kind(*new_terms, *kids)
        return node

    table = CHILDREN.copy()
    table[Consume] = unshielded
    return runtime.fold(phi, table, visit)


# ---------------------------------------------------------------------------
# Interpretation structures


@dataclass(frozen=True)
class Interpretation:
    """Interpretation structure: a value universe plus symbol meanings.

    ``functions`` maps each function symbol to a total Python callable,
    ``predicates`` maps each predicate symbol to a boolean-valued callable.
    ``constants`` lists the nullary symbols used as the finite witness pool
    when generating words from formulas.
    """

    functions: Mapping[str, Callable[..., Any]] = field(default_factory=dict)
    predicates: Mapping[str, Callable[..., bool]] = field(default_factory=dict)
    constants: Tuple[str, ...] = ()


def eval_term(term: Term, interp: Interpretation, env: Env = NO_BINDINGS) -> Any:
    """Evaluate a term by structural folding, closed once ``env`` binds its variables.

    Compilation and word generation bind the names of enclosing consumes in
    ``env`` (:func:`judge` substitutes them instead).  A bound variable's
    term is evaluated at each use, as the term substituted for it would be.
    """
    if isinstance(term, App):
        fn = interp.functions.get(term.symbol)
        if fn is None:
            raise UninterpretedSymbol(f"function symbol {term.symbol!r} has no interpretation")
        return fn(*[eval_term(a, interp, env) for a in term.args]) if term.args else fn()
    if isinstance(term, Var):
        bound = env.get(term.name)
        if bound is None:
            raise OpenFormula(f"cannot evaluate open term: free variable {term.name!r}")
        return eval_term(bound, interp)
    if isinstance(term, (Lit, Const)):
        return term.value
    raise SymbolicError(f"unknown term {term!r}")


def _eval_timeout(term: Term, interp: Interpretation, env: Env = NO_BINDINGS) -> int:
    value = eval_term(term, interp, env)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SymbolicError(f"timeout term evaluated to {value!r}, expected a natural number")
    return value


def _holds(phi: SymFormula, interp: Interpretation, relaxed: bool, env: Env = NO_BINDINGS) -> bool:
    """Truth of a timeless atom, closed once ``env`` binds its variables."""
    if isinstance(phi, Pred):
        rel = interp.predicates.get(phi.name)
        if rel is None:
            raise UninterpretedSymbol(f"predicate symbol {phi.name!r} has no interpretation")
        return bool(rel(*[eval_term(a, interp, env) for a in phi.args]))
    if isinstance(phi, Eq):
        left = eval_term(phi.left, interp, env)
        right = eval_term(phi.right, interp, env)
        if relaxed:
            # Letters of generated words are batches (frozensets); an equality
            # between a batch and a plain value is read as containment.
            left_batch = isinstance(left, frozenset)
            right_batch = isinstance(right, frozenset)
            if left_batch and not right_batch:
                return right in left
            if right_batch and not left_batch:
                return left in right
        return left == right
    raise SymbolicError(f"not an atom: {phi!r}")


# ---------------------------------------------------------------------------
# Direct judgment (substitution-based), on the loop of ``semantics.judge``

Word = Sequence[Tuple[Term, int]]


def _lower_atom(phi: SymFormula, interp: Interpretation, relaxed: bool) -> runtime.Formula:
    return TOP if _holds(phi, interp, relaxed) else BOTTOM


# Each symbolic window's runtime window, built by ``runtime.make_window``.
_WINDOW = dict(zip(_TIMED, (runtime.Eventually, runtime.Always, runtime.Until, runtime.Release)))


def _lower_window(
    phi: SymFormula, interp: Interpretation, relaxed: bool, env: Env = NO_BINDINGS
) -> runtime.Formula:
    kind = type(phi)
    timeout = _eval_timeout(phi.timeout, interp, env)
    return runtime.make_window(_WINDOW[kind], timeout, *CHILDREN[kind](phi))


def _lower_consume(phi: Consume, interp: Interpretation, relaxed: bool) -> runtime.Formula:
    body, var, time_var = phi.body, phi.var, phi.time_var
    return runtime.Consume(lambda letter, time: substitute(body, {time_var: Lit(time), var: letter}))


def _unknown(phi: Any, interp: Interpretation, relaxed: bool) -> runtime.Formula:
    raise SymbolicError(f"unknown formula {phi!r}")


# One symbolic atom, window or consume as a runtime node over its symbolic
# operands; connectives and verdict leaves are runtime nodes already.  A zero
# window is decided without its operands.
_LOWER: Mapping[type, Callable[[Any, Interpretation, bool], runtime.Formula]] = {
    Pred: _lower_atom,
    Eq: _lower_atom,
    **dict.fromkeys(_TIMED, _lower_window),
    Consume: _lower_consume,
}


def judge(
    word: Word,
    position: int,
    phi: SymFormula,
    interp: Interpretation,
    relaxed: bool = False,
) -> Verdict:
    """Judge a closed symbolic formula directly, by substitution.

    It runs on :func:`semantics.judge`, which judges the shared connectives
    and verdict leaves natively: each atom, window and consume is lowered
    when the judgment reaches it, so predicates are called in that judge's
    order.  With ``relaxed`` set, equality atoms against batch-valued
    letters are read as containment; used to validate generated words.
    """
    return semantics.judge(
        word, position, phi, lambda node: _LOWER.get(type(node), _unknown)(node, interp, relaxed)
    )


# ---------------------------------------------------------------------------
# Walks that lower each window once: safe word length, next form, compilation


def _lowering(interp: Interpretation, env: Env, error: Any = None, reason: str = "") -> dict:
    """:data:`CHILDREN` where a symbolic window's child is its :func:`_lower_window`:
    the runtime window over its symbolic operands, or a zero window's leaf.
    Its timeout is evaluated there, once, under ``env``; with ``error``, a
    timeout with variables ``env`` does not bind raises it first."""

    def lower(node: SymFormula) -> Tuple[runtime.Formula]:
        if error is not None and term_free_vars(node.timeout, env):
            raise error(f"{reason}: variables in timeout {node.timeout!r}")
        return (_lower_window(node, interp, False, env),)

    table = CHILDREN.copy()
    table[Eventually] = table[Always] = table[Until] = table[Release] = lower
    return table


def _safe_length_node(node: SymFormula, kids: Sequence[int]) -> int:
    kind = type(node)
    if kind not in CHILDREN:
        raise SymbolicError(f"unknown formula {node!r}")
    length = max(kids, default=0)
    if kind is Next or kind is Consume:
        return length + 1
    return length + (node.timeout - 1) if kind in runtime._TIMED else length


def symbolic_safe_word_length(phi: SymFormula, interp: Interpretation, env: Env = NO_BINDINGS) -> int:
    """Safe word length; undefined when a timeout term has variables ``env`` does not bind.

    A consume that rebinds a name of ``env`` is a leaf of the walk: its body
    is measured at once, under ``env`` without the consume's two names, as
    :func:`substitute` leaves that name open in it.  Every other node is
    measured by :func:`_safe_length_node`.
    """
    table = _lowering(interp, env, runtime.SafeLengthUndefined, "safe word length undefined")

    def measure(node: SymFormula, kids: Sequence[int]) -> int:
        if type(node) is Consume and not kids:
            rest = {k: v for k, v in env.items() if k != node.var and k != node.time_var}
            return symbolic_safe_word_length(node.body, interp, rest) + 1
        return _safe_length_node(node, kids)

    table[Consume] = lambda node: () if node.var in env or node.time_var in env else (node.body,)
    return runtime.fold(phi, table, measure)


def _static_depth(body: SymFormula, interp: Interpretation, env: Env = NO_BINDINGS) -> Optional[int]:
    try:
        return symbolic_safe_word_length(body, interp, env) + 1
    except runtime.SafeLengthUndefined:
        return None


_ALGEBRA = (Or, And, Next)


def _next_form_node(node: SymFormula, kids: Sequence[SymFormula]) -> SymFormula:
    kind = type(node)
    if kind in _TIMED:
        return kids[0]  # the next form of its lowered window
    if kind in runtime._TIMED:
        return runtime.next_form_chain(kind, node.timeout, kids, _ALGEBRA)
    if kind is Consume:
        return Consume(node.var, node.time_var, kids[0])
    if kind not in CHILDREN:
        raise SymbolicError(f"unknown formula {node!r}")
    return kind(*kids) if kids else node


def next_form(phi: SymFormula, interp: Interpretation) -> SymFormula:
    """Expand timed operators away; timeouts must be variable-free."""
    table = _lowering(interp, NO_BINDINGS, OpenFormula, "cannot expand ahead of time")
    return runtime.fold(phi, table, _next_form_node)


def compile_formula(phi: SymFormula, interp: Interpretation) -> runtime.Formula:
    """Compile a closed formula to an executable one over timed-term letters.

    Closed atoms evaluate immediately (timeless formulas keep their value at
    every instant).  A consume node becomes a runtime consumer that binds the
    incoming letter and time in an environment and compiles the body under
    it, so variable timeouts resolve exactly when their binder fires; the
    body is not rewritten (:func:`judge` substitutes instead).  A verdict
    leaf is a runtime node already and is returned itself.  Atoms and
    consumes are leaves of the walk, so a window's timeout is evaluated
    before its operands, and atoms in pre-order.
    """
    return _compile(phi, interp, NO_BINDINGS)


def _compile(phi: SymFormula, interp: Interpretation, env: Env) -> runtime.Formula:
    """:func:`compile_formula` of ``phi`` with each name ``env`` binds standing for its term."""

    def visit(node: Any, kids: Sequence[runtime.Formula]) -> runtime.Formula:
        kind = type(node)
        if kids:  # a connective, or a window: a symbolic one gives its lowered one
            if kind in runtime._REBUILD:
                return runtime._REBUILD[kind](*kids)
            return kids[0] if kind in _TIMED else kind(node.timeout, *kids)
        if kind is Solved:
            return node
        if isinstance(node, (Pred, Eq)):
            unbound = set().union(*[term_free_vars(term, env) for term in node_terms(node)])
            if unbound:
                raise OpenFormula(f"atom has free variables {sorted(unbound)}")
            # A fresh leaf: ``merge_obligations`` compares operands by identity.
            return Solved(Verdict.from_bool(_holds(node, interp, False, env)))
        if isinstance(node, Consume):
            body, var, time_var = node.body, node.var, node.time_var

            def consumer(letter: Any, time: int) -> runtime.Formula:
                letter_term = letter if isinstance(letter, Term) else Const(letter)
                # The letter wins when both binders share a name.
                return _compile(body, interp, {**env, time_var: Lit(time), var: letter_term})

            # Ahead of firing, the body's own binders are open; they shadow what they rebind.
            enclosing = {name: term for name, term in env.items() if name not in (var, time_var)}
            return runtime.Consume(
                consumer, static_depth=_static_depth(body, interp, enclosing), label=f"consume {var}"
            )
        raise SymbolicError(f"unknown formula {node!r}")

    table = _lowering(interp, env)
    table[Consume] = runtime.no_children  # its body is compiled when it fires
    return runtime.fold(phi, table, visit)
