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

Which variables a node's terms hold is asked of one walk, :func:`term_vars`,
on an explicit stack; :func:`constants` collects the nullary symbols of any
number of formulas and terms on one stack, and a term's ``repr`` is a fold.
The other term walks (:func:`substitute_term`, :func:`eval_term`) recurse
once per nesting level.  A safe word length is measured in one place, on the
symbolic formula (:func:`symbolic_safe_word_length`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, is_not
from typing import Any, Callable, Iterator, Mapping, Sequence, Set, Tuple, Union

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

    def __repr__(self) -> str:  # the dataclass ``repr``, on an explicit stack
        return runtime.join_text(runtime.fold(self, _TERM_ARGS, _repr_term))


@dataclass(frozen=True, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, repr=False)
class Lit(Term):
    """Natural-number literal; interprets to itself."""

    value: int


@dataclass(frozen=True, repr=False)
class App(Term):
    """Function symbol application; constants are nullary applications."""

    symbol: str
    args: Tuple[Term, ...] = ()


@dataclass(frozen=True, repr=False)
class Const(Term):
    """Opaque already-evaluated value injected into a term position."""

    value: Any


_TERM_ARGS = {App: attrgetter("args")}


def _repr_term(term: Any, kids: Sequence[Any]) -> Any:
    """The dataclass ``repr`` of one term, as a rope over its arguments' ropes."""
    kind = type(term)
    if kind is App:
        args = [part for kid in kids for part in (", ", kid)][1:]
        return ("App(symbol=", repr(term.symbol), ", args=(", *args, ",))" if len(kids) == 1 else "))")
    if kind is Var:
        return f"Var(name={term.name!r})"
    if kind is Lit or kind is Const:
        return f"{kind.__qualname__}(value={term.value!r})"
    return repr(term)  # an argument that is not a term


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


def term_vars(terms: Sequence[Term], env: Env = NO_BINDINGS) -> Iterator[str]:
    """The variable names of ``terms``, in pre-order, walked on one explicit stack.

    A name bound in ``env`` stands for the variables of its bound term, which
    are not looked up in ``env`` again.  A node's terms are walked in one call.
    """
    stack = list(terms)
    stack.reverse()
    while stack:
        term = stack.pop()
        if isinstance(term, Var):
            bound = env.get(term.name)
            if bound is None:
                yield term.name
            else:
                yield from term_vars((bound,))
        elif isinstance(term, App) and term.args:
            stack.extend(reversed(term.args))


def node_free_vars(phi: SymFormula, kid_vars: Sequence[Set[str]]) -> Set[str]:
    """Free variables of ``phi``, given those of its subformulas."""
    kind = type(phi)
    if kind is Consume:
        return kid_vars[0] - {phi.var, phi.time_var}
    if kind not in CHILDREN:
        raise SymbolicError(f"unknown formula {phi!r}")
    out = set().union(*kid_vars)
    out.update(term_vars(node_terms(phi)))
    return out


def free_vars(phi: SymFormula) -> Set[str]:
    """Free variables, including those appearing inside timeout terms."""
    return runtime.fold(phi, CHILDREN, node_free_vars)


def constants(*roots: Union[SymFormula, Term]) -> Set[str]:
    """Nullary function symbols of formulas and terms, timeout terms included.

    They are collected into one set, on one explicit stack that holds both
    subformulas and the terms of the nodes walked.
    """
    out: Set[str] = set()
    stack: list = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            if node.args:
                stack.extend(node.args)
            else:
                out.add(node.symbol)
        elif not isinstance(node, Term):
            stack.extend(CHILDREN.get(type(node), runtime.no_children)(node))
            stack.extend(node_terms(node))
    return out


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
        if error is not None and next(term_vars((node.timeout,), env), None) is not None:
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


def symbolic_safe_word_length(phi: SymFormula, interp: Interpretation) -> int:
    """Safe word length, the only one of a formula with a consume (a compiled
    consume has no static depth); undefined when a timeout term has variables."""
    table = _lowering(interp, NO_BINDINGS, runtime.SafeLengthUndefined, "safe word length undefined")
    return runtime.fold(phi, table, _safe_length_node)


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
    before its operands, and atoms in pre-order.  A compiled consume has no
    static depth, so a timeout under it is evaluated once per firing.
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
            names = term_vars(node_terms(node), env)
            first = next(names, None)
            if first is not None:
                raise OpenFormula(f"atom has free variables {sorted({first, *names})}")
            # A fresh leaf: ``merge_obligations`` compares operands by identity.
            return Solved(Verdict.from_bool(_holds(node, interp, False, env)))
        if isinstance(node, Consume):
            body, var, time_var = node.body, node.var, node.time_var

            def consumer(letter: Any, time: int) -> runtime.Formula:
                letter_term = letter if isinstance(letter, Term) else Const(letter)
                # The letter wins when both binders share a name.
                return _compile(body, interp, {**env, time_var: Lit(time), var: letter_term})

            return runtime.Consume(consumer, label=f"consume {var}")
        raise SymbolicError(f"unknown formula {node!r}")

    table = _lowering(interp, env)
    table[Consume] = runtime.no_children  # its body is compiled when it fires
    return runtime.fold(phi, table, visit)
