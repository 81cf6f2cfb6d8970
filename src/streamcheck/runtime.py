"""Executable temporal formulas over stream letters.

A formula is evaluated against a finite word of timed letters.  Temporal
operators carry an explicit timeout: the number of instants, including the
current one, the operator may inspect.  Formulas are brought into *next form*
(no timed operators, only ``Next``/``Consume``) either eagerly
(:func:`to_next_form`) or one lazy layer at a time (:func:`unfold`), and a
:class:`Monitor` evaluates a next-form formula stepwise, one letter per
instant.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from . import truth
from .truth import Verdict

Timestamp = int
Letter = Tuple[Any, Timestamp]


class FormulaError(Exception):
    """Base class for formula construction and evaluation errors."""


class SafeLengthUndefined(FormulaError):
    """Raised when a safe word length is requested for a dynamic consumer."""


class MonitorDecided(FormulaError):
    """Raised when a monitor that already reached a verdict is stepped again."""


class Formula:
    """Base class of the runtime formula algebra.

    Node types are frozen slotted dataclasses whose ``__init__`` stores
    each field through its slot descriptor.  Equality, hashing and ``repr``
    are structural, over the node types and their non-formula fields, as
    dataclass methods would be; they walk on an explicit stack, since eager
    next forms nest deeper than the recursion limit.  A node type outside
    :data:`CHILDREN` compares by identity and prints as an object.

    The connectives ``Not``, ``And``, ``Or``, ``Implies`` and ``Next`` are
    also the connectives of :mod:`symbolic`, and the verdict leaves
    :data:`TOP` and :data:`BOTTOM` its constants ``true`` and ``false``, so
    connectives may carry symbolic operands.  Such an operand is a leaf to
    every walker here: it compares, hashes and prints by its own methods, and
    the monitor and the reference judgment reject it as a foreign node.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(self) not in CHILDREN:
            return True if self is other else NotImplemented
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            kind = type(a)
            kids = CHILDREN.get(kind)
            if kids is None:
                # A non-formula operand or a foreign node: its own ``==``.
                if a != b:
                    return False
                continue
            if type(b) is not kind or _FIELDS[kind](a) != _FIELDS[kind](b):
                return False
            pairs.extend(zip(kids(a), kids(b)))
        return True

    def __hash__(self) -> int:
        if type(self) not in CHILDREN:
            return object.__hash__(self)
        return fold(self, CHILDREN, _hash_node)

    def __repr__(self) -> str:
        if type(self) not in CHILDREN:
            return object.__repr__(self)
        return join_text(fold(self, CHILDREN, _repr_node))


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Solved(Formula):
    value: Verdict

    def __init__(self, value: Verdict) -> None:
        _solved_value(self, value)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Not(Formula):
    body: Formula

    def __init__(self, body: Formula) -> None:
        _not_body(self, body)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class And(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _and_left(self, left)
        _and_right(self, right)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Or(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _or_left(self, left)
        _or_right(self, right)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Implies(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _implies_left(self, left)
        _implies_right(self, right)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Next(Formula):
    body: Formula

    def __init__(self, body: Formula) -> None:
        _next_body(self, body)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Consume(Formula):
    """Bind the current letter and its time, continue with the produced formula.

    ``consumer`` must be a pure function of ``(letter, time)``: the monitor
    calls it at most once per letter, however often the node occurs in the
    residual, and hands every occurrence the same result.  Nodes are
    dispatched on their exact type, so a subclass of ``Consume`` (or of any
    node type) is foreign to the monitor, as it is to :func:`fold`.  When
    ``static_depth`` is present it is a positive integer equal to the safe
    word length of every formula the consumer can return, plus one;
    constructors that cannot guarantee a uniform depth leave it ``None``,
    which makes :func:`safe_word_length` fail rather than guess.
    """

    consumer: Callable[[Any, Timestamp], Formula]
    static_depth: Optional[int] = None
    label: str = "consume"

    def __init__(
        self, consumer: Callable, static_depth: Optional[int] = None, label: str = "consume"
    ) -> None:
        if static_depth is not None:
            _check_count(static_depth, "static_depth")
        _consume_consumer(self, consumer)
        _consume_static_depth(self, static_depth)
        _consume_label(self, label)


class Timed(Formula):
    """Base of the timed operators, which carry a timeout.

    A timeout must be a positive integer, and not a boolean.  A timed node
    keeps the result of :func:`unfold` in ``_unfolded``, which is not a
    dataclass field: it takes no part in ``==``, ``hash`` or ``repr``, and a
    new, copied or unpickled node starts with it ``None``.  The next form a
    formula's runs have reached therefore lives as long as the formula.
    """

    __slots__ = ("_unfolded",)

    def __reduce__(self) -> Tuple[type, tuple]:
        # Copies and unpickled nodes are rebuilt through ``__init__``, which
        # sets their ``_unfolded``: the dataclass state holds fields only.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Eventually(Timed):
    timeout: int
    body: Formula

    def __init__(self, timeout: int, body: Formula) -> None:
        _check_count(timeout, "timeout")
        _eventually_timeout(self, timeout)
        _eventually_body(self, body)
        _set_unfolded(self, None)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Always(Timed):
    timeout: int
    body: Formula

    def __init__(self, timeout: int, body: Formula) -> None:
        _check_count(timeout, "timeout")
        _always_timeout(self, timeout)
        _always_body(self, body)
        _set_unfolded(self, None)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Until(Timed):
    timeout: int
    left: Formula
    right: Formula

    def __init__(self, timeout: int, left: Formula, right: Formula) -> None:
        _check_count(timeout, "timeout")
        _until_timeout(self, timeout)
        _until_left(self, left)
        _until_right(self, right)
        _set_unfolded(self, None)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class Release(Timed):
    timeout: int
    left: Formula
    right: Formula

    def __init__(self, timeout: int, left: Formula, right: Formula) -> None:
        _check_count(timeout, "timeout")
        _release_timeout(self, timeout)
        _release_left(self, left)
        _release_right(self, right)
        _set_unfolded(self, None)


# The node types' slot-descriptor setters, bound once: ``And.left.__set__``
# would bind a method on every call.
_solved_value = Solved.value.__set__
_not_body = Not.body.__set__
_and_left, _and_right = And.left.__set__, And.right.__set__
_or_left, _or_right = Or.left.__set__, Or.right.__set__
_implies_left, _implies_right = Implies.left.__set__, Implies.right.__set__
_next_body = Next.body.__set__
_consume_consumer, _consume_static_depth = Consume.consumer.__set__, Consume.static_depth.__set__
_consume_label = Consume.label.__set__
_set_unfolded = Timed._unfolded.__set__
_eventually_timeout, _eventually_body = Eventually.timeout.__set__, Eventually.body.__set__
_always_timeout, _always_body = Always.timeout.__set__, Always.body.__set__
_until_timeout, _until_left = Until.timeout.__set__, Until.left.__set__
_until_right = Until.right.__set__
_release_timeout, _release_left = Release.timeout.__set__, Release.left.__set__
_release_right = Release.right.__set__

_TIMED = frozenset((Eventually, Always, Until, Release))


def _check_count(value: Any, name: str, least: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        count = "a positive integer" if least else "a natural number"
        raise FormulaError(f"{name} must be {count}, got {value!r}")


TOP = Solved(truth.TRUE)
BOTTOM = Solved(truth.FALSE)
UNDECIDED = Solved(truth.INCONCLUSIVE)
# The verdict leaves that atoms and the monitor's closing pass return, rather
# than a fresh node per call.  Constructors keep building fresh nodes:
# ``merge_obligations`` compares timed operands by identity, and a leaf shared
# between the operands of two windows would let it merge them.
_LEAVES = {truth.TRUE: TOP, truth.FALSE: BOTTOM, truth.INCONCLUSIVE: UNDECIDED}
# The verdict of a window of length zero, an empty disjunction or conjunction,
# keyed by operator class; no operand is needed.
ZERO_WINDOW = {Eventually: BOTTOM, Until: BOTTOM, Always: TOP, Release: TOP}


# ---------------------------------------------------------------------------
# Walking formulas without recursion.  Eager next forms nest one ``Next`` per
# instant, so a timeout of a few hundred already exceeds Python's recursion
# limit; walkers that are folds run on an explicit stack instead.


def no_children(phi: Any) -> Tuple[Any, ...]:
    return ()


def body_child(phi: Any) -> Tuple[Any, ...]:
    return (phi.body,)


pair_children = attrgetter("left", "right")

CHILDREN: Dict[type, Callable[[Any], Tuple[Any, ...]]] = {
    **dict.fromkeys((Solved, Consume), no_children),
    **dict.fromkeys((Not, Next, Eventually, Always), body_child),
    **dict.fromkeys((And, Or, Implies, Until, Release), pair_children),
}


def _field_getter(kind: type) -> Callable[[Any], Any]:
    """The node type's non-formula fields: one value, a tuple, or ``()``."""
    names = [f.name for f in fields(kind) if f.name not in ("body", "left", "right")]
    return attrgetter(*names) if names else no_children


_FIELDS = {kind: _field_getter(kind) for kind in CHILDREN}


def _hash_node(node: Any, kids: Sequence[int]) -> int:
    kind = type(node)
    return hash((kind, _FIELDS[kind](node), *kids)) if kind in CHILDREN else hash(node)


def _repr_node(node: Any, kids: Sequence[Any]) -> Any:
    """The dataclass ``repr`` of one node, as a rope over its operands' ropes."""
    kind = type(node)
    if kind not in CHILDREN:
        return repr(node)
    operands = iter(kids)
    parts: list = []
    for field in fields(kind):
        name = field.name
        value = next(operands) if name in ("body", "left", "right") else repr(getattr(node, name))
        parts += (", " if parts else "", name, "=", value)
    return (f"{kind.__qualname__}(", *parts, ")")


def fold(phi: Any, children: Mapping[type, Callable[[Any], Sequence[Any]]], visit: Callable) -> Any:
    """Fold a formula tree bottom-up (a catamorphism) on an explicit stack.

    ``children`` maps a node type to the function listing a node's
    subformulas; a type it lacks is a leaf.  It is called when the walk
    enters a node, so a walker can check the node there, before any of its
    subformulas.  ``visit(node, results)`` gets the results of the
    subformulas, left to right.  The stack holds one frame per pending
    ancestor: memory grows with the depth of the tree, not with its size.
    """
    stack: list = []
    node = phi
    while True:
        kids = children.get(type(node), no_children)(node)
        if kids:
            stack.append((node, kids, []))
            node = kids[0]
            continue
        value = visit(node, ())
        while stack:
            parent, kids, results = stack[-1]
            results.append(value)
            if len(results) < len(kids):
                node = kids[len(results)]
                break
            stack.pop()
            value = visit(parent, results)
        if not stack:
            return value


def join_text(rope: Any) -> str:
    """Concatenate a rope, a string or a tuple of ropes, left to right.

    Text folds return ropes: joining the operands' strings at every level
    would copy the text of a deep next form once per level.
    """
    out, stack = [], [rope]
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            out.append(part)
        else:
            stack.extend(reversed(part))
    return "".join(out)


# ---------------------------------------------------------------------------
# Atom helpers


def solved(value: Verdict) -> Solved:
    return Solved(value)


def now(predicate: Callable[[Any], Any], label: str = "now") -> Consume:
    """Atom that checks a predicate on the current letter.

    The predicate result is coerced: a :class:`Verdict` passes through, any
    other value is interpreted as a boolean.
    """

    def consumer(letter: Any, _time: Timestamp) -> Formula:
        return _as_solved(predicate(letter))

    return Consume(consumer, static_depth=1, label=label)


def now_time(predicate: Callable[[Any, Timestamp], Any], label: str = "now_time") -> Consume:
    def consumer(letter: Any, time: Timestamp) -> Formula:
        return _as_solved(predicate(letter, time))

    return Consume(consumer, static_depth=1, label=label)


def bind(
    build: Callable[[Any, Timestamp], Formula],
    static_depth: Optional[int] = None,
    label: str = "bind",
) -> Consume:
    """Atom that consumes the current letter to build the continuation formula."""
    return Consume(build, static_depth=static_depth, label=label)


def _as_solved(value: Any) -> Solved:
    if type(value) is Verdict:
        return _LEAVES[value]
    return TOP if value else BOTTOM


# ---------------------------------------------------------------------------
# Constant-folding constructors.  All transformations build formulas through
# these, so the eager and the lazy route fold identically.


def mk_not(phi: Formula) -> Formula:
    if type(phi) is Solved:
        return Solved(truth.neg(phi.value))
    return Not(phi)


def mk_and(left: Formula, right: Formula) -> Formula:
    if type(left) is Solved:
        if type(right) is Solved:
            return Solved(truth.conj(left.value, right.value))
        if left.value is truth.FALSE:
            return left
        if left.value is truth.TRUE:
            return right
    elif type(right) is Solved:
        if right.value is truth.FALSE:
            return right
        if right.value is truth.TRUE:
            return left
    return And(left, right)


def mk_or(left: Formula, right: Formula) -> Formula:
    if type(left) is Solved:
        if type(right) is Solved:
            return Solved(truth.disj(left.value, right.value))
        if left.value is truth.TRUE:
            return left
        if left.value is truth.FALSE:
            return right
    elif type(right) is Solved:
        if right.value is truth.TRUE:
            return right
        if right.value is truth.FALSE:
            return left
    return Or(left, right)


def mk_implies(left: Formula, right: Formula) -> Formula:
    if type(left) is Solved:
        if type(right) is Solved:
            return Solved(truth.implies(left.value, right.value))
        if left.value is truth.FALSE:
            return TOP
        if left.value is truth.TRUE:
            return right
    elif type(right) is Solved:
        if right.value is truth.TRUE:
            return right
        if right.value is truth.FALSE:
            return mk_not(left)
    return Implies(left, right)


def mk_next(body: Formula) -> Formula:
    # A solved formula keeps its value at every instant, so the shift is free.
    if type(body) is Solved:
        return body
    return Next(body)


def make_window(kind: type, timeout: int, *operands: Formula) -> Formula:
    """Timed-operator constructor: a zero window is its :data:`ZERO_WINDOW` leaf."""
    _check_count(timeout, "timeout", least=0)
    if timeout == 0:
        return ZERO_WINDOW[kind]
    return kind(timeout, *operands)


make_eventually = partial(make_window, Eventually)
make_always = partial(make_window, Always)
make_until = partial(make_window, Until)
make_release = partial(make_window, Release)


# ---------------------------------------------------------------------------
# Next-form transformations


_NEXT_FORM_TYPES = frozenset((Solved, Consume, Not, Next, And, Or, Implies))


def is_next_form(phi: Formula) -> bool:
    return fold(phi, CHILDREN, lambda node, kids: type(node) in _NEXT_FORM_TYPES and all(kids))


def unfold(phi: Formula) -> Formula:
    """Rewrite one lazy layer: the returned formula has a next-form head.

    Timed operators visible without crossing a ``Next`` or ``Consume``
    boundary are expanded one instant; the operator kept for later instants
    stays folded inside ``Next``.  A :class:`Timed` node stores its result,
    so every run of a formula shares the unfoldings reached so far.  A
    conjunction or disjunction whose operands come back unchanged and
    unsolved is returned itself.
    """
    kind = type(phi)
    if kind is Next or kind is Consume or kind is Solved:
        return phi
    if kind is And or kind is Or:
        left, right = unfold(phi.left), unfold(phi.right)
        if (
            left is phi.left
            and right is phi.right
            and type(left) is not Solved
            and type(right) is not Solved
        ):
            return phi
        return mk_and(left, right) if kind is And else mk_or(left, right)
    if kind in _TIMED:
        result = phi._unfolded
        if result is None:
            result = _unfold_timed(phi)
            _set_unfolded(phi, result)
        return result
    if kind is Not:
        return mk_not(unfold(phi.body))
    if kind is Implies:
        return mk_implies(unfold(phi.left), unfold(phi.right))
    raise FormulaError(f"cannot unfold {phi!r}")


def _unfold_timed(phi: Timed) -> Formula:
    """One lazy layer of a timed operator: its :func:`_expand` law, with the
    operator one instant shorter folded inside ``Next``, or at timeout 1 its
    right operand (the body) now."""
    kind = type(phi)
    operands = CHILDREN[kind](phi)
    right = unfold(operands[-1])
    if phi.timeout == 1:
        return right
    left = unfold(operands[0]) if len(operands) == 2 else right
    later = mk_next(kind(phi.timeout - 1, *operands))
    return _expand(kind, left, right, later, mk_or, mk_and)


def _expand(kind: type, left: Any, right: Any, later: Any, or_: Callable, and_: Callable) -> Any:
    """The one-instant law of a timed operator.

    ``kind`` is the operator's class, ``left`` and ``right`` its operands now
    (both the body for ``Eventually`` / ``Always``) and ``later`` the next of
    the operator one instant shorter.
    """
    if kind is Eventually:
        return or_(right, later)  # F[t]p = p | X F[t-1]p
    if kind is Always:
        return and_(right, later)  # G[t]p = p & X G[t-1]p
    if kind is Until:
        return or_(right, and_(left, later))  # l U[t] r = r | (l & X(l U[t-1] r))
    return or_(and_(left, right), and_(right, later))  # l R[t] r = (l & r) | (r & X(l R[t-1] r))


def next_form_chain(kind: type, timeout: int, operands: Sequence[Any], algebra: Sequence[Any]) -> Any:
    """Eager next form of one built timed operator, so ``timeout`` is at least 1.

    ``kind`` is the operator's class, and ``operands`` are the next forms of
    its subformulas, ``(body,)`` or ``(left, right)``.  ``algebra`` gives the
    or, and and next to build with.  Starting from the timeout-1 base case,
    the right operand, each instant applies the same :func:`_expand` law as
    :func:`unfold`, so the chain is right-nested, the fixpoint of the lazy
    unfolding.
    """
    or_, and_, next_ = algebra
    left, right = operands[0], operands[-1]
    acc = right
    for _ in range(timeout - 1):
        acc = _expand(kind, left, right, next_(acc), or_, and_)
    return acc


_ALGEBRA = (mk_or, mk_and, mk_next)
_REBUILD = {Not: mk_not, And: mk_and, Or: mk_or, Implies: mk_implies, Next: mk_next}


def _to_next_form_node(phi: Formula, kids: Sequence[Formula]) -> Formula:
    kind = type(phi)
    if kind in _REBUILD:
        return _REBUILD[kind](*kids)
    if kind is Solved or kind is Consume:
        return phi
    if kind in _TIMED:
        return next_form_chain(kind, phi.timeout, kids, _ALGEBRA)
    raise FormulaError(f"cannot transform {phi!r}")


def to_next_form(phi: Formula) -> Formula:
    """Eagerly expand every timed operator into next form."""
    return fold(phi, CHILDREN, _to_next_form_node)


def unfold_fixpoint(phi: Formula) -> Formula:
    """Apply :func:`unfold` through every ``Next`` body until none remain folded."""
    return fold(unfold(phi), {**CHILDREN, Next: lambda n: (unfold(n.body),)}, _to_next_form_node)


# ---------------------------------------------------------------------------
# Letter simplification


def letter_simplify(phi: Formula, letter: Optional[Letter]) -> Formula:
    """Partially evaluate ``phi`` against the current letter.

    ``letter`` is a ``(value, time)`` pair, or ``None`` for the empty letter
    past the end of the word, which closes ``phi`` in one :func:`_close` fold:
    the result is ``Solved``, whatever windows are still open.  Timed
    operators still folded inside the formula are unfolded on demand.

    A ``Consume`` node that occurs more than once fires once per letter: its
    result is kept in a table keyed by the node's identity, which lives only
    for this call.  Nodes are dispatched on their exact type, so a subclass
    of a node type is foreign here, as it is to :func:`fold`.  A
    :class:`Monitor` step on a chain simplifies the chain's operands one at
    a time with one table for the letter: an unfolded obligation's atom is
    fired in place, every other operand goes through the same walker, an
    operand that simplifies to the chain's neutral leaf drops out, and one
    that simplifies to its absorbing leaf is the result once the rest of
    the chain has fired.  The step builds only the chain it keeps.
    """
    if letter is None:
        return _LEAVES[_close(phi)]
    value, time = letter
    return _simplify(phi, value, time, {})


def _simplify(phi: Formula, value: Any, time: Timestamp, fired: Dict[int, Formula]) -> Formula:
    """:func:`letter_simplify` on a letter; ``fired`` maps the ``id`` of each
    ``Consume`` already fired on it to the formula its consumer returned."""
    kind = type(phi)
    if kind is Solved:
        return phi
    if kind is Or:
        return mk_or(
            _simplify(phi.left, value, time, fired), _simplify(phi.right, value, time, fired)
        )
    if kind is And:
        return mk_and(
            _simplify(phi.left, value, time, fired), _simplify(phi.right, value, time, fired)
        )
    if kind is Next:
        return phi.body
    if kind is Consume:
        result = fired.get(id(phi))
        if result is None:
            result = fired[id(phi)] = phi.consumer(value, time)
        return result
    if kind is Not:
        return mk_not(_simplify(phi.body, value, time, fired))
    if kind is Implies:
        return mk_implies(
            _simplify(phi.left, value, time, fired), _simplify(phi.right, value, time, fired)
        )
    if kind in _TIMED:
        return _simplify(unfold(phi), value, time, fired)
    raise FormulaError(f"cannot simplify {phi!r}")


_CONNECTIVES = {Not: truth.neg, And: truth.conj, Or: truth.disj, Implies: truth.implies}


def _close_node(phi: Formula, kids: Sequence[Verdict]) -> Verdict:
    kind = type(phi)
    if kind in _CONNECTIVES:
        return _CONNECTIVES[kind](*kids)
    if kind is Solved:
        return phi.value
    if kind is Consume:
        return truth.INCONCLUSIVE
    if kind not in CHILDREN:
        raise FormulaError(f"cannot simplify {phi!r}")
    # ``Next`` or a timed operator: every instant past the word judges alike,
    # join and meet are idempotent, and ``r | (l & r) = (l & r) | (r & r) = r``.
    return kids[-1]


def _close(phi: Formula) -> Verdict:
    """Verdict of ``phi`` on the empty letters past the end of the word."""
    return fold(phi, CHILDREN, _close_node)


# ---------------------------------------------------------------------------
# Obligation merging

# Per chain kind, the timed operators that keep their smaller timeout: the
# stronger obligation in a conjunction, the weaker in a disjunction.  The
# other two kinds keep the larger timeout.
_KEEP_SMALLER = {And: (Eventually, Until), Or: (Always, Release)}


def merge_obligations(phi: Formula) -> Formula:
    """Merge timed operators of one kind over the same operands in each chain.

    ``F[j]a => F[k]a`` for ``j <= k`` (likewise for until; dually
    ``G[k]a => G[j]a`` and for release), so a conjunction of such operators
    equals the strongest one and a disjunction the weakest one.  Operands are
    compared by identity: the obligations one ``Always`` spawns share its body
    object, and no deep comparison is paid.  Bodies of ``Next`` and of timed
    operators are not entered.  Returns ``phi`` itself when nothing merged.
    """
    kind = type(phi)
    if kind is And or kind is Or:
        spine, node = [], phi
        while type(node) is kind:
            spine.append(node.left)
            node = node.right
        spine.append(node)
        kept = _merge_operands(kind, spine)
        return phi if kept is None else _nest(kind, kept)
    if kind is Not:
        body = merge_obligations(phi.body)
        return phi if body is phi.body else mk_not(body)
    if kind is Implies:
        left, right = merge_obligations(phi.left), merge_obligations(phi.right)
        if left is phi.left and right is phi.right:
            return phi
        return mk_implies(left, right)
    return phi


def _merge_operands(kind: type, operands: list) -> Optional[list]:
    """The operands of the ``kind`` chain over the list ``operands``, with
    its timed obligations merged and every other operand merged inside, or
    ``None`` when nothing merged.

    One loop walks the list left to right.  An operand of ``kind`` joins the
    chain: on meeting one, the loop starts over on the flattened list.  A
    merged obligation keeps the slot of its first occurrence.
    """
    keep_smaller = _KEEP_SMALLER[kind]
    slots: Dict[tuple, int] = {}
    kept: list = []
    changed = False
    for item in operands:
        op = type(item)
        if op in _TIMED:
            if op is Eventually or op is Always:
                key: tuple = (op, id(item.body))
            else:
                key = (op, id(item.left), id(item.right))
            slot = slots.get(key)
            if slot is None:
                slots[key] = len(kept)
                kept.append(item)
            else:
                changed = True
                held = kept[slot].timeout
                if item.timeout < held if op in keep_smaller else item.timeout > held:
                    kept[slot] = item
        elif op is kind:
            return _merge_operands(kind, _flatten(kind, operands))
        else:
            merged = merge_obligations(item)
            changed = changed or merged is not item
            kept.append(merged)
    return kept if changed else None


def _flatten(kind: type, operands: list) -> list:
    """The operands of the ``kind`` chain over ``operands``, left to right."""
    flat: list = []
    todo = operands[::-1]
    while todo:
        item = todo.pop()
        if type(item) is kind:
            todo += item.right, item.left
        else:
            flat.append(item)
    return flat


def _nest(make: Callable, operands: list) -> Formula:
    """``make`` applied over ``operands`` from the right: the chain nested
    to the right."""
    result = operands[-1]
    for item in operands[-2::-1]:
        result = make(item, result)
    return result


# ---------------------------------------------------------------------------
# One monitor step

_MAKE = {And: mk_and, Or: mk_or}
# Per chain kind, the verdict of an operand that drops out of the chain.
_NEUTRAL = {And: truth.TRUE, Or: truth.FALSE}


def _step_chain(phi: Formula, value: Any, time: Timestamp) -> Formula:
    """A :class:`Monitor` step (simplify, merge, unfold) of an ``And`` or
    ``Or`` chain ``phi`` whose right operand is a chain of its kind, in one
    walk over the operands down its right spine.

    The walk simplifies the operands left to right with one ``fired`` table,
    so consumers fire as in :func:`letter_simplify`, all before anything is
    unfolded.  An operand ``Or``/``And`` of a ``Consume`` and a ``Next``, an
    unfolded ``F``/``G`` obligation, is stepped in place: the atom fires
    through the table and its result is folded with the ``Next`` body.  An
    operand simplified to the chain's neutral leaf drops out, and if all do,
    the step gives that leaf.  An absorbing leaf (``F`` in ``And``, ``T`` in
    ``Or``) decides the chain: the rest of the chain is simplified in one
    call, so its consumers still fire, and the step gives that leaf.  Every
    other operand, ``?`` included, is kept.  The kept operands are merged as
    the chain they form would be, which an operand of the chain's kind
    joins, and the residual is built right to left, each operand unfolded as
    it is nested.  If unfolding raises, the operands are unfolded left to
    right instead, so the error is the one the three passes raise.
    """
    kind = type(phi)
    neutral = _NEUTRAL[kind]
    fired: Dict[int, Formula] = {}
    kept: list = []
    operand = phi
    while True:
        last = type(operand) is not kind
        part = operand if last else operand.left
        op = type(part)
        if (op is Or or op is And) and type(part.left) is Consume and type(part.right) is Next:
            atom = part.left
            result = fired.get(id(atom))
            if result is None:
                result = fired[id(atom)] = atom.consumer(value, time)
            body = part.right.body
            result = mk_or(result, body) if op is Or else mk_and(result, body)
        else:
            result = _simplify(part, value, time, fired)
        if type(result) is not Solved or result.value is truth.INCONCLUSIVE:
            kept.append(result)
        elif result.value is not neutral:
            if not last:
                _simplify(operand.right, value, time, fired)  # the rest still fires
            return result
        if last:
            break
        operand = operand.right
    if not kept:
        return _LEAVES[neutral]
    merged = _merge_operands(kind, kept)
    operands = kept if merged is None else merged
    make = _MAKE[kind]
    try:
        residual = unfold(operands[-1])
        for item in operands[-2::-1]:
            residual = make(unfold(item), residual)
    except FormulaError:
        for item in operands:
            unfold(item)
        raise
    return residual


# ---------------------------------------------------------------------------
# Safe word length


def _safe_length_node(phi: Formula, kids: Sequence[int]) -> int:
    kind = type(phi)
    if kind is Consume:
        if phi.static_depth is None:
            raise SafeLengthUndefined(
                f"safe word length undefined: dynamic consumer {phi.label!r}"
            )
        return phi.static_depth
    if kind not in CHILDREN:
        raise FormulaError(f"cannot size {phi!r}")
    length = max(kids, default=0)
    if kind is Next:
        return length + 1
    if issubclass(kind, Timed):
        return length + (phi.timeout - 1)
    return length


def safe_word_length(phi: Formula) -> int:
    """Word length guaranteeing a decided verdict; defined only for static consumers."""
    return fold(phi, CHILDREN, _safe_length_node)


# Not a fold: the refuted example sizes its counterexample trace on every run,
# and a fold-based ``size`` made banning-stateless 6-12 % slower in the bench.
def size(phi: Formula) -> int:
    """Node count, reported in step traces."""
    count = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        kids = CHILDREN.get(type(node))
        if kids is None:
            raise FormulaError(f"cannot size {node!r}")
        stack.extend(kids(node))
        count += 1
    return count


# The text before, between and after the operands; ``{}`` is the timeout.
_RENDER = {
    Not: ("!", ""),
    And: ("(", " & ", ")"),
    Or: ("(", " | ", ")"),
    Implies: ("(", " -> ", ")"),
    Next: ("X", ""),
    Eventually: ("F[{}]", ""),
    Always: ("G[{}]", ""),
    Until: ("(", " U[{}] ", ")"),
    Release: ("(", " R[{}] ", ")"),
}


def _render_node(phi: Formula, kids: Sequence[Any]) -> Any:
    kind = type(phi)
    if kind is Solved:
        return phi.value.symbol
    if kind is Consume:
        return f"<{phi.label}>"
    if kind not in _RENDER:
        raise FormulaError(f"cannot render {phi!r}")
    first, *rest = (text.format(getattr(phi, "timeout", None)) for text in _RENDER[kind])
    return (first, *(part for pair in zip(kids, rest) for part in pair))


def render(phi: Formula) -> str:
    """Compact textual rendering, for traces and debugging."""
    return join_text(fold(phi, CHILDREN, _render_node))


# ---------------------------------------------------------------------------
# Stepwise monitor


@dataclass(frozen=True)
class StepTrace:
    """One line of a monitor run: ``time_ms`` is ``None`` for the closing pass."""

    step: int
    time_ms: Optional[int]
    formula_size: int
    verdict: Optional[Verdict]

    def line(self) -> str:
        v = self.verdict.symbol if self.verdict is not None else "-"
        t = "finish" if self.time_ms is None else f"{self.time_ms}ms"
        return f"step {self.step} @ {t} size={self.formula_size} verdict={v}"


class Monitor:
    """Evaluates a formula one letter at a time.

    A step rewrites the residual formula once: it simplifies the residual
    against the letter (:func:`letter_simplify`), merges its timed
    obligations (:func:`merge_obligations`) and unfolds the next layer
    (:func:`unfold`).  On an ``And`` or ``Or`` chain with three or more
    operands down its right spine, the shape the monitor builds, the three
    passes are one walk over those operands (:func:`_step_chain`): it fires
    the atoms of unfolded obligations in place, drops operands that become
    the chain's neutral leaf, returns at once an absorbing leaf after firing
    the rest of the chain, merges the kept operands in one loop and builds
    the new chain once, unfolding each operand as it is nested.  The
    residual, the order consumers fire in and the first exception are those
    of the three passes.

    Once a verdict is reached the monitor is inert: stepping it again raises
    :class:`MonitorDecided` and the verdict never changes.  Each step keeps
    its residual until :attr:`trace` is read, so a run whose trace nobody
    reads never walks a residual to size it.
    """

    def __init__(self, formula: Formula):
        current = unfold(formula)
        self._current = current
        self.consumed = 0
        self.verdict: Optional[Verdict] = None
        self._pending: list[Tuple[Optional[Timestamp], Formula, Optional[Verdict]]] = []
        self._trace: list[StepTrace] = []
        if type(current) is Solved:
            self.verdict = current.value

    @property
    def trace(self) -> list[StepTrace]:
        """One entry per step, the closing pass last; each residual is sized
        the first time the trace is read after its step."""
        trace = self._trace
        for time_ms, residual, verdict in self._pending:
            trace.append(StepTrace(len(trace) + 1, time_ms, size(residual), verdict))
        self._pending.clear()
        return trace

    def step(self, letter: Any, time_ms: Timestamp) -> Optional[Verdict]:
        if self.verdict is not None:
            raise MonitorDecided("monitor already reached a verdict")
        current = self._current
        kind = type(current)
        if kind in _MAKE and type(current.right) is kind:
            current = _step_chain(current, letter, time_ms)
        else:
            current = unfold(merge_obligations(_simplify(current, letter, time_ms, {})))
        self._current = current
        self.consumed += 1
        if type(current) is Solved:
            self.verdict = current.value
        self._pending.append((time_ms, current, self.verdict))
        return self.verdict

    def finish(self) -> Verdict:
        if self.verdict is None:
            current = letter_simplify(self._current, None)
            self._current = current
            self.verdict = current.value
            self._pending.append((None, current, self.verdict))
        return self.verdict
