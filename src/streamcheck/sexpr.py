"""Plain-text S-expression syntax for symbolic formulas, words and scenarios.

Grammar (``;`` starts a line comment)::

    term     := INT | ?name | symbol | (symbol term*)
    formula  := true | false
              | (= term term) | (symbol term*)            ; predicate
              | (not f) | (and f f) | (or f f) | (implies f f)
              | (next f)
              | (eventually term f) | (always term f)
              | (until term f f) | (release term f f)
              | (consume ?x ?o f)
    word     := (word (term INT)*)
    scenario := (scenario (formula f) (word ...) (expect T|F|?))   ; each entry once

Variables are written with a leading ``?``; bare symbols are nullary function
applications; integers are natural-number literals.

:func:`parse_node` reads the text in one regex pass into tokens (a comment
runs from ``;`` to the next line boundary) and one loop over them with a
stack of the open lists, so it reads any nesting depth.  The builders of
terms, formulas, words and scenarios recurse over the nodes it returns, and
nesting past the recursion limit is a :class:`SexprError`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Tuple, Union

from . import runtime, symbolic
from .symbolic import App, Lit, SymFormula, Term, Var
from .truth import Verdict


class SexprError(Exception):
    pass


# A parenthesis, a comment or an atom.  A comment runs from ``;`` to the next
# line boundary that ``str.splitlines`` knows; every such boundary is also
# whitespace, so it ends an atom too.
_TOKEN_RE = re.compile(r"[()]|;[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*|[^\s();]+")

# Head of each form, with its class, its number of leading terms and its
# number of subformulas.  Parsing and formatting both read this table.
_FORMS = {
    "=": (symbolic.Eq, 2, 0),
    "not": (symbolic.Not, 0, 1),
    "and": (symbolic.And, 0, 2),
    "or": (symbolic.Or, 0, 2),
    "implies": (symbolic.Implies, 0, 2),
    "next": (symbolic.Next, 0, 1),
    "eventually": (symbolic.Eventually, 1, 1),
    "always": (symbolic.Always, 1, 1),
    "until": (symbolic.Until, 1, 2),
    "release": (symbolic.Release, 1, 2),
}
_HEADS = {kind: head for head, (kind, _, _) in _FORMS.items()}
_HEADS[symbolic.Consume] = "consume"
# A runtime window is printed as the symbolic window with the same timeout.
_HEADS.update({kind: kind.__name__.lower() for kind in runtime._TIMED})
# The two constants are the runtime's verdict leaves; ``?`` has no syntax.
_CONSTANTS = {"true": runtime.TOP, "false": runtime.BOTTOM}
_CONSTANT_NAMES = {leaf.value: name for name, leaf in _CONSTANTS.items()}
_RESERVED = {*_FORMS, *_CONSTANTS, "consume", "word", "scenario", "formula", "expect"}

Node = Union[str, int, List["Node"]]


def parse_node(text: str) -> Node:
    """Read one expression: one regex pass splits the text into tokens, and
    one loop over them, with a stack of the open lists, builds the nodes, so
    nesting depth costs no recursion.  Comment tokens are skipped."""
    tokens = iter(_TOKEN_RE.findall(text))
    stack: List[List[Node]] = []  # the items read so far of each open list
    for token in tokens:
        if token == "(":
            stack.append([])
            continue
        if token == ")":
            if not stack:
                raise SexprError("unexpected ')'")
            node: Node = stack.pop()
        elif token[0] == ";":
            continue
        elif token.isdecimal():
            node = int(token)
        elif token[0] == "-" and token[1:].isdecimal():
            raise SexprError(f"literals are natural numbers, got {token}")
        else:
            node = token
        if not stack:
            break
        stack[-1].append(node)
    else:
        raise SexprError("unbalanced parenthesis" if stack else "unexpected end of input")
    if any(token[0] != ";" for token in tokens):
        raise SexprError("trailing input after expression")
    return node


def _as_var(node: Node) -> str:
    if isinstance(node, str) and node.startswith("?") and len(node) > 1:
        return node[1:]
    raise SexprError(f"expected a ?variable, got {node!r}")


def term_from_node(node: Node) -> Term:
    if isinstance(node, int):
        return Lit(node)
    if isinstance(node, str):
        if node.startswith("?"):
            return Var(_as_var(node))
        return App(node)
    if isinstance(node, list) and node and isinstance(node[0], str):
        return App(node[0], tuple(term_from_node(a) for a in node[1:]))
    raise SexprError(f"cannot read term from {node!r}")


def formula_from_node(node: Node) -> SymFormula:
    if isinstance(node, str) and node in _CONSTANTS:
        return _CONSTANTS[node]
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise SexprError(f"cannot read formula from {node!r}")
    head, *rest = node
    if head in _FORMS:
        kind, terms, formulas = _FORMS[head]
        _arity(node, terms + formulas)
        return kind(*map(term_from_node, rest[:terms]), *map(formula_from_node, rest[terms:]))
    if head == "consume":
        _arity(node, 3)
        return symbolic.Consume(_as_var(rest[0]), _as_var(rest[1]), formula_from_node(rest[2]))
    if head in _RESERVED:
        raise SexprError(f"malformed {head!r} form")
    return symbolic.Pred(head, tuple(term_from_node(a) for a in rest))


def word_from_node(node: Node) -> List[Tuple[Term, int]]:
    if not isinstance(node, list) or not node or node[0] != "word":
        raise SexprError("expected a (word ...) form")
    letters = []
    for item in node[1:]:
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[1], int):
            raise SexprError(f"letter must be (term time), got {item!r}")
        if item[1] < 0 or (letters and item[1] < letters[-1][1]):
            raise SexprError("timestamps must be non-negative and non-decreasing")
        term = term_from_node(item[0])
        if next(symbolic.term_vars((term,)), None) is not None:
            raise SexprError(f"letter must be a closed term, got {item[0]!r}")
        letters.append((term, item[1]))
    return letters


def scenario_from_node(node: Node) -> Tuple[SymFormula, List[Tuple[Term, int]], Verdict]:
    if not isinstance(node, list) or not node or node[0] != "scenario":
        raise SexprError("expected a (scenario ...) form")
    formula = word = expect = None
    seen = set()
    for item in node[1:]:
        if not isinstance(item, list) or not item or not isinstance(item[0], str):
            raise SexprError(f"bad scenario entry {item!r}")
        if item[0] in seen:
            raise SexprError(f"repeated scenario entry {item[0]!r}")
        seen.add(item[0])
        if item[0] == "formula":
            _arity(item, 1)
            formula = formula_from_node(item[1])
        elif item[0] == "word":
            word = word_from_node(item)
        elif item[0] == "expect":
            _arity(item, 1)
            try:
                expect = Verdict.from_symbol(str(item[1]))
            except ValueError as exc:
                raise SexprError(str(exc)) from None
        else:
            raise SexprError(f"unknown scenario entry {item[0]!r}")
    if formula is None or word is None or expect is None:
        raise SexprError("scenario needs formula, word and expect entries")
    return formula, word, expect


def parse_formula(text: str) -> SymFormula:
    return _read(text, formula_from_node)


def parse_scenario(text: str) -> Tuple[SymFormula, List[Tuple[Term, int]], Verdict]:
    return _read(text, scenario_from_node)


def _read(text: str, build: Callable[[Node], Any]) -> Any:
    # The reader loops; the builders recurse once per nesting level.
    try:
        return build(parse_node(text))
    except RecursionError:
        raise SexprError("expression nested too deeply") from None


def _arity(node: List[Node], n: int) -> None:
    if len(node) != n + 1:
        raise SexprError(f"{node[0]!r} expects {n} arguments, got {len(node) - 1}")


# ---------------------------------------------------------------------------
# Formatting (inverse of parsing)


def format_term(term: Term) -> str:
    if isinstance(term, Lit):
        return str(term.value)
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, App):
        if not term.args:
            return term.symbol
        return f"({term.symbol} {' '.join(format_term(a) for a in term.args)})"
    raise SexprError(f"cannot format term {term!r}")


def _format_node(phi: SymFormula, kids: List[Any]) -> Any:
    kind = type(phi)
    if kind is runtime.Solved and phi.value in _CONSTANT_NAMES:
        return _CONSTANT_NAMES[phi.value]
    head = phi.name if kind is symbolic.Pred else _HEADS.get(kind)
    if head is None:
        raise SexprError(f"cannot format formula {phi!r}")
    words = [head, *map(format_term, symbolic.node_terms(phi))]
    if kind is symbolic.Consume:
        words += [f"?{phi.var}", f"?{phi.time_var}"]
    elif kind in runtime._TIMED:
        words.append(str(phi.timeout))
    return ("(" + " ".join(words), *(part for kid in kids for part in (" ", kid)), ")")


def format_formula(phi: SymFormula) -> str:
    return runtime.join_text(runtime.fold(phi, symbolic.CHILDREN, _format_node))


def format_word(word: List[Tuple[Term, int]]) -> str:
    letters = " ".join(f"({format_term(term)} {time})" for term, time in word)
    return f"(word {letters})" if letters else "(word)"
