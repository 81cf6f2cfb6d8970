"""Shared random corpora for property tests: formulas at both levels, words."""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Tuple

from streamcheck import runtime as rt
from streamcheck import symbolic as sym
from streamcheck import truth

ALPHABET = ("a", "b", "c")


def arithmetic_interpretation() -> sym.Interpretation:
    functions = {name: (lambda name=name: name) for name in ALPHABET}
    functions["plus"] = lambda x, y: x + y
    return sym.Interpretation(
        functions=functions,
        predicates={"leq": lambda x, y: x <= y},
        constants=ALPHABET,
    )


INTERP = arithmetic_interpretation()


# ---------------------------------------------------------------------------
# Words


def random_word(rng: random.Random, max_len: int = 8) -> List[Tuple[str, int]]:
    """Timed word over the letter alphabet; timestamps nondecreasing."""
    length = rng.randint(0, max_len)
    time = 0
    word = []
    for _ in range(length):
        time += rng.randint(0, 3)
        word.append((rng.choice(ALPHABET), time))
    return word


def random_term_word(rng: random.Random, max_len: int = 8) -> List[Tuple[sym.Term, int]]:
    return [(sym.App(letter), time) for letter, time in random_word(rng, max_len)]


# ---------------------------------------------------------------------------
# Runtime formulas


def letter_is(symbol: str) -> rt.Consume:
    return rt.now(lambda letter, s=symbol: letter == s, f"letter=={symbol}")


def _dynamic_atom(rng: random.Random) -> rt.Consume:
    """Consumer whose continuation depends on the letter; no static depth."""
    target = rng.choice(ALPHABET)
    follow = rng.choice(ALPHABET)

    def consumer(letter, _time):
        if letter == target:
            return letter_is(follow)
        return rt.Solved(truth.Verdict.from_bool(letter == follow))

    return rt.Consume(consumer, static_depth=None, label=f"after {target} expect {follow}")


def random_runtime_formula(
    rng: random.Random,
    depth: int = 5,
    max_timeout: int = 4,
    allow_dynamic: bool = False,
    allow_inconclusive: bool = True,
    atoms: Optional[Mapping[str, rt.Consume]] = None,
) -> rt.Formula:
    """Random formula; with ``atoms``, every letter test is the shared atom object."""
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.55:
            letter = rng.choice(ALPHABET)
            return letter_is(letter) if atoms is None else atoms[letter]
        if allow_dynamic and roll < 0.7:
            return _dynamic_atom(rng)
        values = [truth.TRUE, truth.FALSE]
        if allow_inconclusive:
            values.append(truth.INCONCLUSIVE)
        return rt.Solved(rng.choice(values))

    def sub() -> rt.Formula:
        return random_runtime_formula(
            rng, depth - 1, max_timeout, allow_dynamic, allow_inconclusive, atoms
        )

    t = rng.randint(1, max_timeout)
    kind = rng.randrange(9)
    if kind == 0:
        return rt.Not(sub())
    if kind == 1:
        return rt.And(sub(), sub())
    if kind == 2:
        return rt.Or(sub(), sub())
    if kind == 3:
        return rt.Implies(sub(), sub())
    if kind == 4:
        return rt.Next(sub())
    if kind == 5:
        return rt.Eventually(t, sub())
    if kind == 6:
        return rt.Always(t, sub())
    if kind == 7:
        return rt.Until(t, sub(), sub())
    return rt.Release(t, sub(), sub())


def monitor_verdict(formula: rt.Formula, word) -> truth.Verdict:
    """Full stepwise run: feed every letter, then close out with the empty letter."""
    monitor = rt.Monitor(formula)
    for letter, time in word:
        if monitor.verdict is not None:
            break
        monitor.step(letter, time)
    return monitor.finish()


# ---------------------------------------------------------------------------
# Symbolic formulas (closed by construction)


def _atom(rng: random.Random, scope: List[str]) -> sym.SymFormula:
    roll = rng.random()
    if roll < 0.1:
        return rt.TOP
    if roll < 0.15:
        return rt.BOTTOM

    def operand() -> sym.Term:
        if scope and rng.random() < 0.7:
            return sym.Var(rng.choice(scope))
        return sym.App(rng.choice(ALPHABET))

    return sym.Eq(operand(), operand())


def random_symbolic_formula(
    rng: random.Random,
    depth: int = 5,
    max_timeout: int = 4,
    scope: Optional[List[str]] = None,
    time_scope: Optional[List[str]] = None,
    variable_timeouts: bool = True,
) -> sym.SymFormula:
    scope = scope or []
    time_scope = time_scope or []
    if depth <= 0 or rng.random() < 0.2:
        return _atom(rng, scope)

    def sub(extra_scope: Optional[str] = None, extra_time: Optional[str] = None) -> sym.SymFormula:
        new_scope = scope + ([extra_scope] if extra_scope else [])
        new_time = time_scope + ([extra_time] if extra_time else [])
        return random_symbolic_formula(
            rng, depth - 1, max_timeout, new_scope, new_time, variable_timeouts
        )

    def timeout() -> sym.Term:
        if variable_timeouts and time_scope and rng.random() < 0.25:
            return sym.App("plus", (sym.Var(rng.choice(time_scope)), sym.Lit(rng.randint(0, 2))))
        return sym.Lit(rng.randint(1, max_timeout))

    kind = rng.randrange(10)
    if kind == 0:
        return sym.Not(sub())
    if kind == 1:
        return sym.And(sub(), sub())
    if kind == 2:
        return sym.Or(sub(), sub())
    if kind == 3:
        return sym.Implies(sub(), sub())
    if kind == 4:
        return sym.Next(sub())
    if kind == 5:
        return sym.Eventually(timeout(), sub())
    if kind == 6:
        return sym.Always(timeout(), sub())
    if kind == 7:
        return sym.Until(timeout(), sub(), sub())
    if kind == 8:
        return sym.Release(timeout(), sub(), sub())
    n = rng.randrange(10_000)
    return sym.Consume(f"x{n}", f"o{n}", sub(extra_scope=f"x{n}", extra_time=f"o{n}"))


# ---------------------------------------------------------------------------
# Worked judgment vectors over the four-letter word (b,0)(b,2)(a,3)(a,6) and
# the arithmetic word (0,0)(1,2)(2,3).

EXAMPLE_WORD = [(sym.App(letter), time) for letter, time in (("b", 0), ("b", 2), ("a", 3), ("a", 6))]
NAT_WORD = [(sym.Lit(value), time) for value, time in ((0, 0), (1, 2), (2, 3))]


def consume_eq(var: str, time_var: str, constant: str) -> sym.SymFormula:
    return sym.Consume(var, time_var, sym.eq(sym.Var(var), constant))


def judgment_vectors():
    """(name, symbolic formula, word, interpretation, expected verdict)."""
    plus = sym.App("plus", (sym.Var("o"), sym.Lit(6)))
    sum_xy = sym.App("plus", (sym.Var("x"), sym.Var("y")))
    nested_next = sym.Next(
        sym.And(consume_eq("y", "p", "a"), sym.Next(consume_eq("z", "q", "a")))
    )
    vectors = [
        ("search_misses_window", sym.eventually(4, consume_eq("x", "o", "c")), truth.FALSE),
        ("search_outlives_word", sym.eventually(5, consume_eq("x", "o", "c")), truth.INCONCLUSIVE),
        (
            "invariant_outlives_word",
            sym.always(
                5,
                sym.Consume(
                    "x", "o", sym.Or(sym.eq(sym.Var("x"), "a"), sym.eq(sym.Var("x"), "b"))
                ),
            ),
            truth.INCONCLUSIVE,
        ),
        (
            "handover_window_too_short",
            sym.until(2, consume_eq("x", "o", "b"), consume_eq("y", "p", "a")),
            truth.FALSE,
        ),
        (
            "handover_within_window",
            sym.until(5, consume_eq("x", "o", "b"), consume_eq("y", "p", "a")),
            truth.TRUE,
        ),
        (
            "hold_survives_window",
            sym.release(2, consume_eq("x", "o", "a"), consume_eq("y", "p", "b")),
            truth.TRUE,
        ),
        (
            "lookahead_inside_invariant",
            sym.always(
                3, sym.Implies(consume_eq("x", "o", "a"), sym.Next(consume_eq("y", "p", "a")))
            ),
            truth.TRUE,
        ),
        (
            "response_window_too_short",
            sym.always(
                2,
                sym.Implies(
                    consume_eq("x", "o", "b"), sym.eventually(2, consume_eq("y", "p", "a"))
                ),
            ),
            truth.FALSE,
        ),
        (
            "nested_next_handover",
            sym.until(2, consume_eq("x", "o", "b"), nested_next),
            truth.TRUE,
        ),
        (
            "timeout_bound_from_letter",
            sym.Consume("x", "o", sym.Always(plus, sym.eq(sym.Var("x"), "b"))),
            truth.TRUE,
        ),
    ]
    out = [(name, phi, EXAMPLE_WORD, INTERP, expected) for name, phi, expected in vectors]
    # Timeout-bounded search whose atom does arithmetic on the two consumed
    # letters; the two argument orders give opposite verdicts.
    nat = sym.Interpretation(
        functions={"plus": lambda a, b: a + b}, predicates={"leq": lambda a, b: a <= b}
    )
    out.append(
        (
            "bound_pair_sum",
            sym.eventually(
                2, sym.Consume("x", "o1", sym.Consume("y", "o2", sym.pred("leq", sum_xy, 5)))
            ),
            NAT_WORD,
            nat,
            truth.TRUE,
        )
    )
    out.append(
        (
            "bound_pair_sum_flipped",
            sym.eventually(
                2, sym.Consume("x", "o1", sym.Consume("y", "o2", sym.pred("leq", 5, sum_xy)))
            ),
            NAT_WORD,
            nat,
            truth.FALSE,
        )
    )
    return out


def random_generatable_formula(
    rng: random.Random,
    depth: int = 4,
    max_timeout: int = 3,
    witnesses: Optional[dict] = None,
) -> sym.SymFormula:
    """Negation-free, false-free fragment with jointly satisfiable atoms.

    Every atom constraining one bound variable compares it to the same
    constant, so a witness always exists for each binder; this pins down the
    loose "satisfiable atoms" side condition of the progress property.
    """
    witnesses = witnesses or {}
    if depth <= 0 or rng.random() < 0.25:
        if witnesses and rng.random() < 0.75:
            var = rng.choice(sorted(witnesses))
            return sym.Eq(sym.Var(var), sym.App(witnesses[var]))
        if rng.random() < 0.5:
            return rt.TOP
        constant = rng.choice(ALPHABET)
        return sym.Eq(sym.App(constant), sym.App(constant))

    def sub(extra: Optional[Tuple[str, str]] = None) -> sym.SymFormula:
        extended = dict(witnesses)
        if extra:
            extended[extra[0]] = extra[1]
        return random_generatable_formula(rng, depth - 1, max_timeout, extended)

    kind = rng.randrange(9)
    t = rng.randint(1, max_timeout)
    if kind == 0:
        return sym.And(sub(), sub())
    if kind == 1:
        return sym.Or(sub(), sub())
    if kind == 2:
        return sym.Implies(sub(), sub())
    if kind == 3:
        return sym.Next(sub())
    if kind == 4:
        return sym.eventually(t, sub())
    if kind == 5:
        return sym.always(t, sub())
    if kind == 6:
        return sym.until(t, sub(), sub())
    if kind == 7:
        return sym.release(t, sub(), sub())
    n = rng.randrange(10_000)
    return sym.Consume(f"x{n}", f"o{n}", sub(extra=(f"x{n}", rng.choice(ALPHABET))))
