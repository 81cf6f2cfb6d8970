"""Terms, substitution, interpretation, compilation, and their agreement."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcheck import runtime as rt
from streamcheck import semantics, sexpr, symbolic as sym, truth, wordgen

from corpus import (
    INTERP,
    consume_eq,
    monitor_verdict,
    random_generatable_formula,
    random_symbolic_formula,
    random_term_word,
)
from window_folds import WINDOW_FOLDS


def consume(var, time_var, body):
    return sym.Consume(var, time_var, body)


@pytest.mark.parametrize("name", ["Not", "And", "Or", "Implies", "Next"])
def test_connectives_are_the_runtime_nodes(name):
    assert getattr(sym, name) is getattr(rt, name)


@pytest.mark.parametrize("name", ["TOP", "BOTTOM", "Solved"])
def test_constants_are_the_runtime_verdict_leaves(name):
    assert getattr(sym, name) is getattr(rt, name)


@pytest.mark.parametrize("leaf", [rt.TOP, rt.BOTTOM, rt.UNDECIDED], ids=["T", "F", "?"])
def test_a_verdict_leaf_compiles_to_itself(leaf):
    assert sym.compile_formula(leaf, INTERP) is leaf


def test_judge_lowers_no_verdict_leaf(monkeypatch):
    """The reference judgment reads a verdict leaf itself; only atoms,
    windows and consumes reach the lowering."""
    seen = []

    def recording(lower):
        def wrapped(phi, interp, relaxed):
            seen.append(type(phi))
            return lower(phi, interp, relaxed)

        return wrapped

    monkeypatch.setattr(sym, "_LOWER", {kind: recording(f) for kind, f in sym._LOWER.items()})
    word = [(sym.App("a"), 0), (sym.App("b"), 1)]
    assert sym.judge(word, 1, sym.always(3, rt.TOP), INTERP) is truth.TRUE
    assert sym.judge(word, 1, sym.Or(rt.BOTTOM, sym.eq("a", "a")), INTERP) is truth.TRUE
    assert seen == [sym.Always, sym.Eq]


class TestFreeVars:
    def test_both_binders_discharge(self):
        phi = consume("x", "o", sym.eq(sym.Var("x"), "a"))
        assert sym.free_vars(phi) == set()

    def test_timeout_variables_are_collected(self):
        timeout = sym.App("plus", (sym.Var("o"), sym.Lit(6)))
        phi = consume("x", "o", sym.Always(timeout, sym.Eq(sym.Var("x"), sym.Var("y"))))
        assert sym.free_vars(phi) == {"y"}

    def test_plain_variable(self):
        assert sym.free_vars(sym.Eq(sym.Var("x"), sym.Var("x"))) == {"x"}


class TestSubstitute:
    def test_simple_replacement(self):
        phi = sym.eq(sym.Var("x"), "a")
        assert sym.substitute(phi, {"x": sym.App("b")}) == sym.eq("b", "a")

    def test_timeout_substitution(self):
        timeout = sym.App("plus", (sym.Var("o"), sym.Lit(6)))
        phi = sym.Always(timeout, sym.eq(sym.Var("x"), "b"))
        bound = sym.substitute(sym.substitute(phi, {"x": sym.App("b")}), {"o": sym.Lit(0)})
        assert bound == sym.Always(
            sym.App("plus", (sym.Lit(0), sym.Lit(6))), sym.eq("b", "b")
        )

    def test_shadowed_binder_untouched(self):
        phi = consume("x", "o", sym.eq(sym.Var("x"), "a"))
        assert sym.substitute(phi, {"x": sym.App("b")}) == phi

    def test_substitution_discharges_the_variable(self):
        rng = random.Random(2)
        for _ in range(500):
            phi = random_symbolic_formula(rng, depth=4)
            for var in sorted(sym.free_vars(phi) | {"x0"}):
                replaced = sym.substitute(phi, {var: sym.App("a")})
                assert var not in sym.free_vars(replaced)

    def test_what_no_binding_reaches_is_kept(self):
        rng = random.Random(3)
        for _ in range(300):
            phi = random_symbolic_formula(rng, depth=4)
            free = sym.free_vars(phi)
            assert sym.substitute(phi, {}) is phi
            assert sym.substitute(phi, {"unbound": sym.App("a")}) is phi
            if free:
                replaced = sym.substitute(phi, dict.fromkeys(free, sym.App("a")))
                assert replaced is not phi and not sym.free_vars(replaced)
        timeout = sym.App("plus", (sym.Var("o"), sym.Lit(6)))
        closed = sym.pred("leq", sym.App("plus", (sym.App("b"), sym.Lit(1))), "c")
        phi = sym.And(sym.Always(timeout, sym.eq(sym.Var("x"), "a")), sym.Next(closed))
        bound = sym.substitute(phi, {"x": sym.App("b")})
        assert bound == sym.And(sym.Always(timeout, sym.eq("b", "a")), sym.Next(closed))
        assert bound.left.timeout is timeout and bound.right is phi.right


def test_a_term_prints_as_its_dataclass():
    """A term's ``repr`` is a fold that gives the dataclass ``repr`` byte for
    byte, a one-argument tuple's trailing comma included."""
    term = sym.App("f", (sym.Lit(1), sym.App("a"), sym.Const(None), sym.App("g", (sym.Var("x"),))))
    assert repr(term) == (
        "App(symbol='f', args=(Lit(value=1), App(symbol='a', args=()), Const(value=None), "
        "App(symbol='g', args=(Var(name='x'),))))"
    )


class TestEvalTerm:
    def test_function_application(self):
        term = sym.App("plus", (sym.Lit(1), sym.Lit(2)))
        assert sym.eval_term(term, INTERP) == 3

    def test_literal_self_interprets(self):
        assert sym.eval_term(sym.Lit(7), INTERP) == 7

    def test_nested_fold(self):
        inner = sym.App("plus", (sym.Lit(0), sym.Lit(1)))
        assert sym.eval_term(sym.App("plus", (inner, sym.Lit(2))), INTERP) == 3

    def test_uninterpreted_symbol_is_named(self):
        with pytest.raises(sym.UninterpretedSymbol, match="mystery"):
            sym.eval_term(sym.App("mystery"), sym.Interpretation())

    def test_open_term_rejected(self):
        with pytest.raises(sym.OpenFormula):
            sym.eval_term(sym.Var("x"), INTERP)


@st.composite
def closed_formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_symbolic_formula(random.Random(seed), depth=4)


@settings(max_examples=150, deadline=None)
@given(closed_formulas(), st.sampled_from("abc"))
def test_substitute_then_free_vars_property(phi, constant):
    for var in sorted(sym.free_vars(phi)):
        assert var not in sym.free_vars(sym.substitute(phi, {var: sym.App(constant)}))


class TestCompile:
    def test_tautology_on_any_word(self):
        compiled = sym.compile_formula(rt.TOP, INTERP)
        assert semantics.models([], compiled) is truth.TRUE
        assert semantics.models([(sym.App("a"), 0)], compiled) is truth.TRUE

    def test_open_formula_rejected(self):
        with pytest.raises(sym.OpenFormula):
            sym.compile_formula(sym.eq(sym.Var("x"), "a"), INTERP)

    def test_open_letter_keeps_its_variables(self):
        """A bound name stands for the variables of its letter, which the
        consume's own bindings do not close."""
        phi = consume("x", "o", sym.eq(sym.Var("x"), "a"))
        for name in "yo":
            monitor = rt.Monitor(sym.compile_formula(phi, INTERP))
            with pytest.raises(sym.OpenFormula) as raised:
                monitor.step(sym.Var(name), 0)
            assert str(raised.value) == f"atom has free variables [{name!r}]"

    def test_uninterpreted_predicate_rejected(self):
        with pytest.raises(sym.UninterpretedSymbol):
            sym.compile_formula(sym.pred("mystery", 1), sym.Interpretation())

    def test_static_depth_from_concrete_timeouts(self):
        """A compiled consume has no static depth; the safe length is the
        symbolic formula's."""
        phi = consume("x", "o", sym.always(3, sym.eq(sym.Var("x"), "a")))
        compiled = sym.compile_formula(phi, INTERP)
        assert isinstance(compiled, rt.Consume)
        assert compiled.static_depth is None
        with pytest.raises(rt.SafeLengthUndefined):
            rt.safe_word_length(compiled)
        assert sym.symbolic_safe_word_length(phi, INTERP) == 3

    def test_variable_timeout_has_no_static_depth(self):
        timeout = sym.App("plus", (sym.Var("o"), sym.Lit(6)))
        phi = consume("x", "o", sym.Always(timeout, sym.eq(sym.Var("x"), "b")))
        compiled = sym.compile_formula(phi, INTERP)
        assert compiled.static_depth is None

    def test_compiled_judgment_matches_direct_judgment(self):
        rng = random.Random(11)
        for _ in range(1000):
            phi = random_symbolic_formula(rng, depth=5, max_timeout=4)
            assert not sym.free_vars(phi)
            word = random_term_word(rng, max_len=8)
            expected = sym.judge(word, 1, phi, INTERP)
            compiled = sym.compile_formula(phi, INTERP)
            assert semantics.models(word, compiled) is expected
            assert monitor_verdict(compiled, word) is expected


# Operands that raise if walked: an uninterpreted predicate when compiled or
# judged, and a window with an open timeout also when expanded or measured.
UNWALKABLE = {
    "uninterpreted": sym.pred("undefined", "a"),
    "open-timeout": sym.eventually(sym.Var("o"), sym.pred("undefined", "a")),
}


@pytest.mark.parametrize("operand", UNWALKABLE.values(), ids=list(UNWALKABLE))
@pytest.mark.parametrize(
    "window, leaf",
    [
        (sym.eventually, rt.BOTTOM),
        (sym.always, rt.TOP),
        (lambda t, p: sym.until(t, p, p), rt.BOTTOM),
        (lambda t, p: sym.release(t, p, p), rt.TOP),
    ],
    ids=["eventually", "always", "until", "release"],
)
def test_a_zero_window_is_decided_before_its_operands(window, leaf, operand):
    with pytest.raises(sym.SymbolicError):
        sym.compile_formula(window(1, operand), INTERP)
    phi = window(0, operand)
    compiled = sym.compile_formula(phi, INTERP)
    assert compiled is leaf
    for word in ([], [(sym.App("a"), 0)]):
        assert monitor_verdict(compiled, word) is leaf.value
        assert sym.judge(word, 1, phi, INTERP) is leaf.value
    assert sym.next_form(phi, INTERP) is leaf
    assert sym.symbolic_safe_word_length(phi, INTERP) == 0
    assert sym.symbolic_safe_word_length(consume("x", "o", phi), INTERP) == 1


def test_symbolic_safe_word_length_guarantees_decision():
    """The symbolic twin of acceptance criterion 4: on a word of exactly the
    safe word length, the direct judgment is decided and the compiled
    monitor agrees with it."""
    rng = random.Random(4097)
    for _ in range(1000):
        phi = random_symbolic_formula(rng, depth=4, variable_timeouts=False)
        length = sym.symbolic_safe_word_length(phi, INTERP)
        word = [(sym.App(rng.choice("abc")), 2 * i) for i in range(length)]
        verdict = sym.judge(word, 1, phi, INTERP)
        assert verdict.is_decided()
        assert monitor_verdict(sym.compile_formula(phi, INTERP), word) is verdict


def test_symbolic_safe_word_length_matches_examples():
    phi = sym.always(
        3,
        sym.Implies(
            consume("x", "o", sym.eq(sym.Var("x"), "a")),
            sym.Next(consume("y", "p", sym.eq(sym.Var("y"), "a"))),
        ),
    )
    assert sym.symbolic_safe_word_length(phi, INTERP) == 4


WINDOWS = {
    "eventually": sym.Eventually,
    "always": sym.Always,
    "until": lambda t, p: sym.Until(t, p, p),
    "release": lambda t, p: sym.Release(t, p, p),
}
ROUTES = {
    "compile": sym.compile_formula,
    "judge": lambda phi, interp: sym.judge([(sym.App("a"), 0)], 1, phi, interp),
    "next_form": sym.next_form,
    "safe_length": sym.symbolic_safe_word_length,
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=list(ROUTES))
@pytest.mark.parametrize("window", WINDOWS.values(), ids=list(WINDOWS))
@pytest.mark.parametrize("length", [0, 3])
def test_a_timeout_is_evaluated_once(route, window, length):
    """Every route lowers a window once, so a user function in its timeout
    runs once per window.  Under a consume, a compile evaluates no timeout:
    the consume's first firing does, once."""
    calls = []

    def plus(x, y):
        calls.append((x, y))
        return x + y

    interp = sym.Interpretation({**INTERP.functions, "plus": plus}, INTERP.predicates)
    timed = window(sym.App("plus", (sym.Lit(length), sym.Lit(0))), sym.eq("a", "a"))
    route(timed, interp)
    assert calls == [(length, 0)]
    calls.clear()
    under = route(consume("x", "o", timed), interp)
    if route is sym.compile_formula:
        assert calls == []
        rt.Monitor(under).step(sym.App("a"), 0)
    assert calls == [(length, 0)]


@pytest.mark.parametrize("kind, arity", [("Eventually", 1), ("Always", 1), ("Until", 2), ("Release", 2)])
def test_a_runtime_window_over_symbolic_operands(kind, arity):
    """A runtime window inside a symbolic formula is walked as the symbolic
    window of the same timeout: the four routes agree on it."""
    operands = (consume_eq("x", "o", "a"), consume_eq("y", "p", "b"))[:arity]

    def within(window):
        return sym.Or(sym.always(2, window), sym.Next(consume_eq("z", "q", "c")))

    phi = within(getattr(rt, kind)(2, *operands))
    twin = within(getattr(sym, kind)(sym.Lit(2), *operands))
    compiled = sym.compile_formula(phi, INTERP)
    assert rt.render(compiled) == rt.render(sym.compile_formula(twin, INTERP))
    expanded = sym.next_form(phi, INTERP)
    assert expanded == sym.next_form(twin, INTERP)
    length = sym.symbolic_safe_word_length(phi, INTERP)
    assert length == sym.symbolic_safe_word_length(twin, INTERP)
    for n in range(length + 1):
        for letters in itertools.product("abc", repeat=n):
            word = [(sym.App(letter), time) for time, letter in enumerate(letters)]
            verdict = sym.judge(word, 1, phi, INTERP)
            assert verdict is sym.judge(word, 1, twin, INTERP)
            assert verdict is sym.judge(word, 1, expanded, INTERP)
            assert verdict is monitor_verdict(compiled, word)
            assert verdict.is_decided() or n < length


@pytest.mark.parametrize("kind, arity", [("Eventually", 1), ("Always", 1), ("Until", 2), ("Release", 2)])
def test_a_runtime_window_under_a_consume(kind, arity):
    """Every walker over symbolic formulas reads a runtime window from the
    one node table, so firing the consume substitutes through it."""
    window = getattr(rt, kind)(2, *[sym.eq(sym.Var("x"), "a")] * arity)
    phi = sym.Consume("x", "o", window)
    compiled = sym.compile_formula(phi, INTERP)
    for letters in ("a", "b", "ab", "ba"):
        word = [(sym.App(letter), time) for time, letter in enumerate(letters)]
        verdict = sym.judge(word, 1, phi, INTERP)
        assert verdict.is_decided()
        assert monitor_verdict(compiled, word) is verdict
    assert sym.free_vars(phi) == set()
    assert "a" in sym.constants(phi)
    bound = sym.substitute(window, {"x": sym.App("b"), "o": sym.Lit(0)})
    assert type(bound) is type(window) and bound.timeout == 2
    assert sym.free_vars(bound) == set()
    head = kind.lower()
    assert sexpr.format_formula(phi) == f"(consume ?x ?o ({head} 2{' (= ?x a)' * arity}))"
    with pytest.raises(wordgen.GeneratorFragmentError, match="not in next form"):
        wordgen.generate_word(phi, INTERP, random.Random(0))


def test_timeless_formulas_are_position_independent():
    """No temporal connective: the verdict is the same at every position of
    every word, including the empty one."""
    rng = random.Random(17)
    atoms = [
        sym.eq("a", "a"),
        sym.eq("a", "b"),
        sym.pred("leq", 1, 2),
        rt.TOP,
        rt.BOTTOM,
    ]

    def timeless(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        kind = rng.randrange(4)
        if kind == 0:
            return sym.Not(timeless(depth - 1))
        if kind == 1:
            return sym.And(timeless(depth - 1), timeless(depth - 1))
        if kind == 2:
            return sym.Or(timeless(depth - 1), timeless(depth - 1))
        return sym.Implies(timeless(depth - 1), timeless(depth - 1))

    for _ in range(100):
        phi = timeless(3)
        base = sym.judge([], 1, phi, INTERP)
        assert base.is_decided()
        for _ in range(5):
            word = random_term_word(rng, max_len=4)
            position = rng.randint(1, 6)
            assert sym.judge(word, position, phi, INTERP) is base


_CONNECTIVES = {sym.Not: truth.neg, sym.And: truth.conj, sym.Or: truth.disj, sym.Implies: truth.implies}


def unclamped_judge(word, position, phi):
    """``symbolic.judge`` with every window judged at each of its positions,
    past the end of the word too."""
    kind = type(phi)
    operands = sym.CHILDREN[kind](phi)
    if kind in _CONNECTIVES:
        return _CONNECTIVES[kind](*(unclamped_judge(word, position, sub) for sub in operands))
    if kind is sym.Next:
        return unclamped_judge(word, position + 1, phi.body)
    if kind is sym.Consume:
        if position > len(word):
            return truth.INCONCLUSIVE
        letter, time = word[position - 1]
        bound = sym.substitute(phi.body, {phi.time_var: sym.Lit(time), phi.var: letter})
        return unclamped_judge(word, position + 1, bound)
    if operands:
        window = range(position, position + sym.eval_term(phi.timeout, INTERP))
        at = [lambda k, sub=sub: unclamped_judge(word, k, sub) for sub in operands]
        return WINDOW_FOLDS[kind.__name__](window, *at)
    return sym.judge(word, position, phi, INTERP)  # a timeless atom


class TestJudgeStopsPastTheWord:
    def test_a_zero_window_stays_empty_past_the_word(self):
        word = [(sym.App("a"), 0)]
        tautology = sym.eq("a", "a")
        assert sym.judge(word, 1, sym.Next(sym.Next(sym.eventually(0, tautology))), INTERP) is truth.FALSE
        assert sym.judge(word, 1, sym.Next(sym.Next(sym.always(0, sym.Not(tautology)))), INTERP) is truth.TRUE

    def test_a_huge_window_is_judged_at_once(self):
        word = [(sym.App("a"), 0), (sym.App("b"), 1)]
        phi = sym.eventually(100_000_000, consume_eq("x", "o", "c"))
        assert sym.judge(word, 1, phi, INTERP) is truth.INCONCLUSIVE

    def test_agrees_with_every_window_judged_in_full(self):
        rng = random.Random(23)
        for _ in range(300):
            word = random_term_word(rng, max_len=5)
            phi = random_symbolic_formula(rng, depth=4, max_timeout=len(word) + 3)
            position = rng.randint(1, len(word) + 3)
            assert sym.judge(word, position, phi, INTERP) is unclamped_judge(word, position, phi)


def test_positions_are_one_based():
    word = [(sym.App("a"), 0), (sym.App("b"), 1)]
    with pytest.raises(ValueError, match="positions are 1-based"):
        sym.judge(word, 0, consume_eq("x", "o", "b"), INTERP)


# ---------------------------------------------------------------------------
# Agreement with the recursive judge that ``symbolic.judge`` replaced


def recursive_judge(word, position, phi, interp, relaxed=False):
    """``symbolic.judge`` as it was written before it ran on the loop of
    ``semantics.judge``: one Python frame per node and window position."""
    if isinstance(phi, rt.Solved):
        return phi.value
    if isinstance(phi, (sym.Pred, sym.Eq)):
        return truth.Verdict.from_bool(sym._holds(phi, interp, relaxed))
    if isinstance(phi, sym.Not):
        return truth.neg(recursive_judge(word, position, phi.body, interp, relaxed))
    if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
        return _CONNECTIVES[type(phi)](
            recursive_judge(word, position, phi.left, interp, relaxed),
            recursive_judge(word, position, phi.right, interp, relaxed),
        )
    if isinstance(phi, sym.Next):
        return recursive_judge(word, position + 1, phi.body, interp, relaxed)
    if isinstance(phi, sym.Consume):
        if position > len(word):
            return truth.INCONCLUSIVE
        letter, time = word[position - 1]
        bound = sym.substitute(phi.body, {phi.time_var: sym.Lit(time), phi.var: letter})
        return recursive_judge(word, position + 1, bound, interp, relaxed)
    fold = WINDOW_FOLDS[type(phi).__name__]
    timeout = sym._eval_timeout(phi.timeout, interp)
    past = len(word) + 1
    window = range(min(position, past), min(position + timeout, past + 1)) if timeout else ()
    operands = sym.CHILDREN[type(phi)](phi)
    at = [lambda k, sub=sub: recursive_judge(word, k, sub, interp, relaxed) for sub in operands]
    return fold(window, *at)


_TIMED = (sym.Eventually, sym.Always, sym.Until, sym.Release)
# Timeouts that raise: a negative number, a letter, an ill-typed sum.
_BAD_TIMEOUTS = (sym.Lit(-1), sym.App("a"), sym.App("plus", (sym.Lit(1), sym.App("b"))))


def reshape(rng, phi, faults):
    """``phi`` with some windows emptied and, with ``faults``, some timeouts
    and atoms that raise when judged."""

    def visit(node, kids):
        kind = type(node)
        if kind is sym.Consume:
            return sym.Consume(node.var, node.time_var, *kids)
        if kind is sym.Eq and faults and rng.random() < 0.05:
            return sym.pred("uninterpreted", node.left)
        terms = sym.node_terms(node)
        if kind in _TIMED:
            roll = rng.random()
            if roll < 0.2:
                terms = (sym.Lit(0),)
            elif faults and roll < 0.3:
                terms = (rng.choice(_BAD_TIMEOUTS),)
        return kind(*terms, *kids) if kids else node

    return rt.fold(phi, sym.CHILDREN, visit)


def outcome(judge, *args, **kwargs):
    try:
        return judge(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def test_judge_agrees_with_the_recursive_judge():
    raised = decided = 0
    for seed in range(300):
        rng = random.Random(seed)
        word = random_term_word(rng, max_len=5)
        phi = random_symbolic_formula(rng, depth=4, max_timeout=len(word) + 3)
        phi = reshape(rng, phi, faults=seed % 4 == 0)
        for position in (1, rng.randint(1, len(word) + 3)):
            expected = outcome(recursive_judge, word, position, phi, INTERP)
            assert outcome(sym.judge, word, position, phi, INTERP) == expected
            raised += isinstance(expected, tuple)
            decided += expected in (truth.TRUE, truth.FALSE)

        # Relaxed judging of a generated word, on the next form and the formula.
        phi = random_generatable_formula(rng, depth=4)
        expanded = sym.next_form(phi, INTERP)
        generated = wordgen.generate_word(expanded, INTERP, rng)
        if generated is wordgen.GEN_ERR:
            continue
        batches = wordgen.as_batch_word(generated + [frozenset()] * rng.randrange(3))
        for formula in (expanded, phi):
            expected = recursive_judge(batches, 1, formula, INTERP, relaxed=True)
            assert sym.judge(batches, 1, formula, INTERP, relaxed=True) is expected
    assert raised >= 20 and decided >= 400
