"""Formula walkers on the explicit-stack fold, against the recursive walkers
they replace, and on next forms deeper than Python's recursion limit."""

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from streamcheck import cli, semantics, sexpr, truth, wordgen
from streamcheck import runtime as rt
from streamcheck import symbolic as sym
from streamcheck.runtime import (
    Always,
    And,
    Consume,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Solved,
    Until,
)

from corpus import (
    ALPHABET,
    INTERP,
    consume_eq,
    letter_is,
    monitor_verdict,
    random_generatable_formula,
    random_runtime_formula,
    random_symbolic_formula,
)

SEEDS = range(300)


class _Recursive:
    """The walkers as recursive functions, as they were written before the
    fold: the reference results and errors."""

    # -- runtime ------------------------------------------------------------

    @staticmethod
    def is_next_form(phi):
        if isinstance(phi, (Solved, Consume)):
            return True
        if isinstance(phi, (Not, Next)):
            return _Recursive.is_next_form(phi.body)
        if isinstance(phi, (And, Or, Implies)):
            return _Recursive.is_next_form(phi.left) and _Recursive.is_next_form(phi.right)
        return False

    @staticmethod
    def unfold_fixpoint(phi):
        fix = _Recursive.unfold_fixpoint
        phi = rt.unfold(phi)
        if isinstance(phi, (Solved, Consume)):
            return phi
        if isinstance(phi, Not):
            return rt.mk_not(fix(phi.body))
        if isinstance(phi, And):
            return rt.mk_and(fix(phi.left), fix(phi.right))
        if isinstance(phi, Or):
            return rt.mk_or(fix(phi.left), fix(phi.right))
        if isinstance(phi, Implies):
            return rt.mk_implies(fix(phi.left), fix(phi.right))
        if isinstance(phi, Next):
            return rt.mk_next(fix(phi.body))
        raise rt.FormulaError(f"unexpected node after unfold: {phi!r}")

    @staticmethod
    def to_next_form(phi):
        nf = _Recursive.to_next_form
        if isinstance(phi, (Solved, Consume)):
            return phi
        if isinstance(phi, Not):
            return rt.mk_not(nf(phi.body))
        if isinstance(phi, And):
            return rt.mk_and(nf(phi.left), nf(phi.right))
        if isinstance(phi, Or):
            return rt.mk_or(nf(phi.left), nf(phi.right))
        if isinstance(phi, Implies):
            return rt.mk_implies(nf(phi.left), nf(phi.right))
        if isinstance(phi, Next):
            return rt.mk_next(nf(phi.body))
        if isinstance(phi, Eventually):
            body = nf(phi.body)
            acc = body
            for _ in range(phi.timeout - 1):
                acc = rt.mk_or(body, rt.mk_next(acc))
            return acc
        if isinstance(phi, Always):
            body = nf(phi.body)
            acc = body
            for _ in range(phi.timeout - 1):
                acc = rt.mk_and(body, rt.mk_next(acc))
            return acc
        if isinstance(phi, Until):
            left, right = nf(phi.left), nf(phi.right)
            acc = right
            for _ in range(phi.timeout - 1):
                acc = rt.mk_or(right, rt.mk_and(left, rt.mk_next(acc)))
            return acc
        if isinstance(phi, Release):
            left, right = nf(phi.left), nf(phi.right)
            acc = right
            for _ in range(phi.timeout - 1):
                acc = rt.mk_or(rt.mk_and(left, right), rt.mk_and(right, rt.mk_next(acc)))
            return acc
        raise rt.FormulaError(f"cannot transform {phi!r}")

    @staticmethod
    def safe_word_length(phi):
        swl = _Recursive.safe_word_length
        if isinstance(phi, Solved):
            return 0
        if isinstance(phi, Not):
            return swl(phi.body)
        if isinstance(phi, (And, Or, Implies)):
            return max(swl(phi.left), swl(phi.right))
        if isinstance(phi, Next):
            return swl(phi.body) + 1
        if isinstance(phi, Consume):
            if phi.static_depth is None:
                raise rt.SafeLengthUndefined(
                    f"safe word length undefined: dynamic consumer {phi.label!r}"
                )
            return phi.static_depth
        if isinstance(phi, (Eventually, Always)):
            return swl(phi.body) + (phi.timeout - 1)
        if isinstance(phi, (Until, Release)):
            return max(swl(phi.left), swl(phi.right)) + (phi.timeout - 1)
        raise rt.FormulaError(f"cannot size {phi!r}")

    @staticmethod
    def size(phi):
        size = _Recursive.size
        if isinstance(phi, (Solved, Consume)):
            return 1
        if isinstance(phi, (Not, Next, Eventually, Always)):
            return 1 + size(phi.body)
        if isinstance(phi, (And, Or, Implies, Until, Release)):
            return 1 + size(phi.left) + size(phi.right)
        raise rt.FormulaError(f"cannot size {phi!r}")

    @staticmethod
    def render(phi):
        r = _Recursive.render
        if isinstance(phi, Solved):
            return phi.value.symbol
        if isinstance(phi, Not):
            return f"!{r(phi.body)}"
        if isinstance(phi, And):
            return f"({r(phi.left)} & {r(phi.right)})"
        if isinstance(phi, Or):
            return f"({r(phi.left)} | {r(phi.right)})"
        if isinstance(phi, Implies):
            return f"({r(phi.left)} -> {r(phi.right)})"
        if isinstance(phi, Next):
            return f"X{r(phi.body)}"
        if isinstance(phi, Consume):
            return f"<{phi.label}>"
        if isinstance(phi, Eventually):
            return f"F[{phi.timeout}]{r(phi.body)}"
        if isinstance(phi, Always):
            return f"G[{phi.timeout}]{r(phi.body)}"
        if isinstance(phi, Until):
            return f"({r(phi.left)} U[{phi.timeout}] {r(phi.right)})"
        if isinstance(phi, Release):
            return f"({r(phi.left)} R[{phi.timeout}] {r(phi.right)})"
        raise rt.FormulaError(f"cannot render {phi!r}")

    @staticmethod
    def repr(phi):
        """The dataclass ``__repr__``: every field by name, in declaration order."""
        if not isinstance(phi, rt.Formula):
            return repr(phi)
        args = (f"{f.name}={_Recursive.repr(getattr(phi, f.name))}" for f in dataclasses.fields(phi))
        return f"{type(phi).__qualname__}({', '.join(args)})"

    # -- symbolic -----------------------------------------------------------

    @staticmethod
    def free_vars(phi):
        fv, tfv = _Recursive.free_vars, sym.term_free_vars
        if isinstance(phi, rt.Solved):
            return set()
        if isinstance(phi, sym.Pred):
            return set().union(*map(tfv, phi.args))
        if isinstance(phi, sym.Eq):
            return tfv(phi.left) | tfv(phi.right)
        if isinstance(phi, (sym.Not, sym.Next)):
            return fv(phi.body)
        if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
            return fv(phi.left) | fv(phi.right)
        if isinstance(phi, (sym.Eventually, sym.Always)):
            return tfv(phi.timeout) | fv(phi.body)
        if isinstance(phi, (sym.Until, sym.Release)):
            return tfv(phi.timeout) | fv(phi.left) | fv(phi.right)
        if isinstance(phi, sym.Consume):
            return fv(phi.body) - {phi.var, phi.time_var}
        raise sym.SymbolicError(f"unknown formula {phi!r}")

    @staticmethod
    def constants(phi):
        c, tc = _Recursive.constants, sym.term_constants
        if isinstance(phi, sym.Pred):
            return set().union(*map(tc, phi.args))
        if isinstance(phi, sym.Eq):
            return tc(phi.left) | tc(phi.right)
        if isinstance(phi, (sym.Not, sym.Next, sym.Consume)):
            return c(phi.body)
        if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
            return c(phi.left) | c(phi.right)
        if isinstance(phi, (sym.Eventually, sym.Always)):
            return tc(phi.timeout) | c(phi.body)
        if isinstance(phi, (sym.Until, sym.Release)):
            return tc(phi.timeout) | c(phi.left) | c(phi.right)
        return set()  # a verdict leaf, or a node of no formula type

    @staticmethod
    def substitute(phi, var, replacement):
        """One name at a time; a firing consume used to call it twice."""

        def term(t):
            if isinstance(t, sym.Var):
                return replacement if t.name == var else t
            if isinstance(t, sym.App):
                return sym.App(t.symbol, tuple(term(a) for a in t.args))
            return t

        def walk(phi):
            if isinstance(phi, rt.Solved):
                return phi
            if isinstance(phi, sym.Pred):
                return sym.Pred(phi.name, tuple(term(a) for a in phi.args))
            if isinstance(phi, sym.Eq):
                return sym.Eq(term(phi.left), term(phi.right))
            if isinstance(phi, (sym.Not, sym.Next)):
                return type(phi)(walk(phi.body))
            if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
                return type(phi)(walk(phi.left), walk(phi.right))
            if isinstance(phi, (sym.Eventually, sym.Always)):
                return type(phi)(term(phi.timeout), walk(phi.body))
            if isinstance(phi, (sym.Until, sym.Release)):
                return type(phi)(term(phi.timeout), walk(phi.left), walk(phi.right))
            if isinstance(phi, sym.Consume):
                if var in (phi.var, phi.time_var):
                    return phi
                return sym.Consume(phi.var, phi.time_var, walk(phi.body))
            raise sym.SymbolicError(f"unknown formula {phi!r}")

        return walk(phi)

    @staticmethod
    def symbolic_safe_word_length(phi, interp):
        swl = _Recursive.symbolic_safe_word_length
        if isinstance(phi, (rt.Solved, sym.Pred, sym.Eq)):
            return 0
        if isinstance(phi, sym.Not):
            return swl(phi.body, interp)
        if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
            return max(swl(phi.left, interp), swl(phi.right, interp))
        if isinstance(phi, (sym.Next, sym.Consume)):
            return swl(phi.body, interp) + 1
        if isinstance(phi, (sym.Eventually, sym.Always, sym.Until, sym.Release)):
            if sym.term_free_vars(phi.timeout):
                raise rt.SafeLengthUndefined(
                    f"safe word length undefined: variables in timeout {phi.timeout!r}"
                )
            t = sym._eval_timeout(phi.timeout, interp)
            if t == 0:
                return 0
            if isinstance(phi, (sym.Eventually, sym.Always)):
                return swl(phi.body, interp) + (t - 1)
            return max(swl(phi.left, interp), swl(phi.right, interp)) + (t - 1)
        raise sym.SymbolicError(f"unknown formula {phi!r}")

    @staticmethod
    def next_form(phi, interp):
        nf = _Recursive.next_form
        if isinstance(phi, (rt.Solved, sym.Pred, sym.Eq)):
            return phi
        if isinstance(phi, (sym.Not, sym.Next)):
            return type(phi)(nf(phi.body, interp))
        if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
            return type(phi)(nf(phi.left, interp), nf(phi.right, interp))
        if isinstance(phi, sym.Consume):
            return sym.Consume(phi.var, phi.time_var, nf(phi.body, interp))
        if isinstance(phi, (sym.Eventually, sym.Always, sym.Until, sym.Release)):
            if sym.term_free_vars(phi.timeout):
                raise sym.OpenFormula(
                    f"cannot expand ahead of time: variables in timeout {phi.timeout!r}"
                )
            t = sym._eval_timeout(phi.timeout, interp)
            if isinstance(phi, sym.Eventually):
                if t == 0:
                    return rt.BOTTOM
                body = nf(phi.body, interp)
                acc = body
                for _ in range(t - 1):
                    acc = sym.Or(body, sym.Next(acc))
                return acc
            if isinstance(phi, sym.Always):
                if t == 0:
                    return rt.TOP
                body = nf(phi.body, interp)
                acc = body
                for _ in range(t - 1):
                    acc = sym.And(body, sym.Next(acc))
                return acc
            if isinstance(phi, sym.Until):
                if t == 0:
                    return rt.BOTTOM
                left, right = nf(phi.left, interp), nf(phi.right, interp)
                acc = right
                for _ in range(t - 1):
                    acc = sym.Or(right, sym.And(left, sym.Next(acc)))
                return acc
            if t == 0:
                return rt.TOP
            left, right = nf(phi.left, interp), nf(phi.right, interp)
            acc = right
            for _ in range(t - 1):
                acc = sym.Or(sym.And(left, right), sym.And(right, sym.Next(acc)))
            return acc
        raise sym.SymbolicError(f"unknown formula {phi!r}")

    @staticmethod
    def compile_formula(phi, interp):
        if type(phi) is Solved:
            return phi
        if isinstance(phi, (sym.Pred, sym.Eq)):
            unbound = sym.node_free_vars(phi, ())
            if unbound:
                raise sym.OpenFormula(f"atom has free variables {sorted(unbound)}")
            return Solved(truth.Verdict.from_bool(sym._holds(phi, interp, relaxed=False)))
        build = {
            **rt._REBUILD,
            sym.Eventually: rt.make_eventually,
            sym.Always: rt.make_always,
            sym.Until: rt.make_until,
            sym.Release: rt.make_release,
        }.get(type(phi))
        if build is not None:
            # A timeout is evaluated first, and a zero window compiles no operand.
            timeout = [sym._eval_timeout(term, interp) for term in sym.node_terms(phi)]
            if timeout == [0]:
                return build(0)
            operands = sym.CHILDREN[type(phi)](phi)
            return build(*timeout, *[_Recursive.compile_formula(sub, interp) for sub in operands])
        if isinstance(phi, sym.Consume):
            body, var, time_var = phi.body, phi.var, phi.time_var

            def consumer(letter, time):
                letter_term = letter if isinstance(letter, sym.Term) else sym.Const(letter)
                bound = sym.substitute(body, {time_var: sym.Lit(time), var: letter_term})
                return _Recursive.compile_formula(bound, interp)

            return rt.Consume(
                consumer, static_depth=sym._static_depth(body, interp), label=f"consume {var}"
            )
        raise sym.SymbolicError(f"unknown formula {phi!r}")

    @staticmethod
    def format_formula(phi):
        f, t = _Recursive.format_formula, sexpr.format_term
        if isinstance(phi, rt.Solved) and phi.value is truth.TRUE:
            return "true"
        if isinstance(phi, rt.Solved) and phi.value is truth.FALSE:
            return "false"
        if isinstance(phi, sym.Pred):
            inner = " ".join(t(a) for a in phi.args)
            return f"({phi.name} {inner})" if inner else f"({phi.name})"
        if isinstance(phi, sym.Eq):
            return f"(= {t(phi.left)} {t(phi.right)})"
        heads = {
            sym.Not: "not", sym.And: "and", sym.Or: "or", sym.Implies: "implies",
            sym.Next: "next", sym.Eventually: "eventually", sym.Always: "always",
            sym.Until: "until", sym.Release: "release",
        }
        if isinstance(phi, (sym.Not, sym.Next)):
            return f"({heads[type(phi)]} {f(phi.body)})"
        if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
            return f"({heads[type(phi)]} {f(phi.left)} {f(phi.right)})"
        if isinstance(phi, (sym.Eventually, sym.Always)):
            return f"({heads[type(phi)]} {t(phi.timeout)} {f(phi.body)})"
        if isinstance(phi, (sym.Until, sym.Release)):
            return f"({heads[type(phi)]} {t(phi.timeout)} {f(phi.left)} {f(phi.right)})"
        if isinstance(phi, sym.Consume):
            return f"(consume ?{phi.var} ?{phi.time_var} {f(phi.body)})"
        raise sexpr.SexprError(f"cannot format formula {phi!r}")

    @staticmethod
    def check_generatable(phi):
        """``generate_word``'s checks: closedness, then the fragment."""

        def fragment(phi):
            if isinstance(phi, sym.Not):
                raise wordgen.GeneratorFragmentError("negation is not generatable")
            if isinstance(phi, rt.Solved) and phi.value is truth.FALSE:
                raise wordgen.GeneratorFragmentError("the false constant is not generatable")
            if isinstance(phi, rt.Solved) and phi.value is truth.INCONCLUSIVE:
                raise wordgen.GeneratorFragmentError(
                    "the inconclusive constant is not generatable"
                )
            if isinstance(phi, (rt.Solved, sym.Pred, sym.Eq)):
                return
            if isinstance(phi, (sym.And, sym.Or, sym.Implies)):
                fragment(phi.left)
                fragment(phi.right)
                return
            if isinstance(phi, sym.Next):
                fragment(phi.body)
                return
            if isinstance(phi, sym.Consume):
                if phi.time_var in _Recursive.free_vars(phi.body):
                    raise wordgen.GeneratorFragmentError(
                        f"time variable {phi.time_var!r} may not occur in a generated body"
                    )
                fragment(phi.body)
                return
            raise wordgen.GeneratorFragmentError(f"formula is not in next form: {phi!r}")

        if _Recursive.free_vars(phi):
            raise wordgen.GeneratorFragmentError("formula must be closed")
        fragment(phi)

    @staticmethod
    def word_union(u, v):
        """Positionwise union; the longer suffix is kept; err absorbs."""
        if u is wordgen.GEN_ERR or v is wordgen.GEN_ERR:
            return wordgen.GEN_ERR
        merged = [a | b for a, b in zip(u, v)]
        longer = u if len(u) >= len(v) else v
        return merged + list(longer[len(merged):])

    @staticmethod
    def prepend(batch, u):
        if u is wordgen.GEN_ERR:
            return wordgen.GEN_ERR
        return [batch] + u

    @staticmethod
    def generate(phi, interp, rng):
        """``generate_word`` after its checks, each node returning a word of
        its own: the reference words, draws and interpreted calls."""
        generate, GEN_ERR = _Recursive.generate, wordgen.GEN_ERR
        if type(phi) is rt.Solved:
            return []
        if isinstance(phi, (sym.Pred, sym.Eq)):
            return [] if sym._holds(phi, interp, relaxed=False) else GEN_ERR
        if isinstance(phi, sym.Or):
            branches = [phi.left, phi.right]
            rng.shuffle(branches)
            for branch in branches:
                result = generate(branch, interp, rng)
                if result is not GEN_ERR:
                    return result
            return GEN_ERR
        if isinstance(phi, sym.And):
            return _Recursive.word_union(
                generate(phi.left, interp, rng), generate(phi.right, interp, rng)
            )
        if isinstance(phi, sym.Implies):
            return generate(phi.right, interp, rng)
        if isinstance(phi, sym.Next):
            return _Recursive.prepend(frozenset(), generate(phi.body, interp, rng))
        if isinstance(phi, sym.Consume):
            pool = list(interp.constants)
            rng.shuffle(pool)
            for name in pool:
                witness = sym.App(name)
                rest = generate(sym.substitute(phi.body, {phi.var: witness}), interp, rng)
                if rest is not GEN_ERR:
                    element = sym.eval_term(witness, interp)
                    return _Recursive.prepend(frozenset({element}), rest)
            return GEN_ERR
        return GEN_ERR

    @staticmethod
    def interpretation_symbols(phi, word):
        """``cli.default_interpretation``'s symbol collection."""
        symbols = set()

        def collect_term(term):
            if isinstance(term, sym.App):
                if not term.args and term.symbol not in cli._ARITHMETIC:
                    symbols.add(term.symbol)
                for arg in term.args:
                    collect_term(arg)

        def collect(formula):
            if isinstance(formula, sym.Pred):
                for arg in formula.args:
                    collect_term(arg)
            elif isinstance(formula, sym.Eq):
                collect_term(formula.left)
                collect_term(formula.right)
            elif isinstance(formula, (sym.Not, sym.Next, sym.Consume)):
                collect(formula.body)
            elif isinstance(formula, (sym.And, sym.Or, sym.Implies)):
                collect(formula.left)
                collect(formula.right)
            elif isinstance(formula, (sym.Eventually, sym.Always)):
                collect_term(formula.timeout)
                collect(formula.body)
            elif isinstance(formula, (sym.Until, sym.Release)):
                collect_term(formula.timeout)
                collect(formula.left)
                collect(formula.right)

        collect(phi)
        for term, _time in word:
            collect_term(term)
        return tuple(sorted(symbols))


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return (type(exc), str(exc))


def subformulas(phi, children):
    """Every node of ``phi``, so open bodies and timed operands are walked too."""
    out, stack = [], [phi]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children.get(type(node), rt.no_children)(node))
    return out


# ---------------------------------------------------------------------------
# Agreement with the recursive walkers


def runtime_formulas():
    for seed in SEEDS:
        rng = random.Random(seed)
        yield random_runtime_formula(rng, depth=4, allow_dynamic=seed % 2 == 0)


UNKNOWN = object()
ODD_RUNTIME = [
    And(letter_is("a"), UNKNOWN),
    Next(Eventually(2, UNKNOWN)),
    Or(UNKNOWN, Consume(lambda letter, time: rt.TOP, static_depth=None, label="dyn")),
    Until(3, Consume(lambda letter, time: rt.TOP, static_depth=None, label="first"), UNKNOWN),
]


@pytest.mark.parametrize(
    "name",
    ["is_next_form", "size", "safe_word_length", "render", "to_next_form", "unfold_fixpoint"],
)
def test_runtime_walkers_agree_with_recursion(name):
    new, old = getattr(rt, name), getattr(_Recursive, name)
    for phi in [*runtime_formulas(), *ODD_RUNTIME]:
        for node in subformulas(phi, rt.CHILDREN):
            assert outcome(new, node) == outcome(old, node)


def test_repr_is_the_dataclass_repr():
    for phi in [*runtime_formulas(), *ODD_RUNTIME]:
        for node in subformulas(phi, rt.CHILDREN):
            assert repr(node) == _Recursive.repr(node)


def test_eager_next_forms_agree_on_their_walkers():
    for phi in runtime_formulas():
        expanded = rt.to_next_form(phi)
        assert rt.is_next_form(expanded)
        assert rt.size(expanded) == _Recursive.size(expanded)
        assert rt.render(expanded) == _Recursive.render(expanded)
        assert repr(expanded) == _Recursive.repr(expanded)
        assert outcome(rt.safe_word_length, expanded) == outcome(
            _Recursive.safe_word_length, expanded
        )


def symbolic_formulas():
    for seed in SEEDS:
        yield random_symbolic_formula(random.Random(seed), depth=4)
        yield random_generatable_formula(random.Random(seed), depth=4)


def zero_window(op, *operands):
    return op(sym.Lit(0), *operands)


OPEN_TIMEOUT = sym.eventually(sym.Var("o"), rt.TOP)
ODD_SYMBOLIC = [
    # A zero window is decided before its open operand is expanded.
    zero_window(sym.Eventually, OPEN_TIMEOUT),
    zero_window(sym.Until, rt.TOP, OPEN_TIMEOUT),
    zero_window(sym.Always, sym.Not(rt.BOTTOM)),
    zero_window(sym.Release, rt.BOTTOM, rt.TOP),
    # An outer timeout is evaluated before the operands are walked.
    sym.always(sym.App("mystery"), OPEN_TIMEOUT),
    sym.until(sym.App("mystery"), OPEN_TIMEOUT, sym.pred("leq", 1, 2)),
    sym.Consume("x", "x", sym.Next(sym.Eq(sym.Var("x"), sym.App("a")))),
    sym.Consume("x", "o", sym.Always(sym.Var("o"), sym.Eq(sym.Var("x"), sym.App("b")))),
]


def recursive_generate_word(phi):
    _Recursive.check_generatable(phi)
    return _Recursive.generate(phi, INTERP, random.Random(0))


@pytest.mark.parametrize(
    "name",
    [
        "free_vars",
        "constants",
        "symbolic_safe_word_length",
        "next_form",
        "format_formula",
        "check_generatable",
    ],
)
def test_symbolic_walkers_agree_with_recursion(name):
    new = {
        "symbolic_safe_word_length": lambda phi: sym.symbolic_safe_word_length(phi, INTERP),
        "next_form": lambda phi: sym.next_form(phi, INTERP),
        "format_formula": sexpr.format_formula,
        "check_generatable": lambda phi: wordgen.generate_word(phi, INTERP, random.Random(0)),
    }.get(name, getattr(sym, name, None))
    old = {
        "symbolic_safe_word_length": lambda phi: _Recursive.symbolic_safe_word_length(phi, INTERP),
        "next_form": lambda phi: _Recursive.next_form(phi, INTERP),
        "check_generatable": recursive_generate_word,
    }.get(name, getattr(_Recursive, name))
    for phi in [*symbolic_formulas(), *ODD_SYMBOLIC, sym.And(rt.TOP, UNKNOWN)]:
        for node in subformulas(phi, sym.CHILDREN):
            assert outcome(new, node) == outcome(old, node)
            expanded = outcome(_Recursive.next_form, node, INTERP)
            if isinstance(expanded, (sym.SymFormula, rt.Formula)):
                assert outcome(new, expanded) == outcome(old, expanded)


def recording(interp, log):
    """``interp`` with every function and predicate call logged, in order."""

    def logged(name, fn):
        def call(*args):
            log.append((name, args))
            return fn(*args)

        return call

    return sym.Interpretation(
        {name: logged(name, fn) for name, fn in interp.functions.items()},
        {name: logged(name, fn) for name, fn in interp.predicates.items()},
        interp.constants,
    )


def random_choice_formula(rng, depth, scope=()):
    """``and`` / ``or`` / ``implies`` / ``next`` / ``consume`` over atoms
    that can fail, so generation backtracks and often ends in ``GEN_ERR``."""
    if depth <= 0 or rng.random() < 0.15:
        left = sym.Var(rng.choice(scope)) if scope and rng.random() < 0.7 else rng.choice(ALPHABET)
        right = rng.choice(ALPHABET)
        return sym.pred("leq", left, right) if rng.random() < 0.2 else sym.eq(left, right)
    kind = rng.randrange(5)
    if kind == 4:
        var = f"x{len(scope)}"
        return sym.Consume(var, "o", random_choice_formula(rng, depth - 1, (*scope, var)))
    if kind == 3:
        return sym.Next(random_choice_formula(rng, depth - 1, scope))
    op = (sym.And, sym.Or, sym.Implies)[kind]
    return op(*(random_choice_formula(rng, depth - 1, scope) for _ in "lr"))


def generation_outcome(generate, phi, seed):
    """The word (or ``GEN_ERR``) generated at ``seed``, the generator's next
    draw after it, and the interpreted calls made, in order."""
    log, rng = [], random.Random(seed)
    return generate(phi, recording(INTERP, log), rng), rng.random(), log


@pytest.mark.parametrize("corpus", ["generatable", "failing"])
def test_generation_agrees_with_recursion_draw_for_draw(corpus):
    """The old generator's word or ``GEN_ERR``, next draw and interpreted calls,
    on formulas that always generate and on formulas that often cannot."""
    failed = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        if corpus == "generatable":
            phi = sym.next_form(random_generatable_formula(rng, depth=4), INTERP)
        else:
            phi = random_choice_formula(rng, depth=7)
        new = generation_outcome(wordgen.generate_word, phi, seed)
        assert new == generation_outcome(_Recursive.generate, phi, seed)
        failed += new[0] is wordgen.GEN_ERR
    if corpus == "failing":
        assert len(SEEDS) / 5 <= failed <= len(SEEDS) * 4 / 5
    else:
        assert failed == 0


def compiled_consumes(formula):
    return [node for node in subformulas(formula, rt.CHILDREN) if isinstance(node, Consume)]


def compiled_view(compiled):
    """A compiled formula as text and size with each consume's label and
    static depth; the outcome of a call that raised, itself."""
    if not isinstance(compiled, rt.Formula):
        return compiled
    consumes = [(node.label, node.static_depth) for node in compiled_consumes(compiled)]
    return rt.render(compiled), rt.size(compiled), consumes


def compiled_outcome(compile_formula, phi):
    """What a compile gives, as :func:`compiled_view` shows it, or the type
    and message of what it raised; and the interpreted calls it made."""
    log = []
    return compiled_view(outcome(compile_formula, phi, recording(INTERP, log))), log


def test_compile_agrees_with_recursion():
    """The same compiled formula or error, from the same interpreted calls in
    the same order: timeouts first, then operands left to right."""
    compiled = 0
    for phi in [*symbolic_formulas(), *ODD_SYMBOLIC, sym.And(rt.TOP, UNKNOWN)]:
        for node in subformulas(phi, sym.CHILDREN):
            new = compiled_outcome(sym.compile_formula, node)
            assert new == compiled_outcome(_Recursive.compile_formula, node)
            compiled += isinstance(new[0][0], str)  # a rendering, not an exception type
    assert compiled > 1000


X, Y, Z, O = sym.Var("x"), sym.Var("y"), sym.Var("z"), sym.Var("o")


def plus(term, n):
    return sym.App("plus", (term, sym.Lit(n)))


# Binders that rebind a name in scope.  The random corpus draws binder names
# from 10,000, so it almost never shadows one; compilation and generation
# bind names in an environment, which must give what substitution gives.
SHADOWING = [
    # An inner consume rebinds the outer letter's name; the outer letter is
    # read beside it and after it.
    sym.Consume("x", "o", sym.And(sym.eq(X, "a"), sym.Next(sym.Consume("x", "p", sym.eq(X, "b"))))),
    sym.Consume(
        "x", "o", sym.Next(sym.Or(sym.Consume("x", "p", sym.eq(X, "b")), sym.Next(sym.eq(X, "a"))))
    ),
    # An inner consume rebinds the time variable an outer timeout reads: its
    # own timeout reads the inner time, and its body has no static depth.
    sym.Consume(
        "x", "o", sym.Always(plus(O, 1), sym.Consume("y", "o", sym.Eventually(plus(O, 1), sym.eq(Y, X))))
    ),
    # An inner timeout reads the outer time, which is bound when the inner
    # consume is compiled: its body has a static depth.
    sym.Consume(
        "x",
        "o",
        sym.Next(
            sym.Consume("y", "p", sym.Always(plus(O, 1), sym.Or(sym.eq(Y, X), consume_eq("z", "q", "a"))))
        ),
    ),
    # A consume binds its letter and its time to one name: the letter wins.
    sym.Consume(
        "x", "x", sym.Or(sym.eq(X, "a"), sym.Always(plus(X, 1), sym.Consume("y", "p", sym.eq(Y, X))))
    ),
    sym.Consume("x", "o", sym.Next(sym.Consume("o", "o", sym.Always(plus(O, 0), sym.Eq(X, O))))),
    # A consume two levels below the one that fires rebinds the letter's or
    # the time's name: the middle consume's static depth reads neither.
    sym.Consume(
        "x", "o", sym.Next(sym.Consume("y", "p", sym.Consume("x", "q", sym.Always(plus(X, 1), sym.eq(Y, "b")))))
    ),
    sym.Consume(
        "x", "o", sym.Next(sym.Consume("y", "p", sym.Consume("z", "o", sym.Always(plus(O, 1), sym.eq(Y, Z)))))
    ),
]
# Letters whose terms are symbols and numbers, so timeouts read a number and
# some read a symbol and raise.
SHADOWING_LETTERS = [(sym.App("a"), 0), (sym.App("b"), 2), (sym.Lit(1), 3), (sym.Lit(2), 5)]


def fired_outcome(compile_formula, phi, word):
    """:func:`compiled_outcome`, then the :func:`compiled_view` of what every
    consume gives on each letter of ``word`` in turn; and the interpreted
    calls made, in order."""
    log, results = [], []
    pending = [(outcome(compile_formula, phi, recording(INTERP, log)), 0)]
    while pending:
        formula, position = pending.pop()
        results.append(compiled_view(formula))
        if isinstance(formula, rt.Formula) and position < len(word):
            fire = word[position]
            pending += [(outcome(c.consumer, *fire), position + 1) for c in compiled_consumes(formula)]
    return results, log


def test_shadowing_binders_compile_and_fire_as_substitution():
    """The environment's scoping, against the compile that substitutes, call
    for call, and against ``symbolic.judge`` on every word of up to three letters."""
    static_depths = set()
    for phi in SHADOWING:
        for n in range(4):
            for word in itertools.product(SHADOWING_LETTERS, repeat=n):
                new = fired_outcome(sym.compile_formula, phi, word)
                assert new == fired_outcome(_Recursive.compile_formula, phi, word)
                static_depths.update(d for fired in new[0] if isinstance(fired[0], str) for _, d in fired[2])
                verdict = outcome(monitor_verdict, sym.compile_formula(phi, INTERP), word)
                assert verdict == outcome(sym.judge, word, 1, phi, INTERP), (phi, word)
    assert None in static_depths and len(static_depths) > 2


GENERATABLE_SHADOWING = [
    sym.Consume("x", "o", sym.And(sym.eq(X, "a"), sym.Next(sym.Consume("x", "o", sym.eq(X, "b"))))),
    sym.Consume("x", "o", sym.Next(sym.Or(sym.Consume("x", "p", sym.eq(X, "b")), sym.Next(sym.eq(X, "a"))))),
    sym.Consume("x", "o", sym.Next(sym.Consume("x", "p", sym.Or(sym.eq(X, "c"), consume_eq("x", "q", "a"))))),
    # A generated body may not read a time variable, so a consume whose two
    # binders share a name generates only when its body does not read it.
    sym.Consume("x", "x", sym.Next(consume_eq("y", "p", "a"))),
]


def test_shadowing_binders_generate_as_substitution_draw_for_draw():
    for phi in GENERATABLE_SHADOWING:
        for seed in range(50):
            new = generation_outcome(wordgen.generate_word, phi, seed)
            assert new == generation_outcome(_Recursive.generate, phi, seed)
            assert wordgen.relaxed_judge(phi, new[0], INTERP) is truth.TRUE


def test_interpretation_symbols_agree_with_recursion():
    word = [(sym.App("plus", (sym.App("d"), sym.Lit(1))), 0), (sym.App("plus"), 1)]
    for phi in [*symbolic_formulas(), *ODD_SYMBOLIC]:
        interp = cli.default_interpretation(phi, word)
        assert interp.constants == _Recursive.interpretation_symbols(phi, word)
        assert set(interp.functions) == {*interp.constants, *cli._ARITHMETIC}


def test_one_walk_substitution_equals_two_walks():
    """A firing consume binds its letter and its time in one walk; that is the
    letter substituted first and the time second, for a closed letter."""
    letter, time = sym.App("plus", (sym.App("b"), sym.Lit(2))), 7
    consumes = [
        node
        for phi in [*symbolic_formulas(), *ODD_SYMBOLIC]
        for node in subformulas(phi, sym.CHILDREN)
        if isinstance(node, sym.Consume)
    ]
    consumes += [sym.Consume(c.var, c.var, c.body) for c in consumes[:200]]
    consumes += [sym.Consume(c.time_var, c.var, c.body) for c in consumes[:200]]
    assert len(consumes) > 500
    for c in consumes:
        two_walks = _Recursive.substitute(
            _Recursive.substitute(c.body, c.var, letter), c.time_var, sym.Lit(time)
        )
        assert sym.substitute(c.body, {c.time_var: sym.Lit(time), c.var: letter}) == two_walks


# ---------------------------------------------------------------------------
# Next forms deeper than the recursion limit

DEEP = 10_000
P, Q = letter_is("a"), letter_is("b")


@pytest.mark.parametrize(
    "timed",
    [Eventually(DEEP, P), Always(DEEP, P), Until(DEEP, P, Q), Release(DEEP, P, Q)],
    ids=["eventually", "always", "until", "release"],
)
def test_eager_route_has_no_recursion_cliff(timed):
    expanded = rt.to_next_form(timed)
    per_instant = {Eventually: 3, Always: 3, Until: 5, Release: 7}[type(timed)]
    assert rt.size(expanded) == 1 + (DEEP - 1) * per_instant
    assert rt.is_next_form(expanded)
    assert rt.safe_word_length(expanded) == DEEP
    assert rt.render(expanded).count("X") == DEEP - 1
    assert repr(expanded).count("Next(body=") == DEEP - 1
    assert same_tree(rt.unfold_fixpoint(timed), expanded)


# A word of DEEP letters with ``a`` only at the last.  The judge walks every
# one of an eager form's DEEP - 1 nested instants, since a connective judges
# both of its operands.
DEEP_WORD = [("b", time) for time in range(DEEP - 1)] + [("a", DEEP - 1)]


@pytest.mark.parametrize(
    "timed,verdict",
    [
        (Eventually(DEEP, P), truth.TRUE),
        (Always(DEEP, P), truth.FALSE),
        (Until(DEEP, P, Q), truth.TRUE),
        (Release(DEEP, P, Q), truth.FALSE),
    ],
    ids=["eventually", "always", "until", "release"],
)
def test_reference_judge_has_no_recursion_cliff(timed, verdict):
    assert semantics.models(DEEP_WORD, rt.to_next_form(timed)) is verdict
    assert semantics.models(DEEP_WORD, timed) is verdict
    assert semantics.models(DEEP_WORD[:3], rt.to_next_form(timed)) is semantics.models(DEEP_WORD[:3], timed)


SYM_P, SYM_Q = consume_eq("x", "o", "a"), consume_eq("y", "p", "b")
DEEP_TERM_WORD = [(sym.App(letter), time) for letter, time in DEEP_WORD]


@pytest.mark.parametrize(
    "timed,verdict",
    [
        (sym.eventually(DEEP, SYM_P), truth.TRUE),
        (sym.always(DEEP, SYM_P), truth.FALSE),
        (sym.until(DEEP, SYM_P, SYM_Q), truth.TRUE),
        (sym.release(DEEP, SYM_P, SYM_Q), truth.FALSE),
        # Firing the consume substitutes into its eager next form.
        (sym.Consume("x", "o", sym.always(DEEP, sym.eq(sym.Var("x"), "b"))), truth.TRUE),
    ],
    ids=["eventually", "always", "until", "release", "consume"],
)
def test_symbolic_judge_has_no_recursion_cliff(timed, verdict):
    """The symbolic judgment and the compiled monitor, on a symbolic eager next form."""
    expanded = sym.next_form(timed, INTERP)
    assert sym.judge(DEEP_TERM_WORD, 1, expanded, INTERP) is verdict
    assert sym.judge(DEEP_TERM_WORD, 1, timed, INTERP) is verdict
    assert monitor_verdict(sym.compile_formula(expanded, INTERP), DEEP_TERM_WORD) is verdict


def test_relaxed_judge_has_no_recursion_cliff():
    expanded = sym.next_form(sym.always(DEEP, SYM_P), INTERP)
    batches = [frozenset({"a"})] * DEEP
    assert wordgen.relaxed_judge(expanded, batches, INTERP) is truth.TRUE
    assert wordgen.relaxed_judge(expanded, batches[1:], INTERP) is truth.INCONCLUSIVE
    assert wordgen.relaxed_judge(expanded, batches[1:] + [frozenset({"b"})], INTERP) is truth.FALSE
    consume = sym.next_form(sym.Consume("x", "o", sym.always(DEEP, sym.eq(sym.Var("x"), "a"))), INTERP)
    assert wordgen.relaxed_judge(consume, batches, INTERP) is truth.TRUE
    assert wordgen.relaxed_judge(consume, [frozenset({"b"})], INTERP) is truth.FALSE


def same_tree(a, b):
    """Structural equality on an explicit stack; dataclass ``==`` recurses."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b) or getattr(a, "timeout", 0) != getattr(b, "timeout", 0):
            return False
        children = rt.CHILDREN[type(a)]
        if children is rt.no_children and a != b:
            return False
        stack.extend(zip(children(a), children(b)))
    return True


def test_symbolic_route_has_no_recursion_cliff():
    expanded = sym.next_form(sym.eventually(DEEP, consume_eq("x", "o", "a")), INTERP)
    assert sym.free_vars(expanded) == set()
    assert sym.constants(expanded) == {"a"}
    text = sexpr.format_formula(expanded)
    assert text.count("(next ") == DEEP - 1
    assert text.startswith("(or (consume ?x ?o (= ?x a)) (next (or ")
    assert wordgen.generate_word(expanded, INTERP, random.Random(0)) is not wordgen.GEN_ERR
    with pytest.raises(wordgen.GeneratorFragmentError, match="time variable 'o'"):
        leaky = sym.Consume("x", "o", sym.eq(sym.Var("o"), 1))
        wordgen.generate_word(sym.next_form(sym.eventually(DEEP, leaky), INTERP), INTERP, None)
    with pytest.raises(wordgen.GeneratorFragmentError, match="closed"):
        open_body = sym.Not(sym.eq(sym.Var("y"), "a"))
        wordgen.generate_word(sym.next_form(sym.eventually(DEEP, open_body), INTERP), INTERP, None)


def test_word_generation_has_no_recursion_cliff():
    """An ``always`` next form nests a conjunction and a ``next`` per instant;
    the generator loops down both, so a word of DEEP batches generates."""
    expanded = sym.next_form(sym.always(DEEP, consume_eq("x", "o", "a")), INTERP)
    word = wordgen.generate_word(expanded, INTERP, random.Random(0))
    assert word == [frozenset({"a"})] * DEEP
    assert wordgen.relaxed_judge(expanded, word, INTERP) is truth.TRUE


def test_fold_memory_grows_with_depth_not_size():
    """The eager form shares one body object along each chain, so this
    67,498-node tree is only about 600 nodes deep."""
    expanded = rt.to_next_form(Always(150, Eventually(150, P)))
    assert rt.size(expanded) == 67_498
    tracemalloc.start()
    try:
        assert rt.safe_word_length(expanded) == 299
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
