"""Next-form transformations, letter simplification, safe word length, monitor."""

import collections
import copy
import dataclasses
import gc
import pickle
import random
import re
import weakref

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from streamcheck import harness
from streamcheck import runtime as rt
from streamcheck import semantics, truth
from streamcheck import symbolic as sym
from streamcheck.examples import EXAMPLES
from streamcheck.runtime import (
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
    INTERP,
    consume_eq,
    letter_is,
    monitor_verdict,
    random_runtime_formula,
    random_word,
)


def test_timeouts_must_be_positive():
    a, b = letter_is("a"), letter_is("b")
    for timeout in (0, -1):
        for build in (Eventually, rt.Always):
            with pytest.raises(rt.FormulaError, match="timeout must be a positive integer"):
                build(timeout, a)
        for build in (Until, Release):
            with pytest.raises(rt.FormulaError, match="timeout must be a positive integer"):
                build(timeout, a, b)


def test_degenerate_timeout_constructors():
    # A window of zero instants resolves by the operator's polarity.
    assert rt.make_eventually(0, letter_is("a")) == rt.BOTTOM
    assert rt.make_always(0, letter_is("a")) == rt.TOP
    assert rt.make_until(0, letter_is("a"), letter_is("b")) == rt.BOTTOM
    assert rt.make_release(0, letter_is("a"), letter_is("b")) == rt.TOP
    assert rt.make_eventually(2, rt.TOP) == Eventually(2, rt.TOP)


@pytest.mark.parametrize("flag", [True, False])
def test_a_boolean_is_no_timeout(flag):
    a, b = letter_is("a"), letter_is("b")
    for build in (Eventually, rt.Always, rt.make_eventually, rt.make_always):
        with pytest.raises(rt.FormulaError, match="timeout must be"):
            build(flag, a)
    for build in (Until, Release, rt.make_until, rt.make_release):
        with pytest.raises(rt.FormulaError, match="timeout must be"):
            build(flag, a, b)


# ---------------------------------------------------------------------------
# Node construction: the hand-written ``__init__`` of every node type keeps
# the frozen dataclass contract.


def _consumer(letter, time):
    return rt.TOP


# Operands that pickle, unlike the closures of atoms.
_P, _Q = Next(rt.TOP), Not(rt.BOTTOM)
# Per node type: its dataclass fields in order, and one value for each.
NODES = {
    Solved: {"value": truth.INCONCLUSIVE},
    Not: {"body": _P},
    And: {"left": _P, "right": _Q},
    Or: {"left": _P, "right": _Q},
    Implies: {"left": _P, "right": _Q},
    Next: {"body": _P},
    Consume: {"consumer": _consumer, "static_depth": 2, "label": "pick"},
    Eventually: {"timeout": 3, "body": _P},
    rt.Always: {"timeout": 3, "body": _P},
    Until: {"timeout": 3, "left": _P, "right": _Q},
    Release: {"timeout": 3, "left": _P, "right": _Q},
}
TIMED = [Eventually, rt.Always, Until, Release]


def _fields_of(node):
    return {name: getattr(node, name) for name in NODES[type(node)]}


@pytest.mark.parametrize("kind", NODES, ids=lambda kind: kind.__name__)
def test_nodes_build_positionally_and_by_keyword(kind):
    values = NODES[kind]
    assert [field.name for field in dataclasses.fields(kind)] == list(values)
    by_position, by_keyword = kind(*values.values()), kind(**values)
    assert _fields_of(by_position) == _fields_of(by_keyword) == values
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        kind(*values.values(), None)
    with pytest.raises(TypeError):
        kind(**values, other=None)


def test_consume_keeps_its_defaults():
    defaults = {"consumer": _consumer, "static_depth": None, "label": "consume"}
    assert _fields_of(Consume(_consumer)) == defaults
    assert Consume(_consumer, 4).static_depth == 4
    assert _fields_of(Consume(consumer=_consumer, label="x"))["static_depth"] is None
    with pytest.raises(TypeError):
        Consume()


@pytest.mark.parametrize("kind", NODES, ids=lambda kind: kind.__name__)
def test_node_fields_are_frozen(kind):
    node = kind(**NODES[kind])
    for name in NODES[kind]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert _fields_of(node) == NODES[kind]


@pytest.mark.parametrize("kind", NODES, ids=lambda kind: kind.__name__)
def test_replace_builds_an_equal_node(kind):
    node = kind(**NODES[kind])
    twin = dataclasses.replace(node)
    assert twin == node and twin is not node and type(twin) is kind
    name = list(NODES[kind])[-1]
    value = {"value": truth.TRUE, "label": "other"}.get(name, rt.BOTTOM)
    changed = dataclasses.replace(node, **{name: value})
    assert _fields_of(changed) == {**NODES[kind], name: value} and changed != node


@pytest.mark.parametrize("kind", TIMED, ids=lambda kind: kind.__name__)
def test_timed_nodes_start_without_an_unfolding(kind):
    node = kind(**NODES[kind])
    assert node._unfolded is None
    rt.unfold(node)
    assert node._unfolded is not None
    copies = (
        copy.copy(node),
        copy.deepcopy(node),
        pickle.loads(pickle.dumps(node)),
        dataclasses.replace(node),
    )
    for clone in copies:
        assert clone == node and clone._unfolded is None


class TestExplicitNextForm:
    def test_eventually_four(self):
        atom = letter_is("c")
        expanded = rt.to_next_form(Eventually(4, atom))
        # right-nested chain equivalent to a ∨ Xa ∨ X²a ∨ X³a
        assert expanded == Or(atom, Next(Or(atom, Next(Or(atom, Next(atom))))))
        assert rt.is_next_form(expanded)

    def test_solved_unchanged(self):
        assert rt.to_next_form(rt.TOP) == rt.TOP

    def test_until_with_nested_next(self):
        b = letter_is("b")
        target = Next(And(letter_is("a"), Next(letter_is("a"))))
        expanded = rt.to_next_form(Until(2, b, target))
        assert expanded == Or(target, And(b, Next(target)))
        assert rt.is_next_form(expanded)

    def test_until_two_atoms(self):
        b, a = letter_is("b"), letter_is("a")
        assert rt.to_next_form(Until(2, b, a)) == Or(a, And(b, Next(a)))

    def test_always_two_with_implication(self):
        b, a = letter_is("b"), letter_is("a")
        body = Implies(b, Eventually(2, a))
        expanded = rt.to_next_form(rt.Always(2, body))
        inner = Implies(b, Or(a, Next(a)))
        assert expanded == And(inner, Next(inner))


class TestLazyUnfold:
    def test_always_with_implication_head(self):
        b, a = letter_is("b"), letter_is("a")
        body = Implies(b, Eventually(2, a))
        unfolded = rt.unfold(rt.Always(2, body))
        # the head layer is expanded; the remaining window stays folded under X
        assert unfolded == And(
            Implies(b, Or(a, Next(Eventually(1, a)))),
            Next(rt.Always(1, body)),
        )

    def test_until_base_is_right_operand(self):
        b, a = letter_is("b"), letter_is("a")
        assert rt.unfold(Until(1, b, a)) == a

    def test_release_base_is_right_operand(self):
        b, a = letter_is("b"), letter_is("a")
        assert rt.unfold(Release(1, b, a)) == a

    def test_constant_folding_collapses_tautology(self):
        assert rt.unfold(Eventually(3, rt.TOP)) == rt.TOP

    def test_fixpoint_matches_explicit_on_corpus(self):
        rng = random.Random(101)
        for _ in range(300):
            phi = random_runtime_formula(rng, depth=4)
            assert rt.unfold_fixpoint(phi) == rt.to_next_form(phi)

    def test_a_dropped_formula_leaves_nothing_behind(self):
        class Marker:
            pass

        def formula_holding(marker):
            return rt.Always(5, Eventually(5, rt.now(lambda letter: letter is marker)))

        marker = Marker()
        ref = weakref.ref(marker)
        phi = formula_holding(marker)
        del marker
        monitor = rt.Monitor(phi)
        for time in range(3):
            monitor.step("x", time)
        fixpoint = rt.unfold_fixpoint(phi)
        del phi, monitor, fixpoint
        gc.collect()
        assert ref() is None

    def test_unfolding_is_kept_however_many_formulas_unfold(self):
        phi = Eventually(3, letter_is("a"))
        first = rt.unfold(phi)
        for _ in range(10_000):
            rt.unfold(rt.Always(2, letter_is("b")))
        assert rt.unfold(phi) is first

    @pytest.mark.parametrize(
        "make",
        [Eventually, rt.Always, lambda t, p: Until(t, p, p), lambda t, p: Release(t, p, p)],
        ids=["Eventually", "Always", "Until", "Release"],
    )
    def test_unfolding_leaves_equality_hash_and_repr_alone(self, make):
        p = letter_is("a")
        phi, twin = make(3, p), make(3, p)
        before = (hash(phi), repr(phi))
        first = rt.unfold(phi)
        assert rt.unfold(phi) is first
        assert phi == twin and (hash(phi), repr(phi)) == before == (hash(twin), repr(twin))

    def test_copies_unfold_afresh(self):
        phi = rt.Always(3, Eventually(2, rt.TOP))
        first = rt.unfold(phi)
        for clone in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
            assert clone == phi
            unfolded = rt.unfold(clone)
            assert unfolded == first and unfolded is not first


class TestLetterSimplify:
    def test_two_steps_refute_response_window(self):
        b, a = letter_is("b"), letter_is("a")
        phi = rt.Always(2, Implies(b, Eventually(2, a)))
        step1 = rt.letter_simplify(rt.unfold(phi), ("b", 0))
        step2 = rt.letter_simplify(rt.unfold(step1), ("b", 2))
        assert step2 == Solved(truth.FALSE)

    def test_empty_letter_skips_next(self):
        assert rt.letter_simplify(Next(rt.TOP), None) == rt.TOP

    def test_empty_letter_resolves_pending_consume(self):
        assert rt.letter_simplify(letter_is("a"), None) == rt.UNDECIDED

    def test_real_letter_drops_next_unchanged(self):
        inner = And(letter_is("a"), letter_is("b"))
        assert rt.letter_simplify(Next(inner), ("b", 0)) == inner

    def test_negation_distributes_with_folding(self):
        assert rt.letter_simplify(Not(letter_is("a")), ("a", 0)) == Solved(truth.FALSE)
        assert rt.letter_simplify(Not(letter_is("a")), None) == rt.UNDECIDED

    @pytest.mark.parametrize(
        "phi",
        [
            Eventually(3, letter_is("a")),
            rt.Always(3, letter_is("a")),
            Until(2, letter_is("b"), letter_is("a")),
            Release(2, letter_is("a"), letter_is("b")),
        ],
        ids=["eventually", "always", "until", "release"],
    )
    def test_a_timed_head_simplifies_as_its_unfolding(self, phi):
        # The monitor unfolds before it simplifies, so only a direct call
        # reaches a timed operator at the head.
        for letter in (("a", 0), ("b", 100)):
            assert rt.letter_simplify(phi, letter) == rt.letter_simplify(rt.unfold(phi), letter)


class TestSafeWordLength:
    def test_invariant_with_lookahead(self):
        phi = rt.Always(3, Implies(letter_is("a"), Next(letter_is("a"))))
        assert rt.safe_word_length(phi) == 4

    def test_until_with_nested_next(self):
        phi = Until(2, letter_is("b"), Next(And(letter_is("a"), Next(letter_is("a")))))
        assert rt.safe_word_length(phi) == 4

    def test_solved_is_zero(self):
        assert rt.safe_word_length(rt.TOP) == 0

    def test_dynamic_consumer_is_undefined(self):
        dynamic = Consume(lambda letter, time: rt.TOP, static_depth=None, label="dyn")
        with pytest.raises(rt.SafeLengthUndefined):
            rt.safe_word_length(Eventually(2, dynamic))

    @pytest.mark.parametrize("depth", [True, 2.5, 0, -1, "1"], ids=repr)
    @pytest.mark.parametrize("build", [Consume, rt.bind], ids=["Consume", "bind"])
    def test_static_depth_is_checked_when_built(self, build, depth):
        # ``True`` would count as a depth of 1, and 2.5 as a fractional one.
        with pytest.raises(rt.FormulaError, match="^static_depth must be a positive integer"):
            build(_consumer, static_depth=depth)

    @pytest.mark.parametrize("build", [Consume, rt.bind], ids=["Consume", "bind"])
    def test_static_depth_is_none_or_positive(self, build):
        for depth in (None, 1, 4):
            assert build(_consumer, static_depth=depth).static_depth == depth

    def test_sufficiency_on_corpus(self):
        rng = random.Random(77)
        checked = 0
        while checked < 200:
            phi = random_runtime_formula(rng, depth=4, allow_inconclusive=False)
            length = rt.safe_word_length(phi)
            word = random_word(rng, max_len=0)
            word = [(rng.choice("abc"), 2 * i) for i in range(length)]
            assert semantics.models(word, phi).is_decided()
            assert monitor_verdict(phi, word).is_decided()
            checked += 1


class TestMonitor:
    WORD = [("b", 0), ("b", 2), ("a", 3), ("a", 6)]

    def test_search_stays_inconclusive(self):
        monitor = rt.Monitor(Eventually(5, letter_is("c")))
        for letter, time in self.WORD:
            assert monitor.step(letter, time) is None
        assert monitor.finish() is truth.INCONCLUSIVE

    def test_handover_decides_at_third_letter(self):
        monitor = rt.Monitor(Until(5, letter_is("b"), letter_is("a")))
        verdicts = []
        for letter, time in self.WORD[:3]:
            verdicts.append(monitor.step(letter, time))
        assert verdicts == [None, None, truth.TRUE]
        assert monitor.consumed == 3

    def test_already_solved_formula(self):
        monitor = rt.Monitor(rt.BOTTOM)
        assert monitor.verdict is truth.FALSE
        with pytest.raises(rt.MonitorDecided):
            monitor.step("a", 0)

    def test_finish_is_idempotent(self):
        monitor = rt.Monitor(letter_is("a"))
        assert monitor.finish() is truth.INCONCLUSIVE
        assert monitor.finish() is truth.INCONCLUSIVE

    def test_trace_lines(self):
        monitor = rt.Monitor(Eventually(2, letter_is("c")))
        monitor.step("b", 0)
        monitor.finish()
        assert [entry.step for entry in monitor.trace] == [1, 2]
        assert monitor.trace[-1].time_ms is None
        assert monitor.trace[-1].verdict is truth.INCONCLUSIVE
        assert "verdict" in monitor.trace[0].line()

    def test_trace_read_once_equals_trace_read_every_step(self):
        rng = random.Random(707)
        for _ in range(300):
            phi = random_runtime_formula(rng, depth=4, allow_dynamic=True)
            word = random_word(rng, max_len=12)
            once, every = rt.Monitor(phi), rt.Monitor(phi)
            reads = [list(every.trace)]
            for letter, time in word:
                if once.verdict is not None:
                    break
                assert once.step(letter, time) is every.step(letter, time)
                reads.append(list(every.trace))
            assert once.finish() is every.finish()
            trace = once.trace
            assert trace == every.trace
            assert [entry.step for entry in trace] == list(range(1, len(trace) + 1))
            for read in reads:  # entries already read never change
                assert every.trace[: len(read)] == read
            assert once.trace is trace
            if trace and trace[-1].time_ms is None:
                assert trace[-1].formula_size == 1

    @pytest.mark.parametrize("timeout", [400, 10_000, 10**9])
    @pytest.mark.parametrize(
        "make",
        [
            lambda t, p, q: Eventually(t, q),
            lambda t, p, q: rt.Always(t, p),
            lambda t, p, q: Until(t, p, q),
            lambda t, p, q: Release(t, p, q),
        ],
        ids=["eventually", "always", "until", "release"],
    )
    def test_finish_closes_an_open_window_of_any_length(self, make, timeout):
        phi = make(timeout, letter_is("a"), letter_is("b"))
        open_windows = 0
        for letter in ("a", "b", "c"):
            monitor = rt.Monitor(phi)
            monitor.step(letter, 0)
            open_windows += monitor.verdict is None
            assert monitor.finish() is semantics.models([(letter, 0)], phi)
        assert open_windows

    def test_finish_closes_a_deep_eager_next_form(self):
        monitor = rt.Monitor(rt.to_next_form(Eventually(10_000, letter_is("a"))))
        assert monitor.step("b", 0) is None
        assert monitor.finish() is truth.INCONCLUSIVE

    def test_stepwise_equals_reference_on_corpus(self):
        rng = random.Random(5)
        for _ in range(300):
            phi = random_runtime_formula(rng, depth=4, allow_dynamic=True)
            word = random_word(rng)
            assert monitor_verdict(phi, word) is semantics.models(word, phi)


def test_a_subclass_of_a_node_type_is_foreign():
    class Later(Eventually):
        __slots__ = ()

    class Atom(Consume):
        __slots__ = ()

    for phi in (Later(3, letter_is("a")), Atom(lambda letter, time: rt.TOP, 1, "atom")):
        with pytest.raises(rt.FormulaError):
            rt.to_next_form(phi)
        with pytest.raises(rt.FormulaError):
            rt.Monitor(And(phi, letter_is("a"))).step("a", 0)


def test_an_unlowered_symbolic_leaf_is_foreign():
    """The connectives are shared with the symbolic algebra, so an unlowered
    symbolic formula is rejected at its first symbolic leaf."""
    leaf, window = consume_eq("x", "o", "a"), sym.always(2, rt.TOP)
    for phi, first in [
        (sym.And(leaf, sym.Next(window)), repr(leaf)),
        (sym.Implies(sym.Not(window), leaf), repr(window)),
    ]:
        with pytest.raises(rt.FormulaError, match=re.escape(f"cannot unfold {first}")):
            rt.Monitor(And(letter_is("a"), phi))
        with pytest.raises(rt.FormulaError, match=re.escape(f"cannot judge {first}")):
            semantics.models([("a", 0), ("b", 1)], Or(letter_is("b"), phi))


def test_semantic_equivalence_of_next_form_on_corpus():
    rng = random.Random(31)
    for _ in range(300):
        phi = random_runtime_formula(rng, depth=4)
        word = random_word(rng)
        expected = semantics.models(word, phi)
        assert semantics.models(word, rt.to_next_form(phi)) is expected


def test_render_and_size():
    phi = Until(2, letter_is("b"), Not(Next(letter_is("a"))))
    assert rt.size(phi) == 5
    text = rt.render(phi)
    assert "U[2]" in text and "X" in text and "!" in text


class TestMergeObligations:
    A, B = letter_is("a"), letter_is("b")

    @pytest.mark.parametrize(
        "make, conj_keeps, disj_keeps",
        [
            (lambda t, a, b: Eventually(t, a), 2, 5),
            (lambda t, a, b: rt.Always(t, a), 5, 2),
            (lambda t, a, b: Until(t, a, b), 2, 5),
            (lambda t, a, b: Release(t, a, b), 5, 2),
        ],
        ids=["eventually", "always", "until", "release"],
    )
    def test_kept_operator(self, make, conj_keeps, disj_keeps):
        short, long = make(2, self.A, self.B), make(5, self.A, self.B)
        kept = {2: short, 5: long}
        for chain in (And(short, long), And(long, short)):
            assert rt.merge_obligations(chain) is kept[conj_keeps]
        for chain in (Or(short, long), Or(long, short)):
            assert rt.merge_obligations(chain) is kept[disj_keeps]

    def test_merges_across_a_flattened_chain(self):
        f2, f5 = Eventually(2, self.A), Eventually(5, self.A)
        other = Next(self.B)
        assert rt.merge_obligations(And(And(f5, other), And(self.B, f2))) == And(
            f2, And(other, self.B)
        )

    def test_merges_inside_not_implies_and_nested_chains(self):
        f2, f5 = Eventually(2, self.A), Eventually(5, self.A)
        g2, g5 = rt.Always(2, self.A), rt.Always(5, self.A)
        phi = Implies(Not(And(f2, f5)), And(self.B, Or(g5, g2)))
        assert rt.merge_obligations(phi) == Implies(Not(f2), And(self.B, g2))

    def test_same_object_when_nothing_merges(self):
        f2 = Eventually(2, self.A)
        phi = And(
            Or(f2, Eventually(5, self.B)),  # different bodies
            And(
                Next(And(f2, Eventually(5, self.A))),  # Next bodies are not entered
                Eventually(3, And(f2, Eventually(4, self.A))),  # nor timed bodies
            ),
        )
        assert rt.merge_obligations(phi) is phi
        wrapped = Not(Implies(f2, phi))
        assert rt.merge_obligations(wrapped) is wrapped

    def test_equal_but_distinct_operands_do_not_merge(self):
        def is_p(letter, _time):
            return rt.Solved(truth.Verdict.from_bool(letter == "p"))

        first, second = Consume(is_p, 1, "p"), Consume(is_p, 1, "p")
        assert first == second and first is not second
        phi = And(Eventually(2, first), Eventually(5, second))
        assert rt.merge_obligations(phi) is phi
        atoms = And(Eventually(2, rt.now(bool, "p")), Eventually(5, rt.now(bool, "p")))
        assert rt.merge_obligations(atoms) is atoms

    def test_monitor_agrees_with_reference_on_shared_atoms(self):
        """A step merged when its residual is smaller than the test-local
        step that simplifies and unfolds without merging.  The monitor step
        merges its residual's top chain inline, so counting calls of
        ``merge_obligations`` would see only nested chains."""
        merges = 0
        rng = random.Random(2024)
        atoms = {letter: letter_is(letter) for letter in "abc"}
        for _ in range(400):
            phi = random_runtime_formula(rng, depth=4, max_timeout=6, atoms=atoms)
            word = random_word(rng, max_len=24)
            monitor = rt.Monitor(phi)
            for letter, time in word:
                if monitor.verdict is not None:
                    break
                unmerged = _reference_unfold(_reference_simplify(monitor._current, (letter, time)))
                monitor.step(letter, time)
                merges += rt.size(monitor._current) < rt.size(unmerged)
            assert monitor.finish() is semantics.models(word, phi)
        assert merges

    @settings(max_examples=2000, derandomize=True, database=None, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_monitor_agrees_with_reference_on_shared_atoms_shrinking(self, rng):
        """Monitor and reference agree, as in the seeded check above, on the
        corpus's default sizes drawn through Hypothesis: a failure shrinks to
        a small formula and word.  The same examples run every time."""
        atoms = {letter: letter_is(letter) for letter in "abc"}
        phi = random_runtime_formula(rng, atoms=atoms)
        word = random_word(rng)
        note(f"{rt.render(phi)} over {''.join(letter for letter, _ in word)!r}")
        monitor = rt.Monitor(phi)
        for letter, time in word:
            if monitor.verdict is not None:
                break
            monitor.step(letter, time)
        assert monitor.finish() is semantics.judge(word, 1, phi)


def _long_word_shapes(n):
    p, q, a = letter_is("p"), letter_is("q"), rt.now(lambda v: v in "ap", "a")
    # On a word of "a" letters (p and q never hold): shape, verdict, deciding step.
    return {
        "G(F p)": (rt.Always(n, Eventually(n, p)), truth.FALSE, n),
        "G(a -> F p)": (rt.Always(n, Implies(a, Eventually(n, p))), truth.FALSE, n),
        "G(F p & F q)": (rt.Always(n, And(Eventually(n, p), Eventually(n, q))), truth.FALSE, n),
        "G(a U p)": (rt.Always(n, Until(n, a, p)), truth.FALSE, n),
        "G(p R a)": (rt.Always(n, Release(n, p, a)), truth.TRUE, 2 * n - 1),
        "F(G a)": (Eventually(n, rt.Always(n, a)), truth.TRUE, n),
    }


@pytest.mark.parametrize("shape", sorted(_long_word_shapes(1)))
def test_long_word_residual_stays_bounded(shape):
    n = 5000
    phi, verdict, step = _long_word_shapes(n)[shape]
    monitor = rt.Monitor(phi)
    for instant in range(1, 2 * n):
        if monitor.step("a", instant) is not None:
            break
    assert (monitor.verdict, monitor.consumed) == (verdict, step)
    assert max(entry.formula_size for entry in monitor.trace) <= 40


@pytest.mark.parametrize("shape", sorted(_long_word_shapes(1)))
def test_long_word_shapes_agree_with_reference(shape):
    n = 40
    phi, verdict, _step = _long_word_shapes(n)[shape]
    word = [("a", instant) for instant in range(1, 2 * n)]
    assert monitor_verdict(phi, word) is semantics.models(word, phi) is verdict


# ---------------------------------------------------------------------------
# Structural equality and hashing


def dataclass_eq(a, b):
    """Recursive equality as frozen dataclasses define it: same class, then
    the fields left to right, each by identity first (as tuples compare)."""
    if a is b:
        return True
    if not isinstance(a, rt.Formula) or not isinstance(b, rt.Formula):
        return a == b
    if type(a) is not type(b):
        return False
    names = [field.name for field in dataclasses.fields(a)]
    return all(dataclass_eq(getattr(a, name), getattr(b, name)) for name in names)


P_A = letter_is("a")


def runtime_pair(make):
    """The eager and the lazy next form of ``make(timeout, P_A)``."""

    def pair(timeout):
        phi = make(timeout, P_A)
        return rt.to_next_form(phi), rt.unfold_fixpoint(phi)

    return pair


def symbolic_next_form(t):
    """A symbolic eager next form: runtime connectives over a symbolic consume."""
    return sym.next_form(sym.always(t, consume_eq("x", "o", "a")), INTERP)


@pytest.mark.parametrize(
    "pair",
    [
        runtime_pair(Eventually),
        runtime_pair(rt.Always),
        runtime_pair(lambda t, p: Until(t, p, p)),
        runtime_pair(lambda t, p: Release(t, p, p)),
        lambda t: (symbolic_next_form(t), symbolic_next_form(t)),
    ],
    ids=["Eventually", "Always", "Until", "Release", "symbolic"],
)
def test_deep_next_forms_compare_and_hash(pair):
    eager, lazy = pair(10_000)
    assert eager is not lazy
    assert (eager == lazy) is True
    assert (eager != lazy) is False
    assert hash(eager) == hash(lazy)
    assert repr(eager) == repr(lazy)
    assert repr(eager).count("Next(body=") == 10_000 - 1
    assert eager != pair(9_999)[0]


def test_equality_agrees_with_dataclass_equality_on_corpus():
    outcomes = []
    for seed in range(300):
        atoms = {letter: letter_is(letter) for letter in "abc"}
        a = random_runtime_formula(random.Random(seed), depth=4, allow_dynamic=True, atoms=atoms)
        twin = random_runtime_formula(random.Random(seed), depth=4, allow_dynamic=True, atoms=atoms)
        other = random_runtime_formula(random.Random(seed + 1000), depth=4, atoms=atoms)
        fresh = random_runtime_formula(random.Random(seed), depth=4)  # its own atoms
        pairs = [
            (a, twin),
            (a, other),
            (a, fresh),
            (a, rt.unfold(twin)),
            (rt.to_next_form(a), rt.unfold_fixpoint(twin)),
            (rt.Not(a), rt.Next(twin)),
            (rt.Eventually(2, a), rt.Eventually(3, twin)),
        ]
        for x, y in pairs:
            expected = dataclass_eq(x, y)
            assert (x == y) is expected and (x != y) is not expected
            assert (y == x) is expected
            if expected:
                assert hash(x) == hash(y)
            outcomes.append(expected)
    assert outcomes.count(True) > 400 and outcomes.count(False) > 1000


def test_equal_formulas_hash_equal():
    assert Solved(truth.TRUE) == rt.TOP and hash(Solved(truth.TRUE)) == hash(rt.TOP)
    p = letter_is("a")
    assert hash(And(p, Next(p))) == hash(And(p, Next(p)))
    assert Not(p) != Next(p) and Eventually(2, p) != rt.Always(2, p)
    assert len({Eventually(2, p), Eventually(2, p), Eventually(3, p)}) == 2
    assert Consume(p.consumer, 1, "x") != Consume(p.consumer, 1, "y")
    assert (p == "p") is False and p != None  # noqa: E711


# ---------------------------------------------------------------------------
# The monitor step against the three-pass step it replaced: a recursive
# ``letter_simplify`` that fires every occurrence of a shared atom, then
# ``merge_obligations``, then ``unfold``, dispatched with ``isinstance`` and
# keeping no unfolding on the nodes.


def _reference_simplify(phi, letter):
    if isinstance(phi, Solved):
        return phi
    if isinstance(phi, Not):
        return rt.mk_not(_reference_simplify(phi.body, letter))
    if isinstance(phi, And):
        return rt.mk_and(_reference_simplify(phi.left, letter), _reference_simplify(phi.right, letter))
    if isinstance(phi, Or):
        return rt.mk_or(_reference_simplify(phi.left, letter), _reference_simplify(phi.right, letter))
    if isinstance(phi, Implies):
        return rt.mk_implies(
            _reference_simplify(phi.left, letter), _reference_simplify(phi.right, letter)
        )
    if isinstance(phi, Next):
        return phi.body
    if isinstance(phi, Consume):
        value, time = letter
        return phi.consumer(value, time)
    return _reference_simplify(_reference_unfold(phi), letter)


_KEEP_SMALLER = {And: (Eventually, Until), Or: (rt.Always, Release)}


def _reference_merge(phi):
    if isinstance(phi, (And, Or)):
        return _reference_merge_chain(phi)
    if isinstance(phi, Not):
        body = _reference_merge(phi.body)
        return phi if body is phi.body else rt.mk_not(body)
    if isinstance(phi, Implies):
        left, right = _reference_merge(phi.left), _reference_merge(phi.right)
        if left is phi.left and right is phi.right:
            return phi
        return rt.mk_implies(left, right)
    return phi


def _reference_items(chain):
    kind, items, stack = type(chain), [], [chain]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            stack += (node.right, node.left)
        else:
            items.append(node)
    return items


def _reference_merge_chain(phi):
    kind = type(phi)
    slots, kept, changed = {}, [], False
    for item in _reference_items(phi):
        op = type(item)
        if op in (Eventually, rt.Always):
            key = (op, id(item.body))
        elif op in (Until, Release):
            key = (op, id(item.left), id(item.right))
        else:
            merged = _reference_merge(item)
            changed = changed or merged is not item
            kept.append(merged)
            continue
        slot = slots.get(key)
        if slot is None:
            slots[key] = len(kept)
            kept.append(item)
            continue
        changed = True
        held = kept[slot].timeout
        if item.timeout < held if op in _KEEP_SMALLER[kind] else item.timeout > held:
            kept[slot] = item
    if not changed:
        return phi
    result = kept[-1]
    for item in reversed(kept[:-1]):
        result = kind(item, result)
    return result


def _reference_unfold(phi):
    if isinstance(phi, (Solved, Consume, Next)):
        return phi
    if isinstance(phi, Not):
        return rt.mk_not(_reference_unfold(phi.body))
    if isinstance(phi, And):
        return rt.mk_and(_reference_unfold(phi.left), _reference_unfold(phi.right))
    if isinstance(phi, Or):
        return rt.mk_or(_reference_unfold(phi.left), _reference_unfold(phi.right))
    if isinstance(phi, Implies):
        return rt.mk_implies(_reference_unfold(phi.left), _reference_unfold(phi.right))
    kind = type(phi)
    if kind not in rt.CHILDREN:
        raise rt.FormulaError(f"cannot unfold {phi!r}")
    operands = rt.CHILDREN[kind](phi)
    right = _reference_unfold(operands[-1])
    if phi.timeout == 1:
        return right
    left = _reference_unfold(operands[0]) if len(operands) == 2 else right
    later = rt.mk_next(kind(phi.timeout - 1, *operands))
    return rt._expand(kind, left, right, later, rt.mk_or, rt.mk_and)


def _reference_step(phi, letter):
    return _reference_unfold(_reference_merge(_reference_simplify(phi, letter)))


class ReferenceMonitor(rt.Monitor):
    """``Monitor`` stepping with the three-pass reference step."""

    def step(self, letter, time_ms):
        if self.verdict is not None:
            raise rt.MonitorDecided("monitor already reached a verdict")
        current = _reference_step(self._current, (letter, time_ms))
        self._current = current
        self.consumed += 1
        if isinstance(current, Solved):
            self.verdict = current.value
        self._pending.append((time_ms, current, self.verdict))
        return self.verdict


def _count_firings(formula):
    """Make every ``Consume`` in ``formula`` count its firings per letter.

    Returns a counter keyed by ``(id(letter), label)``; the letters are kept
    alive, so two steps never share an ``id``.
    """
    counts, letters, wrapped = collections.Counter(), [], set()

    def wrap(node, _kids):
        if type(node) is Consume and id(node) not in wrapped:
            wrapped.add(id(node))
            consumer = node.consumer

            def counting(letter, time):
                letters.append(letter)
                counts[id(letter), node.label] += 1
                return consumer(letter, time)

            object.__setattr__(node, "consumer", counting)

    rt.fold(formula, rt.CHILDREN, wrap)
    return counts


def _assert_same_residual(current, residual, static):
    assert rt.render(current) == rt.render(residual)
    assert rt.size(current) == rt.size(residual)
    assert not static or current == residual


def test_step_equals_the_three_pass_reference_on_corpus():
    """After every letter the residual equals the reference's, with equal
    size, and so do the verdicts.

    Static atoms are compared with ``==``.  A dynamic atom builds its
    continuation afresh in each run, and consumers compare by identity, so
    residuals holding one are compared by their rendering (labels, timeouts,
    verdicts) and size.
    """
    steps = strict = 0
    for seed in range(300):
        rng = random.Random(seed)
        atoms = {letter: letter_is(letter) for letter in "abc"}
        cases = [
            (random_runtime_formula(rng, depth=4, atoms=atoms), True),
            (random_runtime_formula(rng, depth=4), True),
            (random_runtime_formula(rng, depth=4, allow_dynamic=True, atoms=atoms), False),
        ]
        for phi, static in cases:
            word = random_word(rng, max_len=12)
            monitor, residual = rt.Monitor(phi), _reference_unfold(phi)
            _assert_same_residual(monitor._current, residual, static)
            for letter, time in word:
                if monitor.verdict is not None:
                    break
                verdict = monitor.step(letter, time)
                residual = _reference_step(residual, (letter, time))
                assert verdict is (residual.value if type(residual) is Solved else None)
                _assert_same_residual(monitor._current, residual, static)
                steps += 1
                strict += static
            assert monitor.finish() is rt.letter_simplify(residual, None).value
    assert steps > 1000 and strict > 600


def _shaped(rng, kind, operands):
    """A ``kind`` chain over ``operands`` in order, split at random points,
    so it nests to the left, to the right, or both."""
    if len(operands) == 1:
        return operands[0]
    cut = rng.randint(1, len(operands) - 1)
    return kind(_shaped(rng, kind, operands[:cut]), _shaped(rng, kind, operands[cut:]))


def _one_walk_branches(phi, letter):
    """What the monitor step meets on ``phi`` and ``letter``, found with the
    test-local reference passes: whether the one-walk step takes the chain,
    what its walk down the right spine meets, and how the operands merge."""
    kind = type(phi)
    if kind not in (And, Or) or type(phi.right) is not kind:
        return {"three passes"}
    neutral = truth.TRUE if kind is And else truth.FALSE
    tags, results, operand = set(), [], phi
    while True:
        last = type(operand) is not kind
        part = operand if last else operand.left
        if type(part) is kind:
            tags.add("a left operand is a chain")
        if type(part) in (And, Or) and type(part.left) is Consume and type(part.right) is Next:
            tags.add("atom stepped in place")
            if _reference_simplify(part.left, letter) is rt.UNDECIDED:
                tags.add("an atom stepped in place returns ?")
        result = _reference_simplify(part, letter)
        if type(result) is Solved:
            if result.value is neutral:
                tags.add("neutral last operand" if last else "neutral leaf, walk goes on")
            elif result.value is truth.neg(neutral):
                return tags | {"stops at a verdict leaf", "absorbing leaf"}
            else:
                return tags | {"stops at a verdict leaf", "? from a consumer" if type(part) is Consume else "? leaf"}
        else:
            results.append(result)
        if last:
            break
        operand = operand.right
    if not results:
        return tags | {"every operand neutral"}
    if any(type(result) is kind for result in results):
        tags.add("joins the chain")
    chain = results[-1]
    for result in reversed(results[:-1]):
        chain = kind(result, chain)
    if _reference_merge(chain) is chain:
        return tags | {"nothing merged"}
    chain_items = _reference_items(chain) if type(chain) is kind else [chain]
    items = [item for item in chain_items if type(item) in (Until, Release)]
    keys = [(type(item), id(item.left), id(item.right)) for item in items]
    return tags | {"merged", *(["merged until/release"] if len(set(keys)) < len(keys) else [])}


def test_one_walk_step_on_shaped_chains():
    """The one-walk step equals the test-local three-pass step on chains of
    every shape, including the branches the bundled formulas rarely reach:
    left-nested and mixed chains, ``?`` leaves and consumers that return
    ``?``, neutral leaves anywhere in the chain and chains of nothing else,
    atoms stepped in place, operands that simplify into the chain's own kind,
    absorbing leaves, and timed operators over the same operands."""
    a, b = letter_is("a"), letter_is("b")
    unsure = rt.now(lambda letter: truth.INCONCLUSIVE if letter == "c" else letter == "a", "?")

    def operand(rng, kind):
        other = Or if kind is And else And
        t = rng.randint(1, 4)
        leaves = [
            lambda: a,
            lambda: unsure,
            lambda: Not(a),
            lambda: Implies(a, Next(b)),
            lambda: Next(rng.choice([rt.TOP, rt.BOTTOM, rt.UNDECIDED])),
        ]
        others = [
            lambda: Next(kind(a, Next(b))),
            lambda: Next(other(unsure, Next(b))),
            lambda: Next(other(Next(Eventually(t, b)), Next(Eventually(t + 1, b)))),
            lambda: Next(Eventually(t, a)),
            lambda: Next(rt.Always(t, a)),
            lambda: Next(Until(t, a, b)),
            lambda: Next(Release(t, a, b)),
        ]
        return rng.choice(leaves if rng.random() < 0.25 else others)()

    reached = collections.Counter()
    for seed in range(600):
        rng = random.Random(seed)
        kind = rng.choice((And, Or))
        phi = _shaped(rng, kind, [operand(rng, kind) for _ in range(rng.randint(2, 7))])
        word = random_word(rng, max_len=6)
        monitor, reference = rt.Monitor(phi), ReferenceMonitor(phi)
        _assert_same_residual(monitor._current, reference._current, True)
        for letter, time in word:
            if monitor.verdict is not None:
                break
            reached.update(_one_walk_branches(monitor._current, (letter, time)))
            assert monitor.step(letter, time) is reference.step(letter, time)
            _assert_same_residual(monitor._current, reference._current, True)
        assert monitor.finish() is reference.finish()
    branches = {
        "three passes",
        "a left operand is a chain",
        "stops at a verdict leaf",
        "neutral leaf, walk goes on",
        "neutral last operand",
        "every operand neutral",
        "atom stepped in place",
        "an atom stepped in place returns ?",
        "absorbing leaf",
        "? leaf",
        "? from a consumer",
        "joins the chain",
        "nothing merged",
        "merged",
        "merged until/release",
    }
    assert branches <= set(reached), branches - set(reached)


def test_one_walk_step_fires_and_raises_as_the_reference():
    """Per letter, consumers first fire in the reference's order, and a
    step raises the reference's first exception.  A consumer that raises
    after a sibling returned a non-formula raises before the non-formula
    fails to unfold, and of two non-formulas kept in one chain the leftmost
    is the one reported."""
    log = []

    def atom(label, answer):
        def consumer(letter, _time):
            log.append(label)
            return answer(letter)

        return Consume(consumer, 1, label)

    def boom(letter):
        if letter == "c":
            raise ValueError("boom on c")
        return rt.TOP

    atoms = [
        atom("a", lambda letter: rt.TOP if letter == "a" else rt.BOTTOM),
        atom("not b", lambda letter: rt.BOTTOM if letter == "b" else rt.TOP),
        atom("odd", lambda letter: 5 if letter == "b" else rt.TOP),
        atom("six", lambda letter: 6 if letter == "b" else rt.BOTTOM),
        atom("boom", boom),
    ]
    last_step = {}

    def run(monitor_type, phi, word):
        monitor, fired = monitor_type(phi), []
        try:
            for letter, time in word:
                if monitor.verdict is not None:
                    break
                last_step.update(residual=monitor._current, letter=(letter, time))
                log.clear()
                try:
                    monitor.step(letter, time)
                finally:
                    fired.append(list(dict.fromkeys(log)))
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return fired, type(exc), str(exc)
        return fired, None, monitor.finish()

    outcomes = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        kind = rng.choice((And, Or))
        operands = [rng.choice(atoms + [Next(rng.choice(atoms))]) for _ in range(rng.randint(3, 6))]
        phi = _shaped(rng, kind, operands)
        word = random_word(rng, max_len=5)
        expected = run(ReferenceMonitor, phi, word)
        assert run(rt.Monitor, phi, word) == expected
        fired, error, message = expected
        if error is ValueError and "odd" in fired[-1][: fired[-1].index("boom")]:
            outcomes["raises after a non-formula"] += 1
        elif error is rt.FormulaError:
            outcomes["a non-formula fails to unfold"] += 1
            simplified = _reference_simplify(last_step["residual"], last_step["letter"])
            items = _reference_items(simplified) if type(simplified) is kind else [simplified]
            non_formulas = [item for item in items if type(item) is int]
            if set(non_formulas) == {5, 6} and not any(type(item) is Solved for item in items):
                assert message == f"cannot unfold {non_formulas[0]}"
                outcomes[f"{non_formulas[0]} kept left of {non_formulas[-1]}"] += 1
    assert outcomes["raises after a non-formula"] and outcomes["a non-formula fails to unfold"]
    assert outcomes["5 kept left of 6"] and outcomes["6 kept left of 5"], outcomes


def test_a_predicate_that_raises_in_the_walk_fails_the_same_step(monkeypatch):
    """``G[3] F[3] p`` on letters where ``p`` is false reaches a chain of three
    operands at step 2, which the one-walk step takes; ``p`` raising there
    is reported at step 2, as by the reference."""

    def false_then_fails(letter):
        return 1 / (letter.time - 100) > 0

    formula = rt.Always(3, Eventually(3, rt.now(bool, "p")))
    monitor = rt.Monitor(formula)
    monitor.step(False, 0)
    chain = monitor._current
    assert type(chain) is And and type(chain.left) is Or and type(chain.right) is And
    messages = []
    for monitor_type in (ReferenceMonitor, rt.Monitor):
        p = rt.now(false_then_fails, "p")
        monkeypatch.setattr(harness, "Monitor", monitor_type)
        with pytest.raises(harness.PredicateError) as caught:
            harness.run_test_case(
                [[1], [2], [3]],
                harness.map_elements(str),
                rt.Always(3, Eventually(3, p)),
                harness.HarnessConfig(batch_interval_ms=100),
            )
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[1].startswith("predicate failed at step 2: ZeroDivisionError")


def test_a_shared_atom_fires_once_per_letter():
    """On the never word, G[400] F[400] p decides F at letter 400, calling
    ``p`` once per letter; the three-pass step called it 799 times."""
    for monitor_type, calls in ((ReferenceMonitor, 799), (rt.Monitor, 400)):
        letters = []
        p = rt.now(lambda letter: letters.append(letter) or letter == "p", "p")
        monitor = monitor_type(rt.Always(400, Eventually(400, p)))
        for instant in range(1, 1000):
            if monitor.step("a", instant) is not None:
                break
        assert (monitor.verdict, monitor.consumed, len(letters)) == (truth.FALSE, 400, calls)


def test_banning_fires_each_atom_at_most_once_per_step(monkeypatch):
    spec = EXAMPLES["banning-stateless"]
    cfg = harness.HarnessConfig(min_tests_ok=spec.min_tests_ok, seed=0)
    reports, most = [], []
    for monitor_type in (ReferenceMonitor, rt.Monitor):
        prefix_gen, subject, formula = spec.build()
        counts = _count_firings(formula)
        monkeypatch.setattr(harness, "Monitor", monitor_type)
        report = harness.for_all_stream(prefix_gen, subject, formula, cfg, property_name=spec.name)
        reports.append(harness.report_to_json(report))
        most.append(max(counts.values()))
    assert most == [2, 1]
    assert reports[0] == reports[1]


def test_a_shared_atom_that_raises_fails_the_same_step(monkeypatch):
    def fails_at_second_batch(letter):
        return 1 / (letter.time - 100) != 0

    messages = []
    for monitor_type in (ReferenceMonitor, rt.Monitor):
        p = rt.now(fails_at_second_batch, "p")
        monkeypatch.setattr(harness, "Monitor", monitor_type)
        with pytest.raises(harness.PredicateError) as caught:
            harness.run_test_case(
                [[1], [2], [3]],
                harness.map_elements(str),
                rt.Always(3, And(p, Eventually(2, p))),
                harness.HarnessConfig(batch_interval_ms=100),
            )
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[1].startswith("predicate failed at step 2: ZeroDivisionError")


def test_a_shared_bind_builds_one_continuation_per_letter():
    """A shared ``bind`` fires once per letter, so its occurrences share one
    continuation.  When that continuation holds timed operators over operands
    built afresh per call, identity-keyed ``merge_obligations`` now merges
    the copies the three-pass step kept apart: the residual shrinks, and the
    verdict is the same.  No bundled example has such a bind."""
    b = rt.bind(lambda _letter, _time: Eventually(3, letter_is("p")), label="b")
    phi = And(b, b)
    word = [("a", 0), ("a", 1), ("p", 2)]
    sizes = []
    for monitor_type in (ReferenceMonitor, rt.Monitor):
        monitor = monitor_type(phi)
        verdicts = [monitor.step(letter, time) for letter, time in word]
        assert verdicts == [None, None, truth.TRUE]
        sizes.append([entry.formula_size for entry in monitor.trace])
    assert sizes == [[11, 11, 1], [5, 5, 1]]
    assert semantics.models(word, phi) is truth.TRUE
