"""Reference judgment: worked vectors and its structural properties."""

import random

import pytest

from streamcheck import runtime as rt
from streamcheck import semantics, symbolic as sym, truth

from corpus import (
    INTERP,
    judgment_vectors,
    letter_is,
    monitor_verdict,
    random_runtime_formula,
    random_word,
)
from window_folds import WINDOW_FOLDS


def term_monitor_verdict(formula, word):
    monitor = rt.Monitor(formula)
    for letter, time in word:
        if monitor.verdict is not None:
            break
        monitor.step(letter, time)
    return monitor.finish()


@pytest.mark.parametrize(
    "name,phi,word,interp,expected",
    judgment_vectors(),
    ids=[v[0] for v in judgment_vectors()],
)
def test_judgment_vectors(name, phi, word, interp, expected):
    """Each worked vector reproduces via the direct symbolic judgment, the
    reference judge of the compiled formula, and the stepwise monitor."""
    assert sym.judge(word, 1, phi, interp) is expected
    compiled = sym.compile_formula(phi, interp)
    assert semantics.models(word, compiled) is expected
    assert term_monitor_verdict(compiled, word) is expected


def test_next_of_tautology_holds_on_empty_word():
    assert semantics.judge([], 1, rt.Next(rt.TOP)) is truth.TRUE


def test_consume_on_singleton_word():
    phi = sym.Consume("x", "o", sym.Eq(sym.Var("x"), sym.Lit(0)))
    interp = sym.Interpretation()
    word = [(sym.Lit(0), 0)]
    assert sym.judge(word, 1, phi, interp) is truth.TRUE
    assert semantics.models(word, sym.compile_formula(phi, interp)) is truth.TRUE


def test_tautological_invariant_on_short_word():
    # ten instants requested, two letters available, but the body never fails
    phi = sym.always(10, sym.Eq(sym.Lit(0), sym.Lit(0)))
    word = [(sym.Lit(0), 0), (sym.Lit(1), 1)]
    assert sym.judge(word, 1, phi, INTERP) is truth.TRUE


def test_models_is_judgment_at_position_one():
    rng = random.Random(9)
    for _ in range(200):
        phi = random_runtime_formula(rng, depth=4)
        word = random_word(rng)
        assert semantics.models(word, phi) is semantics.judge(word, 1, phi)


def test_position_one_equivalence_extends_to_all_positions():
    """Formulas equal to their next form at the start stay equal everywhere."""
    rng = random.Random(13)
    for _ in range(150):
        phi = random_runtime_formula(rng, depth=3)
        expanded = rt.to_next_form(phi)
        word = random_word(rng)
        for position in range(1, len(word) + 3):
            assert semantics.judge(word, position, phi) is semantics.judge(
                word, position, expanded
            )


def test_positions_past_the_end_judge_like_the_empty_word():
    rng = random.Random(21)
    for _ in range(300):
        phi = random_runtime_formula(rng, depth=4)
        word = random_word(rng)
        past = len(word) + rng.randint(1, 3)
        assert semantics.judge(word, past, phi) is semantics.judge([], 1, phi)


def test_decided_search_is_stable_under_extension():
    rng = random.Random(33)
    stable_true = 0
    stable_false = 0
    for _ in range(500):
        body = random_runtime_formula(rng, depth=2)
        word = random_word(rng, max_len=6)
        extension = word + [
            (rng.choice("abc"), (word[-1][1] if word else 0) + i + 1) for i in range(3)
        ]
        search = rt.Eventually(rng.randint(1, 4), body)
        if semantics.models(word, search) is truth.TRUE:
            stable_true += 1
            assert semantics.models(extension, search) is truth.TRUE
        invariant = rt.Always(rng.randint(1, 4), body)
        if semantics.models(word, invariant) is truth.FALSE:
            stable_false += 1
            assert semantics.models(extension, invariant) is truth.FALSE
    assert stable_true > 20 and stable_false > 20


def test_decided_prefix_verdicts_never_change():
    """A verdict decided on a prefix is the verdict of every extension, which
    is why the harness cross-check may judge only the word a monitor consumed."""
    rng = random.Random(57)
    decided = 0
    for _ in range(400):
        phi = random_runtime_formula(rng, depth=4, allow_dynamic=True)
        word = random_word(rng)
        full = semantics.models(word, phi)
        for k in range(len(word)):
            verdict = semantics.models(word[:k], phi)
            if verdict is not truth.INCONCLUSIVE:
                decided += 1
                assert verdict is full
    assert decided > 500


def test_release_no_release_branch_needs_full_window():
    # right operand holds while letters last, but the window is longer
    phi = rt.Release(3, letter_is("a"), letter_is("b"))
    assert semantics.models([("b", 0)], phi) is truth.INCONCLUSIVE
    assert semantics.models([("b", 0), ("b", 1), ("b", 2)], phi) is truth.TRUE
    assert monitor_verdict(phi, [("b", 0)]) is truth.INCONCLUSIVE


def test_until_refutations():
    phi = rt.Until(3, letter_is("b"), letter_is("a"))
    # left operand fails while the right has not appeared
    assert semantics.models([("c", 0), ("a", 1)], phi) is truth.FALSE
    # window exhausted with the left holding throughout
    assert semantics.models([("b", 0), ("b", 1), ("b", 2), ("b", 3)], phi) is truth.FALSE


# ---------------------------------------------------------------------------
# The per-call verdict table of window operands


def reference_judge(word, position, phi):
    """The judge without a verdict table: each window re-judges its operands."""
    if position < 1:
        raise ValueError("positions are 1-based")
    if isinstance(phi, rt.Solved):
        return phi.value
    if isinstance(phi, rt.Not):
        return truth.neg(reference_judge(word, position, phi.body))
    if isinstance(phi, rt.And):
        return truth.conj(reference_judge(word, position, phi.left), reference_judge(word, position, phi.right))
    if isinstance(phi, rt.Or):
        return truth.disj(reference_judge(word, position, phi.left), reference_judge(word, position, phi.right))
    if isinstance(phi, rt.Implies):
        return truth.implies(reference_judge(word, position, phi.left), reference_judge(word, position, phi.right))
    if isinstance(phi, rt.Next):
        return reference_judge(word, position + 1, phi.body)
    if isinstance(phi, rt.Consume):
        if position <= len(word):
            value, time = word[position - 1]
            return reference_judge(word, position + 1, phi.consumer(value, time))
        return truth.INCONCLUSIVE
    if isinstance(phi, (rt.Eventually, rt.Always, rt.Until, rt.Release)):
        fold = WINDOW_FOLDS[type(phi).__name__]
        window = range(position, position + phi.timeout)
        if isinstance(phi, (rt.Until, rt.Release)):
            return fold(
                window,
                lambda k: reference_judge(word, k, phi.left),
                lambda k: reference_judge(word, k, phi.right),
            )
        return fold(window, lambda k: reference_judge(word, k, phi.body))
    raise rt.FormulaError(f"cannot judge {phi!r}")


def outcome(judge, word, position, phi):
    try:
        return judge(word, position, phi)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def refuses_odd_c(letter, time):
    if letter == "c" and time % 2:
        raise LookupError(f"no verdict for {letter!r} at {time}")
    return letter == "c"


def shared_window_formula(rng, atoms):
    """A random formula whose timed operators nest over shared operands, or
    whose consumers return fresh timed formulas over them."""
    shared = random_runtime_formula(rng, depth=2, atoms=atoms)
    t, u = rng.randint(1, 4), rng.randint(1, 4)
    shapes = [
        rt.Always(t, rt.Eventually(u, shared)),
        rt.Until(t, shared, rt.Release(u, shared, shared)),
        rt.And(rt.Eventually(t, shared), rt.Next(rt.Always(u, rt.Or(shared, atoms["a"])))),
        rt.Always(t, rt.bind(lambda letter, _time: rt.Eventually(u, atoms[letter]))),
        rt.Eventually(t, rt.bind(lambda letter, _time: rt.Until(u, shared, letter_is(letter)))),
    ]
    return rng.choice(shapes)


def test_memoised_judge_agrees_with_the_reference_at_every_position():
    raised = decided = 0
    for seed in range(300):
        rng = random.Random(seed)
        atoms = {letter: letter_is(letter) for letter in "ab"}
        atoms["c"] = rt.now_time(refuses_odd_c, "c, refusing odd times") if seed % 3 == 0 else letter_is("c")
        for _ in range(3):
            if rng.random() < 0.5:
                phi = random_runtime_formula(rng, depth=4, allow_dynamic=True, atoms=atoms)
            else:
                phi = shared_window_formula(rng, atoms)
            word = random_word(rng)
            for position in range(1, len(word) + 3):
                expected = outcome(reference_judge, word, position, phi)
                assert outcome(semantics.judge, word, position, phi) == expected
                raised += isinstance(expected, tuple)
                decided += expected in (truth.TRUE, truth.FALSE)
    assert raised > 100 and decided > 1000


def periodic_word(n, period, seed):
    """Letters ``True`` exactly at the instants ``phase + k * period``."""
    phase = random.Random(f"{seed}:{period}").randint(1, period)
    return [((instant - phase) % period == 0, instant) for instant in range(1, 2 * n)]


def test_window_operand_judged_once_per_position():
    calls = []
    p = rt.now(lambda letter: calls.append(letter) or letter, "p")
    phi = rt.Always(400, rt.Eventually(400, p))
    word = periodic_word(400, 50, 1)
    monitor = rt.Monitor(phi)
    for letter, time in word:
        if monitor.step(letter, time) is not None:
            break
    consumed = word[: monitor.consumed]
    calls.clear()
    assert semantics.models(consumed, phi) is truth.TRUE is monitor.verdict
    # without the table: 10,200 calls on this 429-letter word
    assert len(calls) <= len(consumed) == 429


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_decided_window_covers_its_later_starts(monkeypatch, seed):
    """The inner window is judged once per period, not at all 400 starts:
    each judgment that finds ``p`` answers every start up to it."""
    p = rt.now(bool, "p")
    phi = rt.Always(400, rt.Eventually(400, p))
    word = periodic_word(400, 50, seed)
    monitor = rt.Monitor(phi)
    for letter, time in word:
        if monitor.step(letter, time) is not None:
            break
    looked_up = []
    entry = semantics._entry

    def counted(memo, operand):
        looked_up.append(operand)
        return entry(memo, operand)

    monkeypatch.setattr(semantics, "_entry", counted)
    assert semantics.models(word[: monitor.consumed], phi) is truth.TRUE is monitor.verdict
    # one lookup of p per judgment of the inner window: 400 without the rule
    assert looked_up.count(p) <= 400 // 50 + 2


def test_no_verdict_table_outlives_its_call():
    p = letter_is("a")
    phi = rt.Always(3, rt.Eventually(2, p))
    held = [("a", t) for t in range(4)]
    never = [("b", t) for t in range(4)]
    assert semantics.models(held, phi) is truth.TRUE
    assert semantics.models(never, phi) is truth.FALSE
    assert semantics.models(held, phi) is truth.TRUE
    assert semantics.judge(never, 2, phi) is truth.FALSE


def refusing_atoms():
    atoms = {letter: letter_is(letter) for letter in "ab"}
    atoms["c"] = rt.now_time(refuses_odd_c, "c, refusing odd times")
    return atoms


def long_window_word(rng, kind):
    """A word of 0–80 letters: ``a`` every few instants (periodic), ``b``
    only (never), or random letters at nondecreasing times."""
    length = rng.randint(0, 80)
    if kind == "random":
        time = 0
        word = []
        for _ in range(length):
            time += rng.randint(0, 3)
            word.append((rng.choice("abc"), time))
        return word
    period, phase = rng.randint(2, 15), rng.randint(0, 14)
    letters = ["a" if kind == "periodic" and (i - phase) % period == 0 else "b" for i in range(length)]
    return [(letter, i) for i, letter in enumerate(letters)]


def long_window_formula(rng, atoms):
    """One timed operator, a nested ``G(F)`` / ``F(G)``, or one operand
    object under both an ``Eventually`` and an ``Always``; timeouts 1–60."""
    x = rng.choice(
        [
            atoms["a"],
            atoms["c"],
            rt.Or(atoms["a"], atoms["c"]),
            rt.Next(atoms["a"]),
            random_runtime_formula(rng, depth=2, atoms=atoms),
        ]
    )
    y = rng.choice([atoms["a"], atoms["b"], atoms["c"]])
    t, u = rng.randint(1, 60), rng.randint(1, 60)
    shapes = [
        rt.Eventually(t, x),
        rt.Always(t, x),
        rt.Until(t, x, y),
        rt.Release(t, x, y),
        rt.Always(t, rt.Eventually(u, x)),
        rt.Eventually(t, rt.Always(u, x)),
        rt.Or(rt.Always(t, x), rt.Eventually(u, x)),
        rt.And(rt.Eventually(t, x), rt.Always(u, x)),
    ]
    return rng.choice(shapes)


def test_long_windows_agree_with_the_reference_at_every_position():
    """Windows of up to 60 instants over words of up to 80 letters, where
    the skip maps and the single judgment past the word do their work."""
    raised = decided = 0
    atoms = refusing_atoms()
    for seed in range(240):
        rng = random.Random(seed)
        phi = long_window_formula(rng, atoms)
        word = long_window_word(rng, ("periodic", "never", "random")[seed % 3])
        for position in range(1, len(word) + 3):
            expected = outcome(reference_judge, word, position, phi)
            assert outcome(semantics.judge, word, position, phi) == expected
            raised += isinstance(expected, tuple)
            decided += expected in (truth.TRUE, truth.FALSE)
    assert raised > 100 and decided > 2000


@pytest.mark.parametrize(
    "kind,arity", [(rt.Eventually, 1), (rt.Always, 1), (rt.Until, 2), (rt.Release, 2)]
)
def test_a_window_past_the_word_is_judged_once(kind, arity):
    """At timeout 10**9 each window reaches 10**9 positions past a 3-letter
    word, all of which judge alike."""
    atoms = refusing_atoms()
    rng = random.Random(5)
    for _ in range(40):
        operands = [random_runtime_formula(rng, depth=2, atoms=atoms) for _ in range(arity)]
        word = [(rng.choice("abc"), time) for time in range(3)]
        covering, huge = kind(len(word) + 3, *operands), kind(10**9, *operands)
        for position in range(1, len(word) + 3):
            expected = outcome(reference_judge, word, position, covering)
            assert outcome(semantics.judge, word, position, covering) == expected
            assert outcome(semantics.judge, word, position, huge) == expected


# ---------------------------------------------------------------------------
# The explicit-stack judge makes the calls the recursive judge made


class _Recursive:
    """The judge as it was written before the explicit stack: one Python
    frame per node, the same verdict table and skip maps."""

    @staticmethod
    def judge(word, position, phi):
        if position < 1:
            raise ValueError("positions are 1-based")
        return _Recursive._judge(word, position, phi, {})

    @staticmethod
    def _judge(word, position, phi, memo):
        j = _Recursive._judge
        if isinstance(phi, rt.Solved):
            return phi.value
        if isinstance(phi, rt.Not):
            return truth.neg(j(word, position, phi.body, memo))
        if isinstance(phi, rt.And):
            return truth.conj(j(word, position, phi.left, memo), j(word, position, phi.right, memo))
        if isinstance(phi, rt.Or):
            return truth.disj(j(word, position, phi.left, memo), j(word, position, phi.right, memo))
        if isinstance(phi, rt.Implies):
            return truth.implies(j(word, position, phi.left, memo), j(word, position, phi.right, memo))
        if isinstance(phi, rt.Next):
            return j(word, position + 1, phi.body, memo)
        if isinstance(phi, rt.Consume):
            if position <= len(word):
                value, time = word[position - 1]
                return j(word, position + 1, phi.consumer(value, time), memo)
            return truth.INCONCLUSIVE
        if isinstance(phi, rt.Timed):
            past = len(word) + 1
            window = range(min(position, past), min(position + phi.timeout, past + 1))
            if isinstance(phi, (rt.Until, rt.Release)):
                fold = WINDOW_FOLDS[type(phi).__name__]
                return fold(
                    window,
                    _Recursive._operand_at(word, phi.left, memo),
                    _Recursive._operand_at(word, phi.right, memo),
                )
            neutral = truth.FALSE if isinstance(phi, rt.Eventually) else truth.TRUE
            return _Recursive._skip_fold(word, window, phi.body, neutral, memo)
        raise rt.FormulaError(f"cannot judge {phi!r}")

    @staticmethod
    def _entry(memo, operand):
        entry = memo.get(id(operand))
        if entry is None:
            entry = memo[id(operand)] = (operand, {}, {})
        return entry

    @staticmethod
    def _operand_at(word, operand, memo):
        verdicts = _Recursive._entry(memo, operand)[1]

        def at(k):
            verdict = verdicts.get(k)
            if verdict is None:
                verdict = verdicts[k] = _Recursive._judge(word, k, operand, memo)
            return verdict

        return at

    @staticmethod
    def _skip_fold(word, window, operand, neutral, memo):
        _, verdicts, skips = _Recursive._entry(memo, operand)
        skip = skips.setdefault(neutral, {})
        result = neutral
        walked = []
        k, stop = window.start, window.stop
        while k < stop:
            j = skip.get(k)
            if j is not None:
                walked.append(k)
                k = j
                continue
            verdict = verdicts.get(k)
            if verdict is None:
                verdict = verdicts[k] = _Recursive._judge(word, k, operand, memo)
            if verdict is neutral:
                walked.append(k)
                k += 1
                continue
            for w in walked:
                skip[w] = k
            walked = []
            if verdict is not truth.INCONCLUSIVE:
                return verdict
            result = verdict
            k += 1
        for w in walked:
            skip[w] = k
        return result


class At(str):
    """A letter that knows its 1-based position in the word."""


def positioned(word):
    out = []
    for position, (letter, time) in enumerate(word, 1):
        at = At(letter)
        at.position = position
        out.append((at, time))
    return out


def recording(phi, calls):
    """A copy of ``phi`` whose consumers, and the consumers of every
    continuation they return, append ``(label, position)`` to ``calls``.
    Shared nodes stay shared; the originals are kept, which pins their ids."""
    copies = {}

    def copy(node):
        hit = copies.get(id(node))
        if hit is not None:
            return hit[1]
        kind = type(node)
        if kind is rt.Consume:
            def consumer(letter, time, inner=node.consumer, label=node.label):
                calls.append((label, letter.position))
                return copy(inner(letter, time))

            new = rt.Consume(consumer, node.static_depth, node.label)
        elif kind in (rt.Not, rt.Next):
            new = kind(copy(node.body))
        elif kind in (rt.And, rt.Or, rt.Implies):
            new = kind(copy(node.left), copy(node.right))
        elif kind in (rt.Eventually, rt.Always):
            new = kind(node.timeout, copy(node.body))
        elif kind in (rt.Until, rt.Release):
            new = kind(node.timeout, copy(node.left), copy(node.right))
        else:  # verdict leaves, and what no judge accepts
            new = node
        copies[id(node)] = (node, new)
        return new

    return copy(phi)


def assert_same_calls(word, phi):
    """Same verdict or exception, after the same consumer calls, at every position."""
    word = positioned(word)
    raised = 0
    for position in range(1, len(word) + 3):
        new_calls, old_calls = [], []
        got = outcome(semantics.judge, word, position, recording(phi, new_calls))
        expected = outcome(_Recursive.judge, word, position, recording(phi, old_calls))
        assert got == expected
        assert new_calls == old_calls
        raised += isinstance(expected, tuple)
    return raised


def nested_window_formula(rng, atoms):
    """Windows two and three deep directly over windows, over atoms that are
    ``?`` at ``b`` or, at ``b``, return the refusing atom judged one letter
    later; one inner window object may sit under two windows."""
    unknown_at_b = rt.now(
        lambda letter: truth.INCONCLUSIVE if letter == "b" else letter == "a", "a, ? at b"
    )
    c_after_b = rt.bind(
        lambda letter, _time: atoms["c"] if letter == "b" else rt.solved(truth.Verdict.from_bool(letter == "a")),
        label="a, or after b a c",
    )
    inner = rng.choice([unknown_at_b, c_after_b, rt.Or(unknown_at_b, atoms["c"]), atoms["a"]])
    for _ in range(rng.randint(1, 2)):
        inner = rng.choice((rt.Eventually, rt.Always))(rng.randint(1, 6), inner)

    def window():
        return rng.choice((rt.Eventually, rt.Always))(rng.randint(1, 6), inner)

    shapes = [window(), rt.Or(window(), window()), rt.Until(rng.randint(1, 6), inner, window())]
    return rng.choice(shapes)


def nested_window_word(rng):
    """Up to 16 letters: random, or ``a`` every few letters among ``b``."""
    if rng.random() < 0.5:
        return random_word(rng, max_len=16)
    length, period, phase = rng.randint(0, 16), rng.randint(2, 6), rng.randint(0, 5)
    return [("a" if (i - phase) % period == 0 else "b", i) for i in range(length)]


def test_nested_windows_agree_with_the_reference_at_every_position():
    raised = decided = 0
    atoms = refusing_atoms()
    for seed in range(200):
        rng = random.Random(seed)
        phi, word = nested_window_formula(rng, atoms), nested_window_word(rng)
        for position in range(1, len(word) + 3):
            expected = outcome(reference_judge, word, position, phi)
            assert outcome(semantics.judge, word, position, phi) == expected
            raised += isinstance(expected, tuple)
            decided += expected in (truth.TRUE, truth.FALSE)
    assert raised > 50 and decided > 500


CORPORA = {
    "shared-windows": lambda rng, atoms: (shared_window_formula(rng, atoms), random_word(rng)),
    "long-windows": lambda rng, atoms: (
        long_window_formula(rng, atoms),
        long_window_word(rng, rng.choice(("periodic", "never", "random"))),
    ),
    "dynamic": lambda rng, atoms: (
        random_runtime_formula(rng, depth=4, allow_dynamic=True, atoms=atoms),
        random_word(rng),
    ),
    "nested-windows": lambda rng, atoms: (nested_window_formula(rng, atoms), nested_window_word(rng)),
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_judge_makes_the_calls_of_the_recursive_judge(corpus):
    raised = 0
    atoms = refusing_atoms()
    for seed in range(300):
        phi, word = CORPORA[corpus](random.Random(seed), atoms)
        raised += assert_same_calls(word, phi)
    assert raised > 20


def test_a_subclass_of_a_node_type_is_foreign():
    class Later(rt.Eventually):
        __slots__ = ()

    class Atom(rt.Consume):
        __slots__ = ()

    class Both(rt.And):
        __slots__ = ()

    a = letter_is("a")
    for phi in (Later(3, a), Atom(lambda letter, time: rt.TOP, 1, "atom"), Both(a, a)):
        for formula in (phi, rt.Or(a, phi), rt.Always(2, rt.Next(phi))):
            with pytest.raises(rt.FormulaError, match="cannot judge"):
                semantics.models([("a", 0), ("b", 1)], formula)
