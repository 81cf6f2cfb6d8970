"""Formula-driven word generation and its validating relaxed judgment."""

import random

import pytest

from streamcheck import runtime as rt, symbolic as sym, truth, wordgen
from streamcheck.wordgen import GEN_ERR, generate_word, relaxed_judge

from corpus import INTERP, consume_eq, random_generatable_formula


def next_form(phi):
    return sym.next_form(phi, INTERP)


class TestGenerateWord:
    def test_tautology_generates_the_empty_word(self):
        assert generate_word(rt.TOP, INTERP, random.Random(0)) == []

    def test_next_then_consume(self):
        phi = sym.Next(consume_eq("x", "o", "a"))
        out = generate_word(phi, INTERP, random.Random(0))
        assert out == [frozenset(), frozenset({"a"})]

    def test_response_example_has_a_resolution_with_two_a_batches(self):
        phi = sym.always(
            2,
            sym.Implies(
                consume_eq("x", "o", "b"), sym.eventually(2, consume_eq("y", "p", "a"))
            ),
        )
        expanded = next_form(phi)
        outputs = set()
        for seed in range(60):
            out = generate_word(expanded, INTERP, random.Random(seed))
            assert out is not GEN_ERR
            outputs.add(tuple(out))
            assert relaxed_judge(phi, out + [frozenset()] * 4, INTERP) is truth.TRUE
        assert (frozenset({"a"}), frozenset({"a"})) in outputs

    def test_failed_equality_is_err(self):
        phi = sym.eq("a", "b")
        assert generate_word(phi, INTERP, random.Random(0)) is GEN_ERR

    def test_disjunction_backtracks_over_failing_branch(self):
        phi = sym.Or(sym.eq("a", "b"), consume_eq("x", "o", "c"))
        for seed in range(20):
            out = generate_word(phi, INTERP, random.Random(seed))
            assert out == [frozenset({"c"})]

    def test_consume_searches_the_witness_pool(self):
        # only 'c' admits a continuation; the consumed body starts one
        # instant later, so the nested next lands at the third position
        phi = sym.Consume(
            "x",
            "o",
            sym.And(sym.eq(sym.Var("x"), "c"), sym.Next(consume_eq("y", "p", "a"))),
        )
        for seed in range(10):
            out = generate_word(phi, INTERP, random.Random(seed))
            assert out == [frozenset({"c"}), frozenset(), frozenset({"a"})]
            assert relaxed_judge(phi, out, INTERP) is truth.TRUE

    def test_conjunction_of_two_consumes_unions_one_batch(self):
        phi = sym.And(consume_eq("x", "o", "a"), consume_eq("y", "p", "b"))
        out = generate_word(phi, INTERP, random.Random(0))
        assert out == [frozenset({"a", "b"})]

    def test_a_witness_whose_value_is_none_is_generated(self):
        interp = sym.Interpretation({"n": lambda: None}, constants=("n",))
        phi = sym.Next(consume_eq("x", "o", "n"))
        assert generate_word(phi, interp, random.Random(0)) == [frozenset(), frozenset({None})]

    def test_negation_is_rejected(self):
        with pytest.raises(wordgen.GeneratorFragmentError):
            generate_word(sym.Not(sym.eq("a", "a")), INTERP, random.Random(0))

    def test_false_is_rejected(self):
        with pytest.raises(wordgen.GeneratorFragmentError):
            generate_word(rt.BOTTOM, INTERP, random.Random(0))

    def test_non_true_leaves_are_rejected_by_name(self):
        with pytest.raises(wordgen.GeneratorFragmentError, match="^the false constant is not generatable$"):
            generate_word(sym.And(rt.TOP, rt.BOTTOM), INTERP, random.Random(0))
        with pytest.raises(wordgen.GeneratorFragmentError, match="inconclusive constant"):
            generate_word(rt.UNDECIDED, INTERP, random.Random(0))
        assert generate_word(sym.Next(rt.Solved(truth.TRUE)), INTERP, random.Random(0)) == [frozenset()]

    def test_time_variable_in_body_is_rejected(self):
        phi = sym.Consume("x", "o", sym.eq(sym.Var("o"), sym.Lit(0)))
        with pytest.raises(wordgen.GeneratorFragmentError):
            generate_word(phi, INTERP, random.Random(0))

    def test_temporal_formula_is_rejected(self):
        with pytest.raises(wordgen.GeneratorFragmentError):
            generate_word(sym.always(2, rt.TOP), INTERP, random.Random(0))

    def test_nesting_too_deep_to_generate_is_rejected(self):
        """``c`` is no witness, so each disjunction of the next form is
        tried; the generator recurses once per level, and past its limit
        that is a fragment error, not a ``RecursionError``."""
        interp = sym.Interpretation(INTERP.functions, constants=("a", "b"))
        phi = {n: sym.next_form(sym.eventually(n, consume_eq("x", "o", "c")), interp) for n in (400, 1000)}
        assert generate_word(phi[400], interp, random.Random(0)) is GEN_ERR
        with pytest.raises(wordgen.GeneratorFragmentError, match="^formula nested too deeply to generate$"):
            generate_word(phi[1000], interp, random.Random(0))


class TestRelaxedJudge:
    def test_containment_holds(self):
        phi = consume_eq("x", "o", "a")
        assert relaxed_judge(phi, [frozenset({"a", "b"})], INTERP) is truth.TRUE

    def test_empty_batch_fails(self):
        phi = consume_eq("x", "o", "a")
        assert relaxed_judge(phi, [frozenset()], INTERP) is truth.FALSE

    def test_plain_equalities_still_plain(self):
        phi = sym.eq("a", "a")
        assert relaxed_judge(phi, [frozenset()], INTERP) is truth.TRUE

    def test_batches_are_judged_at_times_zero_one_two(self):
        batches = [frozenset({"a"}), frozenset(), frozenset({"b"})]
        word = wordgen.as_batch_word(batches)
        assert [time for _, time in word] == [0, 1, 2]
        assert [letter.value for letter, _ in word] == batches


class TestGeneratedCorpus:
    def test_soundness_and_progress(self):
        """Generated words validate their source formula (soundness conjecture)
        and generation never errs on the jointly satisfiable fragment."""
        rng = random.Random(88)
        produced = 0
        for _ in range(300):
            phi = random_generatable_formula(rng, depth=4)
            expanded = next_form(phi)
            out = generate_word(expanded, INTERP, rng)
            assert out is not GEN_ERR  # progress
            produced += 1
            length = sym.symbolic_safe_word_length(phi, INTERP)
            padded = list(out) + [frozenset()] * max(0, length - len(out))
            assert relaxed_judge(phi, padded, INTERP) is truth.TRUE  # soundness
        assert produced == 300
