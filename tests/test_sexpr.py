"""S-expression syntax: parsing, formatting, and the bundled scenario corpus."""

import random
from importlib import resources

import pytest

from streamcheck import cli, runtime as rt, sexpr, symbolic as sym, truth, wordgen

from corpus import random_symbolic_formula


class TestParsing:
    def test_terms(self):
        assert sexpr.term_from_node(sexpr.parse_node("7")) == sym.Lit(7)
        assert sexpr.term_from_node(sexpr.parse_node("?x")) == sym.Var("x")
        assert sexpr.term_from_node(sexpr.parse_node("a")) == sym.App("a")
        assert sexpr.term_from_node(sexpr.parse_node("(plus ?o 6)")) == sym.App(
            "plus", (sym.Var("o"), sym.Lit(6))
        )

    def test_formula_with_all_operators(self):
        text = """
        ; a comment
        (until 3
          (consume ?x ?o (or (= ?x a) (not (p ?x 1))))
          (release 2 true (implies false (next (always (plus ?o 1) (= b b))))))
        """
        phi = sexpr.parse_formula(text)
        assert isinstance(phi, sym.Until)
        assert phi.timeout == sym.Lit(3)
        assert isinstance(phi.left, sym.Consume)

    def test_word(self):
        word = sexpr.word_from_node(sexpr.parse_node("(word (b 0) ((plus 1 2) 5))"))
        assert word == [(sym.App("b"), 0), (sym.App("plus", (sym.Lit(1), sym.Lit(2))), 5)]

    def test_errors(self):
        with pytest.raises(sexpr.SexprError):
            sexpr.parse_node("(a (b)")
        with pytest.raises(sexpr.SexprError):
            sexpr.parse_node("a b")
        with pytest.raises(sexpr.SexprError):
            sexpr.parse_formula("(not)")
        with pytest.raises(sexpr.SexprError):
            sexpr.parse_formula("(consume x ?o true)")

    def test_literals_are_natural_numbers(self):
        with pytest.raises(sexpr.SexprError, match="natural"):
            sexpr.parse_formula("(eventually -1 true)")
        assert sexpr.parse_formula("(eventually 0 true)") == sym.eventually(0, rt.TOP)

    def test_constants_are_the_runtime_verdict_leaves(self):
        assert sexpr.parse_formula("true") is rt.TOP
        assert sexpr.parse_formula("false") is rt.BOTTOM
        for text in ("true", "false", "(and true (not false))"):
            assert sexpr.format_formula(sexpr.parse_formula(text)) == text

    def test_the_inconclusive_leaf_has_no_syntax(self):
        with pytest.raises(sexpr.SexprError, match="cannot format formula"):
            sexpr.format_formula(rt.UNDECIDED)
        with pytest.raises(sexpr.SexprError, match="cannot format formula"):
            sexpr.format_formula(sym.Next(rt.UNDECIDED))

    def test_word_letters_are_closed_terms(self):
        with pytest.raises(sexpr.SexprError, match="closed term"):
            sexpr.word_from_node(sexpr.parse_node("(word (a 0) ((plus ?o 1) 5))"))

    @pytest.mark.parametrize("boundary", ["\r", "\f", "\v", "\x1c", "\x85", "\u2028"])
    def test_a_comment_ends_at_any_line_boundary(self, boundary):
        assert sexpr.parse_node(f"(p a ; c d{boundary} b)") == ["p", "a", "b"]

    def test_a_comment_may_follow_a_token_directly(self):
        assert sexpr.parse_node("(p a;c\n)") == ["p", "a"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of input"),
            (")", "unexpected '\\)'"),
            ("(a (b)", "unbalanced parenthesis"),
            ("a b", "trailing input after expression"),
        ],
    )
    def test_reader_errors(self, text, message):
        with pytest.raises(sexpr.SexprError, match=message):
            sexpr.parse_node(text)

    def test_deep_nesting_is_a_parse_error(self):
        deep = "(next " * 1200 + "true" + ")" * 1200
        with pytest.raises(sexpr.SexprError, match="nested too deeply"):
            sexpr.parse_formula(deep)


def test_format_parse_round_trip_on_corpus():
    rng = random.Random(15)
    for _ in range(300):
        phi = random_symbolic_formula(rng, depth=4)
        assert sexpr.parse_formula(sexpr.format_formula(phi)) == phi


def test_format_word_round_trip():
    word = [(sym.App("a"), 0), (sym.Lit(3), 7)]
    text = sexpr.format_word(word)
    assert sexpr.word_from_node(sexpr.parse_node(text)) == word


def corpus_files():
    root = resources.files("streamcheck") / "corpus"
    return sorted(p for p in root.iterdir() if p.name.endswith(".sexpr"))


# Scenarios whose consume witnesses cannot come from the constant pool, and
# the one whose timeout is computed from a consumed letter.
MAY_NOT_GENERATE = {"bound_pair_sum.sexpr", "bound_pair_sum_flipped.sexpr"}
NO_NEXT_FORM = {"timeout_bound_from_letter.sexpr"}


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_bundled_scenarios(path):
    """Every bundled scenario file evaluates to its recorded verdict, both
    stepwise and by direct judgment, and a word generated from its next form
    validates that next form."""
    formula, word, expected = sexpr.parse_scenario(path.read_text())
    interp = cli.default_interpretation(formula, word)
    assert sym.judge(word, 1, formula, interp) is expected
    monitor = rt.Monitor(sym.compile_formula(formula, interp))
    for term, time in word:
        if monitor.verdict is not None:
            break
        monitor.step(term, time)
    assert monitor.finish() is expected
    try:
        expanded = sym.next_form(formula, interp)
    except sym.OpenFormula:
        assert path.name in NO_NEXT_FORM
        return
    assert path.name not in NO_NEXT_FORM
    for seed in range(50):
        generated = wordgen.generate_word(expanded, interp, random.Random(seed))
        if generated is wordgen.GEN_ERR:
            assert path.name in MAY_NOT_GENERATE
        else:
            assert wordgen.relaxed_judge(expanded, generated, interp) is truth.TRUE


def test_corpus_has_twelve_scenarios():
    assert len(corpus_files()) == 12
