"""Exhaustive checks of the three-valued truth domain."""

import itertools

import pytest

from streamcheck.truth import (
    FALSE,
    INCONCLUSIVE,
    TRUE,
    Verdict,
    conj,
    disj,
    implies,
    neg,
)

from window_folds import conj_all, disj_any

ALL = (FALSE, INCONCLUSIVE, TRUE)
BOOLEANS = (FALSE, TRUE)


def reference_tables():
    """Independent oracle: meet/join from the numeric order, reflection for negation."""
    neg_table = {v: Verdict(2 - v.value) for v in ALL}
    conj_table = {(a, b): Verdict(min(a.value, b.value)) for a in ALL for b in ALL}
    disj_table = {(a, b): Verdict(max(a.value, b.value)) for a in ALL for b in ALL}
    implies_table = {
        (a, b): disj_table[(neg_table[a], b)] for a in ALL for b in ALL
    }
    return neg_table, conj_table, disj_table, implies_table


def test_connectives_match_reference_tables():
    neg_table, conj_table, disj_table, implies_table = reference_tables()
    for a in ALL:
        assert neg(a) is neg_table[a]
        for b in ALL:
            assert conj(a, b) is conj_table[(a, b)]
            assert disj(a, b) is disj_table[(a, b)]
            assert implies(a, b) is implies_table[(a, b)]


def test_specific_values():
    assert conj(TRUE, FALSE) is FALSE
    assert neg(INCONCLUSIVE) is INCONCLUSIVE
    # frozen from the reference table above
    assert implies(INCONCLUSIVE, TRUE) is TRUE


def test_boolean_restriction_is_classical():
    for a in BOOLEANS:
        assert neg(a) is (FALSE if a is TRUE else TRUE)
        for b in BOOLEANS:
            assert conj(a, b) is Verdict.from_bool((a is TRUE) and (b is TRUE))
            assert disj(a, b) is Verdict.from_bool((a is TRUE) or (b is TRUE))
            assert implies(a, b) is Verdict.from_bool((a is not TRUE) or (b is TRUE))


def test_lattice_algebra():
    for a, b in itertools.product(ALL, repeat=2):
        assert conj(a, b) is conj(b, a)
        assert disj(a, b) is disj(b, a)
    for a in ALL:
        assert conj(a, a) is a
        assert disj(a, a) is a
    for a, b, c in itertools.product(ALL, repeat=3):
        assert conj(conj(a, b), c) is conj(a, conj(b, c))
        assert disj(disj(a, b), c) is disj(a, disj(b, c))


def test_monotone_in_lattice_order():
    for a, b, c in itertools.product(ALL, repeat=3):
        if a.value <= b.value:
            assert conj(a, c).value <= conj(b, c).value
            assert disj(a, c).value <= disj(b, c).value


def test_de_morgan_duality():
    for a, b in itertools.product(ALL, repeat=2):
        assert neg(conj(a, b)) is disj(neg(a), neg(b))
        assert neg(disj(a, b)) is conj(neg(a), neg(b))


def test_folds_match_pairwise_reduction():
    for length in range(5):
        for values in itertools.product(ALL, repeat=length):
            meet, join = TRUE, FALSE
            for v in values:
                meet, join = conj(meet, v), disj(join, v)
            assert conj_all(values) is meet
            assert disj_any(values) is join


def test_folds_stop_at_the_absorbing_value():
    def then_raise(*values):
        yield from values
        raise AssertionError("consumed past the absorbing value")

    assert conj_all(then_raise(TRUE, INCONCLUSIVE, FALSE)) is FALSE
    assert disj_any(then_raise(FALSE, INCONCLUSIVE, TRUE)) is TRUE


def test_rendering_round_trip():
    assert [v.symbol for v in ALL] == ["F", "?", "T"]
    for v in ALL:
        assert Verdict.from_symbol(v.symbol) is v
    with pytest.raises(ValueError):
        Verdict.from_symbol("X")

