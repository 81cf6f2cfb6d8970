"""Executable example corpus: properties of small stream transformations.

Each example bundles a seeded input-prefix generator, a test subject and a
temporal formula, together with the outcome the property is expected to have
(the stateless banning subject is *supposed* to be refuted).  The CLI runs
them; the test suite pins their outcomes across seeds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from . import generators as gen
from . import harness
from .generators import Batch, EMPTY_BATCH, GenFn
from .harness import Transformation
from .runtime import (
    Always,
    And,
    Eventually,
    Formula,
    Implies,
    Next,
    Until,
    bind,
    make_eventually,
    mk_implies,
    now,
    solved,
)
from .truth import Verdict


@dataclass(frozen=True)
class ExampleSpec:
    """A bundled example: its name, expected outcome, case budget and builder."""

    name: str
    description: str
    expected: str  # "pass" or "fail"
    min_tests_ok: int
    build: Callable[[], Tuple[GenFn, Transformation, Formula]]


# ---------------------------------------------------------------------------
# User banning: ban every user that has ever been malicious.

BAD_ID = 15
BATCH_SIZE = 20
HEAD_TIMEOUT = 10
TAIL_TIMEOUT = 10
NESTED_TIMEOUT = 5


def _good_user(rng) -> Tuple[int, bool]:
    return (rng.randint(1, 50), True)


def banning_input_gen() -> GenFn:
    good_batch = gen.batch_of_n(BATCH_SIZE, _good_user)
    bad_batch = gen.batch_union(good_batch, gen.batch_of_n(1, gen.constant((BAD_ID, False))))
    return gen.concat(
        gen.until(good_batch, bad_batch, HEAD_TIMEOUT),
        gen.always(gen.one_of(good_batch, bad_batch), TAIL_TIMEOUT),
    )


def banning_stateful_subject() -> Transformation:
    """Remembers malicious users: once banned, banned forever."""
    ban_state = harness.stateful_by_key(
        False, lambda banned, honest_flags: banned or any(not h for h in honest_flags)
    )
    return ban_state.then(harness.filter_elements(lambda kv: kv[1])).then(
        harness.map_elements(lambda kv: kv[0])
    )


def banning_stateless_subject() -> Transformation:
    """Faulty: only reports users malicious in the current batch."""
    return harness.filter_elements(lambda e: not e[1]).then(harness.map_elements(lambda e: e[0]))


def banning_formula() -> Formula:
    all_good = now(lambda l: all(h for _i, h in l.input), "all_good_inputs")
    no_banned = now(lambda l: len(l.output) == 0, "no_id_banned")
    bad_banned = now(lambda l: BAD_ID in l.output, "bad_id_banned")
    bad_input = now(lambda l: (BAD_ID, False) in l.input, "bad_input")
    return And(
        Until(HEAD_TIMEOUT, And(all_good, no_banned), bad_banned),
        Always(TAIL_TIMEOUT, Implies(bad_input, Always(NESTED_TIMEOUT, bad_banned))),
    )


def _build_banning_stateful():
    return banning_input_gen(), banning_stateful_subject(), banning_formula()


def _build_banning_stateless():
    return banning_input_gen(), banning_stateless_subject(), banning_formula()


# ---------------------------------------------------------------------------
# Hashtag pipeline over a toy tweet type (a tweet is its text).

HASHTAG_RE = re.compile(r"#\S+")

_FILLER_WORDS = ("the", "quick", "brown", "fox", "jumps", "over", "a", "lazy", "dog")


def extract_hashtags(text: str) -> List[str]:
    """Maximal '#'-prefixed tokens of the text."""
    return HASHTAG_RE.findall(text)


def extract_hashtags_by_tokens(text: str) -> List[str]:
    """Reference extractor: whitespace tokens starting with '#'."""
    return [token for token in text.split() if token.startswith("#")]


def make_tweet(rng, tag: str) -> str:
    words = [rng.choice(_FILLER_WORDS) for _ in range(rng.randint(0, 2))] + [tag]
    rng.shuffle(words)
    return " ".join(words)


def tweet_with_tag(pool: Tuple[str, ...]) -> GenFn:
    return lambda rng: make_tweet(rng, rng.choice(pool))


def random_hashtag(rng) -> str:
    return "#" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 8)))


def tweet_with_random_tag(rng) -> str:
    return make_tweet(rng, random_hashtag(rng))


def hashtag_counts_subject(window_size: int) -> Transformation:
    """Tweets to (hashtag, count-in-window) pairs; only present tags appear."""
    return (
        harness.flat_map(extract_hashtags)
        .then(harness.window(window_size))
        .then(harness.count_by_value())
    )


def hashtag_counts_with_zeros_subject(window_size: int) -> Transformation:
    """Windowed counts that keep reporting 0 for tags that left the window."""
    return hashtag_counts_subject(window_size).then(
        harness.stateful_by_key(0, lambda _old, counts: counts[-1] if counts else 0)
    )


def _top_one(batch: Batch) -> List[str]:
    if not batch:
        return []
    best = max(count for _tag, count in batch)
    return [min(tag for tag, count in batch if count == best)]


def top_hashtag_subject(window_size: int) -> Transformation:
    """Single most frequent hashtag in the window (ties: lexicographic)."""
    return hashtag_counts_subject(window_size).then(harness.map_batch(_top_one))


def _batch_tags(batch: Batch) -> List[str]:
    return [tag for tweet in batch for tag in extract_hashtags(tweet)]


# -- Hashtags are extracted correctly ---------------------------------------

_TAG_POOL = ("#alpha", "#beta", "#gamma")


def _build_hashtags_extracted():
    prefix_gen = gen.always(gen.batch_of_n_to_m(5, 10, tweet_with_tag(_TAG_POOL)), 5)
    subject = harness.flat_map(extract_hashtags)
    formula = Always(
        5,
        now(
            lambda l: len(l.output) > 0 and all(tag in _TAG_POOL for tag in l.output),
            "all_tags_from_pool",
        ),
    )
    return prefix_gen, subject, formula


# -- Hashtags are counted correctly, and counts decay with the window -------

COUNT_WINDOW = 3
ALPHA_TIMEOUT = COUNT_WINDOW * 4
BETA_TIMEOUT = COUNT_WINDOW * 2
ALPHA_BATCH_SIZE = 2
BETA_BATCH_SIZE = 1


def counted_hashtags_gen() -> GenFn:
    alpha = gen.batch_of_n(ALPHA_BATCH_SIZE, tweet_with_tag(("#alpha",)))
    beta = gen.batch_of_n(BETA_BATCH_SIZE, tweet_with_tag(("#beta",)))
    return gen.concat(gen.always(alpha, ALPHA_TIMEOUT), gen.always(beta, BETA_TIMEOUT))


def _count_atom(tag: str, n: int) -> Formula:
    return now(lambda l: (tag, n) in l.output, f"count[{tag}]=={n}")


def _build_hashtags_counted():
    prefix_gen = counted_hashtags_gen()
    subject = hashtag_counts_with_zeros_subject(COUNT_WINDOW)
    full = ALPHA_BATCH_SIZE * COUNT_WINDOW  # 6 once the window is saturated
    reach_full_then_hold = Eventually(
        COUNT_WINDOW + 1, Always(ALPHA_TIMEOUT - 2, _count_atom("#alpha", full))
    )
    beta_reaches_full = Eventually(
        ALPHA_TIMEOUT + COUNT_WINDOW + 1,
        _count_atom("#beta", BETA_BATCH_SIZE * COUNT_WINDOW),
    )
    decay = And(
        _count_atom("#alpha", full - ALPHA_BATCH_SIZE),
        And(
            Next(_count_atom("#alpha", full - 2 * ALPHA_BATCH_SIZE)),
            Next(Next(_count_atom("#alpha", 0))),
        ),
    )
    hold_until_decay = Eventually(
        COUNT_WINDOW + 1, Until(ALPHA_TIMEOUT - 2, _count_atom("#alpha", full), decay)
    )
    formula = And(reach_full_then_hold, And(beta_reaches_full, hold_until_decay))
    return prefix_gen, subject, formula


# -- The top hashtag shifts when another tag becomes more frequent ----------

TOP_SHIFT_TIMEOUT = 6


def _build_top_hashtag_shift():
    alpha_popular = gen.batch_union(
        gen.batch_of_n(5, tweet_with_tag(("#alpha",))),
        gen.batch_of_n(2, tweet_with_tag(("#gamma",))),
    )
    beta_popular = gen.batch_union(
        gen.batch_of_n(7, tweet_with_tag(("#beta",))),
        gen.batch_of_n(2, tweet_with_tag(("#gamma",))),
    )
    prefix_gen = gen.until(alpha_popular, beta_popular, TOP_SHIFT_TIMEOUT)
    subject = top_hashtag_subject(1)
    formula = Until(
        TOP_SHIFT_TIMEOUT,
        now(lambda l: all(tag == "#alpha" for tag in l.output), "top_is_alpha"),
        now(lambda l: all(tag == "#beta" for tag in l.output), "top_is_beta"),
    )
    return prefix_gen, subject, formula


# -- There is always exactly one top hashtag --------------------------------


def _build_top_hashtag_unique():
    prefix_gen = gen.always(gen.batch_of_n_to_m(5, 10, tweet_with_random_tag), 5)
    subject = top_hashtag_subject(2)
    formula = Always(5, now(lambda l: len(l.output) == 1, "single_top"))
    return prefix_gen, subject, formula


# -- Liveness: every batch's tags eventually count zero ---------------------

DRAIN_WINDOW = 4
DRAIN_BATCHES = DRAIN_WINDOW * 4


def _pooled_tweet_batch(rng) -> Batch:
    pool = [random_hashtag(rng) for _ in range(6)]
    return Batch(make_tweet(rng, rng.choice(pool)) for _ in range(rng.randint(5, 10)))


def _build_counts_drain_to_zero():
    prefix_gen = gen.concat(
        gen.always(_pooled_tweet_batch, DRAIN_BATCHES),
        gen.always(gen.constant(EMPTY_BATCH), DRAIN_WINDOW * 2),
    )
    subject = hashtag_counts_subject(DRAIN_WINDOW)

    def after_consuming(letter, _time) -> Formula:
        tags = frozenset(_batch_tags(letter.input))
        return make_eventually(
            DRAIN_WINDOW * 3,
            now(
                lambda l: all(count == 0 for tag, count in l.output if tag in tags),
                "letter_tags_count_zero",
            ),
        )

    formula = Always(DRAIN_BATCHES, bind(after_consuming, label="capture_batch_tags"))
    return prefix_gen, subject, formula


# -- Liveness: a sudden peak eventually becomes the top hashtag -------------

PEAK_WINDOW = 2
PEAK_SIDES = PEAK_WINDOW * 2
PEAK_BLOCK = PEAK_SIDES + 1 + PEAK_SIDES
PEAK_SIZE = 20
PEAK_REPEATS = 6


def _peak_batch(rng) -> Batch:
    tag = random_hashtag(rng)
    return Batch(make_tweet(rng, tag) for _ in range(PEAK_SIZE))


def _build_peak_implies_top():
    noise = gen.always(gen.batch_of_n_to_m(5, 10, tweet_with_random_tag), PEAK_BLOCK)
    spike = gen.concat(
        gen.always(gen.constant(EMPTY_BATCH), PEAK_SIDES),
        gen.concat(
            gen.always(_peak_batch, 1),
            gen.always(gen.constant(EMPTY_BATCH), PEAK_SIDES),
        ),
    )
    prefix_gen = gen.repeat_concat(gen.superpose(noise, spike), PEAK_REPEATS)
    subject = top_hashtag_subject(PEAK_WINDOW)

    def after_consuming(letter, _time) -> Formula:
        tally: Dict[str, int] = {}
        for tag in _batch_tags(letter.input):
            tally[tag] = tally.get(tag, 0) + 1
        peak_tags = frozenset(tag for tag, count in tally.items() if count >= PEAK_SIZE)
        is_peak = solved(Verdict.from_bool(bool(peak_tags)))
        becomes_top = make_eventually(
            PEAK_BLOCK,
            now(lambda l: frozenset(l.output) == peak_tags, "top_equals_peak"),
        )
        return mk_implies(is_peak, becomes_top)

    formula = Always(PEAK_BLOCK * 3, bind(after_consuming, label="detect_peak"))
    return prefix_gen, subject, formula


# ---------------------------------------------------------------------------

EXAMPLES: Dict[str, ExampleSpec] = {
    spec.name: spec
    for spec in (
        ExampleSpec(
            "banning-stateless",
            "faulty banning subject that forgets past offenders; expected to be refuted",
            "fail",
            20,
            _build_banning_stateless,
        ),
        ExampleSpec(
            "banning-stateful",
            "correct banning subject that remembers offenders across instants",
            "pass",
            20,
            _build_banning_stateful,
        ),
        ExampleSpec(
            "hashtags-extracted",
            "every extracted hashtag comes from the generating pool",
            "pass",
            10,
            _build_hashtags_extracted,
        ),
        ExampleSpec(
            "hashtags-counted",
            "windowed counts saturate, then decay with the sliding window",
            "pass",
            10,
            _build_hashtags_counted,
        ),
        ExampleSpec(
            "top-hashtag-shift",
            "the top hashtag is replaced once another tag dominates",
            "pass",
            10,
            _build_top_hashtag_shift,
        ),
        ExampleSpec(
            "top-hashtag-unique",
            "there is always exactly one top hashtag",
            "pass",
            10,
            _build_top_hashtag_unique,
        ),
        ExampleSpec(
            "counts-drain-to-zero",
            "liveness: the tags of every batch eventually count zero",
            "pass",
            10,
            _build_counts_drain_to_zero,
        ),
        ExampleSpec(
            "peak-implies-top",
            "liveness: a burst of one tag eventually tops the ranking",
            "pass",
            10,
            _build_peak_implies_top,
        ),
    )
}


def run_example(spec: ExampleSpec, cfg: harness.HarnessConfig) -> harness.PropertyReport:
    prefix_gen, subject, formula = spec.build()
    return harness.for_all_stream(prefix_gen, subject, formula, cfg, property_name=spec.name)


def observed_outcome(report: harness.PropertyReport) -> str:
    if report.errors:
        return "error"
    return "fail" if report.failed else "pass"
