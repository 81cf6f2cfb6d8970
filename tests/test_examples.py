"""Bundled example corpus: outcomes are stable across seeds."""

import hashlib
import json
import random

import pytest

from streamcheck import examples, harness
from streamcheck import runtime as rt
from streamcheck.examples import EXAMPLES, observed_outcome, run_example
from streamcheck.generators import Batch, StreamPrefix
from streamcheck.harness import HarnessConfig

SEEDS = [42, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_eight_examples_bundled():
    assert len(EXAMPLES) == 8
    assert set(e.expected for e in EXAMPLES.values()) == {"pass", "fail"}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_outcomes_across_seeds(name, seed):
    spec = EXAMPLES[name]
    cfg = HarnessConfig(min_tests_ok=spec.min_tests_ok, seed=seed)
    report = run_example(spec, cfg)
    assert observed_outcome(report) == spec.expected


def test_examples_survive_oracle_crosscheck():
    for name, spec in EXAMPLES.items():
        cfg = HarnessConfig(min_tests_ok=5, seed=42, oracle_crosscheck=True)
        run_example(spec, cfg)  # OracleMismatch would raise


SAFE_LENGTHS = {
    "banning-stateless": 14,
    "banning-stateful": 14,
    "hashtags-extracted": 5,
    "hashtags-counted": 16,
    "top-hashtag-shift": 6,
    "top-hashtag-unique": 5,
    "counts-drain-to-zero": None,  # a dynamic consumer
    "peak-implies-top": None,  # a dynamic consumer
}


def test_example_safe_lengths_pinned():
    assert set(SAFE_LENGTHS) == set(EXAMPLES)
    for name, expected in SAFE_LENGTHS.items():
        _gen, _subject, formula = EXAMPLES[name].build()
        if expected is None:
            with pytest.raises(rt.SafeLengthUndefined):
                rt.safe_word_length(formula)
        else:
            assert rt.safe_word_length(formula) == expected, name


@pytest.mark.parametrize("name", ["hashtags-extracted", "hashtags-counted", "top-hashtag-unique"])
def test_prefixes_reaching_the_safe_length_decide_every_case(name):
    """Every prefix of these examples is at least the formula's safe length
    long, so no case is left inconclusive."""
    spec = EXAMPLES[name]
    prefix_gen, _subject, formula = spec.build()
    shortest = min(len(prefix_gen(random.Random(seed))) for seed in range(50))
    assert shortest >= rt.safe_word_length(formula)
    for seed in range(20):
        report = run_example(spec, HarnessConfig(min_tests_ok=spec.min_tests_ok, seed=seed))
        assert report.inconclusive == 0, (name, seed)


class TestHashtagExtraction:
    def test_maximal_hash_tokens(self):
        text = "the #alpha fox #beta-x jumps"
        assert examples.extract_hashtags(text) == ["#alpha", "#beta-x"]

    def test_reference_extractor_agrees_on_generated_tweets(self):
        """Regex and token-split extraction coincide on the tweet corpus."""
        rng = random.Random(6)
        for _ in range(500):
            tag = examples.random_hashtag(rng)
            tweet = examples.make_tweet(rng, tag)
            regex = examples.extract_hashtags(tweet)
            tokens = examples.extract_hashtags_by_tokens(tweet)
            assert set(regex) == set(tokens) == {tag}


class TestBanningSubjects:
    def _stateless_outputs(self, prefix):
        subject = examples.banning_stateless_subject()
        state = subject.initial
        outs = []
        for batch in prefix:
            state, out = subject.step(state, batch, 0)
            outs.append(out)
        return outs

    def test_stateless_forgets_on_later_good_batch(self):
        """Hand-simulated three-batch prefix: the bad id disappears from the
        output as soon as the offending batch has passed."""
        good = Batch([(1, True), (2, True)])
        bad = Batch([(1, True), (15, False)])
        outs = self._stateless_outputs(StreamPrefix([good, bad, good]))
        assert outs == [Batch(), Batch([15]), Batch()]

    def test_stateful_keeps_banning(self):
        subject = examples.banning_stateful_subject()
        state = subject.initial
        good = Batch([(1, True)])
        bad = Batch([(15, False)])
        banned = []
        for batch in (good, bad, good, good):
            state, out = subject.step(state, batch, 0)
            banned.append(out)
        assert banned[0] == Batch()
        assert all(15 in out for out in banned[1:])


def test_stateless_counterexample_has_early_bad_batch():
    spec = EXAMPLES["banning-stateless"]
    for seed in SEEDS:
        report = run_example(spec, HarnessConfig(min_tests_ok=20, seed=seed))
        assert report.failed == 1
        cex = report.counterexample
        assert cex is not None
        first_ten = cex.prefix[: examples.HEAD_TIMEOUT]
        assert any((examples.BAD_ID, False) in batch for batch in first_ten)


# Per seed: failing step, prefix length (batches) and a digest of the report
# with the counterexample trace ``size`` fields removed.  Trace sizes are the
# residual formula sizes, which merging obligations shrinks; everything else
# in the report is pinned here.
STATELESS_REPORTS = {
    0: (5, 14, "d72d7324485b3f83"),
    1: (13, 18, "564eec82337f271e"),
    2: (8, 16, "38499309e9d3c80e"),
    3: (8, 15, "5072c3796b0e4d41"),
    4: (10, 18, "7f0d05368d2940aa"),
    5: (9, 18, "68e74122d46fcc72"),
    6: (4, 12, "f4bc3abafe776a1f"),
    7: (4, 12, "a56c6c34eed6185c"),
    8: (9, 13, "763871e7874b4268"),
    9: (6, 14, "598ab5f6fafe4485"),
}


@pytest.mark.parametrize("seed", sorted(STATELESS_REPORTS))
def test_stateless_reports_pinned_apart_from_trace_sizes(seed):
    spec = EXAMPLES["banning-stateless"]
    report = harness.report_to_dict(run_example(spec, HarnessConfig(min_tests_ok=20, seed=seed)))
    cex = report["counterexample"]
    for entry in cex["trace"]:
        del entry["size"]
    counts = tuple(report[k] for k in ("cases", "failed", "inconclusive", "passed", "errors"))
    assert counts == (1, 1, 0, 0, 0)
    assert cex["trace"][-1]["verdict"] == "F"
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
    assert (cex["failing_step"], len(cex["prefix"]), digest) == STATELESS_REPORTS[seed]


# Per example: a digest of the JSON reports at every seed in SEEDS, in that
# order, taken before prefixes were pulled on demand.  Pulling only the
# batches the monitor reads must not change a byte of any report, including
# the full prefix a counterexample carries.
EXAMPLE_REPORTS = {
    "banning-stateful": "4121155f2203a728",
    "banning-stateless": "021ef11624806158",
    "counts-drain-to-zero": "cdb8f1fa41879f9a",
    "hashtags-counted": "a4f3eef32d05b536",
    "hashtags-extracted": "17b8452052283285",
    "peak-implies-top": "7f85482936b2188c",
    "top-hashtag-shift": "4384ef3c2a6e8083",
    "top-hashtag-unique": "2aec2a1d02a39f12",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_REPORTS))
def test_example_reports_pinned(name):
    spec = EXAMPLES[name]
    digest = hashlib.sha256()
    for seed in sorted(SEEDS):
        cfg = HarnessConfig(min_tests_ok=spec.min_tests_ok, seed=seed)
        digest.update(harness.report_to_json(run_example(spec, cfg)).encode() + b"\n")
    assert digest.hexdigest()[:16] == EXAMPLE_REPORTS[name]


# SHA-256 of the JSON reports of every example at seeds 0-19, oracle off and
# then on, one report per line.  A change to the monitor, the reference
# judgment or the harness that is meant to keep behaviour must keep every
# byte of every report, so it must keep this digest.
GOLDEN_REPORTS = "657e527d5aceda61407b754f40ac3464b74ddbd50a6f96269223926f4f7aab12"


def test_golden_report_digest():
    digest = hashlib.sha256()
    for oracle in (False, True):
        for name in sorted(EXAMPLES):
            spec = EXAMPLES[name]
            for seed in range(20):
                cfg = HarnessConfig(
                    min_tests_ok=spec.min_tests_ok, seed=seed, oracle_crosscheck=oracle
                )
                digest.update(harness.report_to_json(run_example(spec, cfg)).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_REPORTS


def test_counted_hashtags_window_decay():
    """The saturated count decays stepwise as the window slides past."""
    spec = EXAMPLES["hashtags-counted"]
    prefix_gen, subject, _formula = spec.build()
    prefix = prefix_gen(random.Random(42))
    state = subject.initial
    alpha_series = []
    for i, batch in enumerate(prefix, 1):
        state, out = subject.step(state, batch, i * 100)
        alpha_series.append(dict(out).get("#alpha"))
    assert alpha_series[:2] == [2, 4]
    assert alpha_series[2:12] == [6] * 10
    assert alpha_series[12:15] == [4, 2, 0]


def test_run_example_report_is_deterministic():
    spec = EXAMPLES["banning-stateful"]
    cfg = HarnessConfig(min_tests_ok=20, seed=11)
    first = run_example(spec, cfg)
    second = run_example(spec, cfg)
    assert harness.report_to_json(first) == harness.report_to_json(second)
