"""Stream simulator: transformations, test-case runs, property reports."""

import dataclasses
import random
import threading

import pytest

from streamcheck import generators as gen
from streamcheck import harness, runtime as rt, semantics, truth
from streamcheck.generators import Batch, StreamPrefix
from streamcheck.harness import (
    GeneratorError,
    HarnessConfig,
    IoLetter,
    OracleMismatch,
    PredicateError,
    TransformationError,
    for_all_stream,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
    run_test_case,
    time_of,
)

from corpus import random_runtime_formula

CFG = HarnessConfig(batch_interval_ms=100, min_tests_ok=5, seed=3)


def prefix_of(*batches):
    return StreamPrefix(Batch(b) for b in batches)


class TestTimeOf:
    def test_first_instant_is_start(self):
        assert time_of(1, CFG) == 0

    def test_fourth_instant(self):
        assert time_of(4, CFG) == 300

    def test_strictly_monotone_by_interval(self):
        times = [time_of(i, CFG) for i in range(1, 20)]
        assert all(b - a == 100 for a, b in zip(times, times[1:]))

    def test_instants_are_one_based(self):
        with pytest.raises(ValueError):
            time_of(0, CFG)


class TestConfigValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            HarnessConfig(batch_interval_ms=0)
        with pytest.raises(ValueError):
            HarnessConfig(min_tests_ok=0)
        with pytest.raises(ValueError):
            HarnessConfig(parallelism=0)
        with pytest.raises(ValueError):
            HarnessConfig(start_time_ms=-1)

    @pytest.mark.parametrize(
        "field", ["batch_interval_ms", "start_time_ms", "min_tests_ok", "parallelism"]
    )
    def test_rejects_booleans_and_non_integers(self, field):
        for bad in (True, False, 2.5, 1.0, "3", None):
            with pytest.raises(ValueError, match=f"^{field} must be a .* integer"):
                HarnessConfig(**{field: bad})
        assert getattr(HarnessConfig(**{field: 1}), field) == 1

    def test_seed_is_any_integer(self):
        # ``True == 1``, yet the two seeds draw different cases.
        for bad in (True, 1.5, "1"):
            with pytest.raises(ValueError, match="^seed must be an integer, got "):
                HarnessConfig(seed=bad)
        assert [HarnessConfig(seed=seed).seed for seed in (0, -3)] == [0, -3]

    def test_oracle_crosscheck_is_a_bool(self):
        # The cross-check is switched by truthiness, so ``"no"`` would turn it on.
        for bad in ("no", 1, 0, None):
            with pytest.raises(ValueError, match="^oracle_crosscheck must be a bool, got "):
                HarnessConfig(oracle_crosscheck=bad)
        for on in (True, False):
            assert HarnessConfig(oracle_crosscheck=on).oracle_crosscheck is on


class TestTransformations:
    def test_map_filter_flat_map_are_per_batch(self):
        subject = (
            harness.map_elements(lambda x: x + 1)
            .then(harness.filter_elements(lambda x: x % 2 == 0))
            .then(harness.flat_map(lambda x: (x, x)))
        )
        state = subject.initial
        state, out = subject.step(state, Batch([1, 2, 3]), 0)
        assert out == Batch([2, 2, 4, 4])

    def test_window_concatenates_recent_batches(self):
        subject = harness.window(3)
        state = subject.initial
        seen = []
        for i, batch in enumerate([Batch("a"), Batch("b"), Batch("c"), Batch("d")]):
            state, out = subject.step(state, batch, i * 100)
            seen.append("".join(out))
        assert seen == ["a", "ab", "abc", "bcd"]

    def test_window_one_is_identity(self):
        subject = harness.window(1)
        state = subject.initial
        for batch in [Batch([1, 2]), Batch([3])]:
            state, out = subject.step(state, batch, 0)
            assert out == batch

    @pytest.mark.parametrize("length", [0, True, 2.5])
    def test_window_length_is_checked_when_built(self, length):
        with pytest.raises(ValueError, match="^window length must be a positive integer"):
            harness.window(length)

    def test_count_by_value_first_seen_order(self):
        subject = harness.count_by_value()
        _, out = subject.step(subject.initial, Batch(["x", "y", "x", "x"]), 0)
        assert out == Batch([("x", 3), ("y", 1)])

    def test_reduce_by_key(self):
        subject = harness.reduce_by_key(lambda a, b: a + b)
        _, out = subject.step(subject.initial, Batch([("k", 1), ("j", 5), ("k", 2)]), 0)
        assert out == Batch([("k", 3), ("j", 5)])

    def test_stateful_by_key_runs_update_for_silent_keys(self):
        subject = harness.stateful_by_key(0, lambda old, values: old + len(values))
        state = subject.initial
        state, out1 = subject.step(state, Batch([("a", "x"), ("a", "y")]), 0)
        state, out2 = subject.step(state, Batch([("b", "z")]), 100)
        assert out1 == Batch([("a", 2)])
        assert out2 == Batch([("a", 2), ("b", 1)])

    def test_stateful_banning_remembers(self):
        subject = harness.stateful_by_key(
            False, lambda banned, flags: banned or any(not f for f in flags)
        )
        state = subject.initial
        state, out1 = subject.step(state, Batch([(15, False), (3, True)]), 0)
        state, out2 = subject.step(state, Batch([(3, True)]), 100)
        assert dict(out1) == {15: True, 3: False}
        # 15 had no new input in the second batch but stays banned
        assert dict(out2) == {15: True, 3: False}

    def test_synchrony_one_output_batch_per_input(self):
        subjects = [
            harness.map_elements(str),
            harness.window(4),
            harness.count_by_value(),
            harness.map_elements(lambda x: (x, x)).then(
                harness.stateful_by_key(0, lambda s, v: s + len(v))
            ),
            harness.window(2).then(harness.count_by_value()),
        ]
        rng = random.Random(0)
        prefix = prefix_of(*[[rng.randint(0, 3)] * rng.randint(0, 4) for _ in range(7)])
        for subject in subjects:
            state = subject.initial
            outputs = []
            for i, batch in enumerate(prefix, 1):
                state, out = subject.step(state, batch, time_of(i, CFG))
                outputs.append(out)
            assert len(outputs) == len(prefix)


class TestRunTestCase:
    def test_solved_formula_needs_no_steps(self):
        verdict, trace = run_test_case(
            prefix_of([1], [2]), harness.map_elements(str), rt.TOP, CFG
        )
        assert verdict is truth.TRUE
        assert trace == ()

    def test_letters_carry_input_output_and_time(self):
        seen = []
        probe = rt.now(lambda letter: seen.append(letter) or True, "probe")
        run_test_case(prefix_of([1]), harness.map_elements(lambda x: x * 2), rt.Always(1, probe), CFG)
        assert seen == [IoLetter(Batch([1]), Batch([2]), 0)]

    def test_early_stop_is_sound_against_reference(self):
        rng = random.Random(44)
        cfg = HarnessConfig(oracle_crosscheck=True)
        subject = harness.window(2).then(harness.count_by_value())
        for _ in range(300):
            body = random_runtime_formula(rng, depth=3)
            prefix = prefix_of(
                *[[rng.choice("ab")] * rng.randint(0, 2) for _ in range(rng.randint(0, 6))]
            )
            # crosscheck raises if the reference disagrees on the consumed word
            verdict, _trace = run_test_case(prefix, subject, body, cfg)
            state, word = subject.initial, []
            for i, batch in enumerate(prefix, 1):
                t = time_of(i, cfg)
                state, out = subject.step(state, batch, t)
                word.append((IoLetter(batch, out, t), t))
            assert verdict is semantics.models(word, body)

    def test_transformation_errors_are_wrapped(self):
        def boom(_e):
            raise RuntimeError("bad subject")

        # An output that is no batch is the subject's error too.
        not_a_batch = harness.Transformation(None, lambda state, _batch, _t: (state, 7))
        for subject in (harness.map_elements(boom), not_a_batch):
            with pytest.raises(TransformationError, match="step 1"):
                run_test_case(
                    prefix_of([1]),
                    subject,
                    rt.Always(2, rt.now(lambda l: True)),
                    CFG,
                )

    def test_predicate_errors_are_wrapped(self):
        calls = []

        def fails_second(_letter):
            calls.append(1)
            return 1 / (2 - len(calls))

        with pytest.raises(PredicateError, match="step 2: ZeroDivisionError"):
            run_test_case(
                prefix_of([1], [2], [3]),
                harness.map_elements(str),
                rt.Always(3, rt.now(fails_second)),
                CFG,
            )


def output_nonempty():
    return rt.now(lambda letter: len(letter.output) > 0, "output_nonempty")


class TestForAllStream:
    def test_reaches_min_tests_ok(self):
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 3)
        report = for_all_stream(
            prefixes, harness.map_elements(str), rt.Always(3, output_nonempty()), CFG
        )
        assert report.ok()
        assert report.passed + report.inconclusive == CFG.min_tests_ok
        assert report.cases == CFG.min_tests_ok

    def test_empty_prefixes_are_inconclusive(self):
        empty = gen.constant(StreamPrefix())
        report = for_all_stream(
            empty, harness.map_elements(str), rt.Always(2, output_nonempty()), CFG
        )
        assert report.inconclusive == CFG.min_tests_ok
        assert report.passed == 0 and report.failed == 0

    def test_a_window_longer_than_the_prefixes_is_inconclusive(self):
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 5)
        report = for_all_stream(
            prefixes, harness.map_elements(str), rt.Always(500, output_nonempty()), CFG
        )
        assert report.inconclusive == CFG.min_tests_ok
        assert report.errors == 0 and report.failed == 0

    def test_counterexample_stops_the_run(self):
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 4)
        report = for_all_stream(
            prefixes,
            harness.filter_elements(lambda x: False),
            rt.Always(4, output_nonempty()),
            CFG,
        )
        assert report.failed == 1
        assert report.cases == 1
        assert report.counterexample is not None
        assert report.counterexample.case_index == 1
        assert report.counterexample.failing_step == 1

    def test_errors_use_their_own_bucket(self):
        def boom(_e):
            raise ValueError("nope")

        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 2)
        report = for_all_stream(
            prefixes, harness.map_elements(boom), rt.Always(2, output_nonempty()), CFG
        )
        assert report.errors == 1 and report.failed == 0
        assert "case 1" in report.error_message

    def test_predicate_errors_use_the_errors_bucket(self):
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 3)
        report = for_all_stream(
            prefixes, harness.map_elements(str), rt.Always(3, rt.now(lambda l: 1 / 0)), CFG
        )
        assert report.errors == 1 and report.failed == 0 and report.cases == 1
        assert report.error_message.startswith("case 1: predicate failed at step 1")
        assert "ZeroDivisionError" in report.error_message

    def test_a_predicate_only_the_oracle_calls_uses_the_errors_bucket(self):
        """The monitor decides each ``Or`` from ``p`` and never fires ``q``;
        the reference judges both operands, so ``q`` raises there only."""
        p = rt.now(lambda l: True, "p")
        q = rt.now(lambda l: 1 / 0, "q")
        phi = rt.Always(3, rt.Or(p, rt.Next(q)))
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 3)
        quiet = for_all_stream(prefixes, harness.map_elements(str), phi, CFG)
        assert quiet.ok() and quiet.passed == CFG.min_tests_ok
        oracle = dataclasses.replace(CFG, oracle_crosscheck=True)
        report = for_all_stream(prefixes, harness.map_elements(str), phi, oracle)
        assert report.errors == 1 and report.failed == 0 and report.cases == 1
        assert report.error_message.startswith("case 1: predicate failed at step 3")
        assert "ZeroDivisionError" in report.error_message

    def test_oracle_mismatch_is_not_a_case_error(self, monkeypatch):
        class WrongReference:
            @staticmethod
            def models(_word, _phi):
                return truth.FALSE

        monkeypatch.setattr(harness, "semantics", WrongReference)
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 2)
        with pytest.raises(OracleMismatch):
            for_all_stream(
                prefixes,
                harness.map_elements(str),
                rt.Always(2, output_nonempty()),
                HarnessConfig(min_tests_ok=3, oracle_crosscheck=True),
            )

    def test_oracle_mismatch_names_its_case(self, monkeypatch):
        class RefutesCaseTwo:
            calls = 0

            @classmethod
            def models(cls, _word, _phi):
                cls.calls += 1
                return truth.FALSE if cls.calls == 2 else truth.TRUE

        monkeypatch.setattr(harness, "semantics", RefutesCaseTwo)
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 2)
        with pytest.raises(OracleMismatch, match=r"^case 2: stepwise verdict T != reference F$"):
            for_all_stream(
                prefixes,
                harness.map_elements(str),
                rt.Always(2, output_nonempty()),
                HarnessConfig(min_tests_ok=3, oracle_crosscheck=True),
            )

    def test_oracle_does_not_change_the_outcome(self):
        """The subject raises only at step 2, past where the formula is decided."""

        def fails_at_second_instant(state, batch, time_ms):
            if time_ms == 100:
                raise RuntimeError("second instant")
            return state, batch

        subject = harness.Transformation(None, fails_at_second_instant)
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 3)
        formula = rt.Always(1, output_nonempty())
        plain = for_all_stream(prefixes, subject, formula, HarnessConfig(min_tests_ok=3))
        checked = for_all_stream(
            prefixes, subject, formula, HarnessConfig(min_tests_ok=3, oracle_crosscheck=True)
        )
        assert plain.passed == 3
        assert report_to_json(checked) == report_to_json(plain)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_refuted_run_draws_only_the_refuted_prefix(self, parallelism):
        drawn = []

        def counted(rng):
            drawn.append(1)
            return gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 4)(rng)

        report = for_all_stream(
            counted,
            harness.filter_elements(lambda x: False),
            rt.Always(4, output_nonempty()),
            HarnessConfig(min_tests_ok=200, parallelism=parallelism),
        )
        assert report.failed == 1 and report.cases == 1
        assert len(drawn) == 1

    def test_cases_run_on_the_calling_thread(self):
        threads = set()

        def recorded(rng):
            threads.add(threading.get_ident())
            return gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 3)(rng)

        def step(state, batch, _t):
            threads.add(threading.get_ident())
            return state, batch

        report = for_all_stream(
            recorded,
            harness.Transformation(None, step),
            rt.Always(3, output_nonempty()),
            HarnessConfig(min_tests_ok=8, parallelism=4),
        )
        assert report.passed == 8
        assert threads == {threading.get_ident()}

    def test_parallel_equals_sequential(self):
        prefixes = gen.until(
            gen.batch_of_n(2, gen.choose_int(0, 9)), gen.batch_of_n(0, gen.choose_int(0, 9)), 6
        )
        formula = rt.Until(6, output_nonempty(), rt.now(lambda l: len(l.output) == 0, "empty_out"))
        subject = harness.map_elements(lambda x: x)
        seq = for_all_stream(prefixes, subject, formula, HarnessConfig(min_tests_ok=12, seed=5))
        par = for_all_stream(
            prefixes, subject, formula, HarnessConfig(min_tests_ok=12, seed=5, parallelism=4)
        )
        assert seq == par
        assert report_to_json(seq) == report_to_json(par)

    def test_identical_seeds_identical_reports(self):
        prefixes = gen.always(gen.batch_of_n_to_m(0, 3, gen.choose_int(0, 5)), 4)
        subject = harness.count_by_value()
        formula = rt.Always(4, rt.now(lambda l: len(l.output) <= 4, "few_counts"))
        cfg = HarnessConfig(min_tests_ok=9, seed=123)
        assert for_all_stream(prefixes, subject, formula, cfg) == for_all_stream(
            prefixes, subject, formula, cfg
        )

    def test_report_bucket_invariants(self):
        rng = random.Random(70)
        for seed in range(30):
            length = rng.randint(0, 4)
            prefixes = gen.always(gen.batch_of_n_to_m(0, 2, gen.choose_int(0, 9)), max(length, 1))
            formula = rt.Always(3, output_nonempty())
            report = for_all_stream(
                prefixes,
                harness.filter_elements(lambda x: x % 3 != 0),
                formula,
                HarnessConfig(min_tests_ok=7, seed=seed),
            )
            assert report.failed <= 1
            assert report.passed + report.inconclusive + report.failed == report.cases
            assert (report.counterexample is not None) == (report.failed == 1)


def test_clock_monotonicity_property_over_the_harness():
    """Timestamps of consecutive letters never decrease: a two-level consume
    compares the bound time with the next letter's time."""
    def increasing(t_first):
        return rt.now_time(lambda _l, t_second: t_first <= t_second, "later_time")

    phi = rt.Always(9, rt.bind(lambda _l, t: increasing(t), label="capture_time"))
    prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 5)), 10)
    report = for_all_stream(
        prefixes,
        harness.map_elements(lambda x: x),
        phi,
        HarnessConfig(min_tests_ok=10, seed=2, oracle_crosscheck=True),
    )
    assert report.passed == 10


def test_generator_utilities():
    rng = random.Random(0)
    doubled = gen.mapped(gen.choose_int(1, 3), lambda n: n * 2)
    values = {doubled(random.Random(seed)) for seed in range(30)}
    assert values == {2, 4, 6}
    assert gen.constant("k")(rng) == "k"
    with pytest.raises(ValueError):
        gen.one_of()


class TestReportJson:
    def _failing_report(self):
        prefixes = gen.always(gen.batch_of_n(2, gen.constant((7, True))), 3)
        return for_all_stream(
            prefixes,
            harness.filter_elements(lambda e: False),
            rt.Always(3, output_nonempty()),
            HarnessConfig(min_tests_ok=4, seed=9),
        )

    def test_round_trip_with_counterexample(self):
        report = self._failing_report()
        assert report.counterexample is not None
        assert report_from_dict(report_to_dict(report)) == report
        assert report_from_json(report_to_json(report)) == report

    def test_round_trip_plain(self):
        prefixes = gen.always(gen.batch_of_n(1, gen.constant("x")), 2)
        report = for_all_stream(
            prefixes,
            harness.map_elements(lambda x: x),
            rt.Always(2, output_nonempty()),
            HarnessConfig(min_tests_ok=3, seed=1),
        )
        assert report_from_json(report_to_json(report)) == report

    def test_json_is_stable_bytes(self):
        report = self._failing_report()
        assert report_to_json(report) == report_to_json(self._failing_report())

    def test_round_trip_with_error_bucket(self):
        def boom(_e):
            raise ValueError("nope")

        prefixes = gen.always(gen.batch_of_n(1, gen.constant("x")), 2)
        report = for_all_stream(
            prefixes,
            harness.map_elements(boom),
            rt.Always(2, output_nonempty()),
            HarnessConfig(min_tests_ok=3, seed=2),
        )
        assert report.errors == 1
        assert report_from_json(report_to_json(report)) == report


class TestPulledBatches:
    """The harness pulls a batch only while the monitor has no verdict."""

    TEN = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 10)

    @staticmethod
    def counting(prefix_gen):
        pulled = []

        def batches(rng):
            for batch in prefix_gen.batches(rng):
                pulled.append(batch)
                yield batch

        return gen.PrefixGen(batches), pulled

    def test_formula_decided_at_init_pulls_nothing(self):
        counted, pulled = self.counting(self.TEN)
        verdict, trace = run_test_case(
            counted.batches(random.Random(0)), harness.map_elements(str), rt.TOP, CFG
        )
        assert verdict is truth.TRUE and trace == () and pulled == []
        report = for_all_stream(counted, harness.map_elements(str), rt.TOP, CFG)
        assert report.passed == CFG.min_tests_ok and pulled == []

    def test_pulls_stop_at_the_deciding_step(self):
        counted, pulled = self.counting(self.TEN)
        verdict, _trace = run_test_case(
            counted.batches(random.Random(0)),
            harness.map_elements(str),
            rt.Always(2, output_nonempty()),
            CFG,
        )
        assert verdict is truth.TRUE and len(pulled) == 2
        report = for_all_stream(
            counted, harness.map_elements(str), rt.Always(2, output_nonempty()), CFG
        )
        assert report.passed == CFG.min_tests_ok
        assert len(pulled) == 2 + 2 * CFG.min_tests_ok

    def test_an_exhausted_prefix_is_read_in_full(self):
        counted, pulled = self.counting(self.TEN)
        verdict, trace = run_test_case(
            counted.batches(random.Random(0)),
            harness.map_elements(str),
            rt.Always(12, output_nonempty()),
            CFG,
        )
        assert verdict is truth.INCONCLUSIVE and len(pulled) == 10 and len(trace) == 11

    @pytest.mark.parametrize("formula", [rt.BOTTOM, rt.Always(4, output_nonempty())])
    def test_counterexample_carries_the_full_prefix(self, formula):
        counted, pulled = self.counting(self.TEN)
        report = for_all_stream(counted, harness.filter_elements(lambda x: False), formula, CFG)
        cex = report.counterexample
        assert report.failed == 1 and cex.case_index == 1
        assert cex.prefix == self.TEN(harness.case_rng(CFG.seed, 1))
        assert type(cex.prefix) is StreamPrefix and len(pulled) == 10

    def test_subject_error_stops_pulling_at_the_failing_step(self):
        def fails_third(state, batch, time_ms):
            if time_ms == time_of(3, CFG):
                raise RuntimeError("third instant")
            return state, batch

        counted, pulled = self.counting(self.TEN)
        subject = harness.Transformation(None, fails_third)
        report = for_all_stream(counted, subject, rt.Always(5, output_nonempty()), CFG)
        assert report.errors == 1
        assert report.error_message.startswith("case 1: transformation failed at step 3")
        assert len(pulled) == 3

    def test_predicate_error_stops_pulling_at_the_failing_step(self):
        calls = []

        def fails_second(_letter):
            calls.append(1)
            return 1 / (2 - len(calls))

        counted, pulled = self.counting(self.TEN)
        report = for_all_stream(
            counted, harness.map_elements(str), rt.Always(5, rt.now(fails_second)), CFG
        )
        assert report.error_message.startswith("case 1: predicate failed at step 2")
        assert len(pulled) == 2


def fails_at_draw(n):
    """An element generator whose ``n``-th draw, and every later one, raises."""
    draws = []

    def element(rng):
        draws.append(rng.randint(0, 9))
        if len(draws) >= n:
            raise ValueError(f"draw {len(draws)}")
        return draws[-1]

    return element


class TestGeneratorErrors:
    """A raise in the prefix generator lands in the errors bucket."""

    @pytest.mark.parametrize(
        "prefixes,formula,step",
        [
            # Two elements a batch: the 1st draw is step 1's, the 5th step 3's.
            (gen.always(gen.batch_of_n(2, fails_at_draw(1)), 3), rt.Always(3, output_nonempty()), 1),
            (gen.always(gen.batch_of_n(2, fails_at_draw(5)), 5), rt.Always(5, output_nonempty()), 3),
            # A plain callable draws its whole prefix before step 1.
            (lambda rng: [[rng.random()], [1 / 0]], rt.Always(2, output_nonempty()), 1),
            # The unread rest of a refuted case is drawn for its counterexample.
            (gen.always(gen.batch_of_n(1, fails_at_draw(3)), 5), rt.BOTTOM, 3),
            (gen.always(gen.batch_of_n(1, fails_at_draw(4)), 5), rt.Always(5, rt.now(lambda _: False)), 4),
        ],
        ids=["first-batch", "third-batch", "full-draw", "refuted-at-init", "refuted-rest"],
    )
    def test_a_raising_generator_uses_the_errors_bucket(self, prefixes, formula, step):
        report = for_all_stream(prefixes, harness.map_elements(str), formula, CFG)
        assert (report.cases, report.errors, report.failed, report.counterexample) == (1, 1, 0, None)
        assert report.error_message.startswith(f"case 1: generator failed at step {step}: ")
        assert "Error(" in report.error_message

    def test_a_plain_callable_is_not_called_for_a_case_decided_before_step_1(self):
        calls = []

        def raising(rng):
            calls.append(rng)
            raise ValueError("never drawn")

        report = for_all_stream(raising, harness.map_elements(str), rt.TOP, CFG)
        assert (report.cases, report.passed, report.errors) == (CFG.min_tests_ok, CFG.min_tests_ok, 0)
        assert calls == []

    def test_run_test_case_names_the_step_of_the_raising_batch(self):
        def batches():
            yield Batch([1])
            raise KeyError("second")

        with pytest.raises(GeneratorError) as raised:
            run_test_case(batches(), harness.map_elements(str), rt.Always(3, output_nonempty()), CFG)
        assert raised.value.step == 2 and isinstance(raised.value.cause, KeyError)
        assert isinstance(raised.value, harness.CaseError)


class TestPulledConversion:
    """A pulled batch that is no iterable is a generator error at its step."""

    @staticmethod
    def yielding(*batches):
        return gen.PrefixGen(lambda rng: iter(batches))

    @pytest.mark.parametrize(
        "formula,step",
        [
            (rt.Always(3, output_nonempty()), 2),  # read by the monitor
            (rt.Always(3, rt.now(lambda _: False)), 2),  # the unread rest
            (rt.BOTTOM, 3),  # the unread rest, nothing read
        ],
        ids=["read", "refuted-rest", "refuted-at-init"],
    )
    def test_for_all_stream(self, formula, step):
        prefixes = self.yielding([1], *[[2]] * (step - 2), 7, [3])
        report = for_all_stream(prefixes, harness.map_elements(str), formula, CFG)
        assert (report.cases, report.errors, report.failed, report.counterexample) == (1, 1, 0, None)
        assert report.error_message.startswith(f"case 1: generator failed at step {step}: TypeError(")

    def test_run_test_case(self):
        with pytest.raises(GeneratorError) as raised:
            run_test_case([[1], 7], harness.map_elements(str), rt.Always(3, output_nonempty()), CFG)
        assert raised.value.step == 2 and isinstance(raised.value.cause, TypeError)


class TestLazySizing:
    """Residuals are sized only when a counterexample's trace is read."""

    @staticmethod
    def counting_size(monkeypatch):
        sized = []
        size = rt.size

        def counting(phi):
            sized.append(phi)
            return size(phi)

        monkeypatch.setattr(rt, "size", counting)
        return sized

    def test_a_passing_run_sizes_nothing(self, monkeypatch):
        sized = self.counting_size(monkeypatch)
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 4)
        report = for_all_stream(
            prefixes, harness.map_elements(str), rt.Always(4, output_nonempty()), CFG
        )
        assert report.ok() and report.passed == CFG.min_tests_ok
        assert sized == []

    def test_a_refuted_run_sizes_only_the_counterexample(self, monkeypatch):
        sized = self.counting_size(monkeypatch)
        prefixes = gen.always(gen.batch_of_n(1, gen.choose_int(0, 9)), 4)
        cfg = HarnessConfig(min_tests_ok=100, seed=3)
        report = for_all_stream(
            prefixes,
            harness.filter_elements(lambda x: x != 0),
            rt.Always(4, output_nonempty()),
            cfg,
        )
        cex = report.counterexample
        assert report.failed == 1 and cex.case_index > 1  # earlier cases passed
        assert len(sized) == len(cex.trace) == cex.failing_step

    def test_run_test_case_returns_every_step_and_the_closing_pass(self):
        formula = rt.Always(5, output_nonempty())
        batches = [[1], [2], [3]]
        verdict, trace = run_test_case(prefix_of(*batches), harness.map_elements(str), formula, CFG)
        assert verdict is truth.INCONCLUSIVE
        reference = rt.Monitor(formula)
        for i, batch in enumerate(batches, 1):
            t = time_of(i, CFG)
            reference.step(IoLetter(Batch(batch), Batch(map(str, batch)), t), t)
            assert reference.trace[-1].step == i  # read after every step
        reference.finish()
        assert trace == tuple(reference.trace)
        assert [(e.step, e.time_ms) for e in trace] == [(1, 0), (2, 100), (3, 200), (4, None)]
        assert trace[-1].formula_size == 1 and trace[-1].verdict is truth.INCONCLUSIVE
