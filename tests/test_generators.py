"""Batch and stream-prefix generator combinators."""

import itertools
import random

import pytest

from streamcheck import generators as gen
from streamcheck import runtime as rt
from streamcheck import semantics, truth
from streamcheck.generators import Batch, EMPTY_BATCH, StreamPrefix


def run(g, seed=0):
    return g(random.Random(seed))


class _FixedInt(random.Random):
    """Forces randint to a fixed value; used to enumerate placement choices."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def randint(self, a, b):  # noqa: A003
        assert a <= self.value <= b
        return self.value


def good_pair(rng):
    return (rng.randint(1, 50), True)


class TestBatchGenerators:
    def test_of_n_exact_size(self):
        batch = run(gen.batch_of_n(20, good_pair))
        assert len(batch) == 20
        assert all(1 <= i <= 50 and flag for i, flag in batch)

    def test_of_n_zero_is_empty(self):
        assert run(gen.batch_of_n(0, good_pair)) == EMPTY_BATCH

    def test_of_n_to_m_size_range(self):
        sizes = {len(run(gen.batch_of_n_to_m(2, 5, good_pair), seed)) for seed in range(60)}
        assert sizes == {2, 3, 4, 5}

    def test_union_concatenates(self):
        g = gen.batch_union(gen.batch_of_n(20, good_pair), gen.batch_of_n(1, gen.constant((15, False))))
        batch = run(g)
        assert len(batch) == 21
        assert (15, False) in batch

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gen.batch_of_n(-1, good_pair)
        with pytest.raises(ValueError):
            gen.batch_of_n_to_m(3, 2, good_pair)

    def test_sizes_must_be_integers(self):
        """A size is rejected when the generator is built, not when it draws."""
        for bad in (True, False, 2.5, 0.0, "3", None):
            with pytest.raises(ValueError, match="must be a non-negative integer"):
                gen.batch_of_n(bad, good_pair)
            with pytest.raises(ValueError, match="must be a non-negative integer"):
                gen.batch_of_n_to_m(bad, 3, good_pair)
            with pytest.raises(ValueError, match="must be a non-negative integer"):
                gen.batch_of_n_to_m(0, bad, good_pair)


def test_choose_int_bounds_are_checked_when_built():
    """Bounds are integers, not booleans, with ``low <= high``; a bad pair is
    rejected when the generator is built, not when it draws."""
    for low, high in ((True, 3), (0, False), (0.0, 3), (0, 2.5), ("1", 3), (0, None), (4, 3)):
        with pytest.raises(ValueError, match="choose_int needs integers low <= high"):
            gen.choose_int(low, high)
    assert {run(gen.choose_int(-2, 1), seed) for seed in range(40)} == {-2, -1, 0, 1}
    assert run(gen.choose_int(5, 5)) == 5


TWO_ELEMS = gen.batch_of_n(2, gen.constant("e"))


@pytest.mark.parametrize(
    "build",
    [
        lambda n: gen.always(TWO_ELEMS, n),
        lambda n: gen.eventually(TWO_ELEMS, n),
        lambda n: gen.until(TWO_ELEMS, TWO_ELEMS, n),
        lambda n: gen.release(TWO_ELEMS, TWO_ELEMS, n),
        lambda n: gen.repeat_concat(gen.always(TWO_ELEMS, 2), n),
    ],
    ids=["always", "eventually", "until", "release", "repeat_concat"],
)
def test_counts_must_be_positive_integers(build):
    """A count is rejected when the generator is built, not when it draws."""
    for bad in (0, -1, 2.5, True, False, "3", None):
        with pytest.raises(ValueError, match="must be a positive integer"):
            build(bad)
    assert len(run(build(1))) >= 1


class TestPrefixGenerators:

    def test_always_length(self):
        prefix = run(gen.always(TWO_ELEMS, 10))
        assert len(prefix) == 10
        assert all(len(batch) == 2 for batch in prefix)

    def test_always_single(self):
        assert len(run(gen.always(TWO_ELEMS, 1))) == 1

    def test_next_prepends_empty(self):
        prefix = run(gen.next_batch(TWO_ELEMS))
        assert prefix[0] == EMPTY_BATCH and len(prefix) == 2

    def test_eventually_places_batch_at_k(self):
        for k in (1, 2, 3):
            prefix = gen.eventually(TWO_ELEMS, 3)(_FixedInt(k))
            assert len(prefix) == k
            assert all(batch == EMPTY_BATCH for batch in prefix[:-1])
            assert len(prefix[-1]) == 2
        ks = {len(run(gen.eventually(TWO_ELEMS, 3), seed)) for seed in range(40)}
        assert ks == {1, 2, 3}

    def test_until_shape(self):
        first = gen.batch_of_n(1, gen.constant("good"))
        second = gen.batch_of_n(1, gen.constant("bad"))
        for seed in range(40):
            prefix = run(gen.until(first, second, 10), seed)
            assert 1 <= len(prefix) <= 10
            assert all(batch == Batch(["good"]) for batch in prefix[:-1])
            assert prefix[-1] == Batch(["bad"])

    def test_until_forced_single_instant(self):
        second = gen.batch_of_n(1, gen.constant("bad"))
        prefix = run(gen.until(TWO_ELEMS, second, 1))
        assert prefix == StreamPrefix([Batch(["bad"])])

    def test_release_branches(self):
        first = gen.batch_of_n(1, gen.constant("rel"))
        second = gen.batch_of_n(1, gen.constant("hold"))
        saw_no_release = saw_release = False
        for seed in range(60):
            prefix = run(gen.release(first, second, 2), seed)
            if len(prefix) == 2 and all(b == Batch(["hold"]) for b in prefix):
                saw_no_release = True
            else:
                assert "rel" in prefix[-1] and "hold" in prefix[-1]
                saw_release = True
        assert saw_no_release and saw_release

    def test_concat_appends_in_time(self):
        g = gen.concat(gen.always(TWO_ELEMS, 3), gen.always(gen.constant(EMPTY_BATCH), 2))
        prefix = run(g)
        assert len(prefix) == 5
        assert list(prefix[3:]) == [EMPTY_BATCH, EMPTY_BATCH]

    def test_superpose_identity_with_empties(self):
        base = gen.always(TWO_ELEMS, 4)
        empties = gen.always(gen.constant(EMPTY_BATCH), 4)
        assert run(gen.superpose(base, empties)) == run(base)

    def test_superpose_pads_shorter_side(self):
        left = gen.constant(StreamPrefix([Batch(["a"])]))
        right = gen.constant(StreamPrefix([Batch(["b"]), Batch(["c"])]))
        assert run(gen.superpose(left, right)) == StreamPrefix(
            [Batch(["a", "b"]), Batch(["c"])]
        )

    def test_lengths_follow_operands(self):
        rng = random.Random(7)
        for _ in range(50):
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            p1 = gen.always(TWO_ELEMS, n1)
            p2 = gen.always(TWO_ELEMS, n2)
            seed = rng.randrange(1000)
            assert len(run(gen.concat(p1, p2), seed)) == n1 + n2
            assert len(run(gen.superpose(p1, p2), seed)) == max(n1, n2)


def test_determinism_across_combinators():
    bg = gen.batch_of_n_to_m(1, 4, good_pair)
    combos = [
        gen.always(bg, 5),
        gen.next_batch(bg),
        gen.eventually(bg, 4),
        gen.until(bg, bg, 6),
        gen.release(bg, bg, 4),
        gen.concat(gen.always(bg, 2), gen.eventually(bg, 3)),
        gen.superpose(gen.always(bg, 3), gen.until(bg, bg, 3)),
    ]
    for seed in range(100):
        for combo in combos:
            assert combo(random.Random(seed)) == combo(random.Random(seed))


def test_until_prefix_satisfies_the_matching_formula():
    """A generated until-prefix, read as a word, satisfies the until formula
    whose atoms test batch membership of the respective generators."""
    good = gen.batch_of_n(20, good_pair)
    bad = gen.batch_union(good, gen.batch_of_n(1, gen.constant((15, False))))

    def is_good(batch):
        return len(batch) == 20 and all(1 <= i <= 50 and h for i, h in batch)

    def is_bad(batch):
        rest = [e for e in batch if e != (15, False)]
        return len(batch) == 21 and (15, False) in batch and all(h for _i, h in rest)

    phi = rt.Until(10, rt.now(is_good, "from_good"), rt.now(is_bad, "from_bad"))
    for seed in range(50):
        prefix = run(gen.until(good, bad, 10), seed)
        word = [(batch, 100 * i) for i, batch in enumerate(prefix)]
        assert semantics.models(word, phi) is truth.TRUE


class TestSharedImmutables:
    def test_constructors_return_their_own_type_as_is(self):
        batch = Batch([1, 2])
        prefix = StreamPrefix([batch, Batch()])
        assert Batch(batch) is batch
        assert StreamPrefix(prefix) is prefix
        assert StreamPrefix(prefix)[0] is batch

    def test_other_iterables_still_convert(self):
        assert type(Batch([1, 2])) is Batch and Batch([1, 2]) == (1, 2)
        assert Batch(x for x in "ab") == ("a", "b")
        assert Batch((1,)) == (1,) and type(Batch((1,))) is Batch
        prefix = StreamPrefix([[1], (2, 3)])
        assert prefix == ((1,), (2, 3))
        assert all(type(batch) is Batch for batch in prefix)
        assert StreamPrefix(b for b in [[4]]) == ((4,),)
        assert type(StreamPrefix((Batch([5]),))) is StreamPrefix


class _Eager:
    """The prefix combinators as full-draw functions, as they were written
    before batches were pulled on demand: the reference draw order."""

    @staticmethod
    def always(batch_gen, timeout):
        return lambda rng: StreamPrefix(batch_gen(rng) for _ in range(timeout))

    @staticmethod
    def next_batch(batch_gen):
        return lambda rng: StreamPrefix([EMPTY_BATCH, batch_gen(rng)])

    @staticmethod
    def eventually(batch_gen, timeout):
        def g(rng):
            k = rng.randint(1, timeout)
            return StreamPrefix([EMPTY_BATCH] * (k - 1) + [batch_gen(rng)])

        return g

    @staticmethod
    def until(first, second, timeout):
        def g(rng):
            k = rng.randint(1, timeout)
            return StreamPrefix([first(rng) for _ in range(k - 1)] + [second(rng)])

        return g

    @staticmethod
    def release(first, second, timeout):
        def g(rng):
            if rng.random() < 0.5:
                return StreamPrefix(second(rng) for _ in range(timeout))
            k = rng.randint(1, timeout)
            batches = [second(rng) for _ in range(k)]
            batches[k - 1] = Batch(tuple(first(rng)) + tuple(batches[k - 1]))
            return StreamPrefix(batches)

        return g

    @staticmethod
    def concat(first, second):
        return lambda rng: StreamPrefix(tuple(first(rng)) + tuple(second(rng)))

    @staticmethod
    def superpose(first, second):
        def g(rng):
            a, b = first(rng), second(rng)
            out = []
            for i in range(max(len(a), len(b))):
                left = a[i] if i < len(a) else EMPTY_BATCH
                right = b[i] if i < len(b) else EMPTY_BATCH
                out.append(Batch(tuple(left) + tuple(right)))
            return StreamPrefix(out)

        return g

    @staticmethod
    def repeat_concat(g, times):
        def run_all(rng):
            batches = []
            for _ in range(times):
                batches.extend(g(rng))
            return StreamPrefix(batches)

        return run_all


def _list_batch(rng):
    """A batch generator that returns a plain list, not a ``Batch``."""
    return [rng.randint(1, 3)]


def _combinator_zoo(ops):
    """The same generator trees built from ``ops`` (``gen`` or ``_Eager``)."""
    bg = gen.batch_of_n_to_m(1, 3, good_pair)
    other = gen.batch_of_n(1, lambda rng: rng.random())
    fixed = gen.constant(StreamPrefix([Batch(["a"]), Batch(["b"]), Batch(["c"])]))
    lists = _list_batch
    return [
        ops.always(bg, 5),
        ops.next_batch(bg),
        ops.eventually(bg, 4),
        ops.until(bg, other, 6),
        ops.release(bg, other, 4),
        ops.concat(ops.always(bg, 2), ops.eventually(other, 3)),
        ops.superpose(ops.always(bg, 3), ops.until(other, bg, 5)),
        ops.repeat_concat(ops.release(other, bg, 3), 3),
        ops.repeat_concat(ops.superpose(ops.eventually(bg, 3), ops.next_batch(other)), 2),
        ops.concat(ops.until(lists, bg, 3), ops.superpose(fixed, ops.always(lists, 4))),
        ops.superpose(fixed, ops.concat(fixed, ops.release(lists, lists, 3))),
        ops.concat(gen.one_of(ops.always(bg, 2), ops.eventually(other, 3)), fixed),
        ops.repeat_concat(gen.mapped(ops.until(bg, other, 3), lambda p: p[::-1]), 3),
        ops.concat(ops.concat(ops.next_batch(bg), fixed), ops.repeat_concat(fixed, 2)),
    ]


def _rngs():
    for seed in range(100):
        yield lambda seed=seed: random.Random(seed)
    for value in (1, 2, 3):
        yield lambda value=value: _FixedInt(value)


def test_pulled_batches_follow_the_full_draw_order():
    """Pulling batches draws exactly what a full draw did before batches were
    pulled on demand: same batches, and the same rng state once drained."""
    for lazy, eager in zip(_combinator_zoo(gen), _combinator_zoo(_Eager)):
        assert isinstance(lazy, gen.PrefixGen)
        for make_rng in _rngs():
            rng, reference_rng = make_rng(), make_rng()
            expected = eager(reference_rng)
            assert StreamPrefix(lazy.batches(rng)) == expected
            assert rng.getstate() == reference_rng.getstate()
            assert lazy(make_rng()) == expected


def test_a_partial_pull_is_a_prefix_of_the_full_draw():
    for lazy in _combinator_zoo(gen):
        for seed in range(20):
            full = lazy(random.Random(seed))
            for n in range(len(full) + 1):
                head = itertools.islice(lazy.batches(random.Random(seed)), n)
                assert StreamPrefix(head) == full[:n]


def test_batches_of_plain_callables_draws_in_full():
    drawn = []

    def plain(rng):
        drawn.append(rng.random())
        return StreamPrefix([Batch([1]), Batch([2])])

    batches = gen.batches_of(plain, random.Random(0))
    assert drawn == []
    assert next(batches) == Batch([1])
    assert len(drawn) == 1
    assert list(batches) == [Batch([2])]
    assert len(drawn) == 1
    lazy = gen.always(gen.batch_of_n(1, gen.constant(0)), 2)
    assert list(gen.batches_of(lazy, random.Random(0))) == list(lazy(random.Random(0)))
