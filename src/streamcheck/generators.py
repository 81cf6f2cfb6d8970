"""Seeded generators for batches and stream prefixes, with temporal combinators.

A generator is a plain callable from a ``random.Random`` to a value; the same
seeded state always yields the same value, which keeps every property run
reproducible.  The temporal combinators shape prefixes the way the matching
logical operators constrain words: ``always`` repeats a batch for the whole
window, ``until`` places a batch of the second kind at a random instant
within the window with batches of the first kind before it, and so on.

The combinators return a :class:`PrefixGen`, whose batches can be pulled one
at a time: the harness draws a batch only while the monitor has no verdict,
so the part of a prefix after the deciding step is never generated.  A pulled
batch is drawn exactly as in a full draw, so the batches read are the same
either way.  Any other callable that returns a prefix still works as a prefix
generator (``batches_of``) and is drawn in full.
"""

from __future__ import annotations

import random
from itertools import zip_longest
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
GenFn = Callable[[random.Random], T]


class Batch(tuple):
    """Micro batch: the finite multiset of elements observed in one instant.

    Immutable, so a ``Batch`` passed to the constructor is returned as is.
    """

    def __new__(cls, elements: Iterable[Any] = ()) -> "Batch":
        if type(elements) is cls:
            return elements
        return super().__new__(cls, elements)

    def __repr__(self) -> str:
        return f"Batch({', '.join(map(repr, self))})"


class StreamPrefix(tuple):
    """Finite prefix of a discretized stream: one batch per instant.

    Immutable, so a ``StreamPrefix`` passed to the constructor is returned as is.
    """

    def __new__(cls, batches: Iterable[Batch] = ()) -> "StreamPrefix":
        if type(batches) is cls:
            return batches
        return super().__new__(cls, map(Batch, batches))

    def __repr__(self) -> str:
        return f"StreamPrefix({', '.join(map(repr, self))})"


EMPTY_BATCH = Batch()


def constant(value: T) -> GenFn:
    return lambda rng: value


def choose_int(low: int, high: int) -> GenFn:
    """Uniform integer in [low, high]."""
    return lambda rng: rng.randint(low, high)


def one_of(*gens: GenFn) -> GenFn:
    if not gens:
        raise ValueError("one_of needs at least one generator")
    return lambda rng: gens[rng.randrange(len(gens))](rng)


def mapped(gen: GenFn, fn: Callable[[Any], Any]) -> GenFn:
    return lambda rng: fn(gen(rng))


# ---------------------------------------------------------------------------
# Batch generators


def batch_of_n(n: int, gen: GenFn) -> GenFn:
    """Batch with exactly ``n`` independently generated elements."""
    if n < 0:
        raise ValueError("batch size must be non-negative")
    return lambda rng: Batch(gen(rng) for _ in range(n))


def batch_of_n_to_m(n: int, m: int, gen: GenFn) -> GenFn:
    """Batch whose size is uniform in [n, m]."""
    if n < 0 or m < n:
        raise ValueError("need 0 <= n <= m")
    return lambda rng: Batch(gen(rng) for _ in range(rng.randint(n, m)))


def batch_union(first: GenFn, second: GenFn) -> GenFn:
    """Concatenation of the two generated batches."""
    return lambda rng: Batch(tuple(first(rng)) + tuple(second(rng)))


# ---------------------------------------------------------------------------
# Prefix generators shaped like temporal operators


class PrefixGen:
    """Prefix generator that draws its batches on demand.

    ``batches(rng)`` is the generator's single implementation: an iterator
    that draws each batch when it is pulled, in the order a full draw would,
    so a partly read prefix begins with the same batches as the full one.
    Calling the generator draws the whole prefix.
    """

    __slots__ = ("batches",)

    def __init__(self, batches: Callable[[random.Random], Iterator[Any]]):
        self.batches = batches

    def __call__(self, rng: random.Random) -> StreamPrefix:
        return StreamPrefix(self.batches(rng))


def batches_of(gen: GenFn, rng: random.Random) -> Iterator[Any]:
    """Iterator over the batches of ``gen``'s prefix: pulled on demand from a
    :class:`PrefixGen`, drawn in full first from any other prefix generator."""
    if isinstance(gen, PrefixGen):
        return gen.batches(rng)
    return iter(gen(rng))


def always(batch_gen: GenFn, timeout: int) -> PrefixGen:
    """``timeout`` instants, each drawn independently from ``batch_gen``."""
    _check_timeout(timeout)

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        for _ in range(timeout):
            yield batch_gen(rng)

    return gen


def next_batch(batch_gen: GenFn) -> PrefixGen:
    """One empty instant, then the generated batch."""

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        yield EMPTY_BATCH
        yield batch_gen(rng)

    return gen


def eventually(batch_gen: GenFn, timeout: int) -> PrefixGen:
    """The batch lands at a uniform instant in [1, timeout]; empty before it."""
    _check_timeout(timeout)

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        k = rng.randint(1, timeout)
        for _ in range(k - 1):
            yield EMPTY_BATCH
        yield batch_gen(rng)

    return gen


def until(first: GenFn, second: GenFn, timeout: int) -> PrefixGen:
    """Instants 1..k-1 from ``first``, instant k from ``second``, k uniform in [1, timeout]."""
    _check_timeout(timeout)

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        k = rng.randint(1, timeout)
        for _ in range(k - 1):
            yield first(rng)
        yield second(rng)

    return gen


def release(first: GenFn, second: GenFn, timeout: int) -> PrefixGen:
    """Either ``timeout`` instants of ``second`` (no release), or ``second``
    everywhere with ``first`` superposed at a uniform release instant k."""
    _check_timeout(timeout)

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        no_release = rng.random() < 0.5
        if no_release:
            for _ in range(timeout):
                yield second(rng)
            return
        k = rng.randint(1, timeout)
        for _ in range(k - 1):
            yield second(rng)
        held = second(rng)  # drawn before ``first``, as the release instant's base
        yield Batch((*first(rng), *held))

    return gen


def concat(first: GenFn, second: GenFn) -> PrefixGen:
    """One prefix after the other in time."""

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        yield from batches_of(first, rng)
        yield from batches_of(second, rng)

    return gen


def superpose(first: GenFn, second: GenFn) -> PrefixGen:
    """Positionwise union of the two prefixes.

    The shorter prefix is padded with empty batches, so both signals survive
    in full (a strict zip would truncate the longer one).  Both prefixes are
    drawn in full before the first batch is yielded: the first instant needs
    a batch of ``second``, which is drawn after all of ``first``.
    """

    @PrefixGen
    def gen(rng: random.Random) -> Iterator[Any]:
        a = tuple(batches_of(first, rng))
        b = tuple(batches_of(second, rng))
        for left, right in zip_longest(a, b, fillvalue=EMPTY_BATCH):
            yield Batch((*left, *right))

    return gen


def repeat_concat(gen: GenFn, times: int) -> PrefixGen:
    """`times` independent draws, concatenated in time."""
    if times < 1:
        raise ValueError("times must be positive")

    @PrefixGen
    def run(rng: random.Random) -> Iterator[Any]:
        for _ in range(times):
            yield from batches_of(gen, rng)

    return run


def _check_timeout(timeout: int) -> None:
    if timeout < 1:
        raise ValueError("timeout must be positive")
