"""Shared problem setup: points, oracles, transcripts, and algorithm runs.

Integrands are [0, 1]-valued functions on the closed unit cube [0, 1]^d.  An
algorithm may query finitely many function values, each query point possibly
depending on the values seen so far, and must then commit to a single output.
Queries come one point or one block of points at a time.
Everything downstream (adversaries, bound calculators, baselines) works with
the transcript produced by :func:`run_algorithm`: an (n, d) array of query
points and the n values returned there.

Uniform samples come from one PCG64 generator per stream, in ``_SAMPLE_BLOCK``-row blocks.
:func:`map_uniform_blocks` maps a function over the blocks on every CPU of
the process, each thread drawing the blocks it takes from a copy of the
generator jumped ahead to each block's first row, and returns the results in
block order; so Monte Carlo bytes do not depend on the CPU count.
"""

from __future__ import annotations

import copy
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

__all__ = [
    "BudgetExceededError",
    "Certificate",
    "ConsistencyError",
    "DomainError",
    "EvalOracle",
    "Interval",
    "Transcript",
    "AdaptiveCubature",
    "RandomStream",
    "as_points",
    "map_uniform_blocks",
    "run_algorithm",
    "uniform_blocks",
]

_BLOCK_ELEMENTS = 1 << 21  # elements of the largest temporary one kernel block builds
_SAMPLE_BLOCK = 8192  # rows of every uniform sample block and convex evaluator query block


class DomainError(ValueError):
    """A point, value, or parameter left its allowed domain."""


class BudgetExceededError(RuntimeError):
    """An algorithm attempted a query beyond its information budget."""


class ConsistencyError(RuntimeError):
    """An internal consistency gate failed (exit code 3)."""


def as_points(points, dim: int) -> np.ndarray:
    """Validate points of the closed unit cube [0, 1]^dim as an (n, dim) array.

    This is the one point validator of the library.  Out-of-range coordinates
    raise :class:`DomainError` rather than being clamped, since silent
    clamping would corrupt the adversary geometry downstream.  Any empty input
    is the empty (0, dim) array.
    """
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return np.zeros((0, dim))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"expected an (n, {dim}) array of points, got shape {arr.shape}")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError("points must lie in the unit cube [0, 1]^d")
    return arr


@dataclass(frozen=True)
class Interval:
    """Two-sided bound [low, high] on a real quantity; one value if ``exact``."""

    low: float
    high: float

    @property
    def exact(self) -> bool:
        return self.low == self.high


@dataclass(frozen=True)
class Certificate:
    """An error floor ``value`` for one run, its range ``error`` and the closed form ``theorem``.

    ``provenance`` is stored, not inferred: ``exact`` or ``bracket`` for a proven range,
    ``estimate`` for a Monte Carlo mean -/+ 3 ``std_error`` (0 for one sample).
    """

    value: float
    std_error: float
    error: Interval
    theorem: float
    provenance: str


@dataclass(frozen=True)
class EvalOracle:
    """Function-value access to one integrand f: [0,1]^d -> [0,1].

    ``fn`` maps an (N, d) array of points to their N values.  Points are
    validated before ``fn`` sees them; values outside [0, 1] raise
    :class:`DomainError`.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError("oracle dimension must be positive")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate an (N, d) array of points."""
        pts = as_points(points, self.dim)
        values = np.asarray(self.fn(pts), dtype=float)
        if values.shape != (pts.shape[0],):
            raise DomainError("oracle returned a wrong shape")
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise DomainError("oracle returned values outside [0, 1]")
        return values


@dataclass(frozen=True, eq=False)
class Transcript:
    """Queried points as an (n, d) array and the n values returned there.

    Both arrays are read-only, so an algorithm may keep any transcript it is
    handed: later queries never change it.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("points", "values"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.values.shape[0]


class AdaptiveCubature(Protocol):
    """Interface every registered cubature algorithm implements.

    ``next_query`` maps the transcript so far to the next query: one point, a
    length-d array, or a block of k >= 1 points, a (k, d) array, or ``None``
    to stop querying.  A block's points depend only on the values seen before
    it, so an adaptive algorithm asks one point at a time and a non-adaptive
    one may ask all its points in one block.  ``next_query`` must be
    deterministic given the algorithm's own configuration (including any
    seed).  ``finalize`` maps the complete transcript to the output value.
    """

    dim: int

    def next_query(self, transcript: Transcript) -> np.ndarray | None: ...

    def finalize(self, transcript: Transcript) -> float: ...


def run_algorithm(
    alg: AdaptiveCubature, oracle: EvalOracle, budget: int
) -> tuple[Transcript, float]:
    """Drive one algorithm run against one oracle under a query budget.

    Returns the full transcript and the algorithm's output.  Each query, one
    point or a block of k points, is evaluated by one ``oracle.evaluate``
    call and recorded in order, so a block yields the same transcript as its
    points asked one at a time.  A query that would take the record count
    past ``budget`` raises :class:`BudgetExceededError` before any of it is
    evaluated (an error, not a truncation, so the reported n stays well
    defined); an empty block raises :class:`DomainError`.  Repeated queries
    at the same point are allowed and each one counts.

    Records go into buffers that at least double when full, and each
    transcript handed to the algorithm is a read-only view of the first n
    rows, so a run costs time linear in n.  Rows once written are never
    rewritten, which keeps every earlier view valid.
    """
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    if alg.dim != oracle.dim:
        raise DomainError(f"algorithm dim {alg.dim} does not match oracle dim {oracle.dim}")
    dim = oracle.dim
    points = np.empty((16, dim))  # never `budget` rows: budgets are user input
    values = np.empty(16)
    n = 0
    while True:
        transcript = Transcript(points[:n], values[:n])
        query = alg.next_query(transcript)
        if query is None:
            break
        block = np.asarray(query, dtype=float)
        if block.shape == (dim,):
            block = block[None, :]
        if block.ndim != 2 or block.shape[1] != dim or block.shape[0] == 0:
            raise DomainError(
                f"query has shape {block.shape}, oracle expects ({dim},) or (k, {dim}) with k >= 1"
            )
        k = block.shape[0]
        if n + k > budget:
            raise BudgetExceededError(f"algorithm requested query {n + k} with budget {budget}")
        block_values = oracle.evaluate(block)
        if n + k > values.shape[0]:
            grow = max(values.shape[0], n + k - values.shape[0])
            points = np.concatenate((points, np.empty((grow, dim))))
            values = np.concatenate((values, np.empty(grow)))
        points[n : n + k] = block
        values[n : n + k] = block_values
        n += k
    return transcript, float(alg.finalize(transcript))


def _label_word(label: int | str) -> int:
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        if label < 0:
            raise DomainError("stream labels must be nonnegative")
        return int(label)
    raise DomainError(f"stream label must be int or str, got {type(label).__name__}")


@dataclass(frozen=True)
class RandomStream:
    """Seeded, hierarchical source of random generators.

    Identical seeds yield identical draws, and substreams derived from
    distinct labels are independent by construction (seed-sequence spawning).
    Labels name consumers, not draws: each consumer builds one generator from
    its labeled substream and takes its points from it in order, so its
    result depends only on the seed and the labels.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError("seed must be a 64-bit nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(int(w) for w in self.path))

    def substream(self, *labels: int | str) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(_label_word(l) for l in labels))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def _draw(
    gen: np.random.Generator, indices: Iterable[int], total: int, dim: int, buffer: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, rows of block i)`` for the increasing block indices ``indices``.

    Row j holds draws j * dim to (j + 1) * dim - 1 of the PCG64 generator
    ``gen`` (``Generator.random`` takes one 64-bit output per double).  The
    rows are drawn by a copy of ``gen``, which is left as it was; the copy
    jumps over the blocks it skips in O(log) steps.  Every block is
    ``buffer``, refilled.
    """
    bits = copy.copy(gen.bit_generator)
    own = np.random.Generator(bits)
    drawn = 0
    for i in indices:
        lo = i * _SAMPLE_BLOCK
        out = buffer[: min(_SAMPLE_BLOCK, total - lo)]
        bits.advance(lo * dim - drawn)
        own.random(out=out)
        drawn = (lo + out.shape[0]) * dim
        yield i, out


def _block_count(total: int) -> int:
    """Blocks of ``total`` samples: the one check of every Monte Carlo sample count."""
    if total < 1:
        raise DomainError("need at least one sample")
    return -(-total // _SAMPLE_BLOCK)


def uniform_blocks(stream: RandomStream, total: int, dim: int) -> Iterator[np.ndarray]:
    """Yield ``total`` >= 1 uniform points in blocks of ``_SAMPLE_BLOCK``, the rest in the last.

    The blocks are consecutive rows of the one generator ``stream`` builds, so
    the points depend on ``stream`` and ``total`` only.  No caller sets the
    size: it is also the convex evaluator's query block, so each hull-integral
    block is swept once.  Every block is one buffer that the next overwrites.
    The call checks ``total`` and allocates the buffer; rows are drawn lazily.
    """
    count = _block_count(total)
    buffer = np.empty((min(_SAMPLE_BLOCK, total), dim))
    return (pts for _, pts in _draw(stream.generator(), range(count), total, dim, buffer))


def _cpu_count() -> int:
    """CPUs of this process's affinity mask (every CPU where there is no mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_uniform_blocks(
    fn: Callable[[np.ndarray], object], stream: RandomStream, total: int, dim: int
) -> list:
    """``[fn(pts) for pts in uniform_blocks(stream, total, dim)]``, on every CPU.

    Blocks hold ``_SAMPLE_BLOCK`` rows, as in :func:`uniform_blocks`, which says
    why.  One thread per CPU of the affinity mask, but never more than there
    are blocks: the calling thread and one started thread per further CPU, so
    one block runs inline, with no thread started.  The threads take the
    blocks in increasing order, one at a time, so a thread whose CPU the host
    runs less takes fewer of them.  ``stream`` builds one generator, and each
    thread draws its blocks from its own copy of it, jumped ahead over the
    blocks the others took, into one buffer allocated on the calling thread (a
    thread's own malloc arena keeps much of what it frees).  Results come back
    in block order, so any reduction of them in that order is bitwise the same
    on any CPU count.

    ``fn`` may run on several threads at once and must not keep ``pts``,
    whose buffer its thread's next block overwrites.  Worker threads call
    nothing but ``fn`` and the generator.  Once ``fn`` raises, no later
    block is started; when every thread has stopped, the exception of the
    earliest failing block, the one the serial loop meets, is raised
    unchanged.
    """
    count = _block_count(total)
    gen = stream.generator()
    workers = min(_cpu_count(), count)
    buffers = [np.empty((min(_SAMPLE_BLOCK, total), dim)) for _ in range(workers)]
    results: list = [None] * count
    failures: list[tuple[int, Exception]] = []
    order = iter(range(count))  # shared; each next(), atomic under the GIL, hands out a block

    def claim() -> Iterator[int]:
        for i in order:
            if any(i > j for j, _ in failures):
                return
            yield i

    def run(w: int) -> None:
        i = -1
        try:
            for i, pts in _draw(gen, claim(), total, dim, buffers[w]):
                results[i] = fn(pts)
        except Exception as exc:
            failures.append((i, exc))

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
