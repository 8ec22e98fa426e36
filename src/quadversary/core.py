"""Shared problem setup: points, oracles, transcripts, and algorithm runs.

Integrands are [0, 1]-valued functions on the closed unit cube [0, 1]^d.  An
algorithm may query finitely many function values, each query point possibly
depending on the values seen so far, and must then commit to a single output.
Queries come one point or one block of points at a time.
Everything downstream (adversaries, bound calculators, baselines) works with
the transcript produced by :func:`run_algorithm`: an (n, d) array of query
points and the n values returned there.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

import numpy as np

__all__ = [
    "BudgetExceededError",
    "DomainError",
    "EvalOracle",
    "Interval",
    "Transcript",
    "AdaptiveCubature",
    "RandomStream",
    "as_points",
    "run_algorithm",
]

class DomainError(ValueError):
    """A point, value, or parameter left its allowed domain."""


class BudgetExceededError(RuntimeError):
    """An algorithm attempted a query beyond its information budget."""


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
    distinct labels are independent by construction (seed-sequence spawning),
    so parallel consumers can each take a labeled substream and the combined
    result stays reproducible for any worker count.
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


def block_sizes(total: int, block: int) -> list[int]:
    """Split ``total`` into fixed-order blocks of at most ``block`` samples."""
    if total < 0:
        raise DomainError("sample count must be nonnegative")
    if block < 1:
        raise DomainError("block size must be positive")
    full, rest = divmod(total, block)
    return [block] * full + ([rest] if rest else [])


def uniform_blocks(
    stream: RandomStream, total: int, dim: int, block: int = 8192
) -> Iterable[np.ndarray]:
    """Yield uniform sample blocks, one labeled substream per block.

    The block layout depends only on ``total`` and ``block``, never on who
    consumes the blocks, which keeps Monte Carlo estimates identical across
    worker counts.
    """
    for i, size in enumerate(block_sizes(total, block)):
        gen = stream.substream("block", i).generator()
        yield gen.random((size, dim))
