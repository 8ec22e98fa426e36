"""Built-in integrands and cubature algorithms for the harness and tests.

Every oracle comes with its true integral (step at half-sum: 1/2 by the
x -> 1-x symmetry; coordinate product: 2^-d; coordinate mean: 1/2; mean
of squares: 1/3).  Algorithms implement the adaptive-cubature interface and
derive any randomness from labeled substreams of one seed, so a rerun with
the same seed replays the identical transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AdaptiveCubature, DomainError, EvalOracle, RandomStream, Transcript
from .monotone import threshold_values

__all__ = [
    "ALGORITHM_IDS",
    "ORACLE_IDS",
    "FixedDesign",
    "make_algorithm",
    "make_oracle",
    "true_integral",
    "zero_oracle",
]


def zero_oracle(dim: int) -> EvalOracle:
    """The probe integrand for the convex adversary."""
    return EvalOracle(dim=dim, fn=lambda pts: np.zeros(pts.shape[0]))


# id -> (values on an (N, d) array, integral over [0, 1]^d as a function of d).
# The coordinate mean is linear, hence both monotone and convex.
_ORACLES = {
    "affine": (lambda pts: pts.mean(axis=1), lambda d: 0.5),
    "product": (lambda pts: np.prod(pts, axis=1), lambda d: 2.0 ** (-d)),
    "square": (lambda pts: (pts * pts).mean(axis=1), lambda d: 1.0 / 3.0),
    "threshold": (threshold_values, lambda d: 0.5),
}
ORACLE_IDS = tuple(sorted(_ORACLES))


def make_oracle(oracle_id: str, dim: int) -> EvalOracle:
    if oracle_id not in _ORACLES:
        raise DomainError(f"unknown oracle {oracle_id!r}; choose from {ORACLE_IDS}")
    return EvalOracle(dim=dim, fn=_ORACLES[oracle_id][0])


def true_integral(oracle_id: str, dim: int) -> float:
    return _ORACLES[oracle_id][1](dim)


def _digits(j: np.ndarray, base: int, dim: int) -> np.ndarray:
    """The dim base-``base`` digits of each index in j, most significant first, as rows."""
    digits = np.empty((j.shape[0], dim), dtype=np.int64)
    for axis in range(dim - 1, -1, -1):
        j, digits[:, axis] = np.divmod(j, base)
    return digits


def _lattice_side(dim: int, budget: int) -> int:
    """Smallest m with m**dim >= budget, by integer bisection."""
    lo, hi = 1, 1 << -(-budget.bit_length() // dim)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**dim >= budget:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class FixedDesign:
    """Non-adaptive algorithm: queries points(0, count) in one block, outputs their mean.

    ``points(lo, hi)`` returns design points lo, ..., hi - 1 as a (hi - lo, d)
    array.  Point j depends only on j and the design's own configuration,
    never on the values seen, so replaying a run reproduces the transcript
    bitwise.  With no queries the output is 1/2, the optimal constant.
    """

    dim: int
    count: int
    points: Callable[[int, int], np.ndarray]

    def next_query(self, transcript: Transcript) -> np.ndarray | None:
        return self.points(transcript.n, self.count) if transcript.n < self.count else None

    def finalize(self, transcript: Transcript) -> float:
        return float(transcript.values.mean()) if transcript.n else 0.5


def _uniform_random(dim: int, budget: int, stream: RandomStream) -> FixedDesign:
    """Budget-many seeded uniform points; point j draws from its own substream."""
    queries = stream.substream("uniform-random", "query")

    def points(lo: int, hi: int) -> np.ndarray:
        return np.array([queries.substream(j).generator().random(dim) for j in range(lo, hi)])

    return FixedDesign(dim, budget, points)


def _grid_scan(dim: int, budget: int, stream: RandomStream) -> FixedDesign:
    """Cell centers (i + 1/2) / m of the smallest m^d lattice, i the base-m digits of point j."""
    m = _lattice_side(dim, budget)
    return FixedDesign(dim, budget, lambda lo, hi: (_digits(np.arange(lo, hi), m, dim) + 0.5) / m)


def _vertex_scan(dim: int, budget: int, stream: RandomStream) -> FixedDesign:
    """Cube vertices in lexicographic order, up to the budget."""
    return FixedDesign(
        dim, min(budget, 2**dim), lambda lo, hi: _digits(np.arange(lo, hi), 2, dim).astype(float)
    )


# id -> factory (dim, budget, stream) -> algorithm, in the order the CLI lists them.
_ALGORITHMS: dict[str, Callable[[int, int, RandomStream], AdaptiveCubature]] = {
    "constant-half": lambda dim, budget, stream: FixedDesign(dim, 0, None),  # no query, no points
    "uniform-random": _uniform_random,
    "grid-scan": _grid_scan,
    "vertex-scan": _vertex_scan,
}
ALGORITHM_IDS = tuple(_ALGORITHMS)


def make_algorithm(
    algorithm_id: str, dim: int, budget: int, stream: RandomStream
) -> AdaptiveCubature:
    if algorithm_id not in _ALGORITHMS:
        raise DomainError(f"unknown algorithm {algorithm_id!r}; choose from {ALGORITHM_IDS}")
    if dim < 1:  # the grid's lattice side divides by dim
        raise DomainError("algorithm dimension must be positive")
    return _ALGORITHMS[algorithm_id](dim, budget, stream)
