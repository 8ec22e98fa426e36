"""Built-in integrands and cubature algorithms for the harness and tests.

Every oracle comes with its true integral (step at half-sum: 1/2 by the
x -> 1-x symmetry; coordinate product: 2^-d; coordinate mean: 1/2; mean
of squares: 1/3).  Algorithms implement the adaptive-cubature interface and
derive any randomness from labeled substreams of one seed, so a rerun with
the same seed replays the identical transcript.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, EvalOracle, RandomStream, Transcript
from .monotone import threshold_values

__all__ = [
    "ALGORITHM_IDS",
    "ORACLE_IDS",
    "ConstantHalf",
    "GridScanSampler",
    "UniformRandomSampler",
    "VertexScanSampler",
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


def _mean_or_half(transcript: Transcript) -> float:
    return float(transcript.values.mean()) if transcript.n else 0.5


def _digits(j: int, base: int, dim: int) -> list[int]:
    """The dim base-``base`` digits of j, most significant first."""
    digits = []
    for _ in range(dim):
        j, r = divmod(j, base)
        digits.append(r)
    return digits[::-1]


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
class ConstantHalf:
    """Zero-query algorithm; outputs the optimal constant 1/2."""

    dim: int

    def next_query(self, transcript: Transcript) -> np.ndarray | None:
        return None

    def finalize(self, transcript: Transcript) -> float:
        return 0.5


@dataclass(frozen=True)
class UniformRandomSampler:
    """Samples budget-many seeded uniform points and outputs their mean.

    The j-th query depends only on the seed and j, never on run state, so
    replaying a run reproduces the transcript bitwise.
    """

    dim: int
    budget: int
    stream: RandomStream

    def next_query(self, transcript: Transcript) -> np.ndarray | None:
        if transcript.n >= self.budget:
            return None
        return self.stream.substream("query", transcript.n).generator().random(self.dim)

    def finalize(self, transcript: Transcript) -> float:
        return _mean_or_half(transcript)


@dataclass(frozen=True)
class GridScanSampler:
    """Queries the first budget-many cell centers of the smallest m^d lattice.

    Query j is the cell center (i + 1/2) / m whose indices i are the base-m
    digits of j, the lexicographic order of the lattice.
    """

    dim: int
    budget: int

    def next_query(self, transcript: Transcript) -> np.ndarray | None:
        if transcript.n >= self.budget:
            return None
        m = _lattice_side(self.dim, self.budget)
        return np.array([(i + 0.5) / m for i in _digits(transcript.n, m, self.dim)])

    def finalize(self, transcript: Transcript) -> float:
        return _mean_or_half(transcript)


@dataclass(frozen=True)
class VertexScanSampler:
    """Queries cube vertices in lexicographic order up to the budget."""

    dim: int
    budget: int

    def next_query(self, transcript: Transcript) -> np.ndarray | None:
        if transcript.n >= min(self.budget, 2**self.dim):
            return None
        return np.array(_digits(transcript.n, 2, self.dim), dtype=float)

    def finalize(self, transcript: Transcript) -> float:
        return _mean_or_half(transcript)


ALGORITHM_IDS = ("constant-half", "uniform-random", "grid-scan", "vertex-scan")


def make_algorithm(algorithm_id: str, dim: int, budget: int, stream: RandomStream):
    if algorithm_id == "constant-half":
        return ConstantHalf(dim)
    if algorithm_id == "uniform-random":
        return UniformRandomSampler(dim, budget, stream.substream("uniform-random"))
    if algorithm_id == "grid-scan":
        return GridScanSampler(dim, budget)
    if algorithm_id == "vertex-scan":
        return VertexScanSampler(dim, budget)
    raise DomainError(f"unknown algorithm {algorithm_id!r}; choose from {ALGORITHM_IDS}")
