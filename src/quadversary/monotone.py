"""Adversary for monotone integrands: fooling pairs and certified bounds.

The probe integrand is the 0/1 step at half the coordinate sum.  After an
algorithm has spent its budget on that probe, the transcript points split
into those that returned 0 and those that returned 1, and two extremal
monotone functions agree with the probe on every queried point while their
integrals differ by an exactly computable gap.  Half that gap is a certified
worst-case error lower bound for the algorithm, and minimizing over point
placements yields the closed-form bounds exposed here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .core import DomainError, EvalOracle, RandomStream, as_points

__all__ = [
    "ConvergenceError",
    "MonotoneFoolingPair",
    "UnionVolume",
    "build_fooling_pair",
    "complexity_lower_bound",
    "error_lower_bound",
    "simplex_product_max",
    "threshold_value",
    "threshold_values",
    "union_box_volume",
]

# Inclusion-exclusion enumerates 2^k subsets; beyond this corner count the
# volume falls back to a flagged Monte Carlo estimate.
EXACT_CORNER_CAP = 20
_EXACT_WORK_CAP = 50_000_000  # subset-table floats; guards memory at high d


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge; message carries diagnostics."""


def threshold_value(x: Sequence[float] | np.ndarray) -> int:
    """0/1 step at half the coordinate sum; the boundary maps to 1."""
    arr = np.asarray(x, dtype=float)
    return int(arr.sum() >= arr.size / 2.0)


def threshold_values(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return (pts.sum(axis=1) >= pts.shape[1] / 2.0).astype(int)


@dataclass(frozen=True)
class UnionVolume:
    """Volume of a union of anchored boxes, exact or flagged as estimated."""

    volume: float
    exact: bool
    std_error: float | None = None


def _inclusion_exclusion(corners: np.ndarray) -> float:
    """Exact volume of union of [0, t_j] boxes via signed subset products.

    Subset minima are built bottom-up over bitmasks (each mask extends the
    mask without its lowest set bit), so every subset costs O(d).
    """
    k, d = corners.shape
    mins = np.empty((1 << k, d))
    total = 0.0
    # Fixed ascending-mask order keeps float summation reproducible.
    for mask in range(1, 1 << k):
        low = mask & -mask
        j = low.bit_length() - 1
        prev = mask ^ low
        mins[mask] = corners[j] if prev == 0 else np.minimum(mins[prev], corners[j])
        term = mins[mask].prod()
        total += term if (mask.bit_count() & 1) else -term
    return float(total)


def _union_membership(points: np.ndarray, corners: np.ndarray, mode: str) -> np.ndarray:
    if mode == "lower":
        inside = points[:, None, :] <= corners[None, :, :]
    else:
        inside = points[:, None, :] >= corners[None, :, :]
    return inside.all(axis=2).any(axis=1)


def union_box_volume(
    corners: np.ndarray,
    mode: str,
    *,
    exact_cap: int = EXACT_CORNER_CAP,
    mc_samples: int = 200_000,
    stream: RandomStream | None = None,
) -> UnionVolume:
    """Volume of the union of boxes [0, t_j] (lower) or [t_j, 1] (upper).

    Up to ``exact_cap`` distinct corners the result is exact by
    inclusion-exclusion; beyond that a Monte Carlo estimate is returned with
    ``exact=False`` and its standard error.
    """
    if mode not in ("lower", "upper"):
        raise DomainError(f"mode must be 'lower' or 'upper', got {mode!r}")
    arr = np.asarray(corners, dtype=float)
    if arr.size == 0:
        return UnionVolume(0.0, exact=True)
    arr = as_points(arr, arr.shape[-1])
    arr = np.unique(arr, axis=0)  # duplicates cannot change the union
    k, d = arr.shape

    if k <= exact_cap and (1 << k) * d <= _EXACT_WORK_CAP:
        boxes = arr if mode == "lower" else 1.0 - arr
        return UnionVolume(_inclusion_exclusion(boxes), exact=True)

    stream = stream or RandomStream(0).substream("union-volume")
    gen = stream.generator()
    hits = 0
    done = 0
    while done < mc_samples:
        size = min(65536, mc_samples - done)
        pts = gen.random((size, d))
        hits += int(_union_membership(pts, arr, mode).sum())
        done += size
    p = hits / mc_samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / mc_samples)
    return UnionVolume(p, exact=False, std_error=se)


@dataclass(frozen=True)
class MonotoneFoolingPair:
    """Two monotone functions that agree with the probe on a transcript.

    The upper function is 1 except below some 0-classified point; the lower
    function is 0 except above some 1-classified point.  ``exact_gap`` is the
    difference of their integrals, ``guaranteed_gap`` the closed-form floor
    max(0, 1 - n 2^-d) it can never undercut (for exactly computed volumes).
    """

    lower_corners: np.ndarray  # points the probe mapped to 0
    upper_corners: np.ndarray  # points the probe mapped to 1
    dim: int
    exact_gap: float
    guaranteed_gap: float
    volumes_exact: bool
    gap_std_error: float | None = None

    @property
    def ell(self) -> int:
        return self.lower_corners.shape[0]

    @property
    def n(self) -> int:
        return self.lower_corners.shape[0] + self.upper_corners.shape[0]

    def fplus_values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.lower_corners.shape[0] == 0:
            return np.ones(pts.shape[0])
        below = _union_membership(pts, self.lower_corners, "lower")
        return np.where(below, 0.0, 1.0)

    def fminus_values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.upper_corners.shape[0] == 0:
            return np.zeros(pts.shape[0])
        above = _union_membership(pts, self.upper_corners, "upper")
        return np.where(above, 1.0, 0.0)

    def fplus(self, x: np.ndarray) -> float:
        return float(self.fplus_values(np.asarray(x, dtype=float)[None, :])[0])

    def fminus(self, x: np.ndarray) -> float:
        return float(self.fminus_values(np.asarray(x, dtype=float)[None, :])[0])

    def fplus_oracle(self) -> EvalOracle:
        return EvalOracle(self.dim, self.fplus_values, "monotone", "fooling-upper")

    def fminus_oracle(self) -> EvalOracle:
        return EvalOracle(self.dim, self.fminus_values, "monotone", "fooling-lower")

    def to_json_obj(self) -> dict:
        return {
            "d": self.dim,
            "L": [list(row) for row in self.lower_corners],
            "U": [list(row) for row in self.upper_corners],
            "exact_gap": self.exact_gap,
            "guaranteed_gap": self.guaranteed_gap,
        }


def build_fooling_pair(
    points: np.ndarray,
    dim: int,
    *,
    stream: RandomStream | None = None,
) -> MonotoneFoolingPair:
    """Split transcript points by the probe's value and compute the gap.

    Classification always uses the probe step function, regardless of what
    oracle the algorithm was actually run on; that is exactly the adversary's
    move.  Duplicated query points keep their multiplicity in n but cannot
    change the union volumes.
    """
    arr = as_points(points, dim)
    labels = threshold_values(arr) if arr.shape[0] else np.zeros(0, dtype=int)
    lower = arr[labels == 0]
    upper = arr[labels == 1]
    vol_lower = union_box_volume(lower, "lower", stream=stream)
    vol_upper = union_box_volume(upper, "upper", stream=stream)
    exact = vol_lower.exact and vol_upper.exact
    se = None
    if not exact:
        parts = [v.std_error for v in (vol_lower, vol_upper) if v.std_error]
        se = math.sqrt(sum(s * s for s in parts)) if parts else None
    return MonotoneFoolingPair(
        lower_corners=lower,
        upper_corners=upper,
        dim=dim,
        exact_gap=(1.0 - vol_lower.volume) - vol_upper.volume,
        guaranteed_gap=max(0.0, 1.0 - arr.shape[0] * 2.0 ** (-dim)),
        volumes_exact=exact,
        gap_std_error=se,
    )


def error_lower_bound(n: int, dim: int) -> float:
    """Worst-case error floor max(0, (1 - n 2^-d) / 2) for n queries."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if dim < 1:
        raise DomainError("dimension must be positive")
    return max(0.0, 0.5 * (1.0 - n * 2.0 ** (-dim)))


def complexity_lower_bound(eps: float, dim: int) -> int:
    """Minimal query count forced on any algorithm with error <= eps.

    Evaluates ceil(2^d (1 - 2 eps)) in exact rational arithmetic so the
    integer is right for every d.  Accuracies eps >= 1/2 cost nothing.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if eps >= 0.5:
        return 0
    bound = (Fraction(2) ** dim) * (1 - 2 * Fraction(eps))
    return max(0, math.ceil(bound))


def simplex_product_max(dim: int) -> float:
    """Maximize the coordinate product over the cube cut by sum <= d/2.

    Solved as a smooth concave program (log objective) with a sequential
    quadratic solver; the result is polished by rescaling onto the sum
    constraint, which never decreases the product.  Non-convergence raises
    :class:`ConvergenceError` with the solver diagnostics.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    half_sum = dim / 2.0

    def neg_log_product(y: np.ndarray) -> float:
        return -float(np.log(y).sum())

    def neg_log_product_grad(y: np.ndarray) -> np.ndarray:
        return -1.0 / y

    result = minimize(
        neg_log_product,
        x0=np.full(dim, 0.25),
        jac=neg_log_product_grad,
        method="SLSQP",
        bounds=[(1e-12, 1.0)] * dim,
        constraints=[{"type": "ineq", "fun": lambda y: half_sum - y.sum()}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    if not result.success:
        raise ConvergenceError(f"product maximization failed: {result.message}")
    y = np.clip(result.x, 1e-12, 1.0)
    total = y.sum()
    if total > half_sum + 1e-9:
        raise ConvergenceError(f"solver left the feasible region (sum {total})")
    if 0.0 < total < half_sum:
        scale = half_sum / total
        if (y * scale).max() <= 1.0:
            y = y * scale
    return float(np.prod(y))
