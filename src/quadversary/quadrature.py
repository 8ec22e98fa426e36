"""Positive-side baselines: bracketing quadrature, Monte Carlo, approximation.

The staircase rule evaluates a monotone integrand on a shared uniform grid
and averages lower and upper cell corners; for monotone functions the true
integral is bracketed between the two averages, giving a certified error at
n = (m+1)^d function values.  Classical Monte Carlo carries the constant-free
n^(-1/2) root-mean-square guarantee for [0,1]-valued integrands; it draws
and evaluates its sample blocks on every CPU, and its bytes do not depend on
the CPU count.  Piecewise
constant approximation and its integral adapter demonstrate that integrating
an approximant can never beat the approximation error.

Full grids are never held as one array: :func:`_grid_slabs` walks them in
slabs of at most ``_SLAB_NODES`` nodes, so the grid rules need O(slab * d)
memory whatever the node count, apart from the m^d cell values that
:func:`pc_approximate` returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import DomainError, EvalOracle, Interval, RandomStream, as_points, map_uniform_blocks

__all__ = [
    "BracketEstimate",
    "PiecewiseConstantApprox",
    "app_to_int",
    "monte_carlo",
    "pc_approximate",
    "staircase_monotone",
    "staircase_rate",
]


@dataclass(frozen=True)
class BracketEstimate:
    """Two-sided staircase estimate with a certified half-width.

    ``bracket`` runs from below the lower-corner average to above the
    upper-corner average, each rounded outward by a bound on its summation
    error, so it never reads ``exact``.  For a monotone oracle the true
    integral lies in it; the bracket is a proof only under that assumption,
    which is not checked.
    """

    bracket: Interval
    certified_error: float
    samples_used: int

    @property
    def estimate(self) -> float:
        return (self.bracket.low + self.bracket.high) / 2.0


# Largest slab of a grid walk, in nodes, unless one axis alone is longer.
_SLAB_NODES = 65536


def _mean_enclosure(sums: list[float], count: int) -> tuple[float, float]:
    """Floats below and above the mean of ``count`` values in [0, 1], given as part sums.

    The parts and their ``math.fsum`` are one floating-point summation of the
    values, off by at most gamma_count times the sum of their magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2),
    with gamma_k = k u / (1 - k u) and u = 2^-53; no value is negative, so
    that sum is the sum itself.  Converting ``count`` and dividing add two
    roundings, so the computed mean a is within gamma_{count+2} /
    (1 - gamma_{count+2}) a <= 2 (count + 2) u a of the true mean.  The
    radius 2 (count + 3) u a covers its own rounding too; both ends are
    rounded outward and clipped to [0, 1].
    """
    mean = math.fsum(sums) / count
    radius = mean * (2 * (count + 3) * 2.0**-53)
    return (max(0.0, math.nextafter(mean - radius, -math.inf)),
            min(1.0, math.nextafter(mean + radius, math.inf)))


def _full_grid(nodes: np.ndarray, dim: int) -> np.ndarray:
    mesh = np.meshgrid(*([nodes] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def _grid_slabs(nodes: np.ndarray, dim: int) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
    """Walk the full grid ``nodes``^dim in row-major order, one slab at a time.

    With k nodes per axis, a slab spans the trailing t axes, t >= 1 the most
    with k^t <= ``_SLAB_NODES``, and a run of up to ``_SLAB_NODES`` // k^t
    consecutive indices of the axis before them; the indices of the axes
    before that are fixed.  Yields the slab's region of the grid, one index
    range per axis, and its points in one buffer that the next slab
    overwrites.
    """
    k = nodes.size
    t = 1
    while t < dim and k ** (t + 1) <= _SLAB_NODES:
        t += 1
    if t == dim:
        yield (slice(0, k),) * dim, _full_grid(nodes, dim)
        return
    tail = k**t
    run = _SLAB_NODES // tail
    fixed = dim - t - 1
    slab = np.empty((run * tail, dim))
    slab[:, fixed + 1 :] = np.tile(_full_grid(nodes, t), (run, 1))
    for prefix in itertools.product(range(k), repeat=fixed):
        slab[:, :fixed] = nodes[list(prefix)]
        for start in range(0, k, run):
            stop = min(start + run, k)
            size = (stop - start) * tail
            slab[:size, fixed] = np.repeat(nodes[start:stop], tail)
            region = tuple(slice(i, i + 1) for i in prefix) + (slice(start, stop),)
            yield region + (slice(0, k),) * t, slab[:size]


def staircase_monotone(oracle: EvalOracle, cells_per_axis: int) -> BracketEstimate:
    """Bracket a monotone integral between lower- and upper-corner averages.

    Both averages reuse one (m+1)^d node grid, which halves the evaluations
    compared to two separate grids.  The grid is evaluated slab by slab, so
    memory is O(slab * d) for any m and d; the slab sums are added by
    ``math.fsum`` and the averages rounded outward by :func:`_mean_enclosure`.
    The reported certificate is the tighter of the realized half-width
    (U - L) / 2 and the telescoping cap d / (2 m).  Both presume a monotone
    oracle, which is not checked.
    """
    m = cells_per_axis
    if m < 1:
        raise DomainError("need at least one cell per axis")
    d = oracle.dim
    lower_sums, upper_sums = [], []
    for region, points in _grid_slabs(np.linspace(0.0, 1.0, m + 1), d):
        slab = oracle.evaluate(points).reshape([r.stop - r.start for r in region])
        # Lower corners have every index below m, upper corners none at 0.
        lower = tuple(slice(0, max(0, m - r.start)) for r in region)
        upper = tuple(slice(max(0, 1 - r.start), None) for r in region)
        lower_sums.append(float(slab[lower].sum()))
        upper_sums.append(float(slab[upper].sum()))
    lower = _mean_enclosure(lower_sums, m**d)[0]
    upper = _mean_enclosure(upper_sums, m**d)[1]
    return BracketEstimate(
        bracket=Interval(lower, upper),
        certified_error=min((upper - lower) / 2.0, d / (2.0 * m)),
        samples_used=(m + 1) ** d,
    )


def staircase_rate(oracle: EvalOracle) -> tuple[list[BracketEstimate], float]:
    """Staircase brackets at 2, 4, ..., 32 cells per axis and their rate.

    The rate is the least-squares slope of log certified error against log
    node count; for a monotone integrand it approaches -1/d.
    """
    brackets = [staircase_monotone(oracle, m) for m in (2, 4, 8, 16, 32)]
    xs = [np.log(b.samples_used) for b in brackets]
    ys = [np.log(b.certified_error) for b in brackets]
    return brackets, float(np.polyfit(xs, ys, 1)[0])


def monte_carlo(oracle: EvalOracle, n: int, stream: RandomStream) -> tuple[float, float]:
    """Uniform-sample mean with the constant-free n^(-1/2) error guarantee.

    Samples are the rows of one generator in 8,192-point blocks.  The blocks
    are drawn and evaluated on every CPU by ``core.map_uniform_blocks``, so
    ``oracle.fn`` may run on several threads at once, and the block sums are
    reduced in block order: the estimate depends only on the seed and n, not
    on the CPU count.
    """
    sums = map_uniform_blocks(lambda pts: float(oracle.evaluate(pts).sum()),
                              stream.substream("mc"), n, oracle.dim)
    return sum(sums) / n, 1.0 / math.sqrt(n)


@dataclass(frozen=True)
class PiecewiseConstantApprox:
    """Step-function approximant on the uniform m^d cell grid."""

    values: np.ndarray
    cells_per_axis: int
    dim: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        expected = (self.cells_per_axis,) * self.dim
        if arr.shape != expected:
            raise DomainError(f"values have shape {arr.shape}, expected {expected}")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DomainError("cell values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Step values at an (N, dim) array of points of the unit cube."""
        pts = as_points(points, self.dim)
        idx = np.minimum((pts * self.cells_per_axis).astype(int), self.cells_per_axis - 1)
        return self.values[tuple(idx.T)]


def pc_approximate(oracle: EvalOracle, cells_per_axis: int) -> PiecewiseConstantApprox:
    """Approximate by the oracle's value at each cell's lower corner.

    For monotone integrands the L1 error is at most the staircase bracket
    width on the same grid (the cellwise oscillation bound).  The corners are
    evaluated slab by slab, so beyond the m^d values returned, memory is
    O(slab * d).
    """
    m = cells_per_axis
    if m < 1:
        raise DomainError("need at least one cell per axis")
    d = oracle.dim
    values = np.empty((m,) * d)
    for region, points in _grid_slabs(np.arange(m) / m, d):
        values[region] = oracle.evaluate(points).reshape(values[region].shape)
    return PiecewiseConstantApprox(values=values, cells_per_axis=m, dim=d)


def app_to_int(approx: PiecewiseConstantApprox) -> float:
    """Exact integral of the step approximant (the mean of its cell values).

    The induced integration rule is off from the true integral by at most the
    L1 approximation error, hence by at most any Lp error with p >= 1.
    """
    return float(approx.values.mean())
