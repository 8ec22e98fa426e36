"""Adversary for convex integrands: maximal fooling function and volume bounds.

Against the zero integrand an algorithm commits to some sample points P,
passed as a plain (n, d) array and checked once by ``core.as_points``.  The
largest convex [0,1]-valued function vanishing on P has, as the region above
its graph, the convex hull of P at height 0 together with the full top face
at height 1; its value at x is found by a small linear program with 2d
rows, and its integral (one minus that hull's volume) yields a statistical
error lower bound for the algorithm.

The LP optimum is the lower envelope of the affine functions y.rhs(x) over
the dual vertices y, so :class:`MaximalConvexEvaluator` caches optimal
bases.  It resolves each 8,192-query block, one hull-integral sample block,
by an envelope sweep, one product of the cached duals against the block,
testing primal feasibility only where a basis is within 1e-9 of a query's
minimum.  The queries no cached basis covers are solved in rounds by one
batched ``lp.solve`` each, from the slack basis, and the new optimal bases
join the cache with their Newton-refined inverses.

The closed-form side bounds the hull volume from above: every point of P is a
convex combination of at most d+1 cube vertices, each vertex's share of a low
slice of the hull sits inside a ball cap, and the cap volume is driven below
(10/11)^d by an exponential-moment (Chernoff) argument.  The net effect is a
query-count lower bound that grows like (11/10)^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import lp
from .core import (
    _BLOCK_ELEMENTS,
    _SAMPLE_BLOCK,
    Certificate,
    DomainError,
    Interval,
    RandomStream,
    as_points,
    map_uniform_blocks,
    uniform_blocks,
)

__all__ = [
    "CERTIFICATION_LIMIT",
    "ChernoffBound",
    "ConvergenceError",
    "HeightThreshold",
    "MaximalConvexEvaluator",
    "McEstimate",
    "cap_volume_mc",
    "caratheodory_cube_decomposition",
    "chernoff_factor",
    "chernoff_factor_min",
    "complexity_lower_bound",
    "complexity_lower_bounds",
    "default_height_threshold",
    "elekes_cover_check",
    "empirical_error_lower_bound",
    "find_height_threshold",
    "hull_volume_upper_bound",
    "maximal_convex_integral",
    "vertexize",
]

# Certification threshold for the per-coordinate Chernoff factor.
CERTIFICATION_LIMIT = 10.0 / 11.0
# Step tolerance of the Chernoff rate search, relative above rate 1.
_RATE_TOL = 1e-9
# Height grid that find_height_threshold bisects, and its final tolerance.
_HEIGHT_STEP = 1e-3
_HEIGHT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge; message carries diagnostics."""


def _lift(points: np.ndarray) -> np.ndarray:
    """The columns [x; 1-x] of (n, d) points, as a (2d, n) array.

    Lifted sample points are the constraint columns of the hull-membership
    program and lifted queries its right-hand sides.  A combination weight
    vector puts mass on the sample points and the rest on the top face; the
    query point x is reachable at height 1 - sum(w) iff sum(w) <= 1,
    X^T w <= x,  (1-X)^T w <= 1-x,  w >= 0.  Maximizing sum(w) therefore
    finds the lowest point of the hull above x.  The row sum(w) <= 1 is
    left out: for any coordinate k, the rows X_k^T w <= x_k and
    (1-X_k)^T w <= 1-x_k add up to it, so the 2d rows keep the optimum.
    """
    n, d = points.shape
    lifted = np.empty((2 * d, n))
    lifted[:d] = points.T
    lifted[d:] = 1.0 - points.T
    return lifted


# Cached bases per product of one sweep step: few, so that queries the first
# steps resolve drop out of the later ones.
_SWEEP_BASES = 16
# A basis feasible for a query attains the minimum of y.rhs over the cached
# duals y; only bases this close to that minimum are tested for feasibility.
_NEAR_MIN = 1e-9


class MaximalConvexEvaluator:
    """Evaluates the largest [0,1]-valued convex function vanishing on P.

    P is an (n, d) array of points in the unit cube; n may be 0.

    The underlying LP has the 2d rows of ``_lift`` and is piecewise linear
    in the query point, so the evaluator caches optimal bases with their
    duals y and inverses, as ``lp.solve`` returns them after one Newton step
    against the original columns: a cached basis whose basic solution stays
    feasible for a query certifies that query's optimum y.rhs(x) without
    another solve (reduced costs do not depend on the right-hand side).

    Queries are taken in blocks of ``core._SAMPLE_BLOCK`` (8,192), the size
    of every uniform sample block, so each hull-integral block is swept once,
    and resolved in rounds.  An envelope sweep evaluates y.rhs(x) for all new
    duals in one product, keeps each query's running minimum over the cache
    (an upper bound on the optimum, tight exactly when the basis attaining
    it is feasible) and tests feasibility only on bases within
    ``_NEAR_MIN`` of it.  The first
    queries left unresolved are then solved together by one batched
    ``lp.solve`` from the slack basis; the new optimal bases join the cache
    and the next sweep.  A round holds twice as many queries as the previous
    round found new bases, so solves stay few while the cache still misses
    often and one at a time once it covers nearly everything.  The round
    size carries over from call to call, so feeding whole query blocks one
    call at a time gives bitwise what one call on all of them gives.
    """

    def __init__(self, points: np.ndarray, dim: int):
        self.dim = dim
        self._constraints = _lift(as_points(points, dim))
        self._objective = np.ones(self._constraints.shape[1])
        m = self._constraints.shape[0]
        # Cached bases, and their duals and inverses in cache order, in
        # buffers that double when full.
        self._bases: set[tuple[int, ...]] = set()
        self._duals = np.empty((16, m))
        self._inverses = np.empty((16, m, m))
        self._batch = 1  # queries in the next batched solve

    def _cache(self, solution: lp.LPSolution) -> int:
        """Append the bases of a batched solution not cached yet; count them."""
        fresh = []
        for j, key in enumerate(map(tuple, solution.basis.tolist())):
            if key not in self._bases:
                self._bases.add(key)
                fresh.append(j)
        end = len(self._bases)
        if end > self._duals.shape[0]:
            size = max(end, 2 * self._duals.shape[0])
            for name in ("_duals", "_inverses"):
                old = getattr(self, name)
                grown = np.empty((size,) + old.shape[1:], dtype=old.dtype)
                grown[: old.shape[0]] = old
                setattr(self, name, grown)
        rows = slice(end - len(fresh), end)
        self._duals[rows] = solution.duals[fresh]
        self._inverses[rows] = solution.basis_inverse[fresh]
        return len(fresh)

    def values(self, queries: np.ndarray) -> np.ndarray:
        """Evaluate an (N, d) batch of query points."""
        pts = as_points(queries, self.dim)
        n_q = pts.shape[0]
        if self._objective.size == 0:
            return np.ones(n_q)  # no mass at height 0: the hull is the top face
        best = np.empty(n_q)
        for lo in range(0, n_q, _SAMPLE_BLOCK):
            hi = min(n_q, lo + _SAMPLE_BLOCK)
            self._resolve(_lift(pts[lo:hi]), best[lo:hi])
        return np.clip(1.0 - best, 0.0, 1.0)

    def _resolve(self, rhs: np.ndarray, best: np.ndarray) -> None:
        """Fill ``best`` with the LP optima of one block."""
        n_q = rhs.shape[1]
        unresolved = np.ones(n_q, dtype=bool)
        low = np.full(n_q, np.inf)  # running minimum of y.rhs over the cache
        self._sweep(0, rhs, best, unresolved, low)
        while unresolved.any():
            todo = np.flatnonzero(unresolved)[: self._batch]
            solution = lp.solve(self._objective, self._constraints, rhs[:, todo].T)
            best[todo] = solution.value
            unresolved[todo] = False
            first = len(self._bases)
            self._batch = max(1, 2 * self._cache(solution))
            self._sweep(first, rhs, best, unresolved, low)

    def _sweep(self, first: int, rhs: np.ndarray, best: np.ndarray, unresolved: np.ndarray,
               low: np.ndarray) -> None:
        """Resolve what the cache rows from ``first`` on can and update the minima."""
        end = len(self._bases)
        for lo in range(first, end, _SWEEP_BASES):
            idx = np.flatnonzero(unresolved)
            if idx.size == 0:
                return
            cols = rhs[:, idx]
            objective = self._duals[lo : min(end, lo + _SWEEP_BASES)] @ cols
            lowest = np.minimum(low[idx], objective.min(axis=0))
            low[idx] = lowest
            # Bases are tested in cache order on the queries near their minimum;
            # a query resolves at the first one that covers it and leaves the rest.
            near = objective <= lowest + _NEAR_MIN
            for row in np.flatnonzero(near.any(axis=1)):
                queries = near[row].nonzero()[0]
                if queries.size:
                    basic = self._inverses[lo + row] @ cols[:, queries]
                    hit = queries[basic.min(axis=0) >= -lp.FEASIBILITY_TOL]
                    resolved = idx[hit]
                    best[resolved] = objective[row, hit]
                    unresolved[resolved] = False
                    near[:, hit] = False


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    std_error: float


def _sample_mean(block_values: Iterable[np.ndarray], n: int) -> McEstimate:
    """Mean and standard error of n sample values, handed over block by block in order.

    Memory holds the n values and whatever one block needs.
    """
    values = np.empty(n)
    done = 0
    for block in block_values:
        values[done : done + block.shape[0]] = block
        done += block.shape[0]
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(float(values.mean()), se)


def maximal_convex_integral(
    points: np.ndarray, dim: int, num_points: int, stream: RandomStream
) -> McEstimate:
    """Monte Carlo integral of the maximal convex function vanishing on (n, d) points.

    One minus the returned mean estimates the hull volume.  Points come from
    the ``hull-integral`` substream in 8,192-point blocks, so the estimate
    depends only on ``stream`` and ``num_points``.  The blocks are evaluated
    one after another: the evaluator's basis cache is state, which one block
    hands to the next.
    """
    evaluator = MaximalConvexEvaluator(points, dim)
    blocks = uniform_blocks(stream.substream("hull-integral"), num_points, dim)
    return _sample_mean(map(evaluator.values, blocks), num_points)


def empirical_error_lower_bound(
    points: np.ndarray, dim: int, num_points: int, stream: RandomStream
) -> Certificate:
    """Statistical error floor for any algorithm that queried the (n, d) points P.

    Half the integral estimate: the algorithm cannot distinguish the zero
    function from the maximal vanishing convex function, so it errs by at
    least half their integral difference on one of them.  ``error`` is that
    estimate -/+ 3 SE; ``theorem`` is (1 - :func:`hull_volume_upper_bound`) / 2 at ``t0``.
    """
    est = maximal_convex_integral(points, dim, num_points, stream)
    value, se = est.value / 2.0, est.std_error / 2.0
    cap = hull_volume_upper_bound(len(points), dim, default_height_threshold().t0)
    return Certificate(value, se, Interval(value - 3.0 * se, value + 3.0 * se),
                       0.5 * (1.0 - cap), "estimate")


def caratheodory_cube_decomposition(
    x: np.ndarray | Sequence[float],
) -> list[tuple[tuple[int, ...], float]]:
    """Write a cube point as a convex combination of at most d+1 vertices.

    Sorted-coordinate staircase: sort coordinates descending (stable, so ties
    break by coordinate index), let the k-th vertex switch on the top k
    coordinates, and take consecutive differences as weights.  Zero weights
    are dropped; the remaining weights are positive and sum to one.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DomainError("expected a single point")
    as_points(arr[None, :], arr.size)
    d = arr.size
    order = np.argsort(-arr, kind="stable")
    sorted_vals = arr[order]
    levels = np.concatenate(([1.0], sorted_vals, [0.0]))
    result: list[tuple[tuple[int, ...], float]] = []
    vertex = np.zeros(d, dtype=int)
    for k in range(d + 1):
        if k > 0:
            vertex[order[k - 1]] = 1
        weight = levels[k] - levels[k + 1]
        if weight > 0.0:
            result.append((tuple(int(v) for v in vertex), float(weight)))
    return result


def vertexize(points: np.ndarray, dim: int) -> np.ndarray:
    """Replace each of the (n, d) points by the cube vertices carrying it.

    The union over all points has at most (d+1) n vertices and its hull
    contains every original point, so the maximal vanishing convex function
    can only decrease pointwise.  Vertices are deduplicated and ordered
    lexicographically for reproducibility, as a (k, d) array.
    """
    seen: set[tuple[int, ...]] = set()
    for row in as_points(points, dim):
        for vertex, _ in caratheodory_cube_decomposition(row):
            seen.add(vertex)
    return np.array(sorted(seen), dtype=float).reshape(-1, dim)


def elekes_cover_check(
    vertices: np.ndarray, trials: int, stream: RandomStream
) -> np.ndarray | None:
    """Sample convex combinations of (k, d) cube vertices and test the ball cover.

    Every point of the hull of a vertex set lies in the ball spanned between
    some vertex v and the cube center: center (v + 1/2) / 2, radius
    sqrt(d) / 4, so v lies on its boundary.  Returns the first sampled point
    outside every ball (none is expected), or ``None``.  Points are drawn in
    blocks whose (point, vertex, axis) temporary has at most
    ``_BLOCK_ELEMENTS`` entries; one generator's Dirichlet draws do not
    depend on the block sizes.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.size == 0:
        raise DomainError(f"cover check needs a nonempty (k, d) vertex set, got {verts.shape}")
    if not np.all((verts == 0.0) | (verts == 1.0)):
        raise DomainError("cover check applies to cube vertex sets")
    if trials < 1:  # a check that samples nothing proves nothing
        raise DomainError("cover check needs at least one trial")
    k, d = verts.shape
    centers = (verts + 0.5) / 2.0
    radius_sq = d / 16.0
    gen = stream.substream("cover-check").generator()
    step = max(1, _BLOCK_ELEMENTS // (k * d))
    for done in range(0, trials, step):
        pts = gen.dirichlet(np.ones(k), size=min(step, trials - done)) @ verts
        dist_sq = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        outside = np.flatnonzero(~(dist_sq <= radius_sq + 1e-12).any(axis=1))
        if outside.size:
            return pts[outside[0]]
    return None


def cap_volume_mc(
    t: float, dim: int, num_samples: int, stream: RandomStream
) -> McEstimate:
    """Monte Carlo volume of the cap holding one vertex's share of a slice.

    At slice height t the cap is the cube's intersection with the ball of
    center (s, ..., s) and radius sqrt(d) s, where s = (1+t)/4.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError("slice height must be in [0, 1]")
    if dim < 1:
        raise DomainError("dimension must be positive")
    s = (1.0 + t) / 4.0
    values = map_uniform_blocks(lambda pts: ((pts - s) ** 2).sum(axis=1) <= dim * s * s,
                                stream.substream("cap-volume"), num_samples, dim)
    return _sample_mean(values, num_samples)


def chernoff_factor(s: float, alpha: float) -> float:
    """Exponential-moment integral of exp(alpha (2 s x - x^2)) over [0, 1].

    Its d-th power bounds the cap volume at the matching height.  Completing
    the square gives the closed form exp(alpha s^2) sqrt(pi/alpha) / 2 times
    erf(sqrt(alpha) (1-s)) + erf(sqrt(alpha) s).
    """
    if alpha < 0.0:
        raise DomainError("alpha must be nonnegative")
    if alpha == 0.0:
        return 1.0
    root = math.sqrt(alpha)
    return (
        math.exp(alpha * s * s)
        * 0.5
        * math.sqrt(math.pi / alpha)
        * (math.erf(root * (1.0 - s)) + math.erf(root * s))
    )


@dataclass(frozen=True)
class ChernoffBound:
    """Minimized exponential-moment factor at one ball-cap scale."""

    s: float
    alpha_star: float
    g_min: float
    certified: bool


def _chernoff_derivatives(s: float, alpha: float) -> tuple[float, float]:
    """First and second rate derivatives of ``chernoff_factor`` at a rate alpha > 0.

    The slope S is the integral of (2 s x - x^2) exp(alpha (2 s x - x^2));
    writing 2 s x - x^2 = s^2 - (x - s)^2 and integrating (x - s)^2 exp(...)
    by parts gives 2 alpha S = (2 s^2 alpha - 1) g + (1 - s) e + s, with g
    the factor itself and e = exp(alpha (2 s - 1)).  Differentiating that
    identity gives the curvature:
    2 alpha S' = 2 s^2 g + (2 s^2 alpha - 3) S + (1 - s)(2 s - 1) e.
    """
    g = chernoff_factor(s, alpha)
    e = math.exp(alpha * (2.0 * s - 1.0))
    slope = ((2.0 * s * s * alpha - 1.0) * g + (1.0 - s) * e + s) / (2.0 * alpha)
    curvature = (2.0 * s * s * g + (2.0 * s * s * alpha - 3.0) * slope
                 + (1.0 - s) * (2.0 * s - 1.0) * e) / (2.0 * alpha)
    return slope, curvature


def chernoff_factor_min(s: float) -> ChernoffBound:
    """Minimize the exponential-moment factor over positive rates.

    The factor is convex in the rate (its second derivative is the integral
    of (2 s x - x^2)^2 exp(...) >= 0), so its slope, given in closed form by
    ``_chernoff_derivatives`` with its own derivative, is nondecreasing and
    changes sign once, at the minimum.  Doubling the rate from 1 brackets
    that sign change.  Newton steps on the slope then narrow the bracket,
    with a bisection step wherever a Newton step would leave the bracket or
    fails to halve the step before last ("rtsafe", Press et al., Numerical
    Recipes, section 9.4), and the search stops once a step is within the
    tolerance; the factor is reported at the last iterate.  The tolerance
    is relative above rate 1: for s below about 3e-4 the minimizer passes
    4e6, where adjacent floats lie more than 1e-9 apart.
    The slope at rate 0 is s - 1/3; so this returns the exact minimum for
    s > 1/3, the factor 1 at rate 0, without a search.  The float test
    ``s > 1.0 / 3.0`` decides the real s > 1/3 exactly, because the float
    nearest 1/3 lies below it.
    """
    if not (0.0 < s <= 0.5):
        raise DomainError("scale s must lie in (0, 1/2]")
    if s > 1.0 / 3.0:
        return ChernoffBound(s=s, alpha_star=0.0, g_min=1.0, certified=False)
    lo, hi = 0.0, 1.0
    slope, curvature = _chernoff_derivatives(s, hi)
    while slope < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0**40:
            raise ConvergenceError(f"no bracket for the factor minimum at s={s}")
        slope, curvature = _chernoff_derivatives(s, hi)
    alpha, step, before = hi, hi - lo, hi - lo
    while True:
        newton = slope / curvature if curvature > 0.0 else math.inf
        if lo < alpha - newton < hi and abs(newton) <= 0.5 * abs(before):
            before, step, alpha = step, newton, alpha - newton
        else:
            before, step, alpha = step, 0.5 * (hi - lo), 0.5 * (lo + hi)
        if abs(step) <= _RATE_TOL * max(1.0, alpha):
            break
        slope, curvature = _chernoff_derivatives(s, alpha)
        if slope < 0.0:
            lo = alpha
        else:
            hi = alpha
    # Near s = 1/3 the dip below 1 is under an ulp and rounding can lift the
    # factor past 1, which rate 0 attains exactly.
    g_min = min(chernoff_factor(s, alpha), 1.0)
    return ChernoffBound(s=s, alpha_star=alpha, g_min=g_min, certified=g_min < CERTIFICATION_LIMIT)


@dataclass(frozen=True)
class HeightThreshold:
    """Largest certified slice height and the accuracy threshold it induces."""

    t0: float
    eps0: float
    bound_at_t0: ChernoffBound


def find_height_threshold() -> HeightThreshold:
    """Find the largest height below which the Chernoff factor certifies.

    The factor's minimum g_min(s) is nondecreasing in s, as its s-derivative
    is the integral of 2 alpha x exp(alpha (2 s x - x^2)) >= 0 for alpha >= 0.
    So the certified heights form an interval: bisecting the grid index finds
    the first failing point of a dense grid, and a finer bisection of the
    interval below it gives the result.  The accuracy threshold is exactly
    half the height.  Certification failing already at height zero, or never
    failing on the grid, would contradict the closed-form argument and raises
    an error.
    """

    def certified(t: float) -> bool:
        return chernoff_factor_min((1.0 + t) / 4.0).certified

    if not certified(0.0):
        raise ConvergenceError("certification fails at height zero; inconsistent setup")
    k_ok, k_bad = 0, int(round(1.0 / _HEIGHT_STEP))
    if certified(k_bad * _HEIGHT_STEP):
        raise ConvergenceError("certification never fails on (0, 1]; inconsistent setup")
    while k_bad - k_ok > 1:
        k = (k_ok + k_bad) // 2
        if certified(k * _HEIGHT_STEP):
            k_ok = k
        else:
            k_bad = k
    t_ok, t_bad = k_ok * _HEIGHT_STEP, k_bad * _HEIGHT_STEP
    while t_bad - t_ok > _HEIGHT_TOL:
        mid = 0.5 * (t_ok + t_bad)
        if certified(mid):
            t_ok = mid
        else:
            t_bad = mid
    t0 = t_ok
    return HeightThreshold(t0=t0, eps0=t0 / 2.0, bound_at_t0=chernoff_factor_min((1.0 + t0) / 4.0))


@lru_cache(maxsize=1)
def default_height_threshold() -> HeightThreshold:
    """Cached default-parameter height threshold (about a millisecond to compute)."""
    return find_height_threshold()


def hull_volume_upper_bound(n: int, dim: int, t0: float) -> float:
    """Closed-form cap on the hull volume for any n-point sample set.

    (1 - t0) + (d+1) n t0 (10/11)^d, clipped to 1; vacuous at small d but
    eventually far below 1 as the dimension grows.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if dim < 1:
        raise DomainError("dimension must be positive")
    if not (0.0 < t0 < 1.0):
        raise DomainError("t0 must lie in (0, 1)")
    bound = (1.0 - t0) + (dim + 1) * n * t0 * CERTIFICATION_LIMIT**dim
    return min(1.0, bound)


def complexity_lower_bound(eps: float, dim: int, eps0: float) -> int:
    """Minimal query count forced on any algorithm with error <= eps.

    Evaluates ceil((11/10)^d (1 - eps/eps0) / (d+1)) in exact integer
    arithmetic, with eps = p / q and eps0 = p0 / q0 taken exactly from the
    floats; accuracies at or above the threshold eps0 cost nothing.  It is
    the first row of ``complexity_lower_bounds``.
    """
    return complexity_lower_bounds(eps, dim, dim, eps0)[0]


def complexity_lower_bounds(eps: float, dim: int, dmax: int, eps0: float) -> list[int]:
    """``complexity_lower_bound`` at each dimension dim..dmax, in order.

    The first row raises 11 and 10 to the power dim; each later row carries
    the previous row's powers and multiplies them by 11 and 10.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    if not eps > 0.0:
        raise DomainError("eps must be positive")
    if not (0.0 < eps0 < 0.5):
        raise DomainError("eps0 must lie in (0, 1/2)")
    if eps >= eps0:
        return [0] * len(range(dim, dmax + 1))
    p, q = eps.as_integer_ratio()
    p0, q0 = eps0.as_integer_ratio()
    top, bottom = 11**dim * (q * p0 - p * q0), 10**dim * q * p0
    bounds = []
    for d in range(dim, dmax + 1):
        bounds.append(-(-top // (bottom * (d + 1))))
        top, bottom = 11 * top, 10 * bottom
    return bounds
