"""Adversary for convex integrands: maximal fooling function and volume bounds.

Against the zero integrand an algorithm commits to some sample points P,
passed as a plain (n, d) array and checked once by ``core.as_points``.  The
largest convex [0,1]-valued function vanishing on P has, as the region above
its graph, the convex hull of P at height 0 together with the full top face
at height 1; its value at x is found by a small linear program, and its
integral (one minus that hull's volume) yields a statistical error lower
bound for the algorithm.

The LP optimum is the lower envelope of the affine functions y.rhs(x) over
the dual vertices y, so :class:`MaximalConvexEvaluator` caches optimal
bases.  It resolves each block of queries by an envelope sweep, one product
of the cached duals against the block, testing primal feasibility only
where a basis is within 1e-9 of a query's minimum.  The queries no cached
basis covers are solved in rounds by one batched ``lp.solve`` each, from the
slack basis, and the new optimal bases join the cache.

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
from typing import Sequence

import numpy as np

from . import lp
from .core import DomainError, RandomStream, as_points, uniform_blocks
from .monotone import ConvergenceError

__all__ = [
    "CERTIFICATION_LIMIT",
    "ChernoffBound",
    "CoverCheck",
    "HeightThreshold",
    "MaximalConvexEvaluator",
    "McEstimate",
    "cap_volume_mc",
    "caratheodory_cube_decomposition",
    "chernoff_factor",
    "chernoff_factor_min",
    "complexity_lower_bound",
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
# Golden-section tolerance on the Chernoff rate.
_RATE_TOL = 1e-9
# Height grid that find_height_threshold bisects, and its final tolerance.
_HEIGHT_STEP = 1e-3
_HEIGHT_TOL = 1e-6


def _lift(points: np.ndarray) -> np.ndarray:
    """The columns [1; x; 1-x] of (n, d) points, as a (2d + 1, n) array.

    Lifted sample points are the constraint columns of the hull-membership
    program and lifted queries its right-hand sides.  A combination weight
    vector puts mass on the sample points and the rest on the top face; the
    query point x is reachable at height 1 - sum(w) iff sum(w) <= 1,
    X^T w <= x,  (1-X)^T w <= 1-x,  w >= 0.  Maximizing sum(w) therefore
    finds the lowest point of the hull above x.
    """
    n, d = points.shape
    lifted = np.empty((2 * d + 1, n))
    lifted[0] = 1.0
    lifted[1 : d + 1] = points.T
    lifted[d + 1 :] = 1.0 - points.T
    return lifted


# Queries per block of MaximalConvexEvaluator.values.
_QUERY_BLOCK = 4096
# Cached bases per product of one sweep step: few, so that queries the first
# steps resolve drop out of the later ones.
_SWEEP_BASES = 16
# A basis feasible for a query attains the minimum of y.rhs over the cached
# duals y; only bases this close to that minimum are tested for feasibility.
_NEAR_MIN = 1e-9


class MaximalConvexEvaluator:
    """Evaluates the largest [0,1]-valued convex function vanishing on P.

    P is an (n, d) array of points in the unit cube; n may be 0.

    The underlying LP optimum is piecewise linear in the query point, so the
    evaluator caches optimal bases with their duals y and inverses: a cached
    basis whose basic solution stays feasible for a query certifies that
    query's optimum y.rhs(x) without another solve (reduced costs do not
    depend on the right-hand side).

    Queries are taken in fixed-size blocks and resolved in rounds.  An
    envelope sweep evaluates y.rhs(x) for all new duals in one product, keeps
    each query's running minimum over the cache (an upper bound on the
    optimum, tight exactly when the basis attaining it is feasible) and
    tests feasibility only on bases within ``_NEAR_MIN`` of it.  The first
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
        # Duals and inverses of the cached bases, in buffers that double
        # when full; ``_rows`` maps a basis to its row.
        self._rows: dict[tuple[int, ...], int] = {}
        self._duals = np.empty((16, m))
        self._inverses = np.empty((16, m, m))
        self._batch = 1  # queries in the next batched solve

    def _cache(self, solution: lp.LPSolution) -> int:
        """Append the bases of a batched solution not cached yet; count them."""
        fresh = []
        for j, key in enumerate(map(tuple, solution.basis.tolist())):
            if key not in self._rows:
                self._rows[key] = len(self._rows)
                fresh.append(j)
        end = len(self._rows)
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
        for lo in range(0, n_q, _QUERY_BLOCK):
            hi = min(n_q, lo + _QUERY_BLOCK)
            self._resolve(_lift(pts[lo:hi]), best[lo:hi])
        return np.clip(1.0 - best, 0.0, 1.0)

    def _resolve(self, rhs: np.ndarray, best: np.ndarray) -> None:
        """Fill ``best`` with the LP optima of one block."""
        n_q = rhs.shape[1]
        unresolved = np.ones(n_q, dtype=bool)
        low = np.full(n_q, np.inf)  # running minimum of y.rhs over the cache
        self._sweep(0, len(self._rows), rhs, best, unresolved, low)
        while unresolved.any():
            todo = np.flatnonzero(unresolved)[: self._batch]
            solution = lp.solve(self._objective, self._constraints, rhs[:, todo].T)
            best[todo] = solution.value
            unresolved[todo] = False
            first = len(self._rows)
            self._batch = max(1, 2 * self._cache(solution))
            self._sweep(first, len(self._rows), rhs, best, unresolved, low)

    def _sweep(
        self,
        first: int,
        end: int,
        rhs: np.ndarray,
        best: np.ndarray,
        unresolved: np.ndarray,
        low: np.ndarray,
    ) -> None:
        """Resolve what cache rows ``first:end`` can and update the minima."""
        for lo in range(first, end, _SWEEP_BASES):
            idx = np.flatnonzero(unresolved)
            if idx.size == 0:
                return
            cols = rhs[:, idx]
            objective = self._duals[lo : min(end, lo + _SWEEP_BASES)] @ cols
            low[idx] = np.minimum(low[idx], objective.min(axis=0))
            # Feasibility is tested only on (basis, query) pairs near the
            # minimum, grouped by basis in cache order, so a query resolves
            # at the first cached basis that covers it.
            near_b, near_q = np.nonzero(objective <= low[idx] + _NEAR_MIN)
            open_ = np.ones(idx.size, dtype=bool)
            groups = np.flatnonzero(np.diff(near_b)) + 1
            heads = near_b[np.r_[0, groups]] if near_b.size else near_b
            for row, queries in zip(heads, np.split(near_q, groups)):
                queries = queries[open_[queries]]
                if queries.size == 0:
                    continue
                basic = self._inverses[lo + row] @ cols[:, queries]
                hit = queries[basic.min(axis=0) >= -lp.FEASIBILITY_TOL]
                best[idx[hit]] = objective[row, hit]
                open_[hit] = False
            unresolved[idx[~open_]] = False


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    std_error: float


def _mc_mean(values: np.ndarray) -> McEstimate:
    m = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return McEstimate(mean, se)


def maximal_convex_integral(
    points: np.ndarray, dim: int, num_points: int, stream: RandomStream
) -> McEstimate:
    """Monte Carlo integral of the maximal convex function vanishing on (n, d) points.

    One minus the returned mean estimates the hull volume.  Points come from
    the ``hull-integral`` substream in labeled blocks, so the estimate depends
    only on ``stream`` and ``num_points``.  Each block is evaluated as it is
    drawn, so memory holds the N values and one block of points.
    """
    if num_points < 1:
        raise DomainError("need at least one sample point")
    evaluator = MaximalConvexEvaluator(points, dim)
    values = np.empty(num_points)
    done = 0
    for pts in uniform_blocks(stream.substream("hull-integral"), num_points, dim):
        values[done : done + pts.shape[0]] = evaluator.values(pts)
        done += pts.shape[0]
    return _mc_mean(values)


def empirical_error_lower_bound(
    points: np.ndarray, dim: int, num_points: int, stream: RandomStream
) -> McEstimate:
    """Statistical error floor for any algorithm that queried the (n, d) points P.

    Half the integral estimate: the algorithm cannot distinguish the zero
    function from the maximal vanishing convex function, so it errs by at
    least half their integral difference on one of them.
    """
    est = maximal_convex_integral(points, dim, num_points, stream)
    return McEstimate(est.value / 2.0, est.std_error / 2.0)


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


@dataclass(frozen=True)
class CoverCheck:
    """Outcome of sampling hull points against the vertex ball cover."""

    ok: bool
    counterexample: np.ndarray | None = None


def elekes_cover_check(vertices: np.ndarray, trials: int, stream: RandomStream) -> CoverCheck:
    """Sample convex combinations of (k, d) cube vertices and test the ball cover.

    Every point of the hull of a vertex set lies in the ball spanned between
    some vertex v and the cube center: center (v + 1/2) / 2, radius
    sqrt(d) / 4, so v lies on its boundary.  A violation (none is expected)
    is returned as a counterexample.
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
    done = 0
    while done < trials:
        size = min(4096, trials - done)
        weights = gen.dirichlet(np.ones(k), size=size)
        pts = weights @ verts
        dist_sq = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        inside = (dist_sq <= radius_sq + 1e-12).any(axis=1)
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            return CoverCheck(False, pts[bad])
        done += size
    return CoverCheck(True)


def cap_volume_mc(
    t: float, dim: int, num_samples: int, stream: RandomStream
) -> McEstimate:
    """Monte Carlo volume of the cap holding one vertex's share of a slice.

    At slice height t the cap is the cube's intersection with the ball of
    center (s, ..., s) and radius sqrt(d) s, where s = (1+t)/4.
    """
    if num_samples < 1:
        raise DomainError("need at least one sample")
    if not (0.0 <= t <= 1.0):
        raise DomainError("slice height must be in [0, 1]")
    if dim < 1:
        raise DomainError("dimension must be positive")
    s = (1.0 + t) / 4.0
    hits = np.empty(num_samples)
    done = 0
    for pts in uniform_blocks(stream.substream("cap-volume"), num_samples, dim, block=65536):
        inside = ((pts - s) ** 2).sum(axis=1) <= dim * s * s
        hits[done : done + pts.shape[0]] = inside.astype(float)
        done += pts.shape[0]
    return _mc_mean(hits)


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


def _golden_section_min(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi].

    Returns the best evaluated point and value, never an interpolation, so
    the reported value is always an actually computed one.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi_sq = inv_phi * inv_phi
    a, b = lo, hi
    h = b - a
    c = a + inv_phi_sq * h
    d = a + inv_phi * h
    yc, yd = fn(c), fn(d)
    best_x, best_y = (c, yc) if yc <= yd else (d, yd)
    while h > tol:
        h *= inv_phi
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + inv_phi_sq * h
            yc = fn(c)
            if yc < best_y:
                best_x, best_y = c, yc
        else:
            a, c, yc = c, d, yd
            d = a + inv_phi * h
            yd = fn(d)
            if yd < best_y:
                best_x, best_y = d, yd
    return best_x, best_y


def chernoff_factor_min(s: float) -> ChernoffBound:
    """Minimize the exponential-moment factor over positive rates.

    The factor is convex in the rate (its second derivative is an integral
    of a square), so bracket growth followed by golden section finds the
    global minimum.  Its slope at rate 0 is the integral of 2 s x - x^2, which
    is s - 1/3; so this returns the exact minimum for s > 1/3, the factor 1 at
    rate 0, without a search.  The float test ``s > 1.0 / 3.0`` decides the
    real s > 1/3 exactly, because the float nearest 1/3 lies below it.
    """
    if not (0.0 < s <= 0.5):
        raise DomainError("scale s must lie in (0, 1/2]")
    if s > 1.0 / 3.0:
        return ChernoffBound(s=s, alpha_star=0.0, g_min=1.0, certified=False)

    def fn(alpha: float) -> float:
        return chernoff_factor(s, alpha)

    # Grow the bracket on doubled rates until the factor turns upward; the
    # minimum then lies between the point before the last decrease and the
    # first increase.
    before_alpha = 0.0
    prev_alpha, prev_value = 0.0, 1.0  # the factor at rate 0 is exactly 1
    alpha = 1.0
    while True:
        value = fn(alpha)
        if value > prev_value:
            lo, hi = before_alpha, alpha
            break
        before_alpha = prev_alpha
        prev_alpha, prev_value = alpha, value
        alpha *= 2.0
        if alpha > 2.0**40:
            raise ConvergenceError(f"no bracket for the factor minimum at s={s}")
    alpha_star, g_min = _golden_section_min(fn, lo, hi, _RATE_TOL)
    if prev_value < g_min and prev_alpha > 0.0:
        alpha_star, g_min = prev_alpha, prev_value
    if g_min > 1.0:
        # rate 0 gives exactly 1; never report worse than the trivial factor
        alpha_star, g_min = min(alpha_star, _RATE_TOL), 1.0
    return ChernoffBound(s=s, alpha_star=alpha_star, g_min=g_min, certified=g_min < CERTIFICATION_LIMIT)


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
    floats; accuracies at or above the threshold eps0 cost nothing.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    if not eps > 0.0:
        raise DomainError("eps must be positive")
    if not (0.0 < eps0 < 0.5):
        raise DomainError("eps0 must lie in (0, 1/2)")
    if eps >= eps0:
        return 0
    p, q = eps.as_integer_ratio()
    p0, q0 = eps0.as_integer_ratio()
    return -(-(11**dim * (q * p0 - p * q0)) // (10**dim * q * p0 * (dim + 1)))
