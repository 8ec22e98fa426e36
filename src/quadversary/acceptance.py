"""The acceptance criteria: the paper's bounds as eleven executable checks.

Each criterion runs at fixed seeds and sizes, returns a one-line detail and
raises ``AssertionError`` when it does not hold; failures are raised, not
asserted, so they survive ``python -O``.  ``quadversary verify`` and the
pytest suite both run :data:`CRITERIA` through :func:`run_criterion`.  The
brute-force reference oracles that the tests compare against live here too.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import algorithms, convex, monotone, quadrature
from .core import RandomStream, Transcript

__all__ = [
    "CRITERIA",
    "Criterion",
    "fraction_union_volume",
    "grid_union_volume",
    "maximal_convex_1d",
    "run_criterion",
]


class Criterion(NamedTuple):
    """One numbered check with its runtime cap in seconds."""

    number: int
    cap_s: float
    check: Callable[[], str]


CRITERIA: list[Criterion] = []


def _criterion(number: int, cap_s: float):
    def register(check: Callable[[], str]) -> Callable[[], str]:
        CRITERIA.append(Criterion(number, cap_s, check))
        return check

    return register


def _require(ok, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def run_criterion(criterion: Criterion) -> str:
    """Run one criterion within its cap and return its PASS line."""
    number, cap_s, check = criterion
    start = time.perf_counter()
    detail = check()
    elapsed = time.perf_counter() - start
    _require(elapsed < cap_s, f"took {elapsed:.1f}s, limit {cap_s}s")
    return f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s < {cap_s:.0f}s): {detail}"


def grid_union_volume(corners: np.ndarray, mode: str, cells_per_axis: int) -> float:
    """Union volume of anchored boxes by counting cell centers on a grid.

    Exact whenever every corner coordinate is a multiple of the cell width,
    since then no cell straddles a box face.
    """
    corners = np.atleast_2d(np.asarray(corners, dtype=float))
    k, d = corners.shape
    m = cells_per_axis
    axes = [(np.arange(m) + 0.5) / m] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, d)
    hits = 0
    for start in range(0, pts.shape[0], 500_000):
        chunk = pts[start : start + 500_000]
        if mode == "lower":
            member = (chunk[:, None, :] <= corners[None, :, :]).all(axis=2).any(axis=1)
        else:
            member = (chunk[:, None, :] >= corners[None, :, :]).all(axis=2).any(axis=1)
        hits += int(member.sum())
    return hits / pts.shape[0]


def fraction_union_volume(corners: np.ndarray, mode: str) -> Fraction:
    """Union volume of boxes [0, t_j] (lower) or [t_j, 1] (upper) in exact rationals.

    Inclusion-exclusion over every subset of the boxes, on integer numerators
    over one power-of-two denominator that every corner coordinate shares.
    """
    arr = np.atleast_2d(np.asarray(corners, dtype=float))
    coords = [[Fraction(x) for x in row] for row in arr]
    d = arr.shape[1]
    scale = max((x.denominator for row in coords for x in row), default=1)
    mins, signs = [[scale] * d], [-1]  # the empty subset, skipped in the sum
    for row in coords:
        box = [int((x if mode == "lower" else 1 - x) * scale) for x in row]
        mins += [[min(a, b) for a, b in zip(m, box)] for m in mins]
        signs += [-s for s in signs]
    return Fraction(sum(s * math.prod(m) for s, m in zip(signs[1:], mins[1:])), scale**d)


def maximal_convex_1d(xs: np.ndarray, sample_points: np.ndarray) -> np.ndarray:
    """Largest convex [0,1] function vanishing on 1-D sample points.

    Piecewise linear: zero between the extreme samples, rising linearly to 1
    at whichever cube endpoints carry no sample.
    """
    xs = np.asarray(xs, dtype=float)
    pts = np.asarray(sample_points, dtype=float).ravel()
    if pts.size == 0:
        return np.ones_like(xs)
    lo, hi = pts.min(), pts.max()
    out = np.zeros_like(xs)
    if lo > 0.0:
        out = np.maximum(out, (lo - xs) / lo)
    if hi < 1.0:
        out = np.maximum(out, (xs - hi) / (1.0 - hi))
    return np.clip(out, 0.0, 1.0)


@_criterion(1, cap_s=1.0)
def criterion_01_monotone_count_reproduction() -> str:
    for d in range(1, 31):
        bound = monotone.complexity_lower_bound(0.25, d)
        _require(bound == 2 ** (d - 1), f"d={d}: bound {bound} != 2^{d - 1}")
    return "query-count bound at eps=1/4 equals 2^(d-1) exactly for d=1..30"


@_criterion(2, cap_s=1.0)
def criterion_02_adversary_sharpness_at_center() -> str:
    for d in range(1, 21):
        centre = np.full((1, d), 0.5)
        _, cert = monotone.certify(Transcript(centre, monotone.threshold_values(centre)), d)
        _require(cert.value == (1.0 - 2.0 ** (-d)) / 2.0 and cert.provenance == "exact",
                 f"d={d}: {cert}")
    return "single centered query certifies exactly (1 - 2^-d)/2 for d=1..20"


@_criterion(3, cap_s=30.0)
def criterion_03_union_volume_grid_equivalence() -> str:
    gen = RandomStream(301).substream("instances").generator()
    worst = 0.0
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        cells = 1000 if d == 2 else 100  # 10^6 grid cells either way
        k = int(gen.integers(1, 5))
        corners = gen.integers(0, cells + 1, size=(k, d)) / cells
        mode = "lower" if trial % 4 < 2 else "upper"
        volume = monotone.union_box_volume(corners, mode)
        _require(volume.high - volume.low < 1e-12, f"trial {trial}: {volume} is a wide bracket")
        truth = fraction_union_volume(corners, mode)
        _require(volume.low <= truth <= volume.high, f"trial {trial}: {volume} misses {truth}")
        counted = grid_union_volume(corners, mode, cells)
        worst = max(worst, abs(volume.low - counted))
    _require(worst <= 2e-3, f"worst deviation {worst:.2e} > 2e-3")
    return f"50 instances hold their rational volume; vs 1e6-cell grid, worst deviation {worst:.2e}"


@_criterion(4, cap_s=10.0)
def criterion_04_chernoff_certification_and_threshold() -> str:
    bound = convex.chernoff_factor_min(0.25)
    margin = convex.CERTIFICATION_LIMIT - bound.g_min
    _require(bound.certified and margin > 0.0, f"s=1/4 not certified, margin {margin}")
    threshold = convex.find_height_threshold()
    _require(threshold.t0 > 0.0, f"t0={threshold.t0} is not positive")
    _require(threshold.eps0 == threshold.t0 / 2.0, f"eps0={threshold.eps0} is not t0/2")
    return (
        f"factor min {bound.g_min:.6f} (margin {margin:.6f}), "
        f"t0={threshold.t0:.6f}, eps0=t0/2"
    )


@_criterion(5, cap_s=60.0)
def criterion_05_cap_volume_dominated_by_factor_power() -> str:
    t0 = convex.default_height_threshold().t0
    for t in (0.0, t0 / 2.0, t0):
        power = convex.chernoff_factor_min((1.0 + t) / 4.0).g_min
        for d in (5, 10, 15):
            est = convex.cap_volume_mc(t, d, 100_000, RandomStream(305).substream(repr(t), d))
            _require(est.value <= power**d + 3.0 * est.std_error, f"t={t}, d={d}: {est}")
    return "cap volumes below the certified factor power at 9 (t, d) combinations"


@_criterion(6, cap_s=120.0)
def criterion_06_maximal_convex_correctness() -> str:
    gen = RandomStream(306).substream("lp-oracle").generator()
    # piecewise-linear oracle agreement in one dimension
    xs = gen.random(1000)
    worst_1d = 0.0
    for k in range(1, 6):
        pts = gen.random(k)
        evaluator = convex.MaximalConvexEvaluator(pts[:, None], 1)
        dev = np.abs(evaluator.values(xs[:, None]) - maximal_convex_1d(xs, pts)).max()
        worst_1d = max(worst_1d, float(dev))
    _require(worst_1d <= 1e-8, f"1-D oracle deviation {worst_1d:.1e} > 1e-8")
    # midpoint convexity and vanishing at samples across dimensions
    checks = 0
    worst_vanish = 0.0
    for d in (2, 3, 4, 5, 6):
        samples = gen.random((min(10, d + 4), d))
        evaluator = convex.MaximalConvexEvaluator(samples, d)
        worst_vanish = max(worst_vanish, float(evaluator.values(samples).max()))
        x = gen.random((2000, d))
        y = gen.random((2000, d))
        fmid = evaluator.values((x + y) / 2.0)
        bound = (evaluator.values(x) + evaluator.values(y)) / 2.0
        _require((fmid <= bound + 1e-7).all(), f"d={d}: midpoint convexity violated")
        checks += 2000
    _require(checks == 10_000, f"{checks} midpoint checks, expected 10^4")
    _require(worst_vanish <= 1e-9, f"value at samples {worst_vanish:.1e} > 1e-9")
    return f"1-D oracle dev {worst_1d:.1e}, 10^4 midpoint checks, vanish dev {worst_vanish:.1e}"


@_criterion(7, cap_s=600.0)
def criterion_07_hull_volume_statistical_bound() -> str:
    gen = RandomStream(307).substream("vertex-sets").generator()
    for trial in range(20):
        n = int(gen.integers(1, 9))
        vertices = np.unique(gen.integers(0, 2, size=(n, 8)).astype(float), axis=0)
        stream = RandomStream(308).substream(trial)
        # theorem <= error.high is 1 - mean <= cap + 3 SE: the hull volume under its cap
        cert = convex.empirical_error_lower_bound(vertices, 8, 100_000, stream)
        _require(cert.theorem <= cert.error.high, f"trial {trial}: {cert}")
    return "20 vertex-set hull volumes below the closed-form cap (d=8, 1e5 samples)"


@_criterion(8, cap_s=60.0)
def criterion_08_ball_cover_has_no_violations() -> str:
    gen = RandomStream(309).substream("cover").generator()
    for trial in range(20):
        d = int(gen.integers(1, 6))
        count = int(gen.integers(1, 2**d + 1))
        chosen = gen.choice(2**d, size=count, replace=False)
        vertices = np.array([[(v >> k) & 1 for k in range(d)] for v in chosen], dtype=float)
        result = convex.elekes_cover_check(vertices, 10_000, RandomStream(310).substream(trial))
        _require(result is None, f"violation at {result}")
    return "20 instances x 1e4 sampled hull points all inside the vertex balls"


@_criterion(9, cap_s=10.0)
def criterion_09_monte_carlo_rmse_guarantee() -> str:
    oracle = algorithms.make_oracle("threshold", 5)
    squared = []
    for rep in range(200):
        est, _ = quadrature.monte_carlo(oracle, 100, RandomStream(311).substream(rep))
        squared.append((est - 0.5) ** 2)
    rmse = math.sqrt(float(np.mean(squared)))
    _require(rmse <= 0.1, f"empirical RMSE {rmse:.4f} > 0.1")
    return f"empirical RMSE {rmse:.4f} <= guaranteed 0.1 over 200 seeds"


@_criterion(10, cap_s=60.0)
def criterion_10_staircase_rate_shape() -> str:
    slopes = {}
    for d in (2, 3):
        _, slope = quadrature.staircase_rate(algorithms.make_oracle("product", d))
        _require(abs(slope - (-1.0 / d)) <= 0.2 / d, f"d={d}: slope {slope}")
        slopes[d] = slope
    return f"certified-error slopes {slopes} within 20% of -1/d"


@_criterion(11, cap_s=5.0)
def criterion_11_reduction_inequality() -> str:
    xs = (np.arange(8000) + 0.5) / 8000
    for oracle_id in algorithms.ORACLE_IDS:
        for m in (2, 4, 8):
            oracle = algorithms.make_oracle(oracle_id, 1)
            approx = quadrature.pc_approximate(oracle, m)
            integral = quadrature.app_to_int(approx)
            l1 = float(np.abs(oracle.evaluate(xs[:, None]) - approx.evaluate(xs[:, None])).mean())
            truth = algorithms.true_integral(oracle_id, 1)
            _require(abs(truth - integral) <= l1 + 1e-6, f"{oracle_id}, m={m}: L1 {l1}")
    return "integration-through-approximation error within the L1 error"
