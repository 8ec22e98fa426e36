"""Fast internal property suite behind the ``verify`` subcommand.

Each check returns (ok, detail) and mirrors one invariant of the library:
closed-form values are compared exactly, geometric identities to tight
tolerances, and Monte Carlo statements within a few standard errors.  The
pytest suite runs heavier versions of the same properties; this module is the
self-contained runtime mirror.
"""

from __future__ import annotations

import math

import numpy as np

from . import algorithms, convex, monotone, quadrature
from .core import RandomStream, initial_error, run_algorithm


def _grid_union_volume(corners: np.ndarray, mode: str, cells: int) -> float:
    """Brute-force union volume by counting cell centers on a uniform grid."""
    k, d = corners.shape
    axes = [(np.arange(cells) + 0.5) / cells for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, d)
    if mode == "lower":
        member = (pts[:, None, :] <= corners[None, :, :]).all(axis=2).any(axis=1)
    else:
        member = (pts[:, None, :] >= corners[None, :, :]).all(axis=2).any(axis=1)
    return float(member.mean())


def check_initial_error(seed: int):
    ok = initial_error() == 0.5
    return ok, "zero-query error is exactly 1/2"


def check_threshold_step(seed: int):
    boundary = np.full(4, 0.5)
    ok = (
        monotone.threshold_value(np.zeros(4)) == 0
        and monotone.threshold_value(boundary) == 1
        and monotone.threshold_value(np.ones(4)) == 1
    )
    return ok, "step is 0 below half-sum, 1 at and above it"


def check_gap_sharpness(seed: int):
    worst = 0.0
    for d in range(1, 21):
        pair = monotone.build_fooling_pair(np.full((1, d), 0.5), d)
        target = 1.0 - 2.0**-d
        worst = max(worst, abs(pair.gap_low - target), abs(pair.gap_high - target))
    return worst == 0.0, f"centered single query gap exact, max dev {worst!r}"


def check_union_volume_oracle(seed: int):
    gen = RandomStream(seed).substream("selfcheck-union").generator()
    worst = 0.0
    for _ in range(10):
        corners = gen.integers(0, 101, size=(3, 2)) / 100.0
        volume = monotone.union_box_volume(corners, "lower")
        grid = _grid_union_volume(corners, "lower", 100)
        worst = max(worst, abs(volume.low - grid), abs(volume.high - grid))
    return worst <= 1e-12, f"inclusion-exclusion vs grid count, max dev {worst!r}"


def check_bound_formulas(seed: int):
    ok = (
        monotone.error_lower_bound(100, 10) == 0.451171875
        and monotone.complexity_lower_bound(0.25, 10) == 512
        and [monotone.complexity_lower_bound(0.25, d) for d in (1, 2, 3)] == [1, 2, 4]
    )
    return ok, "closed-form monotone bounds reproduce exactly"


def check_chernoff_certification(seed: int):
    bound = convex.chernoff_factor_min(0.25)
    margin = convex.CERTIFICATION_LIMIT - bound.g_min
    return bound.certified and margin > 0, f"factor at s=1/4 certified, margin {margin:.4f}"


def check_height_threshold(seed: int):
    threshold = convex.default_height_threshold()
    ok = threshold.t0 > 0 and threshold.eps0 == threshold.t0 / 2 and threshold.bound_at_t0.certified
    return ok, f"t0={threshold.t0:.6f}, eps0 is exactly half of it"


def check_cap_dominance(seed: int):
    threshold = convex.default_height_threshold()
    stream = RandomStream(seed).substream("selfcheck-cap")
    ok = True
    for t in (0.0, threshold.t0):
        est = convex.cap_volume_mc(t, 5, 20_000, stream.substream(repr(t)))
        bound = convex.chernoff_factor_min((1.0 + t) / 4.0).g_min ** 5
        ok = ok and est.value <= bound + 3.0 * est.std_error
    return ok, "cap volume below the certified factor power"


def check_maximal_convex_1d(seed: int):
    gen = RandomStream(seed).substream("selfcheck-1d").generator()
    pts = np.sort(gen.random(3))
    samples = convex.SampleSet(pts[:, None], 1)
    evaluator = convex.MaximalConvexEvaluator(samples)
    xs = gen.random(200)
    lo, hi = pts[0], pts[-1]
    expected = np.zeros(200)
    if lo > 0:
        expected = np.maximum(expected, (lo - xs) / lo)
    if hi < 1:
        expected = np.maximum(expected, (xs - hi) / (1.0 - hi))
    worst = float(np.abs(evaluator.values(xs[:, None]) - expected).max())
    return worst <= 1e-8, f"piecewise-linear oracle agrees, max dev {worst:.2e}"


def check_midpoint_convexity(seed: int):
    gen = RandomStream(seed).substream("selfcheck-convexity").generator()
    samples = convex.SampleSet(gen.random((5, 3)), 3)
    evaluator = convex.MaximalConvexEvaluator(samples)
    x = gen.random((500, 3))
    y = gen.random((500, 3))
    fx, fy = evaluator.values(x), evaluator.values(y)
    fmid = evaluator.values((x + y) / 2.0)
    worst = float((fmid - (fx + fy) / 2.0).max())
    return worst <= 1e-7, f"midpoint convexity holds, worst slack {worst:.2e}"


def check_ball_cover(seed: int):
    samples = convex.SampleSet(np.array([[0.0, 0.0], [1.0, 1.0]]), 2)
    result = convex.elekes_cover_check(samples, 2000, RandomStream(seed))
    return result.ok, "sampled hull points stay inside the vertex balls"


def check_staircase_bracket(seed: int):
    oracle = algorithms.make_oracle("affine", 1)
    bracket = quadrature.staircase_monotone(oracle, 2)
    ok = (
        bracket.lower_sum == 0.25
        and bracket.upper_sum == 0.75
        and bracket.certified_error == 0.25
        and bracket.monotone_ok
    )
    return ok, "two-cell bracket on the ramp is [1/4, 3/4]"


def check_monte_carlo_guarantee(seed: int):
    oracle = algorithms.make_oracle("threshold", 5)
    errors = []
    for rep in range(50):
        est, _ = quadrature.monte_carlo(oracle, 100, RandomStream(seed).substream("mc-rep", rep))
        errors.append((est - 0.5) ** 2)
    rmse = math.sqrt(float(np.mean(errors)))
    return rmse <= 0.1, f"empirical RMSE {rmse:.4f} within the 0.1 guarantee"


def check_reduction_inequality(seed: int):
    ok = True
    for oracle_id in algorithms.ORACLE_IDS:
        oracle = algorithms.make_oracle(oracle_id, 1)
        approx = quadrature.pc_approximate(oracle, 8)
        integral = quadrature.app_to_int(approx)
        xs = (np.arange(8000) + 0.5) / 8000
        l1 = float(np.abs(
            oracle.evaluate(xs[:, None]) - approx.evaluate_array(xs[:, None])
        ).mean())
        truth = algorithms.true_integral(oracle_id, 1)
        ok = ok and abs(truth - integral) <= l1 + 1e-6
    return ok, "integrated approximant error within the L1 error"


def check_adversary_gate(seed: int):
    stream = RandomStream(seed)
    alg = algorithms.make_algorithm("uniform-random", 8, 40, stream.substream("alg"))
    oracle = algorithms.make_oracle("threshold", 8)
    transcript, _ = run_algorithm(alg, oracle, 40)
    pair = monotone.build_fooling_pair(transcript.points, 8)
    certified = pair.gap_low / 2.0
    theorem = monotone.error_lower_bound(pair.n, 8)
    return certified >= theorem - 1e-12, f"certificate {certified:.6f} >= theorem {theorem:.6f}"


CHECKS = [
    ("initial-error", check_initial_error),
    ("threshold-step", check_threshold_step),
    ("gap-sharpness", check_gap_sharpness),
    ("union-volume-oracle", check_union_volume_oracle),
    ("bound-formulas", check_bound_formulas),
    ("chernoff-certification", check_chernoff_certification),
    ("height-threshold", check_height_threshold),
    ("cap-dominance", check_cap_dominance),
    ("maximal-convex-1d", check_maximal_convex_1d),
    ("midpoint-convexity", check_midpoint_convexity),
    ("ball-cover", check_ball_cover),
    ("staircase-bracket", check_staircase_bracket),
    ("monte-carlo-guarantee", check_monte_carlo_guarantee),
    ("reduction-inequality", check_reduction_inequality),
    ("adversary-gate", check_adversary_gate),
]


def run_all(seed: int = 0) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
