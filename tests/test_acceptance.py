"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np

from conftest import grid_union_volume, maximal_convex_1d
from quadversary import algorithms, convex, monotone, quadrature
from quadversary.core import RandomStream


class Timer:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self):
        assert self.elapsed < self.limit, f"took {self.elapsed:.1f}s, limit {self.limit}s"


def _report(criterion: int, timer: Timer, detail: str):
    timer.check()
    print(f"ACCEPTANCE {criterion:2d} PASS ({timer.elapsed:6.2f}s < {timer.limit:.0f}s): {detail}")


def test_criterion_01_monotone_count_reproduction():
    with Timer(1.0) as timer:
        for d in range(1, 31):
            assert monotone.complexity_lower_bound(0.25, d) == 2 ** (d - 1)
    _report(1, timer, "query-count bound at eps=1/4 equals 2^(d-1) exactly for d=1..30")


def test_criterion_02_adversary_sharpness_at_center():
    with Timer(1.0) as timer:
        for d in range(1, 21):
            pair = monotone.build_fooling_pair(np.full((1, d), 0.5), d)
            assert pair.gap_low == 1.0 - 2.0 ** (-d)
    _report(2, timer, "single centered query yields gap exactly 1 - 2^-d for d=1..20")


def test_criterion_03_union_volume_grid_equivalence():
    with Timer(30.0) as timer:
        gen = RandomStream(301).substream("instances").generator()
        worst = 0.0
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 3
            cells = 1000 if d == 2 else 100  # 10^6 grid cells either way
            k = int(gen.integers(1, 5))
            corners = gen.integers(0, cells + 1, size=(k, d)) / cells
            mode = "lower" if trial % 4 < 2 else "upper"
            exact = monotone.union_box_volume(corners, mode)
            assert exact.exact
            counted = grid_union_volume(corners, mode, cells)
            worst = max(worst, abs(exact.low - counted))
        assert worst <= 2e-3
    _report(3, timer, f"50 instances vs 1e6-cell grid count, worst deviation {worst:.2e}")


def test_criterion_04_chernoff_certification_and_threshold():
    with Timer(10.0) as timer:
        bound = convex.chernoff_factor_min(0.25)
        margin = convex.CERTIFICATION_LIMIT - bound.g_min
        assert bound.certified and margin > 0.0
        threshold = convex.find_height_threshold()
        assert threshold.t0 > 0.0
        assert threshold.eps0 == threshold.t0 / 2.0
    _report(
        4,
        timer,
        f"factor min {bound.g_min:.6f} (margin {margin:.6f}), "
        f"t0={threshold.t0:.6f}, eps0=t0/2",
    )


def test_criterion_05_cap_volume_dominated_by_factor_power():
    with Timer(60.0) as timer:
        t0 = convex.default_height_threshold().t0
        for t in (0.0, t0 / 2.0, t0):
            power = convex.chernoff_factor_min((1.0 + t) / 4.0).g_min
            for d in (5, 10, 15):
                est = convex.cap_volume_mc(
                    t, d, 100_000, RandomStream(305).substream(repr(t), d)
                )
                assert est.value <= power**d + 3.0 * est.std_error
    _report(5, timer, "cap volumes below the certified factor power at 9 (t, d) combinations")


def test_criterion_06_maximal_convex_correctness():
    with Timer(120.0) as timer:
        gen = RandomStream(306).substream("lp-oracle").generator()
        # piecewise-linear oracle agreement in one dimension
        xs = gen.random(1000)
        worst_1d = 0.0
        for k in range(1, 6):
            pts = gen.random(k)
            evaluator = convex.MaximalConvexEvaluator(convex.SampleSet(pts[:, None], 1))
            dev = np.abs(evaluator.values(xs[:, None]) - maximal_convex_1d(xs, pts)).max()
            worst_1d = max(worst_1d, float(dev))
        assert worst_1d <= 1e-8
        # midpoint convexity and vanishing at samples across dimensions
        checks = 0
        worst_vanish = 0.0
        for d in (2, 3, 4, 5, 6):
            samples = convex.SampleSet(gen.random((min(10, d + 4), d)), d)
            evaluator = convex.MaximalConvexEvaluator(samples)
            worst_vanish = max(worst_vanish, float(evaluator.values(samples.points).max()))
            x = gen.random((2000, d))
            y = gen.random((2000, d))
            fmid = evaluator.values((x + y) / 2.0)
            bound = (evaluator.values(x) + evaluator.values(y)) / 2.0
            assert (fmid <= bound + 1e-7).all()
            checks += 2000
        assert checks == 10_000
        assert worst_vanish <= 1e-9
    _report(
        6,
        timer,
        f"1-D oracle dev {worst_1d:.1e}, 10^4 midpoint checks, vanish dev {worst_vanish:.1e}",
    )


def test_criterion_07_hull_volume_statistical_bound():
    with Timer(600.0) as timer:
        t0 = convex.default_height_threshold().t0
        gen = RandomStream(307).substream("vertex-sets").generator()
        for trial in range(20):
            n = int(gen.integers(1, 9))
            vertices = np.unique(gen.integers(0, 2, size=(n, 8)).astype(float), axis=0)
            samples = convex.SampleSet(vertices, 8)
            est = convex.maximal_convex_integral(
                samples, 100_000, RandomStream(308).substream(trial)
            )
            hull_volume = 1.0 - est.value
            bound = convex.hull_volume_upper_bound(samples.n, 8, t0)
            assert hull_volume <= bound + 3.0 * est.std_error
    _report(7, timer, "20 vertex-set hull volumes below the closed-form cap (d=8, 1e5 samples)")


def test_criterion_08_ball_cover_has_no_violations():
    with Timer(60.0) as timer:
        gen = RandomStream(309).substream("cover").generator()
        for trial in range(20):
            d = int(gen.integers(1, 6))
            count = int(gen.integers(1, 2**d + 1))
            chosen = gen.choice(2**d, size=count, replace=False)
            vertices = np.array(
                [[(v >> k) & 1 for k in range(d)] for v in chosen], dtype=float
            )
            result = convex.elekes_cover_check(
                convex.SampleSet(vertices, d), 10_000, RandomStream(310).substream(trial)
            )
            assert result.ok, f"violation at {result.counterexample}"
    _report(8, timer, "20 instances x 1e4 sampled hull points all inside the vertex balls")


def test_criterion_09_monte_carlo_rmse_guarantee():
    with Timer(10.0) as timer:
        oracle = algorithms.make_oracle("threshold", 5)
        squared = []
        for rep in range(200):
            est, _ = quadrature.monte_carlo(oracle, 100, RandomStream(311).substream(rep))
            squared.append((est - 0.5) ** 2)
        rmse = math.sqrt(float(np.mean(squared)))
        assert rmse <= 0.1
    _report(9, timer, f"empirical RMSE {rmse:.4f} <= guaranteed 0.1 over 200 seeds")


def test_criterion_10_staircase_rate_shape():
    with Timer(60.0) as timer:
        slopes = {}
        for d in (2, 3):
            logs = []
            for m in (2, 4, 8, 16, 32):
                bracket = quadrature.staircase_monotone(
                    algorithms.make_oracle("product", d), m
                )
                logs.append((math.log(bracket.samples_used), math.log(bracket.certified_error)))
            xs, ys = zip(*logs)
            slope = float(np.polyfit(xs, ys, 1)[0])
            assert abs(slope - (-1.0 / d)) <= 0.2 / d
            slopes[d] = slope
    _report(10, timer, f"certified-error slopes {slopes} within 20% of -1/d")


def test_criterion_11_reduction_inequality():
    with Timer(5.0) as timer:
        xs = (np.arange(8000) + 0.5) / 8000
        for oracle_id in algorithms.ORACLE_IDS:
            for m in (2, 4, 8):
                oracle = algorithms.make_oracle(oracle_id, 1)
                approx = quadrature.pc_approximate(oracle, m)
                integral = quadrature.app_to_int(approx)
                l1 = float(np.abs(
                    oracle.evaluate(xs[:, None]) - approx.evaluate_array(xs[:, None])
                ).mean())
                truth = algorithms.true_integral(oracle_id, 1)
                assert abs(truth - integral) <= l1 + 1e-6
    _report(11, timer, "integration-through-approximation error within the L1 error")
