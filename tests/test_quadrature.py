import math
import tracemalloc

import numpy as np
import pytest

from quadversary import algorithms, quadrature
from quadversary.core import DomainError, EvalOracle, RandomStream


def orthant_mixture_oracle(anchors: np.ndarray, weights: np.ndarray) -> EvalOracle:
    """Weighted mixture of upper-orthant indicators; monotone by construction."""
    dim = anchors.shape[1]

    def batch(pts: np.ndarray) -> np.ndarray:
        inside = (pts[:, None, :] >= anchors[None, :, :]).all(axis=2)
        return np.clip(inside @ weights, 0.0, 1.0)

    return EvalOracle(dim=dim, fn=batch)


def orthant_mixture_integral(anchors: np.ndarray, weights: np.ndarray) -> float:
    return float(weights @ np.prod(1.0 - anchors, axis=1))


def test_staircase_ramp_two_cells():
    bracket = quadrature.staircase_monotone(algorithms.make_oracle("affine", 1), 2)
    assert bracket.bracket.low == 0.25
    assert bracket.bracket.high == 0.75
    assert bracket.estimate == 0.5
    assert bracket.certified_error == 0.25
    assert bracket.samples_used == 3
    assert bracket.bracket.low <= 0.5 <= bracket.bracket.high


def test_staircase_constant_is_exact():
    oracle = EvalOracle(dim=2, fn=lambda pts: np.full(pts.shape[0], 0.7))
    bracket = quadrature.staircase_monotone(oracle, 3)
    assert bracket.bracket.low == bracket.bracket.high == 0.7
    assert bracket.certified_error == 0.0


def test_staircase_brackets_the_step_integrand():
    # the step at half-sum integrates to exactly 1/2 by the x -> 1-x symmetry
    bracket = quadrature.staircase_monotone(algorithms.make_oracle("threshold", 2), 4)
    assert bracket.bracket.low <= 0.5 <= bracket.bracket.high
    assert bracket.certified_error <= 2 / (2 * 4)


def test_staircase_brackets_random_monotone_mixtures():
    gen = RandomStream(31).substream("mixtures").generator()
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        k = int(gen.integers(1, 5))
        anchors = gen.random((k, d))
        weights = gen.dirichlet(np.ones(k))
        oracle = orthant_mixture_oracle(anchors, weights)
        truth = orthant_mixture_integral(anchors, weights)
        bracket = quadrature.staircase_monotone(oracle, int(gen.integers(2, 5)))
        assert bracket.bracket.low - 1e-12 <= truth <= bracket.bracket.high + 1e-12
        assert bracket.certified_error <= d / (2.0 * 2) + 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("oracle_id", algorithms.ORACLE_IDS)
def test_builtin_integrals_lie_in_their_staircase_brackets(oracle_id, d):
    # Every built-in oracle is monotone, so the staircase rule brackets its
    # integral; at m = 8 the brackets are narrow enough to catch two oracles'
    # integrals trading places.
    bracket = quadrature.staircase_monotone(algorithms.make_oracle(oracle_id, d), 8)
    assert bracket.bracket.low <= algorithms.true_integral(oracle_id, d) <= bracket.bracket.high


def test_certified_error_never_exceeds_telescoping_cap():
    for d, m in ((1, 2), (2, 4), (3, 3)):
        bracket = quadrature.staircase_monotone(algorithms.make_oracle("product", d), m)
        assert bracket.certified_error <= d / (2.0 * m) + 1e-12


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_rules_hold_one_slab_at_a_time():
    # The 1.77 M staircase nodes at d=6, m=10 take 85 MB as one array, and
    # built as one they peaked at 170 MB; the step approximant peaked at
    # 96 MB, of which its 10^6 returned values are 8 MB.
    oracle = algorithms.make_oracle("product", 6)
    assert _peak_bytes(quadrature.staircase_monotone, oracle, 10) <= 8e6
    assert _peak_bytes(quadrature.pc_approximate, oracle, 10) <= 16e6


@pytest.mark.parametrize("slab_nodes", [7, 20])
@pytest.mark.parametrize(
    "d,m", [(1, 2), (1, 10), (2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (4, 1), (4, 3)]
)
def test_slab_walk_matches_the_dense_grid(monkeypatch, slab_nodes, d, m):
    # Slabs of at most 7 or 20 nodes span one to four trailing axes here,
    # plus a run of indices of the axis before them that may end short (3
    # nodes per axis in runs of 2, 5 in runs of 4); at d=1 and m=10 the
    # single axis of 11 nodes is wider than a slab.
    monkeypatch.setattr(quadrature, "_SLAB_NODES", slab_nodes)
    # Unequal weights tell the axes apart, which the built-in oracles do not.
    weights = np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)
    weighted = EvalOracle(dim=d, fn=lambda pts: np.clip(pts @ weights, 0.0, 1.0))
    builtins = [algorithms.make_oracle(name, d) for name in ("product", "square", "threshold")]
    for oracle in (weighted, *builtins):
        nodes = np.linspace(0.0, 1.0, m + 1)
        dense = oracle.evaluate(quadrature._full_grid(nodes, d)).reshape((m + 1,) * d)
        bracket = quadrature.staircase_monotone(oracle, m)
        assert abs(bracket.bracket.low - dense[(slice(0, m),) * d].mean()) <= 1e-15
        assert abs(bracket.bracket.high - dense[(slice(1, m + 1),) * d].mean()) <= 1e-15
        corners = oracle.evaluate(quadrature._full_grid(np.arange(m) / m, d))
        approx = quadrature.pc_approximate(oracle, m)
        assert np.array_equal(approx.values, corners.reshape((m,) * d))


def test_slabs_stay_near_the_slab_size_past_one_axis_of_nodes():
    # 257 nodes per axis: a slab spans the last axis and a run of 255
    # indices of the one before, not a single axis of 257 nodes.
    sizes = [points.shape[0] for _, points in quadrature._grid_slabs(np.linspace(0.0, 1.0, 257), 2)]
    assert sizes == [255 * 257, 2 * 257]


def test_monte_carlo_constant_is_exact():
    oracle = EvalOracle(dim=3, fn=lambda pts: np.full(pts.shape[0], 0.7))
    estimate, rmse = quadrature.monte_carlo(oracle, 500, RandomStream(32))
    assert estimate == pytest.approx(0.7, abs=1e-15)
    assert rmse == 1.0 / math.sqrt(500)


def test_monte_carlo_step_integrand_concentration():
    oracle = algorithms.make_oracle("threshold", 5)
    hits = 0
    trials = 200
    for rep in range(trials):
        est, _ = quadrature.monte_carlo(oracle, 10_000, RandomStream(33).substream(rep))
        if abs(est - 0.5) <= 3.0 * 0.5 * 1e-2:
            hits += 1
    assert hits >= 0.99 * trials


def test_monte_carlo_rmse_guarantee():
    oracle = algorithms.make_oracle("threshold", 5)
    squared = []
    for rep in range(200):
        est, guarantee = quadrature.monte_carlo(oracle, 100, RandomStream(34).substream(rep))
        squared.append((est - 0.5) ** 2)
        assert guarantee == 0.1
    assert math.sqrt(float(np.mean(squared))) <= 0.1


def test_pc_approximation_cases():
    exact = quadrature.pc_approximate(
        EvalOracle(dim=1, fn=lambda pts: np.full(pts.shape[0], 0.4)),
        5,
    )
    assert np.all(exact.values == 0.4)

    step = quadrature.pc_approximate(algorithms.make_oracle("threshold", 1), 2)
    assert list(step.values) == [0.0, 1.0]
    xs = (np.arange(4000) + 0.5) / 4000
    truth = algorithms.make_oracle("threshold", 1).evaluate(xs[:, None])
    l1 = float(np.abs(step.evaluate(xs[:, None]) - truth).mean())
    assert l1 == 0.0  # the two-cell step approximant reproduces the step a.e.

    ramp = quadrature.pc_approximate(algorithms.make_oracle("affine", 1), 4)
    truth = xs
    l1 = float(np.abs(ramp.evaluate(xs[:, None]) - truth).mean())
    assert l1 == pytest.approx(1.0 / 8.0, abs=1e-4)


def test_app_to_int_cases():
    ramp = quadrature.pc_approximate(algorithms.make_oracle("affine", 1), 4)
    value = quadrature.app_to_int(ramp)
    assert value == (0.0 + 0.25 + 0.5 + 0.75) / 4.0
    assert abs(0.5 - value) <= 1.0 / 8.0 + 1e-12  # ties the reduction inequality
    zero = quadrature.PiecewiseConstantApprox(np.zeros((3, 3)), 3, 2)
    assert quadrature.app_to_int(zero) == 0.0


def test_step_approximant_validates_its_points():
    approx = quadrature.pc_approximate(algorithms.make_oracle("affine", 1), 4)
    assert list(approx.evaluate([[0.0], [0.3], [1.0]])) == [0.0, 0.25, 0.75]
    assert approx.evaluate(np.zeros((0, 1))).shape == (0,)
    for bad in ([[-0.1]], [[1.7]], [[np.nan]], [[0.2, 0.3]]):
        with pytest.raises(DomainError):
            approx.evaluate(bad)


def test_parameter_validation():
    oracle = algorithms.make_oracle("affine", 1)
    with pytest.raises(DomainError):
        quadrature.staircase_monotone(oracle, 0)
    with pytest.raises(DomainError):
        quadrature.monte_carlo(oracle, 0, RandomStream(0))
