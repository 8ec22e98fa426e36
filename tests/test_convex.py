import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from quadversary import algorithms, convex, lp
from quadversary.acceptance import maximal_convex_1d
from quadversary.core import DomainError, RandomStream, run_algorithm

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_value_vanishes_on_samples_and_is_one_without_samples():
    gen = RandomStream(1).substream("vanish").generator()
    samples = gen.random((4, 3))
    evaluator = convex.MaximalConvexEvaluator(samples, 3)
    assert evaluator.values(samples).max() <= 1e-9
    empty = convex.MaximalConvexEvaluator(np.zeros((0, 3)), 3)
    assert empty.values(np.array([[0.2, 0.9, 0.4]]))[0] == 1.0


def test_single_query_value_rejects_malformed_queries():
    evaluator = convex.MaximalConvexEvaluator(np.array([[0.25, 0.5, 0.75]]), 3)
    for x in (0.5, np.full((1, 4), 0.5)):
        with pytest.raises(DomainError):
            evaluator.values(x)


def test_value_matches_1d_hull_geometry():
    evaluator = convex.MaximalConvexEvaluator(np.array([[0.25]]), 1)
    assert evaluator.values(np.array([[0.5]]))[0] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_1d_queries_follow_the_one_point_shape_rule():
    # At d=1 a flat array is neither N queries nor one: only (N, 1) is a batch.
    pts, xs = np.array([0.25, 0.75]), np.array([0.1, 0.5, 0.9])
    evaluator = convex.MaximalConvexEvaluator(pts[:, None], 1)
    with pytest.raises(DomainError):
        evaluator.values(xs)
    with pytest.raises(DomainError):
        evaluator.values(0.5)
    assert np.abs(evaluator.values(xs[:, None]) - maximal_convex_1d(xs, pts)).max() <= 1e-9


def test_values_match_1d_oracle_for_many_sample_sets():
    gen = RandomStream(2).substream("oracle-1d").generator()
    xs = gen.random(1000)
    for k in range(1, 6):
        pts = gen.random(k)
        evaluator = convex.MaximalConvexEvaluator(pts[:, None], 1)
        expected = maximal_convex_1d(xs, pts)
        got = evaluator.values(xs[:, None])
        assert np.abs(got - expected).max() <= 1e-8
    # endpoint samples switch branches off entirely
    for pts in (np.array([0.0]), np.array([1.0]), np.array([0.0, 1.0])):
        evaluator = convex.MaximalConvexEvaluator(pts[:, None], 1)
        expected = maximal_convex_1d(xs, pts)
        assert np.abs(evaluator.values(xs[:, None]) - expected).max() <= 1e-8


def test_point_array_entry_points_take_empty_and_reject_malformed_arrays():
    empty = np.zeros((0, 3))
    assert convex.MaximalConvexEvaluator(empty, 3).values(np.full((2, 3), 0.5)).tolist() == [1.0, 1.0]
    assert convex.maximal_convex_integral(empty, 3, 10, RandomStream(13)).value == 1.0
    assert convex.vertexize(empty, 3).shape == (0, 3)
    malformed = (
        np.full((2, 4), 0.5),  # wrong width
        np.full(3, 0.5),  # one flat point is not an (n, 3) array
        np.array([[0.5, 0.5, 1.5]]),
        np.array([[0.5, -0.1, 0.5]]),
        np.array([[0.5, np.nan, 0.5]]),
    )
    for bad in malformed:
        with pytest.raises(DomainError):
            convex.MaximalConvexEvaluator(bad, 3)
        with pytest.raises(DomainError):
            convex.maximal_convex_integral(bad, 3, 10, RandomStream(13))
        with pytest.raises(DomainError):
            convex.empirical_error_lower_bound(bad, 3, 10, RandomStream(13))
        with pytest.raises(DomainError):
            convex.vertexize(bad, 3)


def test_batch_evaluator_equals_single_solves():
    gen = RandomStream(3).substream("batch").generator()
    samples = gen.random((6, 4))
    evaluator = convex.MaximalConvexEvaluator(samples, 4)
    xs = gen.random((200, 4))
    batch = evaluator.values(xs)
    singles = np.array([convex.MaximalConvexEvaluator(samples, 4).values(x[None])[0] for x in xs])
    assert np.abs(batch - singles).max() <= 1e-9


def _scan_samples(algorithm_id: str, dim: int, budget: int) -> np.ndarray:
    alg = algorithms.make_algorithm(algorithm_id, dim, budget, RandomStream(0))
    transcript, _ = run_algorithm(alg, algorithms.zero_oracle(dim), budget)
    return transcript.points


def _counting_solves(monkeypatch) -> list[int]:
    """Record the pivots of every ``lp.solve`` call from here on."""
    pivots = []
    solve = lp.solve

    def counting_solve(*args, **kwargs):
        solution = solve(*args, **kwargs)
        pivots.append(solution.iterations)
        return solution

    monkeypatch.setattr(lp, "solve", counting_solve)
    return pivots


def _highs_values(samples: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The maximal vanishing convex function by HiGHS, one LP per query."""
    a = np.vstack([np.ones(len(samples)), samples.T, 1.0 - samples.T])
    out = []
    for x in xs:
        rhs = np.concatenate(([1.0], x, 1.0 - x))
        ref = linprog(-np.ones(len(samples)), A_ub=a, b_ub=rhs, method="highs")
        assert ref.status == 0
        out.append(min(1.0, max(0.0, 1.0 + ref.fun)))
    return np.array(out)


@pytest.mark.parametrize(
    "algorithm_id,dim,budget", [("grid-scan", 2, 1000), ("vertex-scan", 8, 8)]
)
def test_evaluator_matches_highs_on_degenerate_sample_sets(
    algorithm_id, dim, budget, monkeypatch
):
    # Collinear grid points and the vertices of a cube face make many
    # optimal bases degenerate: ties in the ratio test, and cached bases
    # whose feasibility test sits on the tolerance.
    samples = _scan_samples(algorithm_id, dim, budget)
    xs = RandomStream(31).substream(algorithm_id).generator().random((150, dim))
    evaluator = convex.MaximalConvexEvaluator(samples, dim)
    highs = _highs_values(samples, xs)
    solves = _counting_solves(monkeypatch)
    assert np.abs(evaluator.values(xs) - highs).max() <= 1e-9
    assert solves
    # A repeat needs no solve: the basis solved for a query covers it.
    solves.clear()
    assert np.abs(evaluator.values(xs) - highs).max() <= 1e-9
    assert solves == []


def test_values_on_adjacent_blocks_equal_one_call(monkeypatch):
    # The round size of the batched solves carries over from call to call,
    # so query blocks fed one call at a time, as maximal_convex_integral
    # feeds them, take the same solves and give bitwise the same values.
    gen = RandomStream(35).substream("adjacent").generator()
    samples = gen.random((30, 6))
    xs = gen.random((3 * convex._QUERY_BLOCK, 6))
    pivots = _counting_solves(monkeypatch)
    whole = convex.MaximalConvexEvaluator(samples, 6).values(xs)
    whole_pivots = list(pivots)
    pivots.clear()
    evaluator = convex.MaximalConvexEvaluator(samples, 6)
    cut = convex._QUERY_BLOCK
    parts = np.concatenate([evaluator.values(xs[:cut]), evaluator.values(xs[cut:])])
    assert pivots == whole_pivots
    assert np.array_equal(parts, whole)


def test_integral_holds_one_sample_block_at_a_time():
    # The 2e5 values take 1.6 MB; all points at once, and their copy, took
    # 2 N d floats (26 MB) at d=8.
    samples = _scan_samples("vertex-scan", 8, 8)
    tracemalloc.start()
    try:
        convex.maximal_convex_integral(samples, 8, 200_000, RandomStream(36))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def _qhull_values(samples: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The maximal vanishing convex function as a Qhull lower envelope.

    Its epigraph in the cube is the hull of P x {0} and {0,1}^d x {1}, so
    f(x) is the largest of the affine functions of the hull's lower facets.
    """
    d = samples.shape[1]
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    lifted = np.vstack([
        np.hstack([samples, np.zeros((len(samples), 1))]),
        np.hstack([corners, np.ones((2**d, 1))]),
    ])
    equations = ConvexHull(lifted).equations  # normal . (x, z) + offset <= 0
    lower = equations[equations[:, d] < -1e-9]
    return (-(xs @ lower[:, :d].T + lower[:, d + 1]) / lower[:, d]).max(axis=1)


@pytest.mark.parametrize(
    "dim,n,queries",
    [(2, 6, 500), (3, 8, 500), (4, 10, 500), (5, 12, 500), (6, 30, 2000), (4, 10, 9000)],
)
def test_evaluator_matches_qhull_lower_envelope(dim, n, queries):
    gen = RandomStream(33).substream("qhull", dim).generator()
    samples = gen.random((n, dim))
    xs = gen.random((queries, dim))
    got = convex.MaximalConvexEvaluator(samples, dim).values(xs)
    assert np.abs(got - _qhull_values(samples, xs)).max() <= 1e-9


def test_warm_started_solves_stay_few_pivots(monkeypatch):
    # These 100 queries on the 1000-point d=2 grid take 37 pivots in 6 solves,
    # each from the slack basis by Dantzig's rule; the basis cache resolves
    # the other queries.  Bland's rule alone took 28,811.
    samples = _scan_samples("grid-scan", 2, 1000)
    pivots = _counting_solves(monkeypatch)
    xs = RandomStream(32).substream("pivot-guard").generator().random((100, 2))
    convex.MaximalConvexEvaluator(samples, 2).values(xs)
    assert 0 < sum(pivots) <= 200


def test_midpoint_convexity_and_range():
    gen = RandomStream(4).substream("convexity").generator()
    for d in (2, 4, 6):
        samples = gen.random((min(10, d + 4), d))
        evaluator = convex.MaximalConvexEvaluator(samples, d)
        x = gen.random((2000, d))
        y = gen.random((2000, d))
        fx, fy = evaluator.values(x), evaluator.values(y)
        fmid = evaluator.values((x + y) / 2.0)
        assert (fmid <= (fx + fy) / 2.0 + 1e-7).all()
        assert fx.min() >= 0.0 and fx.max() <= 1.0


def test_dominates_every_vanishing_affine_minorant():
    gen = RandomStream(5).substream("minorant").generator()
    d = 3
    samples = gen.random((5, d))
    evaluator = convex.MaximalConvexEvaluator(samples, d)
    xs = gen.random((1000, d))
    fvals = evaluator.values(xs)
    for _ in range(20):
        slope = gen.normal(size=d)
        shift = -float((samples @ slope).max())  # vanishes on the samples
        peak = shift + float(np.clip(slope, 0.0, None).sum())  # max over the cube
        if peak > 1.0:
            slope, shift = slope / peak, shift / peak
        minorant = np.clip(xs @ slope + shift, 0.0, None)
        assert (minorant <= fvals + 1e-7).all()


def test_integral_trivial_sample_sets():
    stream = RandomStream(6)
    empty = convex.maximal_convex_integral(np.zeros((0, 3)), 3, 500, stream)
    assert empty.value == 1.0 and empty.std_error == 0.0
    verts = np.array([[i, j] for i in (0.0, 1.0) for j in (0.0, 1.0)])
    full = convex.maximal_convex_integral(verts, 2, 500, stream)
    assert full.value == 0.0


def test_integral_1d_single_origin_sample():
    # with the origin pinned, the maximal function is the identity ramp
    est = convex.maximal_convex_integral(np.array([[0.0]]), 1, 20_000, RandomStream(7))
    assert abs(est.value - 0.5) <= 3.0 * est.std_error
    bound = convex.empirical_error_lower_bound(np.array([[0.0]]), 1, 20_000, RandomStream(7))
    assert bound.value == pytest.approx(est.value / 2.0, abs=1e-15)
    assert abs(bound.value - 0.25) <= 1.5 * est.std_error


def test_caratheodory_examples():
    decomposition = dict(convex.caratheodory_cube_decomposition(np.array([0.7, 0.2])))
    assert decomposition == {
        (1, 1): pytest.approx(0.2),
        (1, 0): pytest.approx(0.5),
        (0, 0): pytest.approx(0.3),
    }
    assert convex.caratheodory_cube_decomposition(np.array([0.0, 1.0])) == [((0, 1), 1.0)]
    tied = dict(convex.caratheodory_cube_decomposition(np.array([0.5, 0.5])))
    assert tied == {(1, 1): pytest.approx(0.5), (0, 0): pytest.approx(0.5)}


@settings(max_examples=200, deadline=None)
@given(st.lists(unit, min_size=1, max_size=6))
def test_caratheodory_reconstruction(coords):
    x = np.array(coords)
    decomposition = convex.caratheodory_cube_decomposition(x)
    assert len(decomposition) <= x.size + 1
    weights = np.array([w for _, w in decomposition])
    vertices = np.array([v for v, _ in decomposition], dtype=float)
    assert weights.min() > 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(weights @ vertices - x).max() <= 1e-12


def test_vertexize_counts_and_pointwise_decrease():
    gen = RandomStream(8).substream("vertexize").generator()
    one = convex.vertexize(gen.random((1, 2)), 2)
    assert one.shape[1] == 2 and len(one) <= 3
    verts = np.array([[0.0, 1.0], [1.0, 1.0]])
    again = convex.vertexize(verts, 2)
    assert sorted(map(tuple, again)) == sorted(map(tuple, verts))

    samples = gen.random((2, 3))
    expanded = convex.vertexize(samples, 3)
    assert len(expanded) <= (3 + 1) * 2
    before = convex.MaximalConvexEvaluator(samples, 3)
    after = convex.MaximalConvexEvaluator(expanded, 3)
    xs = gen.random((100, 3))
    assert (after.values(xs) <= before.values(xs) + 1e-9).all()


def test_cover_check_passes_on_vertex_sets():
    single = np.array([[1.0, 0.0, 1.0]])
    assert convex.elekes_cover_check(single, 100, RandomStream(9)).ok
    opposite = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert convex.elekes_cover_check(opposite, 10_000, RandomStream(10)).ok
    all32 = np.array([[(i >> k) & 1 for k in range(5)] for i in range(32)], dtype=float)
    assert convex.elekes_cover_check(all32, 10_000, RandomStream(11)).ok


def test_cover_check_rejects_non_vertex_and_empty_sets():
    inner = np.array([[1.0, 0.0, 1.0], [0.5, 0.0, 1.0]])
    with pytest.raises(DomainError, match="vertex sets"):
        convex.elekes_cover_check(inner, 10, RandomStream(9))
    outside = np.array([[1.0, 0.0, 2.0]])
    with pytest.raises(DomainError, match="vertex sets"):
        convex.elekes_cover_check(outside, 10, RandomStream(9))
    for bad in (np.zeros((0, 3)), np.zeros((2, 0)), np.array([1.0, 0.0, 1.0])):
        with pytest.raises(DomainError, match="nonempty"):
            convex.elekes_cover_check(bad, 10, RandomStream(9))


def test_cover_check_rejects_fewer_than_one_trial():
    # a check that samples nothing must not report a pass
    for trials in (0, -5):
        with pytest.raises(DomainError, match="trial"):
            convex.elekes_cover_check(np.array([[1.0, 0.0]]), trials, RandomStream(9))


def test_cap_volume_rejects_out_of_range_parameters():
    for t, dim in ((-0.1, 3), (1.5, 3), (0.3, 0)):
        with pytest.raises(DomainError):
            convex.cap_volume_mc(t, dim, 100, RandomStream(12))


def test_cap_volume_known_cases():
    est = convex.cap_volume_mc(0.0, 1, 40_000, RandomStream(12))
    # at height 0 the 1-D cap is exactly [0, 1/2]
    assert abs(est.value - 0.5) <= 3.0 * est.std_error
    full = convex.cap_volume_mc(1.0, 4, 2_000, RandomStream(13))
    assert full.value == 1.0 and full.std_error == 0.0


def test_cap_volume_dominated_by_factor_power():
    bound = convex.chernoff_factor_min(0.25).g_min ** 10
    est = convex.cap_volume_mc(0.0, 10, 50_000, RandomStream(14))
    assert est.value <= bound + 3.0 * est.std_error


def test_chernoff_factor_basics():
    for s in (0.1, 0.25, 0.5):
        assert convex.chernoff_factor(s, 0.0) == 1.0
    # derivative in the rate at zero is s - 1/3
    for s in (0.25, 1.0 / 3.0, 0.45):
        h = 1e-5
        fd = (convex.chernoff_factor(s, h) - convex.chernoff_factor(s, 0.0)) / h
        assert fd == pytest.approx(s - 1.0 / 3.0, abs=1e-4)
    with pytest.raises(DomainError):
        convex.chernoff_factor(0.25, -1.0)


def test_chernoff_factor_matches_closed_form():
    # the erf closed form against adaptive quadrature of the defining integral
    for s in (0.25, 0.3, 0.45):
        for alpha in np.linspace(0.0, 30.0, 31):
            a = float(alpha)
            quad_route, abserr = quad(
                lambda x: math.exp(a * (2.0 * s * x - x * x)),
                0.0, 1.0, epsabs=1e-10, epsrel=1e-12, limit=200,
            )
            assert abserr <= 1e-8
            assert convex.chernoff_factor(s, a) == pytest.approx(quad_route, abs=1e-8)


def test_chernoff_factor_min_certification():
    bound = convex.chernoff_factor_min(0.25)
    assert bound.certified and bound.g_min < convex.CERTIFICATION_LIMIT
    assert bound.alpha_star > 0.0
    assert bound.g_min <= convex.chernoff_factor(0.25, 1.0) + 1e-12
    flat = convex.chernoff_factor_min(1.0 / 3.0)
    assert flat.g_min == pytest.approx(1.0, abs=1e-9) and not flat.certified
    rising = convex.chernoff_factor_min(0.45)
    assert rising.g_min == pytest.approx(1.0, abs=1e-9) and not rising.certified
    with pytest.raises(DomainError):
        convex.chernoff_factor_min(0.75)


def _searched_factor_min(s: float) -> tuple[float, float]:
    """(alpha*, g_min) by bracket growth and golden section at every s, no closed form."""

    def fn(alpha):
        return convex.chernoff_factor(s, alpha)

    before_alpha, prev_alpha, prev_value, alpha = 0.0, 0.0, 1.0, 1.0
    while True:
        value = fn(alpha)
        if value > prev_value:
            break
        before_alpha = prev_alpha
        prev_alpha, prev_value = alpha, value
        alpha *= 2.0
    alpha_star, g_min = convex._golden_section_min(fn, before_alpha, alpha, convex._RATE_TOL)
    if prev_value < g_min and prev_alpha > 0.0:
        alpha_star, g_min = prev_alpha, prev_value
    if g_min > 1.0:
        alpha_star, g_min = min(alpha_star, convex._RATE_TOL), 1.0
    return alpha_star, g_min


def _factor_calls(monkeypatch) -> list:
    calls = []
    factor = convex.chernoff_factor
    monkeypatch.setattr(convex, "chernoff_factor", lambda s, a: calls.append(a) or factor(s, a))
    return calls


ABOVE_THIRD = (math.nextafter(1.0 / 3.0, 1.0), 0.34, 0.4, 0.45, 0.5)


@pytest.mark.parametrize("s", ABOVE_THIRD)
def test_factor_min_above_one_third_is_one_at_rate_zero(s, monkeypatch):
    # the slope at rate 0 is s - 1/3 > 0 and the factor is convex in the rate
    searched = _searched_factor_min(s)[1]
    if s >= 0.34:
        assert searched == 1.0  # the search finds no value below 1 either
    else:  # next to 1/3, libm rounding puts the searched value a few ulps below 1
        assert 1.0 - 4 * 2.0**-53 <= searched < 1.0
    calls = _factor_calls(monkeypatch)
    bound = convex.chernoff_factor_min(s)
    assert (bound.alpha_star, bound.g_min, bound.certified) == (0.0, 1.0, False)
    assert calls == []


@pytest.mark.parametrize("s", [1.0 / 3.0, math.nextafter(1.0 / 3.0, 0.0), 0.3, 0.25, 0.1])
def test_factor_min_at_or_below_one_third_keeps_the_search(s, monkeypatch):
    # float(1/3) lies below 1/3, where the slope at rate 0 is negative
    assert 1.0 / 3.0 < Fraction(1, 3)
    expected = _searched_factor_min(s)
    calls = _factor_calls(monkeypatch)
    bound = convex.chernoff_factor_min(s)
    assert (bound.alpha_star, bound.g_min) == expected
    assert bound.alpha_star > 0.0 and len(calls) > 10


def test_chernoff_factor_convex_in_rate():
    alphas = np.linspace(0.0, 12.0, 25)
    values = [convex.chernoff_factor(0.25, float(a)) for a in alphas]
    mids = [convex.chernoff_factor(0.25, float((a + b) / 2)) for a, b in zip(alphas, alphas[2:])]
    for left, mid, right in zip(values, mids, values[2:]):
        assert mid <= (left + right) / 2.0 + 1e-10


# First computation recorded as a derived golden value.
GOLDEN_T0 = 0.0950517578125


def test_height_threshold_properties():
    threshold = convex.default_height_threshold()
    assert threshold.t0 > 0.0
    assert threshold.eps0 == threshold.t0 / 2.0
    assert threshold.bound_at_t0.certified
    assert threshold.t0 == pytest.approx(GOLDEN_T0, abs=1e-4)
    # certification is tight: just above the threshold it fails
    above = convex.chernoff_factor_min((1.0 + threshold.t0 + 2e-3) / 4.0)
    assert not above.certified


def _scanned_height_threshold() -> convex.HeightThreshold:
    """find_height_threshold by a linear scan of every grid point, then bisection."""

    def certified(t):
        return convex.chernoff_factor_min((1.0 + t) / 4.0).certified

    t_ok = 0.0
    for k in range(1, int(round(1.0 / convex._HEIGHT_STEP)) + 1):
        t_bad = k * convex._HEIGHT_STEP
        if not certified(t_bad):
            break
        t_ok = t_bad
    while t_bad - t_ok > convex._HEIGHT_TOL:
        mid = 0.5 * (t_ok + t_bad)
        t_ok, t_bad = (mid, t_bad) if certified(mid) else (t_ok, mid)
    return convex.HeightThreshold(t_ok, t_ok / 2.0, convex.chernoff_factor_min((1.0 + t_ok) / 4.0))


def test_height_threshold_bisection_equals_the_linear_scan():
    threshold = convex.find_height_threshold()
    assert threshold == _scanned_height_threshold()
    assert threshold.t0 == GOLDEN_T0
    # g_min is nondecreasing in the height, so every grid point below t0 certifies
    below = np.arange(int(threshold.t0 / convex._HEIGHT_STEP) + 1) * convex._HEIGHT_STEP
    assert all(convex.chernoff_factor_min((1.0 + t) / 4.0).certified for t in below)


def test_hull_volume_upper_bound_shapes():
    t0 = convex.default_height_threshold().t0
    assert convex.hull_volume_upper_bound(0, 7, t0) == 1.0 - t0
    assert convex.hull_volume_upper_bound(3, 400, t0) == pytest.approx(1.0 - t0, abs=1e-5)
    assert convex.hull_volume_upper_bound(1, 1, 0.1) == 1.0  # vacuous at small d
    with pytest.raises(DomainError):
        convex.hull_volume_upper_bound(1, 1, 1.5)


def test_complexity_lower_bound_values():
    eps0 = convex.default_height_threshold().eps0
    assert convex.complexity_lower_bound(eps0, 20, eps0) == 0
    tiny = convex.complexity_lower_bound(1e-15, 50, eps0)
    assert tiny == math.ceil((1.1**50) * (1 - 1e-15 / eps0) / 51.0)
    previous = None
    for eps in (1e-6, 1e-3, eps0 / 2.0, eps0 * 0.99):
        bound = convex.complexity_lower_bound(eps, 30, eps0)
        if previous is not None:
            assert bound <= previous
        previous = bound
    assert convex.complexity_lower_bound(1e-3, 60, eps0) > convex.complexity_lower_bound(
        1e-3, 40, eps0
    )


def _fraction_bound(eps, d, eps0):
    bound = Fraction(11, 10) ** d * (1 - Fraction(eps) / Fraction(eps0)) / (d + 1)
    return max(0, math.ceil(bound))


def test_complexity_lower_bound_equals_the_rational_formula():
    gen = np.random.default_rng(6)
    eps0 = convex.default_height_threshold().eps0
    for _ in range(2000):
        e, e0 = sorted(float(x) for x in gen.random(2) * 0.5)
        d = int(gen.integers(1, 401))
        assert convex.complexity_lower_bound(e, d, e0) == _fraction_bound(e, d, e0)
    for eps, e0 in ((0.1, 1 / 3), (1 / 3, 0.4), (0.1, eps0), (2.0**-60, 0.1), (1e-15, eps0)):
        for d in (1, 7, 64, 399):
            assert convex.complexity_lower_bound(eps, d, e0) == _fraction_bound(eps, d, e0)
    for eps in (eps0, 0.1, 0.5, 0.7):
        assert convex.complexity_lower_bound(eps, 12, eps0) == 0
    with pytest.raises(DomainError, match="eps must be positive"):
        convex.complexity_lower_bound(math.nan, 12, eps0)
    # the whole bench table: bounds --class convex --eps 0.01 --dmax 2000
    for d in range(1, 2001):
        assert convex.complexity_lower_bound(0.01, d, eps0) == _fraction_bound(0.01, d, eps0)


def test_hull_volume_against_exact_small_d_polytope_volume():
    from scipy.spatial import ConvexHull

    gen = RandomStream(41).substream("hull-exact").generator()
    # d = 1: the hull is a quadrilateral, area by the shoelace formula
    pts = np.sort(gen.random(3))
    corners = np.array([[pts[0], 0.0], [pts[-1], 0.0], [1.0, 1.0], [0.0, 1.0]])
    x, y = corners[:, 0], corners[:, 1]
    area = 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))
    est = convex.maximal_convex_integral(pts[:, None], 1, 40_000, RandomStream(42))
    assert abs((1.0 - est.value) - area) <= 3.0 * est.std_error
    # d = 2: exact 3-D hull volume of the samples plus the lifted top face
    samples = gen.random((4, 2))
    base = np.hstack([samples, np.zeros((4, 1))])
    top = np.array([[i, j, 1.0] for i in (0.0, 1.0) for j in (0.0, 1.0)])
    exact_volume = ConvexHull(np.vstack([base, top])).volume
    est = convex.maximal_convex_integral(samples, 2, 40_000, RandomStream(43))
    assert abs((1.0 - est.value) - exact_volume) <= 3.0 * est.std_error


def test_statistical_volume_consistent_with_closed_form_bound():
    t0 = convex.default_height_threshold().t0
    gen = RandomStream(15).substream("volume-bound").generator()
    for trial in range(10):
        d = int(gen.integers(2, 11))
        n = int(gen.integers(1, 11))
        samples = gen.random((n, d))
        est = convex.maximal_convex_integral(samples, d, 2000, RandomStream(16).substream(trial))
        hull_volume = 1.0 - est.value
        assert hull_volume <= convex.hull_volume_upper_bound(n, d, t0) + 3.0 * est.std_error
