import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadversary import algorithms, monotone, quadrature
from quadversary.acceptance import fraction_union_volume, grid_union_volume
from quadversary.core import (Certificate, ConsistencyError, DomainError, Interval, RandomStream,
                              Transcript, run_algorithm)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_threshold_step_values():
    assert monotone.threshold_values(np.zeros((1, 7)))[0] == 0
    for d in (1, 2, 5):
        assert monotone.threshold_values(np.full((1, d), 0.5))[0] == 1  # boundary maps to 1
    assert monotone.threshold_values(np.ones((1, 3)))[0] == 1
    assert monotone.threshold_values([(0.2, 0.1)])[0] == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(unit, min_size=1, max_size=5), st.lists(unit, min_size=1, max_size=5))
def test_threshold_is_monotone(a, b):
    d = min(len(a), len(b))
    x = np.minimum(a[:d], b[:d])
    y = np.maximum(a[:d], b[:d])
    assert monotone.threshold_values([x])[0] <= monotone.threshold_values([y])[0]


def _summed_labels(points):
    """The probe as a plain row sum: the labels threshold_values must return."""
    pts = np.asarray(points, dtype=float)
    return (pts.sum(axis=1) >= pts.shape[1] / 2.0).astype(int)


def _assert_probe_labels(pts):
    got = monotone.threshold_values(pts)
    assert got.dtype == _summed_labels(pts).dtype
    assert np.array_equal(got, _summed_labels(pts))


def test_threshold_labels_equal_row_sums_on_lattice_centres():
    # Many centre sums are exactly d/2 in real arithmetic, so rounding decides them.
    for m in (3, 5, 6, 7, 10):
        centres = (2 * np.arange(m) + 1) / (2 * m)
        for d in range(1, 7):
            lattice = np.stack(np.meshgrid(*[centres] * d, indexing="ij"), axis=-1).reshape(-1, d)
            _assert_probe_labels(lattice)


def test_threshold_labels_equal_row_sums_on_staircase_slabs():
    # The slabs the staircase rules feed the probe; with m a power of two,
    # every node sum is exact, so each row summing to d/2 is left to the fallback.
    for m, d in ((2, 6), (3, 6), (4, 8), (8, 6), (10, 5), (32, 3)):
        for _, slab in quadrature._grid_slabs(np.linspace(0.0, 1.0, m + 1), d):
            _assert_probe_labels(slab)


def test_threshold_labels_equal_row_sums_a_few_ulps_from_half():
    gen = np.random.default_rng(12)
    for d in (1, 2, 3, 10, 17, 64):
        for rows in (5, 4096):  # every size takes the filtered path
            pts = gen.random((rows, d))
            pts *= (d / 2.0) / pts.sum(axis=1, keepdims=True)
            col = gen.integers(0, d, rows)
            moved = pts[np.arange(rows), col]
            for _ in range(gen.integers(1, 5)):
                moved = np.nextafter(moved, np.where(gen.random(rows) < 0.5, -np.inf, np.inf))
            pts[np.arange(rows), col] = moved
            _assert_probe_labels(pts)
            _assert_probe_labels(np.asfortranarray(pts))  # another summation order


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda d: st.lists(st.lists(unit, min_size=d, max_size=d), min_size=1, max_size=8)
    ),
    st.sampled_from([1, 1024]),
)
def test_threshold_labels_equal_row_sums(rows, copies):
    # Every size takes the filtered path; copies repeat each row's fallback.
    _assert_probe_labels(np.tile(np.array(rows), (copies, 1)))


def test_threshold_labels_on_empty_and_non_finite_rows():
    for d in (1, 4):
        assert monotone.threshold_values(np.zeros((0, d))).shape == (0,)
    rows = 1024  # every size takes the filtered path
    big = np.tile([[1e308, 1e308, -1e308, -1e308, -1e308]], (rows, 1))
    odd = np.full((rows, 3), 0.5)
    odd[::3, 0], odd[1::3, 1] = np.nan, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_probe_labels(big)  # partial sums overflow in some orders
        _assert_probe_labels(odd)


def test_pair_membership_rules():
    pair = monotone.build_fooling_pair(np.array([[0.5, 0.5]]), 2)
    # (0.5, 0.5) classifies as 1, so it anchors the lower fooling function
    assert pair.ell == 0 and pair.n == 1
    pair = monotone.build_fooling_pair(np.array([[0.5, 0.4]]), 2)
    assert pair.ell == 1
    assert pair.fplus_values(np.array([[0.5, 0.4]]))[0] == 0.0  # dominated by the anchor
    assert pair.fplus_values(np.array([[0.6, 0.3]]))[0] == 1.0  # incomparable
    pair = monotone.build_fooling_pair(np.array([[0.6, 0.7]]), 2)
    assert pair.fminus_values(np.array([[0.7, 0.7]]))[0] == 1.0
    assert pair.fminus_values(np.array([[0.7, 0.6]]))[0] == 0.0


def test_pair_values_validate_points_like_every_other_point_input():
    # A lone point, a NaN point and a point of the wrong length are all
    # rejected by the one point validator, not read as a batch of one.
    pair = monotone.build_fooling_pair(np.array([[0.5, 0.4], [0.6, 0.7]]), 2)
    for values in (pair.fplus_values, pair.fminus_values):
        for bad in (np.array([2.0, 2.0]), np.array([[np.nan, 0.5]]), np.array([[0.5, 0.5, 0.5]])):
            with pytest.raises(DomainError):
                values(bad)


def test_union_volume_single_boxes():
    for d in range(1, 11):
        v = monotone.union_box_volume(np.full((1, d), 0.5), "lower")
        assert v.exact and v.low == 2.0 ** (-d)
    v = monotone.union_box_volume(np.array([[0.9, 0.9]]), "upper")
    assert v.low == pytest.approx(0.01, abs=1e-15)


def test_union_volume_two_boxes_against_grid_oracle():
    corners = np.array([[0.5, 0.5], [0.25, 1.0]])
    oracle = grid_union_volume(corners, "lower", 1000)
    assert oracle == pytest.approx(0.375, abs=1e-12)  # lattice corners: count is exact
    v = monotone.union_box_volume(corners, "lower")
    assert v.exact and v.low == pytest.approx(0.375, abs=1e-12)


def test_union_volume_random_lattice_instances_match_grid():
    gen = RandomStream(17).substream("union-instances").generator()
    for d, cells in ((2, 200), (3, 64)):
        for _ in range(10):
            k = int(gen.integers(1, 5))
            corners = gen.integers(0, cells + 1, size=(k, d)) / cells
            for mode in ("lower", "upper"):
                volume = monotone.union_box_volume(corners, mode)
                counted = grid_union_volume(corners, mode, cells)
                assert volume.low == pytest.approx(counted, abs=1e-12)
                assert volume.high == pytest.approx(counted, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_union_volume_between_max_and_sum(d, k, data):
    rows = [
        [data.draw(unit, label=f"c{i}{j}") for j in range(d)]
        for i in range(k)
    ]
    corners = np.array(rows)
    vol = monotone.union_box_volume(corners, "lower")
    singles = [float(np.prod(row)) for row in rows]
    assert vol.low >= max(singles) - 1e-12
    assert vol.high <= min(1.0, sum(singles)) + 1e-12


def test_union_volume_bracket_contains_exact():
    gen = RandomStream(3).substream("fallback").generator()
    corners = gen.random((6, 3))
    for mode, boxes in (("lower", corners), ("upper", 1.0 - corners)):
        exact = monotone.union_box_volume(corners, mode)
        bracket = monotone._bracket(monotone._maximal_boxes(boxes))
        assert exact.high - exact.low < 1e-12 and not bracket.exact
        assert bracket.low <= exact.low <= bracket.high


@st.composite
def _corner_sets(draw):
    """Up to 12 corners in d <= 6: on the 2^-(53 // d) grid, arbitrary floats, or a mix."""
    d = draw(st.integers(1, 6))
    grid = st.integers(0, 2 ** (53 // d)).map(lambda i: i / 2 ** (53 // d))
    coord = draw(st.sampled_from([grid, unit, st.one_of(grid, unit, st.just(2.0**-60))]))
    rows = st.lists(coord, min_size=d, max_size=d)
    return np.array(draw(st.lists(rows, min_size=1, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(_corner_sets())
@example(np.array([[2.0**-60, 0.5]]))  # 1 - 2^-60 rounds to 1.0, which lies on the grid
def test_union_and_gap_intervals_hold_their_rational_values(corners):
    for mode in ("lower", "upper"):
        volume = monotone.union_box_volume(corners, mode)
        truth = fraction_union_volume(corners, mode)
        assert volume.low <= truth <= volume.high
        assert not volume.exact or volume.low == truth
    pair = monotone.build_fooling_pair(corners, corners.shape[1])
    truth = (1 - fraction_union_volume(pair.lower_corners, "lower")
             - fraction_union_volume(pair.upper_corners, "upper"))
    assert pair.gap.low <= truth <= pair.gap.high
    assert not pair.gap.exact or pair.gap.low == truth


def _antichain(total: int, dim: int, cells: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct lattice points i/cells with coordinate sum total/cells.

    Equal sums make every pair incomparable, so no box contains another.
    """
    gen = RandomStream(seed).substream("antichain").generator()
    found: set[tuple[int, ...]] = set()
    while len(found) < count:
        head = gen.integers(0, cells + 1, size=dim - 1)
        last = total - int(head.sum())
        if 0 <= last <= cells:
            found.add((*head.tolist(), last))
    return np.array(sorted(found)) / cells


@pytest.mark.parametrize("count, provenance", [(18, "exact"), (30, "bracket")])
def test_gap_of_incomparable_corners_contains_grid_count(count, provenance):
    # Incomparable dyadic corners all survive pruning: 18 per side take more
    # than one block of inclusion-exclusion, 30 exceed the exact cap.  A
    # 16-per-axis grid counts the true gap exactly.
    lower = _antichain(20, 3, 16, count, seed=1)  # coordinate sum 1.25 < 3/2
    upper = _antichain(28, 3, 16, count, seed=2)  # coordinate sum 1.75 >= 3/2
    gap = (1.0 - grid_union_volume(lower, "lower", 16)) - grid_union_volume(upper, "upper", 16)
    pair = monotone.build_fooling_pair(np.vstack([lower, upper]), 3)
    assert pair.ell == count and pair.gap.exact == (provenance == "exact")
    if provenance == "exact":
        assert pair.gap.low == pair.gap.high == pytest.approx(gap, abs=1e-12)
    else:
        assert pair.gap.low <= gap <= pair.gap.high
    assert pair.gap.low >= 2.0 * monotone.error_lower_bound(pair.n, 3) - 1e-12


def test_dominated_and_duplicate_corners_leave_volume_bits_unchanged():
    gen = RandomStream(31).substream("pruning").generator()
    for k, narrow in ((8, True), (60, False)):
        corners = gen.random((k, 8))
        scale = gen.random((k, 1))  # each extra box lies inside its own corner's
        for mode, extra in (("lower", corners * scale), ("upper", 1.0 - (1.0 - corners) * scale)):
            volume = monotone.union_box_volume(corners, mode)
            padded = np.vstack([extra, corners, corners[::-1]])
            assert (volume.high - volume.low < 1e-12) == narrow
            assert monotone.union_box_volume(padded, mode) == volume
    # Dyadic corners stay exact when non-dyadic dominated corners pad them.
    corners = gen.integers(0, 9, size=(8, 8)) / 8
    scale = gen.random((8, 1))
    for mode, extra in (("lower", corners * scale), ("upper", 1.0 - (1.0 - corners) * scale)):
        volume = monotone.union_box_volume(corners, mode)
        assert volume.exact
        assert monotone.union_box_volume(np.vstack([extra, corners]), mode) == volume


def test_exact_volume_memory_stays_blocked():
    gen = RandomStream(37).substream("memory").generator()
    rows = 0.2 + gen.random((20, 20))
    corners = 8.0 * rows / rows.sum(axis=1, keepdims=True)  # equal sums: incomparable
    assert corners.max() <= 1.0
    tracemalloc.start()
    try:
        volume = monotone.union_box_volume(corners, "lower")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # one unblocked 2^20 x 20 table alone is about 170 MB
    bracket = monotone._bracket(monotone._maximal_boxes(corners))
    assert volume.high - volume.low < 1e-12 and bracket.low <= volume.low <= bracket.high


def test_exact_gap_values():
    pair = monotone.build_fooling_pair(np.zeros((0, 3)), 3)
    assert pair.gap.low == 1.0 and monotone.error_lower_bound(pair.n, 3) == 0.5
    for d in range(1, 21):
        pair = monotone.build_fooling_pair(np.full((1, d), 0.5), d)
        assert pair.gap.low == pair.gap.high == 1.0 - 2.0 ** (-d)


def test_exact_gap_mixed_instance_against_grid_oracle():
    lower = np.array([[0.5, 0.4]])
    upper = np.array([[0.6, 0.7]])
    oracle_gap = (1.0 - grid_union_volume(lower, "lower", 1000)) - grid_union_volume(
        upper, "upper", 1000
    )
    assert oracle_gap == pytest.approx(0.68, abs=1e-12)
    pair = monotone.build_fooling_pair(np.vstack([lower, upper]), 2)
    assert pair.gap.low == pytest.approx(0.68, abs=1e-12)
    assert pair.gap.low >= 2.0 * monotone.error_lower_bound(pair.n, 2) == 0.5


def test_pair_functions_agree_with_probe_on_transcript():
    gen = RandomStream(23).substream("agreement").generator()
    for d in (2, 4, 6):
        pts = gen.random((12, d))
        pair = monotone.build_fooling_pair(pts, d)
        probe = monotone.threshold_values(pts).astype(float)
        assert np.array_equal(pair.fplus_values(pts), probe)
        assert np.array_equal(pair.fminus_values(pts), probe)
        assert pair.gap.low >= 2.0 * monotone.error_lower_bound(pair.n, d) - 1e-12


def _dense_holders(points, corners):
    return (points[:, None, :] <= corners[None, :, :]).all(axis=2).sum(axis=1)


def test_dominance_kernel_does_not_depend_on_row_blocks(monkeypatch):
    # Lattice corners repeat and dominate each other; 7-pair blocks split
    # the rows unevenly (1 row per block against many boxes, 2 against 3).
    gen = RandomStream(37).substream("kernel-blocks").generator()
    boxes = gen.integers(0, 5, size=(40, 3)) / 4
    queries = np.vstack([boxes, gen.random((51, 3))])
    pairs = [monotone.build_fooling_pair(boxes, 3),
             monotone.build_fooling_pair(np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.0],
                                                   [0.5, 0.0, 0.25], [1.0, 1.0, 0.0]]), 3)]
    unique = np.unique(boxes, axis=0)
    expected = [unique[_dense_holders(unique, unique) == 1]]
    for pair in pairs:
        assert 0 < pair.ell < pair.n
        expected.append(np.where(_dense_holders(queries, pair.lower_corners) > 0, 0.0, 1.0))
        expected.append(np.where(_dense_holders(-queries, -pair.upper_corners) > 0, 1.0, 0.0))
    for block in (monotone._BLOCK_ELEMENTS, 7):
        monkeypatch.setattr(monotone, "_BLOCK_ELEMENTS", block)
        got = [monotone._maximal_boxes(boxes)]
        for pair in pairs:
            got += [pair.fplus_values(queries), pair.fminus_values(queries)]
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()


def test_upper_boxes_are_tested_without_rounding():
    # 1 - 1e-17 == 1 - 2e-17, so a box test on 1 - x would put (1e-17, 1)
    # into the upper box [(2e-17, 1), 1]; it lies outside.
    pair = monotone.build_fooling_pair(np.array([[2e-17, 1.0]]), 2)
    assert pair.ell == 0
    assert pair.fminus_values(np.array([[1e-17, 1.0], [2e-17, 1.0]])).tolist() == [0.0, 1.0]


def test_pair_values_hold_no_point_box_axis_temporary():
    # (n, k, d) booleans would take 10 MB here: 1000 points, ~500 boxes a side, d=20
    gen = RandomStream(41).substream("kernel-memory").generator()
    pts = gen.random((1000, 20))
    pair = monotone.build_fooling_pair(pts, 20)
    tracemalloc.start()
    try:
        pair.fplus_values(pts)
        pair.fminus_values(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_pair_functions_are_monotone():
    gen = RandomStream(29).substream("pair-monotone").generator()
    pair = monotone.build_fooling_pair(gen.random((8, 4)), 4)
    a = gen.random((10_000, 4))
    b = gen.random((10_000, 4))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    assert (pair.fplus_values(lo) <= pair.fplus_values(hi)).all()
    assert (pair.fminus_values(lo) <= pair.fminus_values(hi)).all()
    # the pair never crosses: lower fooling function <= upper fooling function
    assert (pair.fminus_values(a) <= pair.fplus_values(a)).all()


def test_error_lower_bound_values():
    assert monotone.error_lower_bound(0, 4) == 0.5
    assert monotone.error_lower_bound(2**6, 6) == 0.0
    assert monotone.error_lower_bound(100, 10) == 0.451171875
    with pytest.raises(DomainError):
        monotone.error_lower_bound(-1, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), st.integers(1, 12))
def test_error_lower_bound_monotonicity(n, d):
    assert monotone.error_lower_bound(n + 1, d) <= monotone.error_lower_bound(n, d)
    if n < 2**d:
        assert monotone.error_lower_bound(n, d + 1) >= monotone.error_lower_bound(n, d)


def test_complexity_lower_bound_values():
    assert monotone.complexity_lower_bound(0.5, 9) == 0
    assert monotone.complexity_lower_bound(0.7, 9) == 0
    assert monotone.complexity_lower_bound(0.25, 10) == 512
    assert monotone.complexity_lower_bound(1e-12, 5) == 2**5  # eps -> 0 recovers 2^d
    assert monotone.complexity_lower_bound(0.49, 10) == 21
    with pytest.raises(DomainError):
        monotone.complexity_lower_bound(0.0, 3)


def _fraction_bound(eps, d):
    return max(0, math.ceil(Fraction(2) ** d * (1 - 2 * Fraction(eps))))


def test_complexity_lower_bound_equals_the_rational_formula():
    gen = np.random.default_rng(5)
    cases = [(float(e), int(d)) for e, d in zip(gen.random(2000) * 0.5, gen.integers(1, 401, 2000))]
    cases += [(eps, d) for eps in (0.1, 1 / 3, 0.5 - 2.0**-53, 2.0**-60) for d in (1, 7, 64, 399)]
    for eps, d in cases:
        assert monotone.complexity_lower_bound(eps, d) == _fraction_bound(eps, d)
    for eps in (0.5, 0.5000001, 3.0):
        assert monotone.complexity_lower_bound(eps, 9) == 0
    with pytest.raises(DomainError, match="eps must be positive"):
        monotone.complexity_lower_bound(math.nan, 9)
    # the whole bench table: bounds --class monotone --eps 0.25 --dmax 2000
    for d in range(1, 2001):
        assert monotone.complexity_lower_bound(0.25, d) == _fraction_bound(0.25, d)


def test_certificate_dominates_closed_form_for_every_algorithm():
    from quadversary import algorithms
    from quadversary.core import run_algorithm

    d = 6
    oracle = algorithms.make_oracle("threshold", d)
    for algorithm_id in algorithms.ALGORITHM_IDS:
        for budget in (0, 3, 10, 20):
            alg = algorithms.make_algorithm(algorithm_id, d, budget, RandomStream(55))
            transcript, _ = run_algorithm(alg, oracle, budget)
            pair = monotone.build_fooling_pair(transcript.points, d)
            if algorithm_id == "uniform-random":  # inclusion-exclusion ran on rounding terms
                assert pair.gap.high - pair.gap.low < 1e-12
            else:  # dyadic corners
                assert pair.gap.exact
            certificate = pair.gap.low / 2.0
            assert certificate >= monotone.error_lower_bound(pair.n, d) - 1e-12


def _grid_scan_transcript(d, budget):
    alg = algorithms.make_algorithm("grid-scan", d, budget, RandomStream(0))
    return run_algorithm(alg, algorithms.make_oracle("threshold", d), budget)[0]


def test_certify_records_half_the_exact_gap_of_a_dyadic_design():
    # grid-scan at d=3, budget 4: three lower corners and one upper, gap 7/8
    pair, cert = monotone.certify(_grid_scan_transcript(3, 4), 3)
    assert (pair.ell, pair.n, pair.gap) == (3, 4, Interval(0.875, 0.875))
    assert cert == Certificate(0.4375, 0.0, Interval(0.4375, 0.4375), 0.25, "exact")


def test_certify_records_a_bracket_as_such():
    gen = RandomStream(23).substream("certify").generator()
    points = gen.random((30, 4))
    pair, cert = monotone.certify(Transcript(points, monotone.threshold_values(points)), 4)
    assert cert.provenance == "bracket" and not pair.gap.exact
    assert cert.error == Interval(pair.gap.low / 2.0, pair.gap.high / 2.0)
    assert cert.value == cert.error.low and cert.std_error == 0.0
    assert cert.theorem == monotone.error_lower_bound(30, 4)


def _strict_holders(points, corners):
    return (points[:, None, :] < corners[None, :, :]).all(axis=2).sum(axis=1)


@pytest.mark.parametrize("name, mutant, message", [
    ("_holders", _strict_holders, r"f\+ disagrees with the probe"),
    ("error_lower_bound", lambda n, d: 0.9, "fell below the closed form 0.9"),
], ids=["strict-box-test", "closed-form-above-certificate"])
def test_certify_gates_raise_consistency_error(monkeypatch, name, mutant, message):
    # a strict box test leaves each queried corner outside its own box
    transcript = _grid_scan_transcript(4, 10)
    monotone.certify(transcript, 4)
    monkeypatch.setattr(monotone, name, mutant)
    with pytest.raises(ConsistencyError, match=message):
        monotone.certify(transcript, 4)
