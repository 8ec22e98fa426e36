import itertools
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from quadversary import algorithms
from quadversary.core import (
    BudgetExceededError,
    DomainError,
    EvalOracle,
    RandomStream,
    as_points,
    run_algorithm,
)


def _same_transcript(a, b) -> bool:
    return np.array_equal(a.points, b.points) and np.array_equal(a.values, b.values)


def test_point_validation():
    assert as_points([[0.0, 1.0, 0.5]], 3).shape == (1, 3)
    assert as_points([], 3).shape == (0, 3)
    with pytest.raises(DomainError):
        as_points([[0.5, 1.2]], 2)
    with pytest.raises(DomainError):
        as_points([[-1e-9]], 1)
    with pytest.raises(DomainError):
        as_points([[np.nan]], 1)
    with pytest.raises(DomainError):
        as_points([[0.5, 0.5]], 3)  # wrong dimension
    with pytest.raises(DomainError):
        as_points([0.5, 0.5], 2)  # a single point is a (1, d) array


def test_oracle_rejects_out_of_range_values():
    bad = EvalOracle(dim=1, fn=lambda pts: np.full(pts.shape[0], 1.5))
    with pytest.raises(DomainError):
        bad.evaluate(np.array([[0.5]]))
    with pytest.raises(DomainError):  # the oracle validates its points too
        algorithms.make_oracle("affine", 1).evaluate(np.array([[1.5]]))


def test_zero_budget_constant_algorithm():
    alg = algorithms.make_algorithm("constant-half", 3, 0, RandomStream(0))
    oracle = algorithms.make_oracle("threshold", 3)
    transcript, output = run_algorithm(alg, oracle, budget=0)
    assert transcript.n == 0
    assert output == 0.5


def test_boundary_query_returns_one():
    # at d=2 the coordinate sum of (0.5, 0.5) sits exactly on the step
    oracle = algorithms.make_oracle("threshold", 2)

    @dataclass(frozen=True)
    class OneShot:
        dim: int = 2

        def next_query(self, transcript):
            return np.array([0.5, 0.5]) if transcript.n == 0 else None

        def finalize(self, transcript):
            return transcript.values[0]

    transcript, output = run_algorithm(OneShot(), oracle, budget=1)
    assert transcript.values[0] == 1.0
    assert output == 1.0


def test_adaptive_follow_up_query():
    oracle = algorithms.make_oracle("threshold", 2)

    @dataclass(frozen=True)
    class Chaser:
        dim: int = 2

        def next_query(self, transcript):
            if transcript.n == 0:
                return np.array([0.3, 0.3])
            if transcript.n == 1 and transcript.values[0] == 0.0:
                return np.array([0.9, 0.9])
            return None

        def finalize(self, transcript):
            return float(np.mean(transcript.values))

    transcript, _ = run_algorithm(Chaser(), oracle, budget=5)
    assert transcript.n == 2
    assert transcript.values.tolist() == [0.0, 1.0]


def test_budget_exceeded_is_an_error():
    oracle = algorithms.make_oracle("affine", 2)

    @dataclass(frozen=True)
    class Greedy:
        dim: int = 2

        def next_query(self, transcript):
            return np.array([0.5, 0.5])

        def finalize(self, transcript):
            return 0.0

    with pytest.raises(BudgetExceededError):
        run_algorithm(Greedy(), oracle, budget=3)


def test_dimension_mismatch_rejected():
    alg = algorithms.make_algorithm("constant-half", 2, 0, RandomStream(0))
    oracle = algorithms.make_oracle("affine", 3)
    with pytest.raises(DomainError):
        run_algorithm(alg, oracle, budget=0)
    alg = algorithms.make_algorithm("constant-half", 3, 0, RandomStream(0))
    with pytest.raises(DomainError):
        run_algorithm(alg, oracle, budget=-1)


def test_replay_same_seed_reproduces_transcript():
    oracle = algorithms.make_oracle("threshold", 4)
    runs = []
    for _ in range(2):
        alg = algorithms.make_algorithm("uniform-random", 4, 10, RandomStream(99))
        transcript, output = run_algorithm(alg, oracle, budget=10)
        runs.append((transcript, output))
    (t1, out1), (t2, out2) = runs
    assert _same_transcript(t1, t2)
    assert out1 == out2


def test_fooling_principle_same_transcript_same_output():
    # an algorithm run against any integrand agreeing on the queried points
    # must produce the identical transcript and output
    from quadversary import monotone

    oracle = algorithms.make_oracle("threshold", 5)
    alg = algorithms.make_algorithm("uniform-random", 5, 15, RandomStream(7))
    transcript, output = run_algorithm(alg, oracle, budget=15)
    pair = monotone.build_fooling_pair(transcript.points, 5)
    for sibling in (EvalOracle(5, pair.fplus_values), EvalOracle(5, pair.fminus_values)):
        t2, out2 = run_algorithm(alg, sibling, budget=15)
        assert np.array_equal(t2.points, transcript.points)
        assert out2 == output


def test_fooling_principle_holds_for_adaptive_queries():
    # queries here genuinely depend on the observed values, yet both fooling
    # siblings replay the identical run because they agree on every record
    from quadversary import monotone

    @dataclass(frozen=True)
    class ValueChaser:
        dim: int
        budget: int

        def next_query(self, transcript):
            if transcript.n >= self.budget:
                return None
            if transcript.n == 0:
                return np.full(self.dim, 0.6)
            prev = transcript.points[-1]
            return prev * 0.8 if transcript.values[-1] == 1.0 else prev + (1.0 - prev) * 0.5

        def finalize(self, transcript):
            return float(np.mean(transcript.values))

    alg = ValueChaser(dim=4, budget=12)
    oracle = algorithms.make_oracle("threshold", 4)
    transcript, output = run_algorithm(alg, oracle, budget=12)
    assert len(set(transcript.values.tolist())) == 2  # both branches exercised
    pair = monotone.build_fooling_pair(transcript.points, 4)
    for sibling in (EvalOracle(4, pair.fplus_values), EvalOracle(4, pair.fminus_values)):
        t2, out2 = run_algorithm(alg, sibling, budget=12)
        assert _same_transcript(t2, transcript)
        assert out2 == output


def test_random_stream_determinism_and_substreams():
    a = RandomStream(123).generator().random(5)
    b = RandomStream(123).generator().random(5)
    assert np.array_equal(a, b)
    s1 = RandomStream(123).substream("x").generator().random(5)
    s2 = RandomStream(123).substream("y").generator().random(5)
    assert not np.array_equal(s1, s2)
    with pytest.raises(DomainError):
        RandomStream(-1)
    with pytest.raises(DomainError):
        RandomStream(2**64)


def test_grid_and_vertex_scan_queries_are_deterministic():
    grid = algorithms.make_algorithm("grid-scan", 2, 5, RandomStream(0))
    oracle = algorithms.make_oracle("affine", 2)
    t1, _ = run_algorithm(grid, oracle, budget=5)
    t2, _ = run_algorithm(grid, oracle, budget=5)
    assert _same_transcript(t1, t2)
    vert = algorithms.make_algorithm("vertex-scan", 2, 10, RandomStream(0))
    t3, _ = run_algorithm(vert, oracle, budget=10)
    assert t3.n == 4  # only 4 vertices exist at d=2
    assert t3.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


def test_grid_scan_d5_queries_the_whole_5_lattice():
    # 3125 = 5^5, so the smallest lattice holding the budget has 5 cells per axis
    grid = algorithms.make_algorithm("grid-scan", 5, 3125, RandomStream(0))
    transcript, _ = run_algorithm(grid, algorithms.make_oracle("affine", 5), budget=3125)
    centers = (0.1, 0.3, 0.5, 0.7, 0.9)
    assert transcript.points.tolist() == [list(p) for p in itertools.product(centers, repeat=5)]


def test_registered_algorithms_keep_their_order_and_query_counts():
    ids = ("constant-half", "uniform-random", "grid-scan", "vertex-scan")
    assert algorithms.ALGORITHM_IDS == ids  # the --algorithm help text lists them in this order
    for d, budget in ((2, 10), (3, 5), (4, 0)):
        expected = {"constant-half": 0, "uniform-random": budget, "grid-scan": budget,
                    "vertex-scan": min(budget, 2**d)}
        for algorithm_id, count in expected.items():
            alg = algorithms.make_algorithm(algorithm_id, d, budget, RandomStream(3))
            transcript, output = run_algorithm(alg, algorithms.make_oracle("affine", d), budget)
            assert transcript.n == count, algorithm_id
            assert output == (transcript.values.mean() if count else 0.5)


def test_uniform_random_queries_follow_their_seed_path():
    # query j comes from substream ("uniform-random") then ("query", j); moving
    # that path would change every seeded report
    stream = RandomStream(2024).substream("algorithm")
    alg = algorithms.make_algorithm("uniform-random", 6, 5, stream)
    transcript, _ = run_algorithm(alg, algorithms.make_oracle("affine", 6), budget=5)
    for j in range(5):
        expected = stream.substream("uniform-random").substream("query", j).generator().random(6)
        assert np.array_equal(transcript.points[j], expected)


def test_make_algorithm_rejects_unknown_ids_and_nonpositive_dimensions():
    with pytest.raises(DomainError, match="unknown algorithm 'nope'; choose from"):
        algorithms.make_algorithm("nope", 2, 4, RandomStream(0))
    for d in (0, -1):
        with pytest.raises(DomainError, match="dimension"):
            algorithms.make_algorithm("grid-scan", d, 4, RandomStream(0))


@dataclass
class Hoarder:
    """Keeps every transcript it is handed."""

    dim: int
    budget: int
    seen: list = field(default_factory=list)

    def next_query(self, transcript):
        self.seen.append(transcript)
        if transcript.n >= self.budget:
            return None
        return np.full(self.dim, (transcript.n % 7) / 7.0)

    def finalize(self, transcript):
        return 0.5


def test_saved_transcripts_stay_valid_across_buffer_growth():
    alg = Hoarder(dim=3, budget=300)  # several doublings of the record buffers
    final, _ = run_algorithm(alg, algorithms.make_oracle("affine", 3), budget=300)
    assert final.n == 300 and len(alg.seen) == 301
    for k, saved in enumerate(alg.seen):
        assert saved.n == k
        assert np.array_equal(saved.points, final.points[:k])
        assert np.array_equal(saved.values, final.values[:k])
    for saved in (alg.seen[5], final):
        with pytest.raises(ValueError):
            saved.points[0, 0] = 0.0
        with pytest.raises(ValueError):
            saved.values[0] = 0.0


def test_huge_budget_allocates_nothing_of_budget_size():
    tracemalloc.start()
    try:
        transcript, output = run_algorithm(
            algorithms.make_algorithm("constant-half", 4, 10**12, RandomStream(0)),
            algorithms.make_oracle("affine", 4),
            budget=10**12,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert transcript.n == 0 and output == 0.5
    assert peak < 1_000_000
