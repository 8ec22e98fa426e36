import itertools
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from quadversary import algorithms, core
from quadversary.core import (
    BudgetExceededError,
    DomainError,
    EvalOracle,
    RandomStream,
    as_points,
    map_uniform_blocks,
    run_algorithm,
    uniform_blocks,
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


def test_product_integrand_is_bitwise_the_numpy_row_product():
    gen = np.random.default_rng(20)
    nodes = np.linspace(0.0, 1.0, 11)  # the staircase rule's lattice at m = 10
    special = np.array([0.0, 1.0, 5e-324, 2.0**-1022, 0.5, 0.75])
    for d in range(1, 21):
        product = algorithms.make_oracle("product", d).fn
        for pts in (
            gen.random((1000, d)),
            nodes[gen.integers(0, 11, size=(1000, d))],
            special[gen.integers(0, special.size, size=(1000, d))],
            np.asfortranarray(gen.random((64, d))),
            np.empty((0, d)),
        ):
            assert product(pts).tobytes() == np.prod(pts, axis=1).tobytes()


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
    # query j is row j of the one generator of substream ("uniform-random")
    # then ("query"); moving that path would change every seeded report
    stream = RandomStream(2024).substream("algorithm")
    alg = algorithms.make_algorithm("uniform-random", 6, 5, stream)
    transcript, _ = run_algorithm(alg, algorithms.make_oracle("affine", 6), budget=5)
    rows = stream.substream("uniform-random").substream("query").generator().random((5, 6))
    for j in range(5):
        assert np.array_equal(transcript.points[j], rows[j])


def test_uniform_random_designs_are_prefixes_of_larger_budgets():
    stream = RandomStream(7).substream("algorithm")
    largest = algorithms.make_algorithm("uniform-random", 4, 1000, stream).points
    for budget in (0, 1, 2, 99, 999):
        design = algorithms.make_algorithm("uniform-random", 4, budget, stream).points
        assert design.shape == (budget, 4)
        assert design.tobytes() == largest[:budget].tobytes()


@pytest.mark.parametrize("algorithm_id", algorithms.ALGORITHM_IDS)
def test_make_algorithm_rejects_a_negative_budget(algorithm_id):
    with pytest.raises(DomainError, match="^budget must be nonnegative$"):
        algorithms.make_algorithm(algorithm_id, 3, -1, RandomStream(0))


def test_uniform_blocks_do_not_depend_on_the_block_size(monkeypatch):
    stream = RandomStream(9).substream("blocks")
    total, dim = 10_000, 3
    whole = stream.generator().random((total, dim))
    for block in (1, 1000, 8192):
        monkeypatch.setattr(core, "_SAMPLE_BLOCK", block)
        # each block is one buffer that the next overwrites, so keep copies
        blocks = [b.copy() for b in uniform_blocks(stream, total, dim)]
        assert [b.shape[0] for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert 1 <= blocks[-1].shape[0] <= block
        assert np.concatenate(blocks).tobytes() == whole.tobytes(), block


def test_draw_jumps_over_skipped_blocks_and_leaves_the_generator_alone(monkeypatch):
    gen = RandomStream(9).substream("jump").generator()
    state = gen.bit_generator.state
    total, dim, block = 4500, 7, 1000
    monkeypatch.setattr(core, "_SAMPLE_BLOCK", block)
    whole = RandomStream(9).substream("jump").generator().random((total, dim))
    for indices in ([], [0], [4], [1, 2, 4], [0, 3]):
        drawn = [(i, b.copy())
                 for i, b in core._draw(gen, indices, total, dim, np.empty((block, dim)))]
        assert [i for i, _ in drawn] == indices
        for i, b in drawn:
            assert b.tobytes() == whole[i * block : (i + 1) * block].tobytes(), (indices, i)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_map_uniform_blocks_returns_the_serial_results_in_block_order(monkeypatch, workers):
    monkeypatch.setattr(core, "_cpu_count", lambda: workers)
    monkeypatch.setattr(core, "_SAMPLE_BLOCK", 1000)
    stream = RandomStream(10).substream("map")
    for total in (1, 999, 1000, 1001, 5 * 1000 + 3):
        serial = [b.sum(axis=1) for b in uniform_blocks(stream, total, 3)]
        split = map_uniform_blocks(lambda pts: pts.sum(axis=1), stream, total, 3)
        assert len(split) == len(serial)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(split, serial))


@pytest.mark.parametrize("total", [0, -1])
def test_sample_counts_below_one_raise_before_any_thread_starts(monkeypatch, total):
    # core._block_count is the one check of every Monte Carlo sample count
    monkeypatch.setattr(core, "_cpu_count", lambda: 4)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    before = threading.active_count()
    for call in (lambda: uniform_blocks(RandomStream(12), total, 3),
                 lambda: map_uniform_blocks(np.sum, RandomStream(12), total, 3)):
        with pytest.raises(DomainError, match="^need at least one sample$"):
            call()
    assert started == [] and threading.active_count() == before


def test_map_uniform_blocks_raises_the_earliest_failing_block_and_starts_none_after_one_fails(
    monkeypatch,
):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    monkeypatch.setattr(core, "_SAMPLE_BLOCK", 1000)
    stream = RandomStream(11)
    firsts = [b[0, 0] for b in uniform_blocks(stream, 6000, 2)]
    before = threading.active_count()

    def run(failing, slow, pause):
        started = []

        def fn(pts):
            i = firsts.index(pts[0, 0])
            started.append(i)
            if i in slow:
                time.sleep(pause)
            if i in failing:
                raise DomainError(f"block {i}")
            return i

        with pytest.raises(DomainError) as caught:
            map_uniform_blocks(fn, stream, 6000, 2)
        assert threading.active_count() == before
        return str(caught.value), set(started)

    # Block 3 fails on one thread while block 1 waits on the other; the
    # serial loop meets block 1 first, and so does the caller.
    message, started = run({1, 3}, {1}, 0.2)
    assert message == "block 1"
    assert started <= {0, 1, 2, 3}
    # Block 1 fails at once while block 0 waits: no later block is started.
    assert run({1}, {0, 2, 3, 4, 5}, 0.05) == ("block 1", {0, 1})


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


def _lattice_side(dim, budget):
    m = 1
    while m**dim < budget:
        m += 1
    return m


def _digits(j, base, dim):
    digits = []
    for _ in range(dim):
        j, r = divmod(j, base)
        digits.append(r)
    return digits[::-1]


def _reference_design(algorithm_id, dim, budget, stream):
    """(count, point j) of each registered algorithm, one point per call."""
    if algorithm_id == "constant-half":
        return 0, None
    if algorithm_id == "uniform-random":
        # point j is the j-th draw of d doubles; callers ask j = 0, 1, ... in order
        gen = stream.substream("uniform-random", "query").generator()
        return budget, lambda j: gen.random(dim)
    if algorithm_id == "grid-scan":
        m = _lattice_side(dim, budget)
        return budget, lambda j: np.array([(i + 0.5) / m for i in _digits(j, m, dim)])
    assert algorithm_id == "vertex-scan"
    return min(budget, 2**dim), lambda j: np.array(_digits(j, 2, dim), dtype=float)


def _one_row_at_a_time(algorithm_id, oracle, budget, stream):
    """Points, values and output of a registered algorithm, one oracle call per point."""
    count, point = _reference_design(algorithm_id, oracle.dim, budget, stream)
    rows = [point(j) for j in range(count)]
    values = np.array([oracle.evaluate(row[None, :])[0] for row in rows])
    points = np.array(rows).reshape(count, oracle.dim)
    return points, values, (float(values.mean()) if count else 0.5)


BLOCK_CASES = ((1, 7), (2, 4000), (3, 0), (6, 34), (10, 100))


@pytest.mark.parametrize("oracle_id", ["threshold", "affine", "zero"])
@pytest.mark.parametrize("dim, budget", BLOCK_CASES)
def test_block_runs_equal_one_row_at_a_time(oracle_id, dim, budget):
    # at (2, 4000) the threshold probe labels the block through its filtered path
    if oracle_id == "zero":
        oracle = algorithms.zero_oracle(dim)
    else:
        oracle = algorithms.make_oracle(oracle_id, dim)
    stream = RandomStream(11).substream("algorithm")
    for algorithm_id in algorithms.ALGORITHM_IDS:
        alg = algorithms.make_algorithm(algorithm_id, dim, budget, stream)
        transcript, output = run_algorithm(alg, oracle, budget)
        points, values, expected = _one_row_at_a_time(algorithm_id, oracle, budget, stream)
        assert transcript.points.tobytes() == points.tobytes(), algorithm_id
        assert transcript.values.tobytes() == values.tobytes(), algorithm_id
        assert repr(output) == repr(expected), algorithm_id


def test_vertex_scan_beyond_the_vertex_count_stops_at_every_vertex():
    for dim, budget in ((1, 7), (2, 4000), (3, 9)):
        alg = algorithms.make_algorithm("vertex-scan", dim, budget, RandomStream(0))
        transcript, _ = run_algorithm(alg, algorithms.make_oracle("threshold", dim), budget)
        vertices = itertools.product((0.0, 1.0), repeat=dim)
        assert transcript.points.tolist() == [list(v) for v in vertices]


def _counting_oracle(dim):
    calls = []
    affine = algorithms.make_oracle("affine", dim)
    return EvalOracle(dim, lambda pts: calls.append(pts.shape[0]) or affine.fn(pts)), calls


def test_fixed_design_runs_make_one_oracle_call():
    for algorithm_id in algorithms.ALGORITHM_IDS:
        oracle, calls = _counting_oracle(3)
        alg = algorithms.make_algorithm(algorithm_id, 3, 20, RandomStream(0))
        transcript, _ = run_algorithm(alg, oracle, budget=20)
        assert calls == ([transcript.n] if transcript.n else []), algorithm_id
        assert transcript.n == len(alg.points)


@dataclass
class Blocks:
    """Asks the given blocks in turn, block i filled with the value i / 10."""

    dim: int
    sizes: tuple
    asked: int = 0

    def next_query(self, transcript):
        self.asked += 1
        assert self.asked <= len(self.sizes) + 1, "the run asked again after an empty block"
        done = np.cumsum((0, *self.sizes))
        i = int(np.searchsorted(done, transcript.n))
        return np.full((self.sizes[i], self.dim), i / 10.0) if i < len(self.sizes) else None

    def finalize(self, transcript):
        return 0.0


def test_a_block_past_the_budget_raises_before_any_evaluation():
    oracle, calls = _counting_oracle(2)
    with pytest.raises(BudgetExceededError):
        run_algorithm(Blocks(2, (5,)), oracle, budget=4)
    assert calls == []
    with pytest.raises(BudgetExceededError):
        run_algorithm(Blocks(2, (2, 3)), oracle, budget=4)
    assert calls == [2]  # the first block fit; the second was never evaluated
    longer = algorithms.make_algorithm("grid-scan", 2, 9, RandomStream(0))
    with pytest.raises(BudgetExceededError):  # a design longer than the run's budget
        run_algorithm(longer, oracle, budget=8)
    assert calls == [2]


def test_empty_and_misshapen_blocks_are_rejected():
    oracle, calls = _counting_oracle(2)
    with pytest.raises(DomainError):  # an empty block would never advance the run
        run_algorithm(Blocks(2, (0,)), oracle, budget=4)
    with pytest.raises(DomainError):
        run_algorithm(Blocks(2, (1, 0)), oracle, budget=4)

    @dataclass(frozen=True)
    class Shaped:
        dim: int
        shape: tuple

        def next_query(self, transcript):
            return np.full(self.shape, 0.5)

        def finalize(self, transcript):
            return 0.0

    for shape in ((3,), (1, 3), (2, 1), (1, 1, 2), ()):
        with pytest.raises(DomainError):
            run_algorithm(Shaped(2, shape), oracle, budget=4)
    assert calls == [1]  # only Blocks(2, (1, 0))'s first block was evaluated


def test_mixed_blocks_and_points_keep_saved_transcripts_valid():
    sizes = (1, 5, 40, 1, 200, 3)  # the third and fifth blocks outgrow the doubled buffers

    @dataclass
    class SavingBlocks(Blocks):
        seen: list = field(default_factory=list)

        def next_query(self, transcript):
            self.seen.append(transcript)
            query = super().next_query(transcript)
            return query[0] if query is not None and query.shape[0] == 1 else query

    alg = SavingBlocks(3, sizes)
    final, _ = run_algorithm(alg, algorithms.make_oracle("affine", 3), budget=sum(sizes))
    assert final.n == sum(sizes) and len(alg.seen) == len(sizes) + 1
    for saved, n in zip(alg.seen, np.cumsum((0, *sizes))):
        assert saved.n == n
        assert np.array_equal(saved.points, final.points[:n])
        assert np.array_equal(saved.values, final.values[:n])
    assert final.points[:, 0].tolist() == [i / 10.0 for i, k in enumerate(sizes) for _ in range(k)]
