from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from quadversary import algorithms, lp
from quadversary.core import RandomStream, run_algorithm


def _primal(a, b, basis, basis_inverse) -> np.ndarray:
    """The optimal primal v of one program, rebuilt from its optimal basis.

    The basic variables are inv(B) b and every other variable is 0; the
    slack variables are dropped.
    """
    n = np.shape(a)[1]
    full = np.zeros(n + len(basis))
    full[list(basis)] = basis_inverse @ np.asarray(b, dtype=float)
    return full[:n]


def _solve_one(c, a, b) -> SimpleNamespace:
    """Solve one program as a batch of one and return its row."""
    sol = lp.solve(c, a, np.asarray(b, dtype=float)[None])
    return SimpleNamespace(
        value=float(sol.value[0]),
        primal=_primal(a, b, sol.basis[0], sol.basis_inverse[0]),
        duals=sol.duals[0],
        basis=tuple(int(j) for j in sol.basis[0]),
        basis_inverse=sol.basis_inverse[0],
        iterations=sol.iterations,
    )


def test_known_two_variable_optimum():
    # max x + y  s.t.  x <= 1, y <= 2
    sol = _solve_one([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    assert sol.value == pytest.approx(3.0, abs=1e-12)
    assert sol.primal == pytest.approx([1.0, 2.0], abs=1e-12)


def test_binding_mixture_constraint():
    # max 2x + y  s.t.  x + y <= 1  ->  all mass on x
    sol = _solve_one([2.0, 1.0], [[1.0, 1.0]], [1.0])
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.primal == pytest.approx([1.0, 0.0], abs=1e-12)


def test_unbounded_detected():
    with pytest.raises(lp.LPError):
        _solve_one([1.0], [[0.0]], [1.0])


def test_negative_rhs_rejected():
    with pytest.raises(lp.LPError):
        _solve_one([1.0], [[1.0]], [-0.5])


def test_one_dimensional_rhs_rejected():
    with pytest.raises(lp.LPError, match="shapes"):
        lp.solve([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])


@pytest.mark.parametrize("c,a,rhs", [
    ([1.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0]]),  # objective narrower than A
    ([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0, 3.0]]),  # rhs wider than A is tall
    ([1.0, 1.0], [[1.0, 0.0, 0.0]], [[1.0]]),  # A wider than the objective
])
def test_mismatched_widths_rejected(c, a, rhs):
    with pytest.raises(lp.LPError, match="shapes"):
        lp.solve(c, a, rhs)


def test_degenerate_rhs_zero_terminates():
    # Bland's rule must not cycle on the degenerate vertex.
    sol = _solve_one(
        [1.0, 1.0, 1.0],
        [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        [0.0, 0.0, 1.0],
    )
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_duals_and_basis_inverse_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = rng.integers(1, 6), rng.integers(1, 8)
        a = rng.random((m, n))
        b = rng.random(m) + 0.1
        c = rng.random(n)
        sol = _solve_one(c, a, b)
        # value equals the dual objective
        assert sol.value == pytest.approx(float(sol.duals @ b), abs=1e-9)
        assert sol.duals.min() >= -1e-9
        # basis inverse really inverts the basis columns
        columns = np.hstack([a, np.eye(m)])[:, list(sol.basis)]
        assert np.allclose(sol.basis_inverse @ columns, np.eye(m), atol=1e-9)
        # primal solution feasible and optimal within tolerance
        assert (a @ sol.primal <= b + 1e-9).all()
        assert sol.primal.min() >= -1e-12


def test_matches_reference_solver_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m = rng.integers(1, 7), rng.integers(1, 9)
        a = rng.random((m, n)) * 2.0 - 0.5
        b = rng.random(m)
        c = rng.random(n) * 2.0 - 0.5
        # guarantee boundedness with a simplex-style cap
        a = np.vstack([a, np.ones(n)])
        b = np.append(b, 1.0)
        sol = _solve_one(c, a, b)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert sol.value == pytest.approx(-ref.fun, abs=1e-8)


def test_beale_cycling_example_ends_at_optimum():
    # Beale's LP, on which Dantzig's rule alone cycles; the switch to
    # Bland's rule after a run of degenerate pivots must end the solve.
    sol = _solve_one(
        [0.75, -150.0, 0.02, -6.0],
        [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0],
    )
    assert sol.value == pytest.approx(0.05, abs=1e-12)
    assert sol.primal == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)


def _membership(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constraints and objective of the convex adversary's hull LP."""
    return np.vstack([np.ones(len(points)), points.T, 1.0 - points.T]), np.ones(len(points))


def _query_rhs(xs: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(xs), 1)), xs, 1.0 - xs])


@pytest.mark.parametrize(
    "algorithm_id,dim,budget",
    [("grid-scan", 2, 1000), ("vertex-scan", 8, 8), ("uniform-random", 6, 30)],
)
def test_batch_matches_highs_on_degenerate_programs(algorithm_id, dim, budget):
    # Collinear grid points and the vertices of a cube face are degenerate;
    # queries at sample points and at cube corners add degenerate programs.
    alg = algorithms.make_algorithm(algorithm_id, dim, budget, RandomStream(0))
    points = run_algorithm(alg, algorithms.zero_oracle(dim), budget)[0].points
    a, c = _membership(points)
    m = a.shape[0]
    gen = RandomStream(41).substream(algorithm_id).generator()
    xs = np.vstack([gen.random((24, dim)), points[:4], gen.integers(0, 2, (4, dim))])
    rhs = _query_rhs(xs)
    refs = []
    for b in rhs:
        ref = linprog(-c, A_ub=a, b_ub=b, method="highs")
        assert ref.status == 0
        refs.append(-ref.fun)
    sol = lp.solve(c, a, rhs)
    assert sol.value.shape == (len(xs),) and sol.basis.shape == (len(xs), m)
    for j, b in enumerate(rhs):
        y = sol.duals[j]
        assert sol.value[j] == pytest.approx(refs[j], abs=1e-9)
        assert sol.value[j] == pytest.approx(float(y @ b), abs=1e-9)
        assert (a.T @ y >= c - 1e-9).all() and y.min() >= -1e-9
        columns = np.hstack([a, np.eye(m)])[:, sol.basis[j]]
        assert np.abs(sol.basis_inverse[j] @ columns - np.eye(m)).max() <= 1e-9
        primal = _primal(a, b, sol.basis[j], sol.basis_inverse[j])
        assert (a @ primal <= b + 1e-9).all()
        assert primal.min() >= -1e-12


def test_batch_pivots_each_program_as_a_lone_solve_would(monkeypatch):
    # Row 0 is Beale's program, which Dantzig's rule alone cycles on: it ends
    # only after its switch to Bland's rule.  The other rows share A and c.
    c = [0.75, -150.0, 0.02, -6.0]
    a = [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]
    rhs = np.array([[0.0, 0.0, 1.0], [0.1, 0.2, 1.0], [0.0, 0.0, 0.5], [0.3, 0.0, 1.0]])
    sol = lp.solve(c, a, rhs)
    assert sol.value[0] == pytest.approx(0.05, abs=1e-12)
    primal = _primal(a, rhs[0], sol.basis[0], sol.basis_inverse[0])
    assert primal == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)
    lone = [_solve_one(c, a, b) for b in rhs]
    assert sol.iterations == sum(s.iterations for s in lone)
    for j, b in enumerate(rhs):
        ref = linprog(-np.array(c), A_ub=a, b_ub=b, method="highs")
        assert sol.value[j] == pytest.approx(-ref.fun, abs=1e-9)
        assert sol.value[j] == pytest.approx(lone[j].value, abs=1e-12)
        assert tuple(sol.basis[j]) == lone[j].basis
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 5)
    with pytest.raises(lp.LPError, match="pivots"):
        lp.solve(c, a, rhs[[3, 0]])
    assert lp.solve(c, a, rhs[[3]]).value[0] > 0.0


def test_one_bad_program_fails_the_whole_batch():
    a, c = [[1.0, 1.0], [1.0, 3.0]], [1.0, 2.0]
    with pytest.raises(lp.LPError, match="negative"):
        lp.solve(c, a, [[1.0, 2.0], [0.5, -0.5], [2.0, 1.0]])
    with pytest.raises(lp.LPError, match="unbounded"):
        lp.solve([1.0, 1.0], [[0.0, 1.0]], [[1.0], [2.0]])
