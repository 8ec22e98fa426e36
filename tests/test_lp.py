import numpy as np
import pytest
from scipy.optimize import linprog

from quadversary import lp


def test_known_two_variable_optimum():
    # max x + y  s.t.  x <= 1, y <= 2
    program = lp.LinearProgram([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    sol = lp.solve(program)
    assert sol.value == pytest.approx(3.0, abs=1e-12)
    assert sol.solution == pytest.approx([1.0, 2.0], abs=1e-12)


def test_binding_mixture_constraint():
    # max 2x + y  s.t.  x + y <= 1  ->  all mass on x
    program = lp.LinearProgram([2.0, 1.0], [[1.0, 1.0]], [1.0])
    sol = lp.solve(program)
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.solution == pytest.approx([1.0, 0.0], abs=1e-12)


def test_unbounded_detected():
    program = lp.LinearProgram([1.0], [[0.0]], [1.0])
    with pytest.raises(lp.LPError):
        lp.solve(program)


def test_negative_rhs_rejected():
    program = lp.LinearProgram([1.0], [[1.0]], [-0.5])
    with pytest.raises(lp.LPError):
        lp.solve(program)


def test_degenerate_rhs_zero_terminates():
    # Bland's rule must not cycle on the degenerate vertex.
    program = lp.LinearProgram(
        [1.0, 1.0, 1.0],
        [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        [0.0, 0.0, 1.0],
    )
    sol = lp.solve(program)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_duals_and_basis_inverse_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = rng.integers(1, 6), rng.integers(1, 8)
        a = rng.random((m, n))
        b = rng.random(m) + 0.1
        c = rng.random(n)
        program = lp.LinearProgram(c, a, b)
        sol = lp.solve(program)
        # value equals the dual objective
        assert sol.value == pytest.approx(float(sol.duals @ b), abs=1e-9)
        assert sol.duals.min() >= -1e-9
        # basis inverse really inverts the basis columns
        columns = np.hstack([a, np.eye(m)])[:, list(sol.basis)]
        assert np.allclose(sol.basis_inverse @ columns, np.eye(m), atol=1e-9)
        # primal solution feasible and optimal within tolerance
        assert (a @ sol.solution <= b + 1e-9).all()
        assert sol.solution.min() >= -1e-12


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
        sol = lp.solve(lp.LinearProgram(c, a, b))
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert sol.value == pytest.approx(-ref.fun, abs=1e-8)


def test_beale_cycling_example_ends_at_optimum():
    # Beale's LP, on which Dantzig's rule alone cycles; the switch to
    # Bland's rule after a run of degenerate pivots must end the solve.
    program = lp.LinearProgram(
        [0.75, -150.0, 0.02, -6.0],
        [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0],
    )
    sol = lp.solve(program)
    assert sol.value == pytest.approx(0.05, abs=1e-12)
    assert sol.solution == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)


def test_warm_start_from_another_rhs_matches_cold_solve_and_highs():
    rng = np.random.default_rng(17)
    warm_pivots = cold_pivots = 0
    for _ in range(40):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = np.vstack([rng.random((m, n)) * 2.0 - 0.5, np.ones(n)])
        c = rng.random(n) * 2.0 - 0.5
        first = lp.solve(lp.LinearProgram(c, a, np.append(rng.random(m), 1.0)))
        b = np.append(rng.random(m), 1.0)
        program = lp.LinearProgram(c, a, b)
        warm = lp.solve(program, first.basis)
        cold = lp.solve(program)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.value == pytest.approx(-ref.fun, abs=1e-9)
        assert warm.value == pytest.approx(float(warm.duals @ b), abs=1e-9)
        columns = np.hstack([a, np.eye(m + 1)])[:, list(warm.basis)]
        assert np.allclose(warm.basis_inverse @ columns, np.eye(m + 1), atol=1e-9)
        assert (a @ warm.solution <= b + 1e-9).all()
        assert warm.solution.min() >= -1e-12
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots


def test_singular_start_falls_back_to_slack_start():
    program = lp.LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
    cold = lp.solve(program)
    for start in ((0, 0), (2, 2)):  # repeated columns: B is singular
        sol = lp.solve(program, start)
        assert sol.value == cold.value
        assert sol.basis == cold.basis
        assert sol.iterations == cold.iterations
    for start in ((0,), (0, 4), (-1, 2)):
        with pytest.raises(lp.LPError):
            lp.solve(program, start)
