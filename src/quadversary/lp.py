"""Dense-tableau simplex for the tiny LPs behind the convex adversary.

Problems have the form  max c.v  subject to  A v <= b, v >= 0  with b >= 0,
so the all-slack basis is feasible from the start and no phase-1 is needed.
A solve may instead start from the basis of an earlier solve with the same
A and c.  That basis was optimal for some right-hand side, so its reduced
costs stay nonnegative for every b: dual-simplex pivots restore primal
feasibility, then the primal loop finishes.  The warm tableau is rebuilt
from the original columns as inv(B) @ [A | I | b], never carried over from
an earlier tableau, so rounding cannot build up along chains of warm starts.

Both phases price by Dantzig's rule (most negative reduced cost, most
infeasible row; ties to the lowest index).  The dual ratio test breaks ties
by the largest pivot element, the primal one by the lowest basic index.
Dantzig's rule can cycle on degenerate vertices, so after more than m
consecutive pivots that leave the objective unchanged the solve switches to
Bland's rule, which cannot cycle, until it ends.

Instances here are a few dozen rows at most; a dense tableau is the simplest
thing that is exactly reproducible and has no external dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["FEASIBILITY_TOL", "LPError", "LinearProgram", "LPSolution", "solve"]

FEASIBILITY_TOL = 1e-9


class LPError(RuntimeError):
    """Solver failure; carries the offending program for diagnostics."""

    def __init__(self, message: str, program: "LinearProgram | None" = None):
        super().__init__(message)
        self.program = program


@dataclass(frozen=True)
class LinearProgram:
    """max objective . v  s.t.  constraints @ v <= rhs,  v >= 0."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.constraints, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if a.shape != (b.size, c.size):
            raise LPError(
                f"inconsistent shapes: A{a.shape}, b({b.size},), c({c.size},)", None
            )
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", a)
        object.__setattr__(self, "rhs", b)

    @property
    def num_variables(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LPSolution:
    """Optimal value, primal/dual solutions, and the optimal basis.

    ``basis_inverse`` is the inverse of the optimal basis matrix (read off
    the slack columns of the final tableau).  Together with ``duals`` it
    determines the optimum for any right-hand side that keeps this basis
    feasible, which the convex adversary exploits to batch its evaluations.
    """

    value: float
    solution: np.ndarray
    duals: np.ndarray
    basis: tuple[int, ...]
    basis_inverse: np.ndarray
    iterations: int


def solve(
    program: LinearProgram,
    start: Sequence[int] | None = None,
    tol: float = FEASIBILITY_TOL,
    max_iterations: int = 10_000,
) -> LPSolution:
    """Run the simplex method from ``start`` or, by default, the slack basis.

    ``start`` is the ``basis`` of an earlier solution of a program with the
    same constraints and objective.  If its basis matrix is singular the
    solve starts from the slack basis instead.  ``iterations`` counts the
    pivots of both phases.

    Raises :class:`LPError` for negative right-hand sides (outside this
    solver's scope), a ``start`` that does not fit the program, unbounded or
    infeasible problems, or iteration blowup.
    """
    n = program.num_variables
    m = program.num_constraints
    b = program.rhs.copy()
    if b.size and b.min() < -tol:
        raise LPError("negative right-hand side; slack basis infeasible", program)
    b = np.maximum(b, 0.0)

    # Tableau rows 0..m-1 are constraints, row m carries reduced costs.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = program.constraints
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -program.objective
    basis = list(range(n, n + m))
    if start is not None:
        start = [int(j) for j in start]
        if len(start) != m or not all(0 <= j < n + m for j in start):
            raise LPError(f"start basis {start} does not fit {m} rows", program)
        warm = _rebuild(tableau, start)
        if warm is not None:
            tableau, basis = warm, start

    iterations = 0
    stalled = 0  # consecutive pivots that left the objective unchanged
    bland = False
    while True:
        reduced = tableau[m, : n + m]
        values = tableau[:m, -1]
        infeasible = np.flatnonzero(values < -tol)
        if infeasible.size:
            # Dual simplex: the most infeasible row leaves, and the ratio
            # test keeps every reduced cost nonnegative.
            if bland:
                leaving = int(min(infeasible, key=lambda r: basis[r]))
            else:
                leaving = int(np.argmin(values))
            row = tableau[leaving, : n + m]
            cols = np.flatnonzero(row < -tol)
            if cols.size == 0:
                raise LPError("constraints infeasible", program)
            ratios = np.maximum(reduced[cols], 0.0) / -row[cols]
            ties = cols[ratios <= ratios.min() + 1e-12]
            # A basis that is dual degenerate ties many columns at ratio 0;
            # taking the lowest index there wanders through dozens of bases,
            # the largest pivot element rarely needs more than a few.
            entering = int(ties[0] if bland else ties[np.argmin(row[ties])])
            degenerate = reduced[entering] <= tol
        else:
            negative = np.flatnonzero(reduced < -tol)
            if negative.size == 0:
                break
            entering = int(negative[0]) if bland else int(np.argmin(reduced))
            column = tableau[:m, entering]
            rows = np.flatnonzero(column > tol)
            if rows.size == 0:
                raise LPError("objective unbounded above", program)
            ratios = values[rows] / column[rows]
            ties = rows[ratios <= ratios.min() + 1e-12]
            leaving = int(min(ties, key=lambda r: basis[r]))
            degenerate = values[leaving] <= tol

        pivot_row = tableau[leaving] / tableau[leaving, entering]
        tableau -= np.outer(tableau[:, entering], pivot_row)
        tableau[leaving] = pivot_row
        basis[leaving] = entering

        iterations += 1
        if iterations > max_iterations:
            raise LPError(f"no optimum after {max_iterations} pivots", program)
        stalled = stalled + 1 if degenerate else 0
        bland = bland or stalled > m

    solution = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            solution[col] = tableau[row, -1]
    return LPSolution(
        value=float(tableau[m, -1]),
        solution=solution,
        duals=tableau[m, n : n + m].copy(),
        basis=tuple(basis),
        basis_inverse=tableau[:m, n : n + m].copy(),
        iterations=iterations,
    )


def _rebuild(tableau: np.ndarray, basis: list[int]) -> np.ndarray | None:
    """The tableau of ``basis``, built from the slack-basis ``tableau``.

    Constraint rows become inv(B) @ [A | I | b] and the reduced-cost row is
    priced out against them.  Returns None when B is singular.
    """
    m = tableau.shape[0] - 1
    try:
        inverse = np.linalg.inv(tableau[:m, basis])
    except np.linalg.LinAlgError:
        return None
    rows = inverse @ tableau[:m]
    warm = np.empty_like(tableau)
    warm[:m] = rows
    warm[m] = tableau[m] - tableau[m, basis] @ rows
    warm[:m, basis] = np.eye(m)
    warm[m, basis] = 0.0
    return warm
