"""Batched revised simplex for the small LPs behind the convex adversary.

Problems have the form  max c.v  subject to  A v <= b, v >= 0  with b >= 0,
so the all-slack basis is feasible from the start and no phase-1 is needed.
One call, ``solve(c, A, b)`` on plain arrays, solves K programs that share
A and c but not b: the right-hand side is always a (K, m) array, and every
field of the solution carries the leading K axis.

The K programs start from the slack basis and pivot in lockstep on stacked
(K, m, m) basis inverses.  Each step prices every program from its own
inverse (x_B = inv(B) b, y = c_B inv(B), reduced costs y [A | I] - c), picks
each program's pivot by that program's own rules, and updates the inverses
of all pivoting programs by one batched elementary row operation.  A program
leaves the stack when it is optimal, and its pivot-updated inverse X is kept.
On exit every X is refined by one Newton (Schulz) step against the original
basis columns B, X + X (I - B X) (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, section 14.4).  The step squares the residual I - B X, so
a residual of 1e-9 left by the pivots' rounding falls to the rounding of the
step's own two batched products, which cost far less than a LAPACK
re-inversion.

Pricing follows Dantzig's rule (most negative reduced cost, ties to the
lowest index).  The ratio test breaks ties by the lowest basic index and
reads max(x_B, 0), so rounding below zero never gives a negative step.
Dantzig's rule can cycle on degenerate vertices, so after more than m
consecutive pivots that leave a program's objective unchanged that program
switches to Bland's rule, which cannot cycle, until it ends.

Instances here are a few dozen rows at most; dense arrays are the simplest
thing that is exactly reproducible and has no external dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FEASIBILITY_TOL", "LPError", "LPSolution", "solve"]

FEASIBILITY_TOL = 1e-9
_TIE = 1e-12  # ratios this close to the minimum tie
_MAX_PIVOTS = 10_000  # pivots one program may take


class LPError(RuntimeError):
    """Solver failure; the message names the cause."""


@dataclass(frozen=True)
class LPSolution:
    """Optimal values, dual solutions, and the optimal bases of K programs.

    ``value``, ``duals``, ``basis`` (an int array) and
    ``basis_inverse`` carry a leading K axis, one row per program;
    ``iterations`` is the total number of pivots over the batch.
    ``basis_inverse`` is the inverse of each optimal basis matrix: the
    pivot-updated inverse refined by one Newton step against the original
    columns, not re-inverted; ``value`` and ``duals`` are read from it.
    Together with ``duals`` it determines the optimum for any right-hand
    side that keeps that basis feasible, which the convex adversary
    exploits to batch its evaluations.
    """

    value: np.ndarray
    duals: np.ndarray
    basis: np.ndarray
    basis_inverse: np.ndarray
    iterations: int


def solve(objective, constraints, rhs) -> LPSolution:
    """Maximize  objective . v  s.t.  constraints @ v <= rhs,  v >= 0.

    ``rhs`` has shape (K, m): one row per program, all sharing the (m, n)
    ``constraints`` and the length-n ``objective``.  The primal simplex
    method runs from the slack basis; ``iterations`` counts the pivots.
    Feasibility and reduced costs are judged to within
    :data:`FEASIBILITY_TOL`.

    Raises :class:`LPError` for inconsistent shapes, negative right-hand
    sides (outside this solver's scope), unbounded problems, or more than
    ``_MAX_PIVOTS`` pivots in one program.
    """
    tol = FEASIBILITY_TOL
    c = np.asarray(objective, dtype=float)
    a = np.atleast_2d(np.asarray(constraints, dtype=float))
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 2 or a.shape != (b.shape[1], c.size):
        raise LPError(f"inconsistent shapes: A{a.shape}, b{b.shape}, c({c.size},)")
    k, m = b.shape
    n = c.size
    if b.size and b.min() < -tol:
        raise LPError("negative right-hand side; slack basis infeasible")
    b = np.maximum(b, 0.0)
    columns = np.hstack((a, np.eye(m)))  # [A | I]
    cost = np.concatenate((c, np.zeros(m)))
    basis = np.tile(np.arange(n, n + m), (k, 1))
    inverse = np.empty((k, m, m))

    width = n + m  # larger than every column index, so it masks in argmin
    pivots = np.zeros(k, dtype=int)
    # The working set: programs still pivoting, their inverses, bases and
    # right-hand sides, consecutive pivots at an unchanged objective, and
    # whether they have switched to Bland's rule.
    ids, inv, bas, rhs = np.arange(k), np.tile(np.eye(m), (k, 1, 1)), basis.copy(), b
    count, stalled, bland = np.zeros(k, dtype=int), np.zeros(k, dtype=int), np.zeros(k, dtype=bool)
    while ids.size:  # an empty batch takes no pivot
        values = np.matmul(inv, rhs[..., None])[..., 0]
        reduced = np.matmul(cost[bas][:, None, :], inv)[:, 0] @ columns - cost
        moving = (reduced < -tol).any(axis=1)
        if not moving.all():
            done = ids[~moving]
            basis[done], pivots[done], inverse[done] = bas[~moving], count[~moving], inv[~moving]
            keep = np.flatnonzero(moving)
            if keep.size == 0:
                break
            ids, inv, bas, rhs, count, stalled, bland = (
                x[keep] for x in (ids, inv, bas, rhs, count, stalled, bland)
            )
            values, reduced = values[keep], reduced[keep]

        into = np.where(bland, (reduced < -tol).argmax(axis=1), reduced.argmin(axis=1))
        column = np.matmul(inv, columns[:, into].T[..., None])[..., 0]
        blocking = column > tol
        if not blocking.any(axis=1).all():
            raise LPError("objective unbounded above")
        ratios = np.full(column.shape, np.inf)
        np.divide(np.maximum(values, 0.0), column, out=ratios, where=blocking)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + _TIE
        out = np.where(ties, bas, width).argmin(axis=1)

        # Pivot: inv(B) gets one elementary row operation per program.
        at = np.arange(ids.size)
        pivot_row = inv[at, out] / column[at, out, None]
        inv -= column[:, :, None] * pivot_row[:, None, :]
        inv[at, out] = pivot_row
        bas[at, out] = into
        count += 1
        if count.max() > _MAX_PIVOTS:
            raise LPError(f"no optimum after {_MAX_PIVOTS} pivots")
        stalled = np.where(values[at, out] <= tol, stalled + 1, 0)
        bland |= stalled > m

    # One Newton step against the original columns: X + X (I - B X).
    residual = np.eye(m) - np.matmul(columns.T[basis].transpose(0, 2, 1), inverse)
    inverse = inverse + np.matmul(inverse, residual)
    values = np.matmul(inverse, b[..., None])[..., 0]
    basic_cost = cost[basis]
    duals = np.matmul(basic_cost[:, None, :], inverse)[:, 0]
    value = (basic_cost * values).sum(axis=1)
    return LPSolution(value, duals, basis, inverse, int(pivots.sum()))
