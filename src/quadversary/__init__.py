"""Adversarial error certificates and baseline quadrature on the unit cube.

The library turns worst-case hardness arguments for integrating monotone and
convex [0,1]-valued functions into executable machinery: fooling-function
adversaries that certify error lower bounds for any sampling algorithm,
closed-form query-count bounds that grow exponentially with the dimension,
and simple positive-side baselines (bracketing quadrature, Monte Carlo, and
piecewise-constant approximation) for comparison.
"""

from .core import (
    AdaptiveCubature,
    BudgetExceededError,
    DomainError,
    EvalOracle,
    RandomStream,
    Transcript,
    run_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveCubature",
    "BudgetExceededError",
    "DomainError",
    "EvalOracle",
    "RandomStream",
    "Transcript",
    "__version__",
    "run_algorithm",
]
