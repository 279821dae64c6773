"""Convex aggregation by empirical risk minimization over a finite dictionary.

Core objects live in `model`: problems and samples are both weighted-atom
measures (`x_indices`, `y_values`, `probabilities`), so one code path gives the
population and the empirical risk.  Exact risks live in `risk`; hull and
segment solvers in `solver`; sparsification nets in `sparsify`; localized
empirical-process machinery in `localization`; rate curves in `rates`; the
Monte Carlo harness in `experiments`; CSV round-trips in `csvio`.
"""

from .model import (
    Dictionary,
    DiscreteProblem,
    Multiset,
    SampleSet,
    Segment,
    SimplexWeights,
    combine,
    multiset_average,
    sample,
)
from .rates import RatePoint, gap_ratio, phi_n, psi_c, oracle_inequality_residual
from .risk import (
    BernsteinReport,
    bernstein_check,
    empirical_risk,
    excess_loss_mean,
    excess_loss_second_moment,
    population_risk,
    variance_term,
)
from .solver import ErmSolution, SolverConfig, erm_convex_hull, erm_segment

__all__ = [
    "BernsteinReport",
    "Dictionary",
    "DiscreteProblem",
    "ErmSolution",
    "Multiset",
    "RatePoint",
    "SampleSet",
    "Segment",
    "SimplexWeights",
    "SolverConfig",
    "bernstein_check",
    "combine",
    "empirical_risk",
    "erm_convex_hull",
    "erm_segment",
    "excess_loss_mean",
    "excess_loss_second_moment",
    "gap_ratio",
    "multiset_average",
    "phi_n",
    "population_risk",
    "psi_c",
    "sample",
    "oracle_inequality_residual",
    "variance_term",
]
