"""Convex aggregation by empirical risk minimization over a finite dictionary.

Core objects live in `model`: a problem and a sample (atoms weighted by
their draw counts) are both a `Measure`, so one code path gives the
population and the empirical risk.  Exact risks live in `risk`; hull and
segment solvers in `solver`; sparsification nets in `sparsify`; localized
empirical-process machinery in `localization`; rate curves in `rates`; the
Monte Carlo harness in `experiments`; CSV round-trips in `csvio`.
"""

from .model import (
    Dictionary,
    DiscreteProblem,
    SampleSet,
    Segment,
    SimplexWeights,
    combine,
    sample,
)
from .rates import RatePoint, gap_ratio, phi_n, psi_c
from .risk import empirical_risk, population_risk, variance_term
from .solver import ErmSolution, SolverConfig, erm_convex_hull, erm_segment

__all__ = [
    "Dictionary",
    "DiscreteProblem",
    "ErmSolution",
    "RatePoint",
    "SampleSet",
    "Segment",
    "SimplexWeights",
    "SolverConfig",
    "combine",
    "empirical_risk",
    "erm_convex_hull",
    "erm_segment",
    "gap_ratio",
    "phi_n",
    "population_risk",
    "psi_c",
    "sample",
    "variance_term",
]
