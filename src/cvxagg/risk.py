"""Exact squared risks, the Bayes risk, and the sparsification variance.

Every expectation here is an exact finite sum over the problem atoms; nothing
in this module is Monte Carlo.  That keeps these functions usable as
noise-free oracles for the stochastic machinery elsewhere.  A function or
dictionary row must fit the data's design (`model._fits`).
"""

from __future__ import annotations

import numpy as np

from .model import Dictionary, DiscreteProblem, Measure, SimplexWeights, _fits, combine


def population_risk(f: np.ndarray, problem: DiscreteProblem) -> float:
    """E (Y - f(X))^2 as an exact sum over atoms: `empirical_risk` on a problem."""
    return empirical_risk(f, problem)


def empirical_risk(f: np.ndarray, measure: Measure) -> float:
    """sum_i p_i (y_i - f(x_i))^2 over the atoms of a measure.

    On a sample (p_i = count_i / n) this is the empirical risk R_n; on a
    problem, the population risk R.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("function vector must be 1-D")
    _fits(f.size, measure, "a function")
    resid = measure.y_values - f[measure.x_indices]
    with np.errstate(over="ignore"):  # a risk past the largest float is inf
        return float(measure.probabilities @ (resid * resid))


def bayes_risk(problem: DiscreteProblem) -> float:
    """E (Y - E[Y | X])^2: the smallest risk of any function of X.

    When the regression function E[Y | X] lies in the hull of a dictionary,
    this is the hull minimum, computed from the problem alone.
    """
    px = problem.marginal_x
    ymass = np.bincount(problem.x_indices, weights=problem.probabilities * problem.y_values, minlength=px.size)
    return population_risk(np.divide(ymass, px, out=np.zeros(px.size), where=px > 0.0), problem)


def mixture_variance(w: SimplexWeights, dictionary: Dictionary, problem: DiscreteProblem, mean: np.ndarray) -> float:
    """`variance_term` given the mixture's first moment mean = combine(dictionary, w)."""
    vals = dictionary.values
    s2 = w.weights @ (vals * vals)
    return float(problem.marginal_x @ np.maximum(s2 - mean * mean, 0.0))


def variance_term(w: SimplexWeights, dictionary: Dictionary, problem: DiscreteProblem) -> float:
    """E_X Var_J f_J(X) where J picks dictionary row j with probability w_j.

    The Y part of Var_J(Y - f_J(X)) cancels because Y is held fixed, so this
    is the exact per-point mixture variance averaged over the X marginal.
    """
    _fits(dictionary.num_design_points, problem, "a dictionary row")
    return mixture_variance(w, dictionary, problem, combine(dictionary, w))

