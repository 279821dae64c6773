"""Exact squared risks, excess-loss moments, and the sparsification variance.

Every expectation here is an exact finite sum over the problem atoms; nothing
in this module is Monte Carlo.  That keeps these functions usable as
noise-free oracles for the stochastic machinery elsewhere.
"""

from __future__ import annotations

import numpy as np

from .model import Dictionary, DiscreteProblem, Measure, SimplexWeights


def _check_tabulated(f: np.ndarray, num_points: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1 or f.size != num_points:
        raise ValueError(f"function vector has length {f.size}, expected {num_points}")
    return f


def population_risk(f: np.ndarray, problem: DiscreteProblem) -> float:
    """E (Y - f(X))^2 as an exact sum over atoms; f must span the problem's design."""
    return empirical_risk(_check_tabulated(f, problem.num_design_points), problem)


def empirical_risk(f: np.ndarray, measure: Measure) -> float:
    """sum_i p_i (y_i - f(x_i))^2 over the atoms of a measure.

    On a sample (p_i = count_i / n) this is the empirical risk R_n; on a
    problem, the population risk R.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("function vector must be 1-D")
    if measure.x_indices.max() >= f.size:
        raise ValueError("measure refers to design points outside the tabulated function")
    resid = measure.y_values - f[measure.x_indices]
    return float(measure.probabilities @ (resid * resid))


def bayes_risk(problem: DiscreteProblem) -> float:
    """E (Y - E[Y | X])^2: the smallest risk of any function of X.

    When the regression function E[Y | X] lies in the hull of a dictionary,
    this is the hull minimum, computed from the problem alone.
    """
    px = problem.marginal_x
    ymass = np.bincount(problem.x_indices, weights=problem.probabilities * problem.y_values, minlength=px.size)
    return population_risk(np.divide(ymass, px, out=np.zeros(px.size), where=px > 0.0), problem)


def excess_loss_mean(f: np.ndarray, f_star: np.ndarray, problem: DiscreteProblem) -> float:
    """R(f) - R(f_star); the excess risk when f_star minimizes over the class."""
    return population_risk(f, problem) - population_risk(f_star, problem)


def excess_loss_second_moment(f: np.ndarray, f_star: np.ndarray, problem: DiscreteProblem) -> float:
    """Exact second moment of the excess loss (y-f)^2 - (y-f_star)^2."""
    f = _check_tabulated(f, problem.num_design_points)
    f_star = _check_tabulated(f_star, problem.num_design_points)
    x, y = problem.x_indices, problem.y_values
    diff = (y - f[x]) ** 2 - (y - f_star[x]) ** 2
    return float(problem.probabilities @ (diff * diff))


def mixture_variance(w: SimplexWeights, dictionary: Dictionary) -> np.ndarray:
    """Var_J f_J(x) at every design point x, where J picks row j with probability w_j."""
    weights, vals = w.weights, dictionary.values
    s1 = weights @ vals
    s2 = weights @ (vals * vals)
    return np.maximum(s2 - s1 * s1, 0.0)


def variance_term(w: SimplexWeights, dictionary: Dictionary, problem: DiscreteProblem) -> float:
    """E_X Var_J f_J(X) where J picks dictionary row j with probability w_j.

    The Y part of Var_J(Y - f_J(X)) cancels because Y is held fixed, so this
    is the exact per-point mixture variance averaged over the X marginal.
    """
    if w.weights.size != dictionary.size_M:
        raise ValueError("weight length does not match dictionary size")
    if dictionary.num_design_points != problem.num_design_points:
        raise ValueError("dictionary and problem are tabulated on different designs")
    return float(problem.marginal_x @ mixture_variance(w, dictionary))

