"""Predictive accuracy measures: C-statistic (AUC), DeLong variance and
confidence interval, calibration slope, and analytic no-information values.

The C-statistic uses an O(n log n) midrank formulation whose floating-point
result is bit-identical to explicit pair counting (both reduce to the same
exact half-integer numerator). The bootstrap engines compute millions of
AUCs, so the hot path stays allocation-light.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .data import Dataset
from .models import RiskScores, fit_ml


class MetricError(ValueError):
    """Raised when a measure is undefined for the given inputs."""


C_STATISTIC = "c-statistic"
CALIBRATION_SLOPE = "calibration-slope"

#: Analytic permutation limits: the measure's value when predictions carry
#: no outcome information.
NO_INFORMATION = {C_STATISTIC: 0.5, CALIBRATION_SLOPE: 0.0}


def no_information(kind: str) -> float:
    try:
        return NO_INFORMATION[kind]
    except KeyError:
        raise MetricError(f"unknown measure kind {kind!r}") from None


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based midranks with tie averaging (exact half-integers), equal to
    `scipy.stats.rankdata(x, method="average")`: all NaN if any is NaN."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    counts = np.diff(starts, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def c_statistic_value(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """AUC = (concordant + 0.5*tied) / (events * nonevents), computed from
    midranks (Mann-Whitney identity; exact, including ties)."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    pos = outcomes == 1
    m = int(np.count_nonzero(pos))
    n_neg = outcomes.shape[0] - m
    if m == 0 or n_neg == 0:
        raise MetricError("c-statistic needs both outcome classes")
    ranks = _midranks(scores)
    rank_sum = float(np.sum(ranks[pos]))
    return (rank_sum - 0.5 * m * (m + 1)) / (m * n_neg)


def delong_variance(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """DeLong variance of the AUC from the structural components: per-event
    V10 and per-nonevent V01."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    pos = outcomes == 1
    m = int(np.count_nonzero(pos))
    n_neg = outcomes.shape[0] - m
    if m == 0 or n_neg == 0:
        raise MetricError("DeLong variance needs both outcome classes")
    ranks = _midranks(scores)
    v10 = (ranks[pos] - _midranks(scores[pos])) / n_neg
    v01 = 1.0 - (ranks[~pos] - _midranks(scores[~pos])) / m
    auc = float(v10.mean())
    s10 = float(np.sum((v10 - auc) ** 2) / (m - 1)) if m > 1 else 0.0
    s01 = float(np.sum((v01 - auc) ** 2) / (n_neg - 1)) if n_neg > 1 else 0.0
    return s10 / m + s01 / n_neg


def delong_ci(scores: RiskScores, outcomes: np.ndarray,
              alpha: float = 0.05) -> tuple[float, float]:
    """Wald interval auc +/- z_{1-alpha/2} * SE. Untruncated (may exceed
    [0,1]); degenerate variance yields a flagged zero-width interval."""
    if not 0.0 < alpha <= 1.0:
        raise MetricError("alpha must be in (0, 1]")
    auc = c_statistic_value(scores.values, outcomes)
    var = delong_variance(scores.values, outcomes)
    if var <= 0.0:
        return auc, auc
    z = float(ndtri(1.0 - alpha / 2.0))
    half = z * np.sqrt(var)
    return auc - half, auc + half


def calibration_slope(scores: RiskScores, outcomes: np.ndarray) -> float:
    """Slope from the univariate logistic regression of outcomes on the
    model's linear predictors; 1 for a well-calibrated model."""
    lp = np.asarray(scores.linear_predictors, dtype=np.float64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if np.all(lp == lp[0]):
        raise MetricError("calibration slope undefined for a constant "
                          "linear predictor")
    d = Dataset(outcomes, lp[:, None], ("lp",))
    d.check_fittable()
    model = fit_ml(d)
    return float(model.slopes[0])


def measure_value(kind: str, scores: RiskScores,
                  outcomes: np.ndarray) -> float:
    """Uniform entry point used by the bootstrap engines."""
    if kind == C_STATISTIC:
        return c_statistic_value(scores.values, outcomes)
    if kind == CALIBRATION_SLOPE:
        return calibration_slope(scores, outcomes)
    raise MetricError(f"unknown measure kind {kind!r}")
