"""Predictive accuracy measures: C-statistic (AUC), DeLong variance,
calibration slope, and analytic no-information values.

The C-statistic and DeLong's variance both come from DeLong's placements,
one sort of the scores: the count of the other class below each score,
ties counted half. They are exact half-integers, so the C-statistic is
bit-identical to explicit pair counting (both reduce to the same exact
half-integer numerator).
"""

from __future__ import annotations

import numpy as np

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


def score_ranks(scores: np.ndarray) -> tuple[int, np.ndarray]:
    """What the placements read of finite scores, from their one sort: the
    number of distinct scores, and each score's index among them."""
    distinct, group = np.unique(scores, return_inverse=True)
    return distinct.shape[0], group


def _placements(scores: np.ndarray, outcomes: np.ndarray, measure: str,
                ranks: tuple[int, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """DeLong's placements: for each event, the nonevents scored below it
    plus half those tied with it; for each nonevent, the same count of
    events. Exact half-integers from one sort; all NaN if any score is.
    Given score_ranks(scores) as `ranks`, scores are not read."""
    pos = np.asarray(outcomes) == 1
    m = int(np.count_nonzero(pos))
    if m == 0 or m == pos.shape[0]:
        raise MetricError(f"{measure} needs both outcome classes")
    if ranks is None:
        scores = np.asarray(scores, dtype=np.float64)
        if np.isnan(scores).any():
            return np.full(m, np.nan), np.full(pos.shape[0] - m, np.nan)
        ranks = score_ranks(scores)
    k, group = ranks
    events = np.bincount(group[pos], minlength=k)
    nonevents = np.bincount(group[~pos], minlength=k)
    among_events = np.cumsum(events) - 0.5 * events
    among_nonevents = np.cumsum(nonevents) - 0.5 * nonevents
    return among_nonevents[group[pos]], among_events[group[~pos]]


def c_statistic_value(scores: np.ndarray, outcomes: np.ndarray,
                      ranks: tuple[int, np.ndarray] | None = None) -> float:
    """AUC = (concordant + 0.5*tied) / (events * nonevents): the sum of the
    events' placements over m * n (Mann-Whitney; exact, including ties).
    `ranks` is score_ranks(scores) where the caller has it."""
    event_places, nonevent_places = _placements(scores, outcomes,
                                                "c-statistic", ranks)
    return float(np.sum(event_places)) / (event_places.shape[0]
                                          * nonevent_places.shape[0])


def delong_variance(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """DeLong variance of the AUC from the structural components: per-event
    V10 and per-nonevent V01."""
    event_places, nonevent_places = _placements(scores, outcomes,
                                                "DeLong variance")
    m, n_neg = event_places.shape[0], nonevent_places.shape[0]
    v10 = event_places / n_neg
    v01 = 1.0 - nonevent_places / m
    auc = float(v10.mean())
    s10 = float(np.sum((v10 - auc) ** 2) / (m - 1)) if m > 1 else 0.0
    s01 = float(np.sum((v01 - auc) ** 2) / (n_neg - 1)) if n_neg > 1 else 0.0
    return s10 / m + s01 / n_neg


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
