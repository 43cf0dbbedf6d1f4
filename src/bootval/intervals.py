"""Confidence intervals for optimism-corrected accuracy measures, and the
validation pipeline that computes them.

Four families: DeLong's Wald interval (comparator), the apparent bootstrap
percentile interval, the location-shifted interval (apparent interval
translated by the estimated optimism), and the two-stage interval
(percentile interval of corrected estimates from a full inner bootstrap
inside each outer replicate). `validate` fits, scores and evaluates the
replicates once and derives every requested correction and interval from
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from .data import DataError, Dataset
from .metrics import C_STATISTIC, MetricError, delong_variance, measure_value
from .models import FitError, FitRecipe, predict
from .optimism import (METHODS, OOB_METHODS, OptimismError, OptimismResult,
                       ReplicateSet, apparent_fit, correct,
                       evaluate_replicates, kernel_patterns, two_class_draw)
from .resampling import (ResamplePlan, WorkerPool, inner_level, map_indices,
                         percentile_interval)

DELONG = "delong"
APPARENT = "apparent"
LOCATION_SHIFTED = "location-shift"
TWO_STAGE = "two-stage"
CI_METHODS = (DELONG, APPARENT, LOCATION_SHIFTED, TWO_STAGE)
#: interval kinds that take a correction: `kind:correction`
CORRECTED = (LOCATION_SHIFTED, TWO_STAGE)


class IntervalError(ValueError):
    pass


def parse_method(method: str) -> tuple[str, str | None]:
    """'two-stage:harrell' -> ('two-stage', 'harrell'); bare names pass
    through with no correction."""
    if ":" in method:
        kind, correction = method.split(":", 1)
    else:
        kind, correction = method, None
    if kind not in CI_METHODS:
        raise IntervalError(f"unknown CI method {method!r}")
    if kind in CORRECTED:
        if correction not in METHODS:
            raise IntervalError(
                f"{kind} requires a correction, got {correction!r}")
    elif correction is not None:
        raise IntervalError(f"{kind} takes no correction")
    return kind, correction


@dataclass(frozen=True)
class IntervalEstimate:
    method: str
    point: float
    lower: float
    upper: float
    alpha: float
    correction: str | None = None
    B_outer: int = 0
    B_inner: int = 0
    shift: float | None = None  # location-shifted only
    n_valid: int = 0

    def __post_init__(self):
        if self.lower > self.upper:
            raise IntervalError("interval bounds out of order")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def delong_interval(scores, outcomes: np.ndarray,
                    alpha: float = 0.05) -> IntervalEstimate:
    """DeLong's Wald interval of the apparent C-statistic, auc +/-
    z_{1-alpha/2} * SE. Untruncated (may exceed [0,1]); a degenerate
    variance yields a zero-width interval."""
    if not 0.0 < alpha <= 1.0:
        raise MetricError("alpha must be in (0, 1]")
    auc = measure_value(C_STATISTIC, scores, outcomes)
    var = delong_variance(scores.values, outcomes)
    half = float(ndtri(1.0 - alpha / 2.0)) * np.sqrt(var) if var > 0 else 0.0
    return IntervalEstimate(DELONG, auc, auc - half, auc + half, alpha,
                            n_valid=outcomes.shape[0])


def apparent_bootstrap_ci(apparent: float, reps: ReplicateSet,
                          alpha: float = 0.05) -> IntervalEstimate:
    """Percentile interval of the replicate-on-own-resample distribution."""
    lower, upper = percentile_interval(reps.theta_boot[reps.valid], alpha)
    return IntervalEstimate(APPARENT, apparent, lower, upper, alpha,
                            B_outer=reps.B, n_valid=int(reps.valid.sum()))


def location_shifted_ci(result: OptimismResult, reps: ReplicateSet,
                        alpha: float = 0.05) -> IntervalEstimate:
    """Apparent bootstrap interval translated by the optimism estimate;
    width equals the apparent interval's width exactly."""
    app_ci = apparent_bootstrap_ci(result.apparent, reps, alpha)
    shift = result.apparent - result.corrected
    return IntervalEstimate(LOCATION_SHIFTED, result.corrected,
                            app_ci.lower - shift, app_ci.upper - shift,
                            alpha, correction=result.method, B_outer=reps.B,
                            shift=shift, n_valid=app_ci.n_valid)


def two_stage_ci(result: OptimismResult, values: np.ndarray, inner_B: int,
                 alpha: float = 0.05) -> IntervalEstimate:
    """Percentile interval of the corrected estimates of the outer
    replicates (NaN where invalid). The point is the corrected estimate on
    the original data."""
    valid = ~np.isnan(values)
    if not valid.any():
        raise IntervalError("all outer replicates invalid")
    lower, upper = percentile_interval(values[valid], alpha)
    return IntervalEstimate(TWO_STAGE, result.corrected, lower, upper, alpha,
                            correction=result.method,
                            B_outer=values.shape[0], B_inner=inner_B,
                            n_valid=int(valid.sum()))


def _bootstrap(d: Dataset, recipe: FitRecipe, measure: str,
               plan: ResamplePlan, pool: WorkerPool | None = None,
               patterns=None, oob: bool = True):
    """The bootstrap every correction and interval shares: the apparent
    risk scores, the apparent value and the replicate set (see
    evaluate_replicates for patterns and oob). Only a top-level call passes
    its pool: the outer tasks already run on its workers, so an inner
    bootstrap runs inline."""
    scores = predict(apparent_fit(d, recipe, plan, pool), d)
    apparent = measure_value(measure, scores, d.outcomes)
    return scores, apparent, evaluate_replicates(
        d, recipe, measure, plan, pool=pool, patterns=patterns, oob=oob)


def _two_stage_outer(d: Dataset, recipe: FitRecipe, measure: str,
                     outer_plan: ResamplePlan, inner_B: int, corrections,
                     patterns, b: int) -> list[float]:
    """Outer replicate b: treat the resample as a derivation dataset, run
    the shared bootstrap on it with an inner plan keyed to b, and return
    each correction's value, NaN where it is undefined. The inner bootstrap
    restricts d's kernel patterns, if any, to the resample, and grades
    out-of-bag sets only for a 0.632-family correction."""
    values = [np.nan] * len(corrections)
    idx = two_class_draw(d, outer_plan, b)
    if idx is None:
        return values
    inner_plan = ResamplePlan(inner_B, outer_plan.seed, level=inner_level(b))
    if patterns is not None:
        patterns = patterns.restrict(idx)
    try:
        _, apparent, reps = _bootstrap(
            d.subset(idx), recipe, measure, inner_plan, patterns=patterns,
            oob=any(c in OOB_METHODS for c in corrections))
    except (DataError, FitError, MetricError):
        return values
    for i, correction in enumerate(corrections):
        try:
            values[i] = correct(correction, measure, apparent,
                                reps).corrected
        except OptimismError:
            pass
    return values


@dataclass(frozen=True)
class Validation:
    """What one validation computed: the apparent value, the replicate set,
    one OptimismResult per correction and one IntervalEstimate per
    requested method, in the order requested."""

    apparent: float
    replicates: ReplicateSet
    corrections: dict[str, OptimismResult]
    intervals: list[IntervalEstimate]


def validate(d: Dataset, recipe: FitRecipe, measure: str, plan: ResamplePlan,
             corrections=(), methods=(), inner_B: int | None = None,
             alpha: float = 0.05, workers: int = 1) -> Validation:
    """Bootstrap validation of the recipe on d.

    The apparent fit and the plan's replicates are fitted, scored and
    evaluated once. Every correction in `corrections`, and every one a
    method names, is derived from them. `methods` are `kind[:correction]`
    specs (see parse_method). All two-stage intervals share one outer map,
    each outer replicate running the same bootstrap at inner_B. Every map
    runs on one WorkerPool of `workers` processes."""
    parsed = [parse_method(m) for m in methods]
    if measure != C_STATISTIC and any(k == DELONG for k, _ in parsed):
        raise IntervalError("the DeLong interval applies to the c-statistic "
                            "only")
    two_stage = list(dict.fromkeys(c for k, c in parsed if k == TWO_STAGE))
    if two_stage and (inner_B is None or inner_B < 1):
        raise IntervalError("inner_B must be >= 1")
    with WorkerPool(workers) as pool:
        patterns = kernel_patterns(d, recipe, measure)
        scores, apparent, reps = _bootstrap(d, recipe, measure, plan, pool,
                                            patterns)
        results = {c: correct(c, measure, apparent, reps) for c in
                   dict.fromkeys([*corrections,
                                  *(c for _, c in parsed if c)])}
        if two_stage:
            task = partial(_two_stage_outer, d, recipe, measure, plan,
                           inner_B, two_stage, patterns)
            outer = dict(zip(two_stage,
                             map_indices(plan.B, task, pool).T))
        intervals = []
        for kind, c in parsed:
            if kind == DELONG:
                est = delong_interval(scores, d.outcomes, alpha)
            elif kind == APPARENT:
                est = apparent_bootstrap_ci(apparent, reps, alpha)
            elif kind == LOCATION_SHIFTED:
                est = location_shifted_ci(results[c], reps, alpha)
            else:
                est = two_stage_ci(results[c], outer[c], inner_B, alpha)
            intervals.append(est)
        return Validation(apparent, reps, results, intervals)
