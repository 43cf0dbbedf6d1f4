"""Bootstrap optimism corrections: Harrell bias correction, 0.632, 0.632+.

All three corrections consume the identical resample sequence from one
plan; the per-replicate quantities (performance on the resample, on the
original data, and on the out-of-bag subjects) are computed once and
shared. Each replicate refits the full model-development recipe, including
any penalty tuning, on the resample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import DataError, Dataset
from .kernel import Patterns, c_statistics, fit_ml_counts, risk_scores
from .metrics import C_STATISTIC, MetricError, measure_value, no_information
from .models import MAX_ITER, TOL, FitError, FitRecipe, fit, predict
from .resampling import (ResamplePlan, WorkerPool, draw, draw_block,
                         map_records, stream)

HARRELL = "harrell"
P632 = "0.632"
P632PLUS = "0.632plus"
METHODS = (HARRELL, P632, P632PLUS)
#: corrections that read the out-of-bag values
OOB_METHODS = (P632, P632PLUS)

#: resample redraw budget before a replicate is marked invalid
MAX_REDRAWS = 25


class OptimismError(ValueError):
    pass


@dataclass(frozen=True)
class ReplicateSet:
    """Per-replicate performance triples, aligned by replicate index; NaN
    marks a value that could not be computed (see evaluate_replicates)."""

    theta_boot: np.ndarray
    theta_orig: np.ndarray
    theta_out: np.ndarray

    @property
    def B(self) -> int:
        return self.theta_boot.shape[0]

    @property
    def valid(self) -> np.ndarray:
        return ~(np.isnan(self.theta_boot) | np.isnan(self.theta_orig))

    @property
    def oob_valid(self) -> np.ndarray:
        return self.valid & ~np.isnan(self.theta_out)


def apparent_fit(d: Dataset, recipe: FitRecipe, plan: ResamplePlan,
                 pool: WorkerPool | None = None):
    """Fit the recipe on the original data (deterministic CV stream keyed
    under the plan's level so nested runs never share fold draws)."""
    fold_rng = stream(plan.seed, *plan.level, 0)
    return fit(d, recipe, fold_rng=fold_rng, pool=pool)


def two_class_draw(d: Dataset, plan: ResamplePlan, r: int, retry: int = 0):
    """Replicate r's resample from draw `retry` on, redrawn until it holds
    both outcome classes; None once MAX_REDRAWS redraws are spent."""
    for retry in range(retry, MAX_REDRAWS + 1):
        idx = draw(plan, r, d.n, retry=retry)
        if 0.0 < d.outcomes[idx].mean() < 1.0:
            return idx
    return None


def two_class_block(d: Dataset, plan: ResamplePlan, rs: range):
    """two_class_draw(d, plan, r) for every r in rs, as a (len(rs), n)
    index matrix and a mask of the replicates that got a resample (rows
    without one are left as drawn). Only a replicate whose first draw lacks
    an outcome class is redrawn one by one."""
    idx = draw_block(plan, rs, d.n)
    n_events = d.outcomes[idx].sum(axis=1)
    ok = (0 < n_events) & (n_events < d.n)
    for i in np.flatnonzero(~ok):
        redrawn = two_class_draw(d, plan, rs[i], retry=1)
        if redrawn is not None:
            idx[i], ok[i] = redrawn, True
    return idx, ok


def _replicate_row(d: Dataset, recipe: FitRecipe, measure: str,
                   plan: ResamplePlan, oob: bool, r: int) -> list[float]:
    """Replicate r's row [theta_boot, theta_orig, theta_out] on the
    per-replicate path; evaluate_replicates maps it over the plan."""
    row = [np.nan] * 3
    idx = two_class_draw(d, plan, r)
    if idx is None:
        return row
    boot_d = d.subset(idx)
    try:
        model = fit(boot_d, recipe, fold_rng=plan.cv_rng(r))
        row[:2] = (measure_value(measure, predict(model, boot_d),
                                 boot_d.outcomes),
                   measure_value(measure, predict(model, d), d.outcomes))
    except (DataError, FitError, MetricError):
        return row
    if not oob:
        return row
    out_of_bag = np.flatnonzero(np.bincount(idx, minlength=d.n) == 0)
    if 0.0 < d.outcomes[out_of_bag].sum() < out_of_bag.size:  # 2 classes
        oob_d = d.subset(out_of_bag)
        try:
            row[2] = measure_value(measure, predict(model, oob_d),
                                   oob_d.outcomes)
        except (DataError, MetricError):
            pass
    return row


#: replicates per lockstep block of the count kernel; fixed, so that a
#: replicate's value never depends on the worker count
BLOCK = 100


def _counts_block(d: Dataset, plan: ResamplePlan, patterns: Patterns,
                  orig_counts, oob: bool, block: int) -> np.ndarray:
    """One block of replicates on the frequency-weight kernel (ML fits,
    C-statistic) over d's patterns, whose counts of d itself are
    orig_counts: a (len(block), 3) array of _replicate_row's rows, whose
    out-of-bag column is NaN unless oob is set (see kernel.py)."""
    rs = range(block * BLOCK, min(plan.B, (block + 1) * BLOCK))
    idx, ok = two_class_block(d, plan, rs)
    rows = np.full((len(rs), 3), np.nan)
    if not ok.any():
        return rows
    idx = idx[ok]
    events, trials = patterns.counts(idx)
    beta = fit_ml_counts(patterns, events, trials, MAX_ITER, TOL)
    samples = [(events, trials), orig_counts]
    if oob:
        samples.append(patterns.counts_outside(idx))
    thetas = c_statistics(risk_scores(patterns, beta), samples)
    rows[ok, :len(thetas)] = np.transpose(thetas)
    return rows


def kernel_patterns(d: Dataset, recipe: FitRecipe,
                    measure: str) -> Patterns | None:
    """d's patterns when the frequency-weight kernel evaluates the recipe
    and measure (ML fits graded by the C-statistic), else None."""
    if recipe.estimator == "ml" and measure == C_STATISTIC:
        return Patterns(d)
    return None


def evaluate_replicates(d: Dataset, recipe: FitRecipe, measure: str,
                        plan: ResamplePlan, pool: WorkerPool | None = None,
                        patterns: Patterns | None = None,
                        oob: bool = True) -> ReplicateSet:
    """(theta_boot, theta_orig, theta_out) of every replicate of the plan,
    NaN where a value could not be computed: no two-class resample, a
    failed fit or grade, or an empty, one-class or unrequested out-of-bag
    set. Order- and worker-count-independent. ML fits graded by the
    C-statistic run on the frequency-weight kernel (see kernel.py), on
    `patterns` when the caller has d's kernel_patterns."""
    if patterns is None:
        patterns = kernel_patterns(d, recipe, measure)
    if patterns is not None:
        task = partial(_counts_block, d, plan, patterns,
                       patterns.counts(np.arange(d.n)), oob)
        n_tasks = -(-plan.B // BLOCK)
    else:
        task = partial(_replicate_row, d, recipe, measure, plan, oob)
        n_tasks = plan.B
    rows = np.vstack(map_records(n_tasks, task, pool))
    return ReplicateSet(*rows.T)


@dataclass(frozen=True)
class OptimismResult:
    method: str
    apparent: float
    corrected: float
    optimism: float
    theta_out: float | None = None
    R: float | None = None
    w: float | None = None
    n_valid: int = 0
    r_fallback: bool = False  # apparent == no-information exactly

    def __post_init__(self):
        # corrected = apparent - optimism holds exactly in the direction the
        # estimator defines it (Harrell derives corrected, the 0.632 family
        # derives optimism); the rearranged form can differ by one ulp.
        if (self.corrected != self.apparent - self.optimism
                and self.optimism != self.apparent - self.corrected):
            raise OptimismError("corrected must equal apparent - optimism")


def _theta_out_mean(reps: ReplicateSet) -> tuple[float, int]:
    mask = reps.oob_valid
    n = int(mask.sum())
    if n == 0:
        raise OptimismError("no valid replicates with usable out-of-bag sets")
    return float(reps.theta_out[mask].mean()), n


def harrell_from_replicates(apparent: float,
                            reps: ReplicateSet) -> OptimismResult:
    mask = reps.valid
    if not mask.any():
        raise OptimismError("no valid replicates")
    lam = float((reps.theta_boot[mask] - reps.theta_orig[mask]).mean())
    return OptimismResult(HARRELL, apparent, apparent - lam, lam,
                          n_valid=int(mask.sum()))


def p632_from_replicates(apparent: float,
                         reps: ReplicateSet) -> OptimismResult:
    theta_out, n = _theta_out_mean(reps)
    corrected = 0.368 * apparent + 0.632 * theta_out
    return OptimismResult(P632, apparent, corrected, apparent - corrected,
                          theta_out=theta_out, n_valid=n)


def p632plus_from_replicates(apparent: float, reps: ReplicateSet,
                             gamma: float) -> OptimismResult:
    theta_out, n = _theta_out_mean(reps)
    fallback = False
    if apparent == gamma:
        r_rate = 0.0
        fallback = True
    else:
        r_rate = (theta_out - apparent) / (gamma - apparent)
        r_rate = min(max(r_rate, 0.0), 1.0)
    w = 0.632 / (1.0 - 0.368 * r_rate)
    corrected = (1.0 - w) * apparent + w * theta_out
    return OptimismResult(P632PLUS, apparent, corrected, apparent - corrected,
                          theta_out=theta_out, R=r_rate, w=w, n_valid=n,
                          r_fallback=fallback)


def correct(method: str, measure: str, apparent: float,
            reps: ReplicateSet) -> OptimismResult:
    """One optimism correction from the apparent value and the replicate
    set; every correction of one validation shares both."""
    if method == HARRELL:
        return harrell_from_replicates(apparent, reps)
    if method == P632:
        return p632_from_replicates(apparent, reps)
    if method == P632PLUS:
        return p632plus_from_replicates(apparent, reps,
                                        no_information(measure))
    raise OptimismError(f"unknown correction method {method!r}")
