"""Bootstrap optimism corrections: Harrell bias correction, 0.632, 0.632+.

All three corrections consume the identical resample sequence from one
plan; the per-replicate quantities (performance on the resample, on the
original data, and on the out-of-bag subjects) are computed once and
shared. Each replicate refits the full model-development recipe, including
any penalty tuning, on the resample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset
from .kernel import Patterns, c_statistics, fit_ml_counts, risk_scores
from .metrics import C_STATISTIC, MetricError, measure_value, no_information
from .models import MAX_ITER, TOL, FitError, FitRecipe, fit, predict
from .resampling import ResamplePlan, draw, draw_block, map_records, stream

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
    """Per-replicate performance triples, aligned by replicate index."""

    theta_boot: np.ndarray
    theta_orig: np.ndarray
    theta_out: np.ndarray
    valid: np.ndarray      # resample drawable, boot/orig measurable
    oob_valid: np.ndarray  # valid and OOB nonempty, two-class, measurable

    @property
    def B(self) -> int:
        return self.theta_boot.shape[0]


def apparent_fit(d: Dataset, recipe: FitRecipe, plan: ResamplePlan,
                 workers: int = 1):
    """Fit the recipe on the original data (deterministic CV stream keyed
    under the plan's level so nested runs never share fold draws)."""
    fold_rng = stream(plan.seed, *plan.level, 0)
    return fit(d, recipe, fold_rng=fold_rng, workers=workers)


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


_INVALID = (np.nan, np.nan, np.nan, False, False)


class _ReplicateTask:
    """Picklable per-replicate evaluation for the bootstrap engine."""

    def __init__(self, d: Dataset, recipe: FitRecipe, measure: str,
                 plan: ResamplePlan, oob: bool = True):
        self.d = d
        self.recipe = recipe
        self.measure = measure
        self.plan = plan
        self.oob = oob

    def __call__(self, r: int):
        d, plan = self.d, self.plan
        idx = two_class_draw(d, plan, r)
        if idx is None:
            return [(r, *_INVALID)]
        boot_d = d.subset(idx)
        try:
            model = fit(boot_d, self.recipe, fold_rng=plan.cv_rng(r))
            theta_boot = measure_value(self.measure, predict(model, boot_d),
                                       boot_d.outcomes)
            theta_orig = measure_value(self.measure, predict(model, d),
                                       d.outcomes)
        except (DataError, FitError, MetricError):
            return [(r, *_INVALID)]
        if not self.oob:
            return [(r, theta_boot, theta_orig, np.nan, True, False)]
        theta_out, oob_ok = np.nan, False
        out_of_bag = np.flatnonzero(np.bincount(idx, minlength=d.n) == 0)
        if out_of_bag.size > 0:
            oob_d = d.subset(out_of_bag)
            y_out = oob_d.outcomes
            if 0.0 < y_out.mean() < 1.0:
                try:
                    theta_out = measure_value(
                        self.measure, predict(model, oob_d), y_out)
                    oob_ok = True
                except (DataError, MetricError):
                    pass
        return [(r, theta_boot, theta_orig, theta_out, True, oob_ok)]


#: replicates per lockstep block of the count kernel; fixed, so that a
#: replicate's value never depends on the worker count
BLOCK = 100


class _CountsBlockTask:
    """Picklable evaluation of one block of replicates with the
    frequency-weight kernel (ML fits, C-statistic) on d's patterns; the
    out-of-bag values only if oob is set (see kernel.py)."""

    def __init__(self, d: Dataset, plan: ResamplePlan, patterns: Patterns,
                 oob: bool):
        self.d = d
        self.plan = plan
        self.patterns = patterns
        self.oob = oob
        self.orig_counts = patterns.counts(np.arange(d.n))

    def __call__(self, block: int):
        d, plan, pat = self.d, self.plan, self.patterns
        rs = range(block * BLOCK, min(plan.B, (block + 1) * BLOCK))
        idx, ok = two_class_block(d, plan, rs)
        out = [(rs[i], *_INVALID) for i in np.flatnonzero(~ok)]
        if not ok.any():
            return out
        idx = idx[ok]
        events, trials = pat.counts(idx)
        beta = fit_ml_counts(pat, events, trials, MAX_ITER, TOL)
        samples = [(events, trials), self.orig_counts]
        if self.oob:
            samples.append(pat.counts_outside(idx))
        thetas = c_statistics(risk_scores(pat, beta), samples)
        if not self.oob:
            thetas.append(np.full(idx.shape[0], np.nan))
        for i, tb, to, tout in zip(np.flatnonzero(ok), *thetas):
            out.append((rs[i], tb, to, tout, True, bool(np.isfinite(tout))))
        return out


def kernel_patterns(d: Dataset, recipe: FitRecipe,
                    measure: str) -> Patterns | None:
    """d's patterns when the frequency-weight kernel evaluates the recipe
    and measure (ML fits graded by the C-statistic), else None."""
    if recipe.estimator == "ml" and measure == C_STATISTIC:
        return Patterns(d)
    return None


def evaluate_replicates(d: Dataset, recipe: FitRecipe, measure: str,
                        plan: ResamplePlan, workers: int = 1,
                        patterns: Patterns | None = None,
                        oob: bool = True) -> ReplicateSet:
    """Compute (theta_boot, theta_orig, theta_out) for every replicate of
    the plan. Order- and worker-count-independent. ML fits graded by the
    C-statistic run on the frequency-weight kernel (see kernel.py), on
    `patterns` when the caller has d's kernel_patterns. Without oob,
    theta_out is NaN and oob_valid False throughout."""
    if patterns is None:
        patterns = kernel_patterns(d, recipe, measure)
    if patterns is not None:
        task = _CountsBlockTask(d, plan, patterns, oob)
        n_tasks = -(-plan.B // BLOCK)
    else:
        task = _ReplicateTask(d, recipe, measure, plan, oob)
        n_tasks = plan.B
    boot = np.full(plan.B, np.nan)
    orig = np.full(plan.B, np.nan)
    out = np.full(plan.B, np.nan)
    valid = np.zeros(plan.B, dtype=bool)
    oob_valid = np.zeros(plan.B, dtype=bool)
    for records in map_records(n_tasks, task, workers=workers):
        for r, tb, to, tout, ok, oob_ok in records:
            boot[r], orig[r], out[r] = tb, to, tout
            valid[r], oob_valid[r] = ok, oob_ok
    return ReplicateSet(boot, orig, out, valid, oob_valid)


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
    mask = reps.valid & reps.oob_valid
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
