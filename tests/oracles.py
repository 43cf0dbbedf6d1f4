"""Brute-force reference implementations, used by the test suite and by
scripts/check_ranks.py and scripts/check_kernel.py.

Everything here is written straight from first principles: explicit pair
enumeration for the AUC, the midrank C-statistic and DeLong variance that
the placement forms replaced (their bit-for-bit reference), the count
kernel's earlier Newton fit, C-statistic and outer-product table (the
same for bootval.kernel), the Bernoulli log-likelihood with its analytic
gradient (criterion 2's gradient check), the penalized objective on the
solver's standardized scale (the lasso and ridge optimality probes), dense
grid searches for logistic fits, a sort-and-index percentile rule, a
permutation estimate of the no-information value, and literal sequential
transcriptions of the location-shifted and two-stage interval algorithms.
The only things shared with the production path are the RNG stream
definition (otherwise equality tests would be impossible), the model-fit
primitive (the quantity being resampled, not the algorithm under test),
the stable log(1 + exp) sum and the standardization that the objectives
evaluate, and the count kernel's Patterns.hessians.
"""

from __future__ import annotations

import math

import numpy as np

from bootval.data import Dataset
from bootval.metrics import MetricError
from bootval.models import (FitRecipe, FittedModel, _standardize,
                            _sum_log1pexp, fit, logistic, predict)
from bootval.resampling import ResamplePlan, inner_level, stream


def auc_bruteforce(scores, outcomes) -> float:
    """Explicit double loop over all event-nonevent pairs, 0.5 tie credit."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    if scores.shape[0] > 10_000:
        raise ValueError("brute-force AUC capped at n=10,000")
    pos = scores[outcomes == 1]
    neg = scores[outcomes == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both outcome classes")
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (pos.size * neg.size)


def jackknife_auc_variance(scores, outcomes) -> float:
    """Stratified (per-class) jackknife variance of the empirical AUC:
    ((m-1)/m) * sum over left-out events of the squared leave-one-out
    deviation, plus the analogous nonevent term."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    n = scores.shape[0]
    theta = auc_bruteforce(scores, outcomes)
    pos_idx = np.flatnonzero(outcomes == 1)
    neg_idx = np.flatnonzero(outcomes == 0)
    m, n_neg = pos_idx.size, neg_idx.size

    def loo(i):
        keep = np.arange(n) != i
        return auc_bruteforce(scores[keep], outcomes[keep])

    var = 0.0
    dev_pos = np.array([loo(i) - theta for i in pos_idx])
    dev_neg = np.array([loo(j) - theta for j in neg_idx])
    var += (m - 1) / m * float(np.sum(dev_pos ** 2))
    var += (n_neg - 1) / n_neg * float(np.sum(dev_neg ** 2))
    return var


# The midrank C-statistic and DeLong variance that the placement forms in
# bootval.metrics replaced, kept verbatim as their bit-for-bit reference.

def midranks(x: np.ndarray) -> np.ndarray:
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


def midrank_c_statistic(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """AUC = (concordant + 0.5*tied) / (events * nonevents), computed from
    midranks (Mann-Whitney identity; exact, including ties)."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    pos = outcomes == 1
    m = int(np.count_nonzero(pos))
    n_neg = outcomes.shape[0] - m
    if m == 0 or n_neg == 0:
        raise MetricError("c-statistic needs both outcome classes")
    ranks = midranks(scores)
    rank_sum = float(np.sum(ranks[pos]))
    return (rank_sum - 0.5 * m * (m + 1)) / (m * n_neg)


def midrank_delong_variance(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """DeLong variance of the AUC from the structural components: per-event
    V10 and per-nonevent V01."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    pos = outcomes == 1
    m = int(np.count_nonzero(pos))
    n_neg = outcomes.shape[0] - m
    if m == 0 or n_neg == 0:
        raise MetricError("DeLong variance needs both outcome classes")
    ranks = midranks(scores)
    v10 = (ranks[pos] - midranks(scores[pos])) / n_neg
    v01 = 1.0 - (ranks[~pos] - midranks(scores[~pos])) / m
    auc = float(v10.mean())
    s10 = float(np.sum((v10 - auc) ** 2) / (m - 1)) if m > 1 else 0.0
    s01 = float(np.sum((v01 - auc) ** 2) / (n_neg - 1)) if n_neg > 1 else 0.0
    return s10 / m + s01 / n_neg


# The count kernel's outer-product table, Newton fit and C-statistic as
# bootval.kernel computed them before it restricted the table, kept a
# compact working set and summed cumulative counts; kept verbatim (renamed)
# as their bit-for-bit reference. Patterns.hessians is shared: it did not
# change, and it reads the table the patterns hold.

def kernel_outer_products(z: np.ndarray) -> np.ndarray:
    """A Patterns' _zz: the upper-triangular row outer products of z."""
    i, j = np.triu_indices(z.shape[1])
    return np.ascontiguousarray(z[:, i] * z[:, j])


def kernel_log_likelihood(ez, trials, beta, eta, p):
    """Row-wise binomial log-likelihood sum(e * eta - t * log(1 + e^eta)),
    with sum(e * eta) = beta . (Z^T e) and log(1 + e^eta) taken from
    p = logistic(eta) as eta - log(p) or -log(1 - p), whichever is exact."""
    pos = eta > 0.0
    log1pexp = np.where(pos, eta, 0.0)
    log1pexp -= np.log(np.where(pos, p, 1.0 - p))
    return (beta * ez).sum(axis=1) - np.einsum("ij,ij->i", trials, log1pexp)


def kernel_solve(hess, grad):
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(grad)
        for i in range(grad.shape[0]):
            try:
                step[i] = np.linalg.solve(hess[i], grad[i])
            except np.linalg.LinAlgError:
                step[i] = np.linalg.lstsq(hess[i], grad[i], rcond=None)[0]
        return step


def kernel_fit_ml_counts(pat, events: np.ndarray, trials: np.ndarray,
                         max_iter: int, tol: float) -> np.ndarray:
    """ML logistic coefficients (intercept first), one row per row of the
    (R, k) event and trial count matrices. Starts, steps and stops each
    replicate as models.fit_ml does on the materialised resample."""
    z = pat.z
    ez = events @ z
    ybar = events.sum(axis=1) / trials.sum(axis=1)
    beta = np.zeros((events.shape[0], z.shape[1]))
    beta[:, 0] = np.log(ybar / (1.0 - ybar))
    eta = beta @ z.T
    p = logistic(eta)
    ll = kernel_log_likelihood(ez, trials, beta, eta, p)
    active = np.arange(events.shape[0])
    for _ in range(max_iter):
        if active.size == 0:
            break
        a_ez, t, b, p_a, ll_a = (ez[active], trials[active], beta[active],
                                 p[active], ll[active])
        tp = t * p_a
        w = p_a * (1.0 - p_a)
        # guard against exactly-zero weights under extreme separation
        np.maximum(w, 1e-12, out=w)
        w *= t
        step = kernel_solve(pat.hessians(w), a_ez - tp @ z)
        size = np.ones(active.size)
        cand = b + step
        eta_c = cand @ z.T
        p_c = logistic(eta_c)
        ll_c = kernel_log_likelihood(a_ez, t, cand, eta_c, p_c)
        pending = np.flatnonzero(~(ll_c >= ll_a))
        for _ in range(39):  # 40 trial steps in all, as in _newton_irls
            if pending.size == 0:
                break
            size[pending] *= 0.5
            cand[pending] = b[pending] + size[pending, None] * step[pending]
            eta_c[pending] = cand[pending] @ z.T
            p_c[pending] = logistic(eta_c[pending])
            ll_c[pending] = kernel_log_likelihood(
                a_ez[pending], t[pending], cand[pending], eta_c[pending],
                p_c[pending])
            pending = pending[~(ll_c[pending] >= ll_a[pending])]
        # no improving step found: stop at the current coefficients
        moved = ~(ll_c < ll_a)
        done = ~moved | (ll_c - ll_a <= tol * (np.abs(ll_c) + 1e-12))
        upd = active[moved]
        beta[upd], eta[upd], p[upd], ll[upd] = (
            cand[moved], eta_c[moved], p_c[moved], ll_c[moved])
        active = active[~done]
    return beta


def kernel_c_statistics(scores: np.ndarray, samples) -> list[np.ndarray]:
    """C-statistic of each row of scores (R, k) on each (events, trials)
    count pair in samples (per row, or one pair shared by all rows).

    One ordering per row serves every sample. The Mann-Whitney count
    (pairs ordered right, plus half the tied pairs) is the count-weighted
    sum of the events' placements, exact half-integers, so the ratio
    equals metrics.c_statistic_value on the expanded rows bit for bit.
    NaN where a sample lacks a class."""
    r, k = scores.shape
    order = np.argsort(scores, axis=1)
    flat = (order + (np.arange(r) * k)[:, None]).ravel()
    s = scores.ravel()[flat]
    first = np.empty(s.shape[0], dtype=bool)
    first[0] = True
    first[1:] = s[1:] != s[:-1]
    first[::k] = True
    starts = np.flatnonzero(first)  # tie groups, in score order per row
    row_first = np.searchsorted(starts, np.arange(r) * k)
    row = starts // k
    out = []
    for events, trials in samples:
        if events.ndim == 1:
            e, t = events[order].ravel(), trials[order].ravel()
        else:
            e, t = events.ravel()[flat], trials.ravel()[flat]
        eg = np.add.reduceat(e, starts)
        fg = np.add.reduceat(t - e, starts)
        below = np.cumsum(fg) - fg  # nonevents in lower groups, all rows
        below -= below[row_first][row]
        m = np.add.reduceat(eg, row_first)
        n_neg = np.add.reduceat(fg, row_first)
        u = np.add.reduceat(eg * (below + 0.5 * fg), row_first)
        with np.errstate(divide="ignore", invalid="ignore"):
            auc = u / (m * n_neg)
        auc[(m == 0) | (n_neg == 0)] = np.nan
        out.append(auc)
    return out


def log_likelihood(beta: np.ndarray, d: Dataset) -> float:
    """Bernoulli log-likelihood at beta = (intercept, slopes)."""
    eta = beta[0] + d.predictors @ beta[1:]
    return float(np.sum(d.outcomes * eta)) - _sum_log1pexp(eta)


def log_likelihood_gradient(beta: np.ndarray, d: Dataset) -> np.ndarray:
    """Analytic gradient of the log-likelihood: Z^T (y - p), Z = [1, X]."""
    eta = beta[0] + d.predictors @ beta[1:]
    resid = d.outcomes - logistic(eta)
    return np.concatenate(([resid.sum()], d.predictors.T @ resid))


def penalized_objective(model: FittedModel, d: Dataset) -> float:
    """-loglik + lambda * penalty(slopes), on the standardized scale the
    solver works in (so grid-perturbation probes are meaningful)."""
    xs, mu, sd = _standardize(d)
    b = model.slopes * sd
    a0 = model.intercept + float(model.slopes @ mu)
    eta = a0 + xs @ b
    ll = float(d.outcomes @ eta) - _sum_log1pexp(eta)
    if model.estimator == "ridge":
        pen = model.penalty * float(np.sum(b * b))
    else:
        pen = model.penalty * float(np.sum(np.abs(b)))
    return -ll + pen


def gridsearch_logistic_2d(d: Dataset, span: float = 8.0,
                           refine_to: float = 1e-4) -> np.ndarray:
    """Dense grid search of the (intercept, slope) log-likelihood for a
    single-predictor dataset, refined until the grid step is <= refine_to."""
    assert d.p == 1
    center = np.zeros(2)
    half = span
    step = half / 20.0
    while step > refine_to / 2.0:
        b0s = np.arange(center[0] - half, center[0] + half + step / 2, step)
        b1s = np.arange(center[1] - half, center[1] + half + step / 2, step)
        best, best_ll = None, -math.inf
        for b0 in b0s:
            for b1 in b1s:
                ll = log_likelihood(np.array([b0, b1]), d)
                if ll > best_ll:
                    best_ll, best = ll, (b0, b1)
        center = np.array(best)
        half = 2.0 * step
        step = half / 20.0
    return center


def gridsearch_slope_1d(lp, outcomes, span: float = 8.0,
                        refine_to: float = 1e-4) -> float:
    """Grid search for the calibration slope: univariate logistic of
    outcomes on the linear predictors, intercept profiled on a grid too."""
    d = Dataset(np.asarray(outcomes, dtype=float),
                np.asarray(lp, dtype=float)[:, None])
    return float(gridsearch_logistic_2d(d, span=span, refine_to=refine_to)[1])


def percentile_oracle(values, q: float) -> float:
    """Sort-and-index percentile with linear interpolation between closest
    order statistics (type 7), written independently."""
    v = sorted(float(x) for x in values)
    n = len(v)
    g = (n - 1) * q
    lo = int(math.floor(g))
    if lo >= n - 1:
        return v[n - 1]
    return v[lo] + (g - lo) * (v[lo + 1] - v[lo])


def permutation_no_information(scores, outcomes, n_perm: int,
                               rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the no-information AUC: mean brute-force AUC
    over random outcome permutations."""
    outcomes = np.asarray(outcomes)
    total = 0.0
    for _ in range(n_perm):
        total += auc_bruteforce(scores, rng.permutation(outcomes))
    return total / n_perm


def _resample_with_redraw(d: Dataset, plan: ResamplePlan, r: int,
                          max_redraws: int = 25):
    """Literal copy of the redraw-with-perturbed-counter rule."""
    for retry in range(max_redraws + 1):
        rng = stream(plan.seed, *plan.level, r, 0, retry)
        idx = rng.integers(0, d.n, size=d.n)
        y = d.outcomes[idx]
        if 0.0 < y.mean() < 1.0:
            in_bag = np.zeros(d.n, dtype=bool)
            in_bag[idx] = True
            return idx, np.flatnonzero(~in_bag)
    return None, None


def _fit_on(d: Dataset, recipe: FitRecipe, plan: ResamplePlan,
            r: int | None):
    if r is None:
        fold_rng = stream(plan.seed, *plan.level, 0)
    else:
        fold_rng = stream(plan.seed, *plan.level, r, 1, 0)
    return fit(d, recipe, fold_rng=fold_rng)


def _corrected_reference(d: Dataset, recipe: FitRecipe, method: str,
                         plan: ResamplePlan) -> float:
    """Sequential, literal transcription of one optimism correction for the
    C-statistic: apparent value minus the mean in-bag/original gap
    (Harrell), or the 0.632 / 0.632+ weighted averages."""
    model_app = _fit_on(d, recipe, plan, None)
    theta_app = auc_bruteforce(predict(model_app, d).values, d.outcomes)
    boots, origs, outs = [], [], []
    for b in range(plan.B):
        idx, oob = _resample_with_redraw(d, plan, b)
        if idx is None:
            continue
        boot_d = d.subset(idx)
        model = _fit_on(boot_d, recipe, plan, b)
        boots.append(auc_bruteforce(predict(model, boot_d).values,
                                    boot_d.outcomes))
        origs.append(auc_bruteforce(predict(model, d).values, d.outcomes))
        if oob.size > 0:
            y_out = d.outcomes[oob]
            if 0.0 < y_out.mean() < 1.0:
                oob_d = d.subset(oob)
                outs.append(auc_bruteforce(predict(model, oob_d).values,
                                           y_out))
    if method == "harrell":
        lam = float(np.mean(np.array(boots) - np.array(origs)))
        return theta_app - lam
    theta_out = float(np.mean(outs))
    if method == "0.632":
        return 0.368 * theta_app + 0.632 * theta_out
    gamma = 0.5
    r_rate = 0.0 if theta_app == gamma else (
        (theta_out - theta_app) / (gamma - theta_app))
    r_rate = min(max(r_rate, 0.0), 1.0)
    w = 0.632 / (1.0 - 0.368 * r_rate)
    return (1.0 - w) * theta_app + w * theta_out


def location_shifted_reference(d: Dataset, recipe: FitRecipe, method: str,
                               B: int, seed: int,
                               alpha: float = 0.05) -> tuple[float, float]:
    """Straight-line rewrite of the location-shifted interval: percentile
    interval of the in-bag replicate values, translated by the estimated
    bias."""
    plan = ResamplePlan(B, seed)
    model_app = _fit_on(d, recipe, plan, None)
    theta_app = auc_bruteforce(predict(model_app, d).values, d.outcomes)
    boots = []
    for b in range(B):
        idx, _ = _resample_with_redraw(d, plan, b)
        if idx is None:
            continue
        boot_d = d.subset(idx)
        model = _fit_on(boot_d, recipe, plan, b)
        boots.append(auc_bruteforce(predict(model, boot_d).values,
                                    boot_d.outcomes))
    lower = percentile_oracle(boots, alpha / 2.0)
    upper = percentile_oracle(boots, 1.0 - alpha / 2.0)
    delta = theta_app - _corrected_reference(d, recipe, method, plan)
    return lower - delta, upper - delta


def two_stage_reference(d: Dataset, recipe: FitRecipe, method: str,
                        B: int, inner_B: int, seed: int,
                        alpha: float = 0.05) -> tuple[float, float, float]:
    """Straight-line rewrite of the two-stage interval: for each outer
    resample, compute the corrected value with a full inner bootstrap, then
    take percentiles. Returns (point, lower, upper).

    Small instances only: n <= 100 and B * inner_B <= 10,000."""
    if d.n > 100 or B * inner_B > 10_000:
        raise ValueError("reference implementation is for small instances")
    outer = ResamplePlan(B, seed)
    corrected = []
    for b in range(B):
        idx, _ = _resample_with_redraw(d, outer, b)
        if idx is None:
            continue
        boot_d = d.subset(idx)
        inner = ResamplePlan(inner_B, seed, level=inner_level(b))
        corrected.append(_corrected_reference(boot_d, recipe, method, inner))
    point = _corrected_reference(d, recipe, method, outer)
    lower = percentile_oracle(corrected, alpha / 2.0)
    upper = percentile_oracle(corrected, 1.0 - alpha / 2.0)
    return point, lower, upper
