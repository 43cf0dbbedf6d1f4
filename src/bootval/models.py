"""Logistic regression fitting: maximum likelihood, ridge, and lasso.

The ML solver is Newton-Raphson/IRLS with step-halving (tolerance 1e-8 on
the relative log-likelihood change, 100-iteration cap). The penalized
solver is cyclic coordinate descent on the IRLS quadratic approximation,
with predictors standardized internally and coefficients back-transformed.
The intercept is never penalized.

All fitting is a pure function of (dataset, recipe, fold rng); under
separation the capped estimate is returned with converged=False rather
than aborting, so bootstrap replicates never fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import expit

from .data import DataError, Dataset
from .resampling import WorkerPool, map_records

# Linear predictors are clipped here before the logistic transform so
# probabilities stay strictly inside (0,1) in float64 even for capped
# separated fits. The clip is monotone.
LP_CLIP = 30.0

# CV folds and lambda-grid span of a CV-selected penalty; every solver's
# iteration cap and relative tolerance
CV_FOLDS = 10
LAMBDA_MIN_RATIO = 1e-4
MAX_ITER = 100
TOL = 1e-8


class FitError(ValueError):
    """Raised for structurally unfittable inputs (not for non-convergence)."""


@dataclass(frozen=True)
class FitRecipe:
    """Everything needed to reproduce a model-development run.

    penalty=None with a penalized estimator means lambda is selected by
    K-fold cross-validated deviance over a descending log-spaced grid.
    """

    estimator: str = "ml"  # "ml" | "ridge" | "lasso"
    penalty: float | None = None
    n_lambdas: int = 100

    def __post_init__(self):
        if self.estimator not in ("ml", "ridge", "lasso"):
            raise FitError(f"unknown estimator {self.estimator!r}")
        if self.penalty is not None and not 0 <= self.penalty < np.inf:
            raise FitError("penalty must be finite and nonnegative")


@dataclass(frozen=True)
class FittedModel:
    estimator: str
    intercept: float
    slopes: np.ndarray
    penalty: float = 0.0
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class RiskScores:
    """Estimated event probabilities and the linear predictors behind them.

    values[i] = logistic(linear_predictors[i]) exactly, and every value is
    strictly inside (0,1) (linear predictors are clipped at +/-LP_CLIP).
    """

    values: np.ndarray
    linear_predictors: np.ndarray


def logistic(eta: np.ndarray) -> np.ndarray:
    return expit(eta)


def _sum_log1pexp(eta: np.ndarray) -> float:
    """Numerically stable sum of log(1 + exp(eta))."""
    return float(np.sum(np.maximum(eta, 0.0)
                        + np.log1p(np.exp(-np.abs(eta)))))


def _newton_irls(y, z, beta0, max_iter, tol):
    """Newton-Raphson with step-halving on the log-likelihood.

    z is the design matrix including the intercept column. Returns
    (beta, converged, iterations)."""
    beta = beta0.copy()
    eta = z @ beta
    ll = float(y @ eta) - _sum_log1pexp(eta)
    for it in range(1, max_iter + 1):
        p = logistic(eta)
        w = p * (1.0 - p)
        # guard against exactly-zero weights under extreme separation
        np.maximum(w, 1e-12, out=w)
        grad = z.T @ (y - p)
        hess = (z * w[:, None]).T @ z
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, grad, rcond=None)
        t = 1.0
        for _ in range(40):
            cand = beta + t * step
            eta_c = z @ cand
            ll_c = float(y @ eta_c) - _sum_log1pexp(eta_c)
            if ll_c >= ll or t < 1e-12:
                break
            t *= 0.5
        if ll_c < ll:  # no improving step found
            return beta, True, it
        improved = ll_c - ll
        beta, eta, ll = cand, eta_c, ll_c
        if improved <= tol * (abs(ll) + 1e-12):
            return beta, True, it
    return beta, False, max_iter


def fit_ml(d: Dataset) -> FittedModel:
    """Maximum-likelihood logistic fit."""
    d.check_fittable()
    z = np.hstack([np.ones((d.n, 1)), d.predictors])
    beta0 = np.zeros(d.p + 1)
    ybar = float(d.outcomes.mean())
    beta0[0] = np.log(ybar / (1.0 - ybar))
    beta, converged, it = _newton_irls(d.outcomes, z, beta0, MAX_ITER, TOL)
    return FittedModel("ml", float(beta[0]), beta[1:].copy(),
                       penalty=0.0, converged=converged, iterations=it)


def _standardize(d: Dataset):
    """d's predictors centred and scaled by their standard deviations (1
    for a constant column), with the means and scales. A column whose
    standard deviation is not finite is a FitError: it would be all zeros
    after scaling, and its slope 0."""
    x = d.predictors
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    if not np.isfinite(sd).all():
        name = d.names[int(np.argmin(np.isfinite(sd)))]
        raise FitError(f"predictor {name!r} is too large to standardize: "
                       f"its standard deviation is not finite")
    sd = np.where(sd > 0, sd, 1.0)
    return (x - mu) / sd, mu, sd


def lasso_lambda_max(d: Dataset) -> float:
    """Smallest lambda at which every lasso slope is exactly zero
    (KKT bound at the intercept-only fit, standardized predictors); 0
    without predictors."""
    xs, _, _ = _standardize(d)
    ybar = d.outcomes.mean()
    return float(np.max(np.abs(xs.T @ (d.outcomes - ybar)), initial=0.0))


def _python_floats(values: np.ndarray) -> list:
    """values as Python floats, except that zeros stay NumPy scalars: x / 0
    then gives NumPy's inf or NaN, where a Python float would raise."""
    return [float(v) if v else v for v in values]


def _cd_penalized(y, xs, kind, lam, a0, b, max_iter, tol):
    """Cyclic coordinate descent on the IRLS quadratic approximation.

    Objective: -loglik + lam * sum(b^2) (ridge) or lam * sum(|b|) (lasso),
    intercept unpenalized, xs pre-standardized. Updates (a0, b) in place
    and returns (a0, b, converged, iterations)."""
    n, p = xs.shape
    lasso = kind == "lasso"
    a0 = float(a0)
    xcols = np.ascontiguousarray(xs.T)
    buf = np.empty(n)
    eta = a0 + xs @ b
    ll = float(y @ eta) - _sum_log1pexp(eta)
    pen = lam * (np.sum(b * b) if kind == "ridge" else np.sum(np.abs(b)))
    obj = -ll + pen
    for it in range(1, max_iter + 1):
        pr = logistic(eta)
        w = pr * (1.0 - pr)
        np.maximum(w, 1e-12, out=w)
        zresp = eta + (y - pr) / w
        # inner CD on the weighted least-squares surrogate
        wx = w[:, None] * xs
        denom = np.einsum("ij,ij->j", wx, xs)
        wsum = float(w.sum())
        r = zresp - eta  # residual of the surrogate at current coefficients
        # The fitted bits are pinned. Python floats round as NumPy scalars do
        # at a fraction of the cost per operation. The dot stays the strided
        # wx[:, j] @ r: a contiguous copy makes OpenBLAS take another kernel
        # and changes the sum. An elementwise product rounds the same for
        # any layout, so the residual update reads contiguous columns.
        dots = [wx[:, j].dot for j in range(p)]
        dl = _python_floats(denom)
        div = dl if lasso else _python_floats(denom + 2.0 * lam)
        bl = b.tolist()
        for _ in range(1000):
            delta_max = 0.0
            for j in range(p):
                bj_old = bl[j]
                rho = float(dots[j](r)) + dl[j] * bj_old
                if lasso:
                    # np.sign(rho) * max(abs(rho) - lam, 0.0) / denom[j];
                    # np.sign itself only for a zero or NaN
                    sign = (1.0 if rho > 0.0 else -1.0 if rho < 0.0
                            else float(np.sign(rho)))
                    shrunk = abs(rho) - lam
                    bj = sign * (0.0 if shrunk < 0.0 else shrunk) / div[j]
                else:
                    bj = rho / div[j]
                if bj != bj_old:
                    delta = bj - bj_old
                    np.multiply(xcols[j], delta, out=buf)
                    r -= buf
                    bl[j] = bj
                    delta = abs(delta)
                    if delta > delta_max:  # max() costs a call per visit
                        delta_max = delta
            a_new = a0 + float(w @ r) / wsum
            if a_new != a0:
                r -= a_new - a0
                delta_max = max(delta_max, abs(a_new - a0))
                a0 = a_new
            if delta_max < 1e-12:
                break
        b[:] = bl
        eta = a0 + xs @ b
        ll = float(y @ eta) - _sum_log1pexp(eta)
        pen = lam * (np.sum(b * b) if kind == "ridge" else np.sum(np.abs(b)))
        obj_new = -ll + pen
        if abs(obj - obj_new) <= tol * (abs(obj_new) + 1e-12):
            return a0, b, True, it
        obj = obj_new
    return a0, b, False, max_iter


def _deviance(model: FittedModel, d: Dataset) -> float:
    eta = np.clip(model.intercept + d.predictors @ model.slopes,
                  -LP_CLIP, LP_CLIP)
    return float(-2.0 * (float(d.outcomes @ eta) - _sum_log1pexp(eta)))


def lambda_grid(d: Dataset, recipe: FitRecipe) -> np.ndarray:
    lmax = lasso_lambda_max(d)
    if lmax <= 0:
        lmax = 1.0
    return np.geomspace(lmax, lmax * LAMBDA_MIN_RATIO, recipe.n_lambdas)


def fit_penalized(d: Dataset, recipe: FitRecipe,
                  fold_rng: np.random.Generator | None = None,
                  pool: WorkerPool | None = None) -> FittedModel:
    """Ridge or lasso logistic fit at a fixed or CV-selected lambda. The CV
    folds' paths run on `pool` (see map_records); the selected lambda does
    not depend on the worker count."""
    d.check_fittable()
    if recipe.estimator not in ("ridge", "lasso"):
        raise FitError("fit_penalized requires a ridge or lasso recipe")
    if recipe.penalty is not None:
        return _fit_at_lambda(d, recipe, recipe.penalty)

    if fold_rng is None:
        raise FitError("CV-selected penalty requires a fold rng")
    grid = lambda_grid(d, recipe)
    task = partial(_fold_deviances, d, recipe, grid,
                   _fold_assignment(d.n, CV_FOLDS, fold_rng))
    cv_dev = np.zeros(grid.size)
    for row in map_records(CV_FOLDS, task, pool):
        if row is not None:
            cv_dev += row
    finite = np.isfinite(cv_dev)
    if not finite.any():
        raise FitError("no lambda has a finite cross-validated deviance")
    best = grid[int(np.argmin(np.where(finite, cv_dev, np.inf)))]
    model = _fit_at_lambda(d, recipe, float(best))
    return model


def _fold_deviances(d: Dataset, recipe: FitRecipe, grid: np.ndarray,
                    folds: np.ndarray, k: int) -> np.ndarray | None:
    """CV fold k: the held-out deviance of each lambda of the path fitted
    on the other folds, or None when that training set cannot be fitted
    (the fold then adds nothing)."""
    train = d.subset(np.flatnonzero(folds != k))
    test = d.subset(np.flatnonzero(folds == k))
    try:
        train.check_fittable()
    except DataError:
        return None
    return np.array([_deviance(model, test) for model in
                     _fit_path(train, recipe, grid)])


def _fold_assignment(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(n)
    folds = np.empty(n, dtype=np.intp)
    folds[perm] = np.arange(n) % k
    return folds


def _fit_path(d: Dataset, recipe: FitRecipe, grid: np.ndarray):
    """Fit along a descending lambda grid with warm starts. A column that
    takes one value gets slope 0: coordinate descent would divide 0 by 0
    on it. The design stays in C order, which pins the descent's bits."""
    xs, mu, sd = _standardize(d)
    live = np.ptp(d.predictors, axis=0) > 0
    xs = np.ascontiguousarray(xs[:, live])
    ybar = float(d.outcomes.mean())
    a0 = float(np.log(ybar / (1.0 - ybar)))
    b = np.zeros(xs.shape[1])
    out = []
    for lam in grid:
        a0, b, conv, it = _cd_penalized(
            d.outcomes, xs, recipe.estimator, float(lam), a0, b, MAX_ITER,
            TOL)
        out.append(_back_transform(recipe.estimator, a0, b, live, mu, sd,
                                   float(lam), conv, it))
    return out


def _fit_at_lambda(d: Dataset, recipe: FitRecipe, lam: float) -> FittedModel:
    return _fit_path(d, recipe, np.array([lam]))[0]


def _back_transform(kind, a0, b, live, mu, sd, lam, converged, iterations):
    slopes = np.zeros(live.shape[0])
    slopes[live] = b / sd[live]
    intercept = a0 - float(slopes @ mu)
    return FittedModel(kind, float(intercept), slopes, penalty=lam,
                       converged=converged, iterations=iterations)


def fit(d: Dataset, recipe: FitRecipe,
        fold_rng: np.random.Generator | None = None,
        pool: WorkerPool | None = None) -> FittedModel:
    """Dispatch on the recipe's estimator; a non-finite fit is a FitError.
    The bootstrap engine's single entry point, so the full
    model-development process, penalty tuning included, is what gets
    resampled. A CV penalty's folds run on `pool`."""
    model = (fit_ml(d) if recipe.estimator == "ml" else
             fit_penalized(d, recipe, fold_rng=fold_rng, pool=pool))
    if not np.isfinite([model.intercept, *model.slopes]).all():
        raise FitError(f"{recipe.estimator} fit has non-finite coefficients")
    return model


def predict(m: FittedModel, d: Dataset) -> RiskScores:
    if d.p != m.slopes.shape[0]:
        raise FitError(
            f"model has {m.slopes.shape[0]} slopes but dataset has p={d.p}")
    lp = np.clip(m.intercept + d.predictors @ m.slopes, -LP_CLIP, LP_CLIP)
    return RiskScores(values=logistic(lp), linear_predictors=lp)
