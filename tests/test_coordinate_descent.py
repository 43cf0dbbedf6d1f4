"""The penalized path's coordinate descent and CV folds against a frozen
reference: the same bits, whatever the interpreter-level rewrite or the
worker count."""

from functools import partial

import numpy as np
import pytest

from bootval.data import Dataset
from bootval.models import (CV_FOLDS, FitRecipe, _cd_penalized,
                            _fold_assignment, _fold_deviances, _standardize,
                            _sum_log1pexp, fit_penalized, lambda_grid,
                            lasso_lambda_max, logistic)
from bootval.resampling import WorkerPool, stream

from conftest import make_dataset


def reference_cd_penalized(y, xs, kind, lam, a0, b, max_iter, tol):
    """Cyclic coordinate descent on the IRLS quadratic approximation.

    Objective: -loglik + lam * sum(b^2) (ridge) or lam * sum(|b|) (lasso),
    intercept unpenalized, xs pre-standardized. Updates (a0, b) in place
    and returns (a0, b, converged, iterations)."""
    n, p = xs.shape
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
        wsum = w.sum()
        r = zresp - eta  # residual of the surrogate at current coefficients
        for _ in range(1000):
            delta_max = 0.0
            for j in range(p):
                bj_old = b[j]
                rho = wx[:, j] @ r + denom[j] * bj_old
                if kind == "ridge":
                    bj = rho / (denom[j] + 2.0 * lam)
                else:
                    bj = np.sign(rho) * max(abs(rho) - lam, 0.0) / denom[j]
                if bj != bj_old:
                    r -= (bj - bj_old) * xs[:, j]
                    b[j] = bj
                    delta_max = max(delta_max, abs(bj - bj_old))
            a_new = a0 + (w @ r) / wsum
            if a_new != a0:
                r -= a_new - a0
                delta_max = max(delta_max, abs(a_new - a0))
                a0 = a_new
            if delta_max < 1e-12:
                break
        eta = a0 + xs @ b
        ll = float(y @ eta) - _sum_log1pexp(eta)
        pen = lam * (np.sum(b * b) if kind == "ridge" else np.sum(np.abs(b)))
        obj_new = -ll + pen
        if abs(obj - obj_new) <= tol * (abs(obj_new) + 1e-12):
            return a0, b, True, it
        obj = obj_new
    return a0, b, False, max_iter


def _both(d, kind, lam, b0=None, max_iter=100):
    """(reference result, new result) from the same standardized start."""
    xs, _, _ = _standardize(d)
    ybar = float(d.outcomes.mean())
    a0 = float(np.log(ybar / (1.0 - ybar)))
    b0 = np.zeros(d.p) if b0 is None else np.asarray(b0, dtype=float)
    return [cd(d.outcomes, xs, kind, lam, a0, b0.copy(), max_iter, 1e-8)
            for cd in (reference_cd_penalized, _cd_penalized)]


def _assert_same_bits(ref, new):
    assert float(new[0]).hex() == float(ref[0]).hex()
    assert new[1].tobytes() == ref[1].tobytes()
    assert new[2:] == ref[2:]


LAMBDA_SCALES = (0.0, 0.05, 0.3, 1.0, 1.5)  # times lasso_lambda_max


@pytest.mark.parametrize("kind", ["ridge", "lasso"])
@pytest.mark.parametrize("scale", LAMBDA_SCALES)
@pytest.mark.parametrize("seed,n,p", [(3, 120, 5), (4, 60, 1)])
def test_cd_matches_reference(kind, scale, seed, n, p):
    d = make_dataset(seed, n=n, p=p)
    lam = scale * lasso_lambda_max(d)
    _assert_same_bits(*_both(d, kind, lam))


@pytest.mark.parametrize("kind", ["ridge", "lasso"])
@pytest.mark.parametrize("scale", LAMBDA_SCALES)
def test_cd_matches_reference_from_warm_start(kind, scale):
    d = make_dataset(5, n=90, p=4)
    lam = scale * lasso_lambda_max(d)
    _assert_same_bits(*_both(d, kind, lam, b0=[0.7, -1.2, 0.05, -0.3]))


def test_cd_matches_reference_along_a_warm_started_path():
    d = make_dataset(6, n=100, p=6)
    xs, _, _ = _standardize(d)
    grid = lambda_grid(d, FitRecipe("lasso", n_lambdas=15))
    starts = [(0.0, np.zeros(d.p)), (0.0, np.zeros(d.p))]
    for lam in grid:
        results = [cd(d.outcomes, xs, "lasso", float(lam), a0, b.copy(), 100,
                      1e-8)
                   for cd, (a0, b) in zip(
                       (reference_cd_penalized, _cd_penalized), starts)]
        _assert_same_bits(*results)
        starts = [(r[0], r[1]) for r in results]


def test_lasso_negative_coefficient_shrunk_to_signed_zero():
    # From a negative warm start, lambda above lambda_max sets every slope
    # to zero; the soft-threshold gives -0.0 for one that was negative.
    d = make_dataset(8, n=80, p=3)
    ref, new = _both(d, "lasso", 2.0 * lasso_lambda_max(d),
                     b0=[-0.4, 0.3, -0.2], max_iter=1)
    _assert_same_bits(ref, new)
    assert np.all(new[1] == 0.0)
    assert np.array_equal(np.signbit(new[1]), np.signbit(ref[1]))
    assert np.signbit(new[1]).any()


def test_lasso_constant_column_gives_nan_where_reference_does():
    # A constant column has a zero denominator; the lasso soft-threshold is
    # then 0/0. Both loops give NaN in the same places (NaN sign bits are
    # not pinned).
    x = make_dataset(9, n=50, p=2).predictors.copy()
    x[:, 1] = 1.0
    d = Dataset(make_dataset(9, n=50, p=2).outcomes, x)
    with np.errstate(invalid="ignore", divide="ignore"):
        ref, new = _both(d, "lasso", 0.3 * lasso_lambda_max(d), max_iter=3)
    assert np.isnan(float(new[0])) == np.isnan(float(ref[0]))
    assert np.array_equal(np.isnan(new[1]), np.isnan(ref[1]))
    assert new[2:] == ref[2:]


@pytest.mark.parametrize("kind", ["ridge", "lasso"])
def test_cv_selected_fit_same_at_one_and_two_workers(kind):
    d = make_dataset(12, n=80, p=3)
    recipe = FitRecipe(kind, n_lambdas=20)
    models = []
    for w in (1, 2):
        with WorkerPool(w) as pool:
            models.append(fit_penalized(d, recipe, fold_rng=stream(4, 0),
                                        pool=pool))
    a, b = models
    assert a.intercept.hex() == b.intercept.hex()
    assert a.slopes.tobytes() == b.slopes.tobytes()
    assert (a.penalty, a.converged, a.iterations) == (
        b.penalty, b.converged, b.iterations)


def test_single_class_fold_is_skipped():
    # one event: the fold holding it leaves a training set of nonevents
    d = make_dataset(13, n=40, p=2)
    y = np.zeros(d.n)
    y[7] = 1.0
    d = Dataset(y, d.predictors)
    recipe = FitRecipe("ridge", n_lambdas=10)
    grid = lambda_grid(d, recipe)
    folds = _fold_assignment(d.n, CV_FOLDS, stream(2, 0))
    task = partial(_fold_deviances, d, recipe, grid, folds)
    rows = [task(k) for k in range(CV_FOLDS)]
    assert [k for k, row in enumerate(rows) if row is None] == [folds[7]]
    cv_dev = np.zeros(grid.size)
    for row in rows:
        if row is not None:
            cv_dev += row
    model = fit_penalized(d, recipe, fold_rng=stream(2, 0))
    assert model.penalty == float(grid[int(np.argmin(cv_dev))])


def test_fold_error_other_than_data_error_propagates(monkeypatch):
    d = make_dataset(14, n=60, p=2)
    check = Dataset.check_fittable

    def check_fittable(self):
        if self.n < d.n:
            raise ValueError("injected fold failure")
        check(self)

    monkeypatch.setattr(Dataset, "check_fittable", check_fittable)
    with pytest.raises(ValueError, match="injected fold failure"):
        fit_penalized(d, FitRecipe("lasso", n_lambdas=5),
                      fold_rng=stream(1, 0))
