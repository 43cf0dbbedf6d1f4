import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootval.data import DataError, Dataset
from bootval.models import (FitError, FitRecipe, _cd_penalized, _standardize,
                            fit, fit_ml, fit_penalized, lambda_grid,
                            lasso_lambda_max, logistic, predict)
from bootval.resampling import stream

from conftest import make_dataset
from oracles import (gridsearch_logistic_2d, log_likelihood,
                     log_likelihood_gradient, penalized_objective)


def test_recipe_validation():
    with pytest.raises(FitError):
        FitRecipe("probit")
    with pytest.raises(FitError):
        FitRecipe("ridge", penalty=-1.0)
    for penalty in (np.nan, np.inf, -np.inf):
        with pytest.raises(FitError, match="finite and nonnegative"):
            FitRecipe("ridge", penalty=penalty)


@pytest.mark.parametrize("penalty", [0.0, 5.0])
def test_recipe_refuses_a_penalty_for_ml(penalty):
    # it was dropped without a word: the fit came back unpenalized
    with pytest.raises(FitError, match="ridge or lasso estimator only"):
        FitRecipe("ml", penalty=penalty)


def test_intercept_only_balanced_outcomes():
    # logit(0.5) = 0 for a constant predictor with 5 events / 5 nonevents
    d = Dataset(np.array([1.0] * 5 + [0.0] * 5), np.zeros((10, 1)))
    m = fit_ml(d)
    assert abs(m.intercept) < 1e-8
    assert abs(m.slopes[0]) < 1e-8


def test_fit_ml_matches_gridsearch_oracle():
    d = make_dataset(21, n=20, p=1)
    m = fit_ml(d)
    oracle = gridsearch_logistic_2d(d, refine_to=1e-4)
    beta = np.concatenate(([m.intercept], m.slopes))
    assert np.max(np.abs(beta - oracle)) < 1e-3


def test_fit_ml_rejects_single_class():
    d = Dataset(np.ones(10), np.arange(10.0)[:, None])
    with pytest.raises(DataError):
        fit_ml(d)


def test_fit_ml_under_separation_is_capped_not_fatal():
    # perfectly separable data: fit must return (converged flag honest,
    # scores strictly inside (0,1)) rather than diverging
    x = np.concatenate([-np.arange(1.0, 11.0), np.arange(1.0, 11.0)])
    y = (x > 0).astype(float)
    d = Dataset(y, x[:, None])
    m = fit_ml(d)
    scores = predict(m, d)
    assert np.all(scores.values > 0.0) and np.all(scores.values < 1.0)


def test_refit_is_bit_identical():
    d = make_dataset(9, n=60, p=4)
    m1 = fit_ml(d)
    m2 = fit_ml(d)
    assert m1.intercept == m2.intercept
    assert np.array_equal(m1.slopes, m2.slopes)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    d = make_dataset(17, n=50, p=3)
    for _ in range(20):
        beta = rng.normal(scale=0.8, size=d.p + 1)
        grad = log_likelihood_gradient(beta, d)
        h = 1e-6
        for j in range(d.p + 1):
            e = np.zeros(d.p + 1)
            e[j] = h
            fd = (log_likelihood(beta + e, d)
                  - log_likelihood(beta - e, d)) / (2.0 * h)
            denom = max(abs(fd), 1.0)
            assert abs(grad[j] - fd) / denom < 1e-5


def test_ridge_zero_penalty_equals_ml():
    d = make_dataset(31, n=150, p=5)
    m_ml = fit_ml(d)
    m_rg = fit_penalized(d, FitRecipe("ridge", penalty=0.0))
    assert abs(m_ml.intercept - m_rg.intercept) < 1e-6
    assert np.max(np.abs(m_ml.slopes - m_rg.slopes)) < 1e-6


def test_ridge_shrinks_toward_zero():
    d = make_dataset(33, n=100, p=4)
    small = fit_penalized(d, FitRecipe("ridge", penalty=0.1))
    large = fit_penalized(d, FitRecipe("ridge", penalty=1000.0))
    assert (np.linalg.norm(large.slopes) < np.linalg.norm(small.slopes)
            < np.linalg.norm(fit_ml(d).slopes) + 1e-9)


def test_lasso_full_shrinkage_at_lambda_max():
    d = make_dataset(35, n=100, p=4)
    lam = lasso_lambda_max(d)
    m = fit_penalized(d, FitRecipe("lasso", penalty=lam))
    assert np.all(m.slopes == 0.0)
    ybar = d.outcomes.mean()
    assert abs(m.intercept - np.log(ybar / (1.0 - ybar))) < 1e-10
    # just above lambda_max stays fully shrunk as well
    m2 = fit_penalized(d, FitRecipe("lasso", penalty=lam * 1.01))
    assert np.all(m2.slopes == 0.0)


def test_lasso_local_optimality_probe():
    # objective at the solution beats every grid perturbation around it
    d = make_dataset(37, n=30, p=3)
    lam = 0.25 * lasso_lambda_max(d)
    recipe = FitRecipe("lasso", penalty=lam)
    m = fit_penalized(d, recipe)
    base = penalized_objective(m, d)
    for j in range(d.p):
        for eps in (-1e-3, -1e-5, 1e-5, 1e-3):
            slopes = m.slopes.copy()
            # perturb on the standardized scale the solver works in
            sd = d.predictors.std(axis=0)
            slopes[j] += eps / sd[j]
            probe = type(m)(m.estimator, m.intercept, slopes,
                            penalty=m.penalty)
            assert penalized_objective(probe, d) >= base - 1e-10


def test_lasso_l1_norm_monotone_along_grid():
    d = make_dataset(39, n=120, p=5)
    recipe = FitRecipe("lasso", n_lambdas=25)
    grid = lambda_grid(d, recipe)
    xs_sd = d.predictors.std(axis=0)
    norms = []
    for lam in grid:
        m = fit_penalized(d, FitRecipe("lasso", penalty=float(lam)))
        norms.append(float(np.sum(np.abs(m.slopes * xs_sd))))
    # descending grid => non-decreasing L1 norm (small solver slack)
    assert all(b >= a - 1e-6 for a, b in zip(norms, norms[1:]))


def test_cv_selection_is_seed_deterministic():
    d = make_dataset(41, n=120, p=4)
    recipe = FitRecipe("lasso")
    m1 = fit(d, recipe, fold_rng=stream(5, 9))
    m2 = fit(d, recipe, fold_rng=stream(5, 9))
    assert m1.penalty == m2.penalty
    assert np.array_equal(m1.slopes, m2.slopes)


def test_constant_predictor_gets_slope_zero():
    d = make_dataset(3, n=60, p=3)
    x = d.predictors.copy()
    x[:, 2] = 0.0
    d = Dataset(d.outcomes, x)
    for recipe in (FitRecipe("lasso", penalty=0.5),
                   FitRecipe("ridge", penalty=0.0), FitRecipe("lasso")):
        model = fit(d, recipe, fold_rng=stream(5, 9))
        assert np.isfinite(model.slopes).all() and model.converged
        assert model.slopes[2] == 0.0


@pytest.mark.parametrize("kind", ["ridge", "lasso"])
def test_fixed_penalty_fit_is_descent_on_the_standardized_design(kind):
    # the descent's strided dots round differently on another memory
    # layout, so the fit must hand it the C-ordered standardized design
    for seed in range(4):
        d = make_dataset(60 + seed, n=150, p=5)
        xs, mu, sd = _standardize(d)
        ybar = d.outcomes.mean()
        a0, b, _, _ = _cd_penalized(d.outcomes, xs, kind, 0.3,
                                    float(np.log(ybar / (1.0 - ybar))),
                                    np.zeros(d.p), 100, 1e-8)
        model = fit(d, FitRecipe(kind, penalty=0.3))
        assert np.array_equal(model.slopes, b / sd)
        assert model.intercept == a0 - float(model.slopes @ mu)


def test_cv_selection_skips_non_finite_deviances(monkeypatch):
    import bootval.models as models
    d = make_dataset(43, n=60, p=2)
    recipe = FitRecipe("ridge", n_lambdas=10)
    lmax = lambda_grid(d, recipe)[0]
    deviance = models._deviance
    monkeypatch.setattr(models, "_deviance", lambda m, t: (
        np.nan if m.penalty == lmax else deviance(m, t)))
    assert fit(d, recipe, fold_rng=stream(5, 9)).penalty < lmax
    monkeypatch.setattr(models, "_deviance", lambda m, t: np.nan)
    with pytest.raises(FitError, match="finite"):
        fit(d, recipe, fold_rng=stream(5, 9))


def test_cv_requires_fold_rng():
    d = make_dataset(41, n=40, p=2)
    with pytest.raises(FitError, match="fold rng"):
        fit_penalized(d, FitRecipe("ridge"))


def test_predict_basics():
    m_zero = fit_ml(Dataset(np.array([1.0] * 5 + [0.0] * 5),
                            np.zeros((10, 1))))
    d = Dataset(np.array([0.0, 1.0]), np.array([[0.0], [100.0]]))
    scores = predict(m_zero, d)
    assert np.allclose(scores.values, 0.5, atol=1e-8)
    # hand arithmetic: beta0=-1, beta1=2, x=1 -> logistic(1)
    from bootval.models import FittedModel
    m = FittedModel("ml", -1.0, np.array([2.0]))
    s = predict(m, Dataset(np.array([1.0]), np.array([[1.0]])))
    assert abs(s.values[0] - 0.7310585786300049) < 1e-12
    assert np.allclose(s.values, logistic(s.linear_predictors))


def test_predict_dimension_mismatch():
    d = make_dataset(1, n=10, p=2)
    m = fit_ml(d)
    with pytest.raises(FitError, match="slopes"):
        predict(m, make_dataset(1, n=10, p=3))


def test_scores_strictly_inside_unit_interval_under_extreme_model():
    from bootval.models import FittedModel
    m = FittedModel("ml", 0.0, np.array([1000.0]))
    d = Dataset(np.array([0.0, 1.0]), np.array([[-1000.0], [1000.0]]))
    s = predict(m, d)
    assert np.all(s.values > 0.0) and np.all(s.values < 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_ml_gradient_near_zero_at_optimum(seed):
    d = make_dataset(seed, n=60, p=2)
    m = fit_ml(d)
    if not m.converged:
        return
    grad = log_likelihood_gradient(
        np.concatenate(([m.intercept], m.slopes)), d)
    assert np.max(np.abs(grad)) < 1e-4 * d.n
