import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm, rankdata

from bootval.intervals import delong_interval
from bootval.metrics import (C_STATISTIC, CALIBRATION_SLOPE, MetricError,
                             c_statistic_value, calibration_slope,
                             delong_variance, measure_value, no_information)
from bootval.models import FittedModel, RiskScores, predict
from bootval.simulation import CovariateGenerator, GeneratorConfig

from conftest import make_dataset
from oracles import (auc_bruteforce, gridsearch_slope_1d,
                     jackknife_auc_variance, midrank_c_statistic,
                     midrank_delong_variance, midranks,
                     permutation_no_information)


def scores_of(values):
    values = np.asarray(values, dtype=float)
    return RiskScores(values=values, linear_predictors=values)


def test_auc_perfect_separation():
    s = np.array([0.9, 0.8, 0.1, 0.2])
    y = np.array([1, 1, 0, 0])
    assert c_statistic_value(s, y) == 1.0
    assert auc_bruteforce(s, y) == 1.0


def test_auc_hand_enumeration_with_tie():
    # events {0.4, 0.8}, nonevents {0.2, 0.4}: 3.5 of 4 pairs concordant
    s = np.array([0.4, 0.8, 0.2, 0.4])
    y = np.array([1, 1, 0, 0])
    assert c_statistic_value(s, y) == 0.875


def test_auc_requires_both_classes():
    with pytest.raises(MetricError):
        c_statistic_value(np.array([0.1, 0.2]), np.array([1, 1]))


def test_auc_equals_bruteforce_with_heavy_ties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        s = rng.choice([0.1, 0.2, 0.2, 0.5, 0.9], size=n)
        y = rng.integers(0, 2, size=n)
        if 0 < y.sum() < n:
            assert c_statistic_value(s, y) == auc_bruteforce(s, y)


def test_auc_complement_identity():
    d = make_dataset(13, n=50, p=2)
    s = np.random.default_rng(1).random(50)
    a = c_statistic_value(s, d.outcomes)
    b = c_statistic_value(s, 1.0 - d.outcomes)
    assert abs(a + b - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    s = rng.random(n)
    y = rng.integers(0, 2, size=n)
    if not 0 < y.sum() < n:
        return
    base = c_statistic_value(s, y)
    assert c_statistic_value(np.exp(3.0 * s), y) == base
    assert 0.0 <= base <= 1.0


def test_delong_variance_equals_stratified_jackknife():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(8, 25))
        s = rng.random(n)
        y = rng.integers(0, 2, size=n)
        if y.sum() < 2 or y.sum() > n - 2:
            continue
        fast = delong_variance(s, y)
        oracle = jackknife_auc_variance(s, y)
        assert abs(fast - oracle) < 1e-10


def delong_bounds(scores, outcomes, alpha):
    est = delong_interval(scores, outcomes, alpha)
    return est.lower, est.upper


def test_delong_ci_symmetric_about_point():
    d = make_dataset(15, n=120, p=2)
    s = scores_of(np.random.default_rng(5).random(120) * 0.5
                  + 0.3 * d.outcomes)
    auc = c_statistic_value(s.values, d.outcomes)
    lo, hi = delong_bounds(s, d.outcomes, 0.05)
    assert abs((hi - auc) - (auc - lo)) < 1e-12
    # monotone in alpha
    lo2, hi2 = delong_bounds(s, d.outcomes, 0.10)
    assert lo2 >= lo and hi2 <= hi


def test_delong_ci_alpha_one_is_zero_width():
    d = make_dataset(15, n=40, p=2)
    s = scores_of(np.random.default_rng(6).random(40))
    lo, hi = delong_bounds(s, d.outcomes, 1.0)
    assert lo == hi


def test_delong_ci_degenerate_all_tied():
    y = np.array([1, 0, 1, 0])
    s = scores_of(np.full(4, 0.5))
    lo, hi = delong_bounds(s, y, 0.05)
    assert lo == hi == 0.5


def test_delong_ci_alpha_validation():
    y = np.array([1, 0])
    with pytest.raises(MetricError):
        delong_bounds(scores_of([0.2, 0.1]), y, 0.0)


def test_calibration_slope_matches_gridsearch():
    d = make_dataset(23, n=50, p=1)
    lp = 0.4 + 1.3 * d.predictors[:, 0]
    s = RiskScores(values=1.0 / (1.0 + np.exp(-lp)), linear_predictors=lp)
    slope = calibration_slope(s, d.outcomes)
    oracle = gridsearch_slope_1d(lp, d.outcomes, refine_to=1e-4)
    assert abs(slope - oracle) < 1e-3


def test_calibration_slope_halves_when_lp_doubles():
    d = make_dataset(25, n=80, p=1)
    lp = -0.2 + 0.9 * d.predictors[:, 0]
    s1 = RiskScores(values=1.0 / (1.0 + np.exp(-lp)), linear_predictors=lp)
    s2 = RiskScores(values=1.0 / (1.0 + np.exp(-2 * lp)),
                    linear_predictors=2.0 * lp)
    a = calibration_slope(s1, d.outcomes)
    b = calibration_slope(s2, d.outcomes)
    assert abs(b - a / 2.0) < 1e-6


def test_calibration_slope_near_one_for_true_model():
    # scores from the model that generated the outcomes: slope -> 1
    rng = np.random.default_rng(8)
    n = 100_000
    x = rng.normal(size=n)
    lp = -0.5 + 1.2 * x
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-lp))).astype(float)
    s = RiskScores(values=1.0 / (1.0 + np.exp(-lp)), linear_predictors=lp)
    assert abs(calibration_slope(s, y) - 1.0) < 0.05


def test_calibration_slope_rejects_constant_lp():
    y = np.array([1.0, 0.0, 1.0])
    s = RiskScores(values=np.full(3, 0.5), linear_predictors=np.zeros(3))
    with pytest.raises(MetricError, match="constant"):
        calibration_slope(s, y)


def test_no_information_values():
    assert no_information(C_STATISTIC) == 0.5
    assert no_information(CALIBRATION_SLOPE) == 0.0
    with pytest.raises(MetricError):
        no_information("brier")


def test_no_information_matches_permutation_oracle():
    rng = np.random.default_rng(10)
    s = rng.random(40)
    y = rng.integers(0, 2, size=40).astype(float)
    est = permutation_no_information(s, y, 1000, np.random.default_rng(11))
    # MC standard error of the mean permuted AUC is well under 0.01 here
    assert abs(est - 0.5) < 0.03


def test_measure_value_dispatch():
    d = make_dataset(27, n=40, p=2)
    from bootval.models import fit_ml
    scores = predict(fit_ml(d), d)
    assert measure_value(C_STATISTIC, scores, d.outcomes) == \
        c_statistic_value(scores.values, d.outcomes)
    assert measure_value(CALIBRATION_SLOPE, scores, d.outcomes) == \
        calibration_slope(scores, d.outcomes)
    with pytest.raises(MetricError):
        measure_value("brier", scores, d.outcomes)


def assert_same_ranks(x):
    """The midrank reference in oracles agrees with SciPy's rankdata."""
    x = np.asarray(x, dtype=np.float64)
    ours, theirs = midranks(x), rankdata(x, method="average")
    assert ours.dtype == theirs.dtype == np.float64
    assert np.array_equal(ours, theirs, equal_nan=True)


def assert_same_as_midranks(scores, outcomes):
    """The placement C-statistic and DeLong variance have the bytes of the
    midrank reference, or raise where it raises."""
    scores = np.asarray(scores, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    for ours, reference in ((c_statistic_value, midrank_c_statistic),
                            (delong_variance, midrank_delong_variance)):
        try:
            want = reference(scores, outcomes)
        except MetricError:
            with pytest.raises(MetricError):
                ours(scores, outcomes)
            continue
        got = ours(scores, outcomes)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


HEAVY_TIES = st.sampled_from([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.1, 0.2, 0.5,
                              1e-300, 7.0, np.inf])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
EDGE_CASES = [
    [0.3], [np.nan], [np.inf], [-0.0],
    [np.inf, -np.inf, np.inf, 0.0, -np.inf],
    [-0.0, 0.0, -0.0, 0.0, 1.0, -1.0],
    [0.2, np.nan, 0.1], [np.nan, np.nan], [],
]


def large_tied_scores():
    rng = np.random.default_rng(4)
    for n in (2, 3, 1000, 5440):
        yield rng.integers(0, 7, size=n) / 7.0
        yield rng.normal(size=n)


@settings(max_examples=300, deadline=None)
@given(st.lists(HEAVY_TIES, min_size=1, max_size=80))
def test_midranks_equal_rankdata_with_heavy_ties(values):
    assert_same_ranks(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(ANY_FLOAT, min_size=1, max_size=40))
def test_midranks_equal_rankdata_on_any_floats(values):
    assert_same_ranks(values)


@pytest.mark.parametrize("values", EDGE_CASES)
def test_midranks_equal_rankdata_edge_cases(values):
    assert_same_ranks(values)


def test_midranks_equal_rankdata_on_large_tied_scores():
    for x in large_tied_scores():
        assert_same_ranks(x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(HEAVY_TIES, st.integers(0, 1)), min_size=1,
                max_size=80))
def test_placements_equal_midranks_with_heavy_ties(rows):
    assert_same_as_midranks(*zip(*rows))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ANY_FLOAT, st.integers(0, 1)), min_size=1,
                max_size=40))
def test_placements_equal_midranks_on_any_floats(rows):
    assert_same_as_midranks(*zip(*rows))


@pytest.mark.parametrize("values", EDGE_CASES)
def test_placements_equal_midranks_edge_cases(values):
    n = len(values)
    for outcomes in (np.arange(n) % 2, 1 - np.arange(n) % 2,
                     (np.arange(n) < 2).astype(int)):
        assert_same_as_midranks(values, outcomes)


def test_placements_equal_midranks_on_large_tied_scores():
    rng = np.random.default_rng(5)
    for x in large_tied_scores():
        assert_same_as_midranks(x, rng.integers(0, 2, size=x.shape[0]))
        assert_same_as_midranks(x, (x > np.median(x)).astype(int))


def test_ndtri_is_norm_ppf_for_delong_z():
    for alpha in np.concatenate([np.linspace(0.001, 1.0, 1000),
                                 [1e-12, 0.01, 0.05, 0.1, 0.2, 0.5]]):
        q = 1.0 - alpha / 2.0
        assert float(ndtri(q)) == float(norm.ppf(q))


def test_ndtri_and_ndtr_are_norm_on_generator_parameters():
    marg = GeneratorConfig.default().binary_marginals
    q = 1.0 - marg
    thresholds = ndtri(q)
    assert np.array_equal(thresholds, norm.ppf(q))
    assert np.array_equal(ndtr(thresholds), norm.cdf(thresholds))
    for p in marg:
        t = ndtri(1.0 - p)
        assert t == norm.ppf(1.0 - p) and ndtr(t) == norm.cdf(t)
    gen = CovariateGenerator(GeneratorConfig.default())
    assert np.array_equal(gen._binary_thresholds, norm.ppf(q))
