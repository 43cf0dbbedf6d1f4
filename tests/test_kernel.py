import pickle
from functools import partial

import numpy as np
import pytest

from bootval import optimism
from bootval.data import Dataset
from bootval.kernel import (Patterns, _log_likelihood, c_statistics,
                            fit_ml_counts, risk_scores)
from bootval.metrics import C_STATISTIC, c_statistic_value
from bootval.models import (MAX_ITER, TOL, FitRecipe, fit_ml, logistic,
                            predict)
from bootval.optimism import (_replicate_row, evaluate_replicates,
                              two_class_block)
from bootval.resampling import ResamplePlan
from bootval.simulation import (CovariateGenerator, GeneratorConfig,
                                TrueModel, generate_cohort)

import oracles
from conftest import make_dataset


def _binary_dataset(seed, n=150, p=4):
    """Binary predictors only, so rows repeat and risk scores tie."""
    rng = np.random.default_rng(seed)
    x = (rng.random((n, p)) < 0.4).astype(float)
    eta = -0.8 + x @ (0.9 * (-0.6) ** np.arange(p))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    y[:2] = (0.0, 1.0)
    return Dataset(y, x)


def test_patterns_group_identical_rows():
    d = _binary_dataset(1)
    pat = Patterns(d)
    assert pat.k == np.unique(d.predictors, axis=0).shape[0]
    assert np.array_equal(pat.z[pat.index, 1:], d.predictors)
    events, trials = pat.counts(np.arange(d.n))
    assert trials.sum() == d.n and events.sum() == d.outcomes.sum()


def test_patterns_group_rows_by_equality():
    # every row sums to 3; three rows are distinct
    x = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [3.0, 0.0]])
    pat = Patterns(Dataset(np.array([0.0, 1.0, 1.0, 0.0]), x))
    assert pat.k == 3
    assert np.array_equal(pat.z[pat.index, 1:], x)


def test_patterns_restricted_from_parent_equal_patterns_of_subset():
    rng = np.random.default_rng(2)
    for d in (_binary_dataset(3, n=640, p=8),  # s1-shaped: heavy repeats
              make_dataset(4, n=200, p=3)):  # every row distinct
        parent = Patterns(d)
        for rows in (rng.integers(0, d.n, size=d.n), np.full(d.n, 5)):
            got, want = parent.restrict(rows), Patterns(d.subset(rows))
            assert got.k == want.k
            for name in ("index", "outcomes", "z", "_zz"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.k == 1  # the resample of one repeated row


def test_patterns_pickle_without_outer_products():
    pat = Patterns(make_dataset(5, n=50, p=3))
    w = np.random.default_rng(1).random((3, pat.k))
    want = pat.hessians(w)
    sent = pickle.loads(pickle.dumps(pat))
    assert "_zz" not in sent.__dict__
    assert np.array_equal(sent.hessians(w), want)


def test_c_statistics_equal_expanded_rows_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r, k = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        scores = np.round(rng.random((r, k)), 1)  # heavy ties
        events = rng.integers(0, 4, size=(r, k)).astype(float)
        trials = events + rng.integers(0, 4, size=(r, k))
        shared = (events[0], trials[0])
        got, got_shared = c_statistics(scores, [(events, trials), shared])
        for i in range(r):
            for e, t, value in ((events[i], trials[i], got[i]),
                                (*shared, got_shared[i])):
                y = np.concatenate([np.ones(int(e.sum())),
                                    np.zeros(int((t - e).sum()))])
                s = np.concatenate([np.repeat(scores[i], e.astype(int)),
                                    np.repeat(scores[i], (t - e).astype(int))])
                if 0 < e.sum() < t.sum():
                    assert value == c_statistic_value(s, y)
                else:
                    assert np.isnan(value)


def test_fit_ml_counts_matches_fit_on_resample():
    for d in (make_dataset(5, n=120, p=3), _binary_dataset(6)):
        pat = Patterns(d)
        rng = np.random.default_rng(7)
        rows = [rng.integers(0, d.n, size=d.n) for _ in range(6)]
        events, trials = (np.array(c) for c in
                          zip(*(pat.counts(idx) for idx in rows)))
        beta = fit_ml_counts(pat, events, trials, 100, 1e-8)
        for idx, b in zip(rows, beta):
            m = fit_ml(d.subset(idx))
            ref = np.concatenate(([m.intercept], m.slopes))
            assert np.max(np.abs(b - ref)) < 1e-9
        scores = risk_scores(pat, beta)
        for idx, s in zip(rows, scores):
            model = fit_ml(d.subset(idx))
            assert np.allclose(s[pat.index], predict(model, d).values,
                               rtol=1e-12, atol=0.0)


def _assert_equals_per_replicate_path(d, plan):
    recipe = FitRecipe("ml")
    fast = evaluate_replicates(d, recipe, C_STATISTIC, plan)
    task = partial(_replicate_row, d, recipe, C_STATISTIC, plan, True)
    slow = np.array([task(r) for r in range(plan.B)])
    for col, field in enumerate(("theta_boot", "theta_orig", "theta_out")):
        assert np.array_equal(getattr(fast, field), slow[:, col],
                              equal_nan=True), field
    return fast


def test_evaluate_replicates_equals_per_replicate_path():
    """The count kernel reproduces the per-resample fit bit for bit on
    continuous and on tied (binary) predictors."""
    for d in (make_dataset(8, n=90, p=3), _binary_dataset(9)):
        _assert_equals_per_replicate_path(d, ResamplePlan(120, 4))


@pytest.mark.parametrize("events, n, max_redraws", [
    (2, 40, optimism.MAX_REDRAWS),
    (1, 12, 1),  # some replicates spend every redraw
])
def test_evaluate_replicates_with_redraws_equals_per_replicate_path(
        events, n, max_redraws, monkeypatch):
    """Replicates whose first draw lacks an event are redrawn one by one,
    as on the per-replicate path."""
    monkeypatch.setattr(optimism, "MAX_REDRAWS", max_redraws)
    y = np.zeros(n)
    y[:events] = 1.0
    d = Dataset(y, np.random.default_rng(events).normal(size=(n, 2)))
    fast = _assert_equals_per_replicate_path(d, ResamplePlan(120, 4))
    assert (~fast.valid).any() == (max_redraws == 1)



# The kernel against the reference copy of its earlier form
# (tests/oracles.py): the same bytes, not only the same values.

def _scenario_cohort(p, n, seed, beta0=-2.3):
    """A cohort of the simulation's generator (binary, dummy and continuous
    predictors), with an intercept near scenario 1's, not calibrated."""
    config = GeneratorConfig.default()
    return generate_cohort(CovariateGenerator(config),
                           TrueModel(beta0, config.coefficients[(p, 1)]),
                           p, n, seed)


def _separated_dataset(seed, n=40):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    return Dataset((x[:, 0] + 0.3 * x[:, 1] > 0.2).astype(float), x)


def _block(d, r, seed):
    rows, ok = two_class_block(d, ResamplePlan(r, seed), range(r))
    return rows[ok]


def _assert_equals_reference(pat, rows, ref_pat=None, max_iter=MAX_ITER):
    """Fit the resamples rows (R, m) of pat's dataset and grade them on
    themselves, on every row and out of bag, as the kernel and as the
    reference (on ref_pat, pat by default); return the coefficients."""
    ref_pat = pat if ref_pat is None else ref_pat
    events, trials = pat.counts(rows)
    beta = fit_ml_counts(pat, events, trials, max_iter, TOL)
    want = oracles.kernel_fit_ml_counts(ref_pat, events, trials, max_iter,
                                        TOL)
    assert beta.tobytes() == want.tobytes()
    samples = [(events, trials), pat.counts(np.arange(pat.index.shape[0])),
               pat.counts_outside(rows)]
    scores = risk_scores(pat, beta)
    for got, ref in zip(c_statistics(scores, samples),
                        oracles.kernel_c_statistics(scores, samples)):
        assert got.tobytes() == ref.tobytes()
    return beta


def test_log_likelihood_equals_reference_in_value():
    """The same value as the reference's selects, one pattern per row: at
    and around eta = 0, where p rounds to 0, 1/2 or 1, at the infinities
    and at NaN."""
    eta = np.array([-np.inf, -800.0, -40.0, -1.0, -1e-300, -0.0, 0.0,
                    5e-324, 1e-17, 0.25, 40.0, 800.0, np.inf, np.nan])[:, None]
    args = (np.ones((eta.shape[0], 2)), np.full(eta.shape, 3.0),
            np.ones((eta.shape[0], 2)), eta, logistic(eta))
    got, want = _log_likelihood(*args), oracles.kernel_log_likelihood(*args)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(want).sum() == 1


@pytest.mark.parametrize("p, n", [(8, 640), (17, 1360), (17, 5440)])
def test_kernel_equals_reference_on_scenario_cohorts(p, n):
    d = _scenario_cohort(p, n, seed=p)
    parent = Patterns(d)
    rows = _block(d, 6, seed=1)
    _assert_equals_reference(parent, rows)
    # an outer replicate in a pool worker: patterns restricted from the
    # dataset's, which arrive without their outer products
    sub = d.subset(rows[0])
    sent = pickle.loads(pickle.dumps(parent))
    got, want = sent.restrict(rows[0]), Patterns(sub)
    assert got._zz.tobytes() == oracles.kernel_outer_products(want.z).tobytes()
    _assert_equals_reference(got, _block(sub, 6, seed=2), ref_pat=want)


def test_kernel_equals_reference_with_rounded_predictors():
    rng = np.random.default_rng(4)
    x = np.round(rng.normal(size=(300, 3)))  # few distinct rows
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(1.0 - x @ [0.7, -0.4, 0.2])))
    d = Dataset(y.astype(float), x)
    pat = Patterns(d)
    assert pat.k < 100
    _assert_equals_reference(pat, _block(d, 20, seed=3))


def test_kernel_equals_reference_on_separated_blocks():
    """Separated resamples stop at the stopping rule or the iteration cap,
    and their clipped risk scores tie across patterns."""
    d = _separated_dataset(5)
    pat = Patterns(d)
    beta = _assert_equals_reference(pat, _block(d, 30, seed=4))
    scores = risk_scores(pat, beta)
    assert any(np.unique(s).size < pat.k for s in scores)


def test_fit_ml_counts_equals_reference_when_replicates_finish_apart():
    """A block whose replicates finish at different iterations, cut at
    every iteration cap up to the last finish: a cut between the first and
    the last finish ends with replicates still active."""
    d = make_dataset(3, n=40, p=3)
    pat = Patterns(d)
    rows = _block(d, 25, seed=5)
    final = _assert_equals_reference(pat, rows)
    finished = []
    for max_iter in range(1, 8):
        beta = _assert_equals_reference(pat, rows, max_iter=max_iter)
        finished.append(int((beta == final).all(axis=1).sum()))
    assert any(0 < f < rows.shape[0] for f in finished)
    assert finished[-1] == rows.shape[0]


def test_kernel_equals_reference_on_one_pattern():
    x = np.tile([0.5, 2.0], (20, 1))
    y = np.zeros(20)
    y[:7] = 1.0
    pat = Patterns(Dataset(y, x))
    assert pat.k == 1
    _assert_equals_reference(pat, _block(Dataset(y, x), 5, seed=6))


def test_c_statistics_equal_reference_without_a_class_or_out_of_bag_rows():
    """Rows without events or without nonevents give NaN; out-of-bag
    counts leave patterns at zero, or every row, when a resample holds
    every row of the dataset."""
    rng = np.random.default_rng(7)
    d = make_dataset(8, n=6, p=1)
    pat = Patterns(d)
    rows = np.vstack([rng.permutation(d.n) for _ in range(3)]
                     + [rng.integers(0, d.n, size=(5, d.n))])
    events, trials = pat.counts(rows)
    events[0] = 0.0
    events[1] = trials[1]
    samples = [(events, trials), pat.counts_outside(rows),
               (events[3], trials[3])]
    scores = np.round(rng.random((rows.shape[0], pat.k)), 1)
    got = c_statistics(scores, samples)
    for a, b in zip(got, oracles.kernel_c_statistics(scores, samples)):
        assert a.tobytes() == b.tobytes()
    assert np.isnan(got[0][:2]).all() and np.isnan(got[1][:3]).all()
