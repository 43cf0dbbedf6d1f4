import pickle

import numpy as np
import pytest

from bootval import optimism
from bootval.data import Dataset
from bootval.kernel import (Patterns, c_statistics, fit_ml_counts,
                            risk_scores)
from bootval.metrics import C_STATISTIC, c_statistic_value
from bootval.models import FitRecipe, fit_ml, predict
from bootval.optimism import _ReplicateTask, evaluate_replicates
from bootval.resampling import ResamplePlan

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
    task = _ReplicateTask(d, recipe, C_STATISTIC, plan)
    slow = [rec for r in range(plan.B) for rec in task(r)]
    for field, col in (("theta_boot", 1), ("theta_orig", 2),
                       ("theta_out", 3), ("valid", 4), ("oob_valid", 5)):
        want = np.array([rec[col] for rec in slow])
        assert np.array_equal(getattr(fast, field), want,
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
