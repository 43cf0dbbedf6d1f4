from functools import partial

import numpy as np
import pytest

from bootval import optimism
from bootval.data import Dataset
from bootval.metrics import CALIBRATION_SLOPE, C_STATISTIC, no_information
from bootval.models import FitRecipe, predict
from bootval.intervals import validate
from bootval.optimism import (HARRELL, P632, P632PLUS, OptimismError,
                              OptimismResult, ReplicateSet, _replicate_row,
                              apparent_fit, correct, evaluate_replicates,
                              harrell_from_replicates, p632_from_replicates,
                              p632plus_from_replicates, two_class_draw)
from bootval.resampling import ResamplePlan, WorkerPool

from conftest import make_dataset, raising
from oracles import _corrected_reference


def reps_of(boot, orig, out=None):
    boot = np.asarray(boot, dtype=float)
    orig = np.asarray(orig, dtype=float)
    out = (np.full_like(boot, np.nan) if out is None
           else np.asarray(out, dtype=float))
    return ReplicateSet(boot, orig, out)


def test_harrell_hand_arithmetic():
    # B=2: boot [0.90, 0.88], orig [0.85, 0.87], apparent 0.84
    res = harrell_from_replicates(0.84, reps_of([0.90, 0.88], [0.85, 0.87]))
    assert abs(res.optimism - 0.03) < 1e-15
    assert abs(res.corrected - 0.81) < 1e-15
    assert res.n_valid == 2


def test_harrell_zero_optimism():
    res = harrell_from_replicates(0.77, reps_of([0.8, 0.9], [0.8, 0.9]))
    assert res.corrected == 0.77
    assert res.optimism == 0.0


def test_p632_hand_arithmetic():
    res = p632_from_replicates(0.9, reps_of([0.9, 0.9], [0.9, 0.9],
                                            [0.8, 0.8]))
    assert res.corrected == 0.368 * 0.9 + 0.632 * 0.8
    assert abs(res.corrected - 0.8368) < 1e-15
    assert res.theta_out == 0.8


def test_p632_convex_combination_fixed_point():
    res = p632_from_replicates(0.7, reps_of([0.7], [0.7], [0.7]))
    assert res.corrected == 0.7


def test_p632plus_hand_arithmetic():
    # apparent 0.9, theta_out 0.8, gamma 0.5 -> R 0.25, w ~ 0.6960
    res = p632plus_from_replicates(0.9, reps_of([0.9], [0.9], [0.8]), 0.5)
    assert abs(res.R - 0.25) < 1e-15
    assert abs(res.w - 0.632 / 0.908) < 1e-15
    assert abs(res.corrected - ((1 - res.w) * 0.9 + res.w * 0.8)) == 0.0
    assert abs(res.corrected - 0.8304) < 1e-3


def test_p632plus_no_overfitting_limit():
    # theta_out == apparent -> R=0, w=0.632 exactly, equals 0.632 estimator
    res = p632plus_from_replicates(0.8, reps_of([0.8], [0.8], [0.8]), 0.5)
    assert res.R == 0.0
    assert res.w == 0.632
    p632 = p632_from_replicates(0.8, reps_of([0.8], [0.8], [0.8]))
    assert res.corrected == p632.corrected


def test_p632plus_total_overfitting_limit():
    # theta_out == gamma -> R=1, w=1 exactly, corrected = theta_out
    res = p632plus_from_replicates(0.9, reps_of([0.9], [0.9], [0.5]), 0.5)
    assert res.R == 1.0
    assert res.w == 1.0
    assert res.corrected == 0.5


def test_p632plus_r_clamped_and_fallback():
    # theta_out above apparent -> raw R negative, clamped to 0
    res = p632plus_from_replicates(0.7, reps_of([0.7], [0.7], [0.75]), 0.5)
    assert res.R == 0.0
    # apparent == gamma exactly -> flagged fallback
    res2 = p632plus_from_replicates(0.5, reps_of([0.5], [0.5], [0.45]), 0.5)
    assert res2.r_fallback and res2.R == 0.0


def test_p632plus_weight_range():
    rng = np.random.default_rng(6)
    for _ in range(50):
        app = rng.uniform(0.5, 1.0)
        out = rng.uniform(0.3, 1.0)
        res = p632plus_from_replicates(app, reps_of([app], [app], [out]), 0.5)
        assert 0.632 <= res.w <= 1.0
        lo, hi = min(app, res.theta_out), max(app, res.theta_out)
        assert lo - 1e-12 <= res.corrected <= hi + 1e-12


def test_result_invariant_enforced():
    with pytest.raises(OptimismError):
        OptimismResult(HARRELL, apparent=0.8, corrected=0.7, optimism=0.05)


def test_corrections_share_replicates_and_match_oracle():
    d = make_dataset(51, n=50, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(30, 99)
    reps = evaluate_replicates(d, recipe, C_STATISTIC, plan)
    from bootval.metrics import measure_value
    apparent = measure_value(C_STATISTIC,
                             predict(apparent_fit(d, recipe, plan), d),
                             d.outcomes)
    for method in (HARRELL, P632, P632PLUS):
        fast = correct(method, C_STATISTIC, apparent, reps)
        oracle = _corrected_reference(d, recipe, method, plan)
        assert fast.corrected == oracle
        # the end-to-end pipeline agrees with the shared-replicate path
        run = validate(d, recipe, C_STATISTIC, plan, corrections=[method])
        assert run.corrections[method].corrected == oracle


def test_correct_is_deterministic():
    d = make_dataset(53, n=60, p=3)
    plan = ResamplePlan(20, 5)
    a, b = (validate(d, FitRecipe("ml"), C_STATISTIC, plan,
                     corrections=[HARRELL]).corrections[HARRELL]
            for _ in range(2))
    assert a.corrected == b.corrected and a.optimism == b.optimism


def test_worker_count_invariance():
    d = make_dataset(55, n=60, p=2)
    plan = ResamplePlan(16, 7)
    with WorkerPool(1) as pool:
        seq = evaluate_replicates(d, FitRecipe("ml"), C_STATISTIC, plan,
                                  pool=pool)
    with WorkerPool(4) as pool:
        par = evaluate_replicates(d, FitRecipe("ml"), C_STATISTIC, plan,
                                  pool=pool)
    assert np.array_equal(seq.theta_boot, par.theta_boot, equal_nan=True)
    assert np.array_equal(seq.theta_orig, par.theta_orig, equal_nan=True)
    assert np.array_equal(seq.theta_out, par.theta_out, equal_nan=True)
    assert np.array_equal(seq.valid, par.valid)
    assert np.array_equal(seq.oob_valid, par.oob_valid)


@pytest.mark.parametrize("measure", [C_STATISTIC,  # the count kernel
                                     CALIBRATION_SLOPE])  # per replicate
def test_evaluation_without_out_of_bag_keeps_the_other_values(measure):
    d = make_dataset(59, n=60, p=2)
    plan = ResamplePlan(30, 11)
    full = evaluate_replicates(d, FitRecipe("ml"), measure, plan)
    lean = evaluate_replicates(d, FitRecipe("ml"), measure, plan, oob=False)
    for field in ("theta_boot", "theta_orig", "valid"):
        assert np.array_equal(getattr(lean, field), getattr(full, field),
                              equal_nan=True), field
    assert np.isnan(lean.theta_out).all() and not lean.oob_valid.any()
    assert full.oob_valid.any()


def test_replicate_task_out_of_bag_partitions_index_set(monkeypatch):
    # the per-replicate path subsets the resample, then, for a 0.632-family
    # correction, the rows it leaves out: sorted, disjoint from the
    # resample and, with it, every row
    d = make_dataset(17, n=200, p=2)
    plan = ResamplePlan(4, 9)
    subsets = []
    subset = Dataset.subset

    def recording(self, rows):
        subsets.append(rows)
        return subset(self, rows)

    monkeypatch.setattr(Dataset, "subset", recording)
    for oob in (True, False):
        task = partial(_replicate_row, d, FitRecipe("ml"), CALIBRATION_SLOPE,
                       plan, oob)
        for r in range(plan.B):
            subsets.clear()
            theta_boot, theta_orig, theta_out = task(r)
            assert not np.isnan([theta_boot, theta_orig]).any()
            assert np.isnan(theta_out) != oob
            assert np.array_equal(subsets[0], two_class_draw(d, plan, r))
            if not oob:
                assert len(subsets) == 1 and np.isnan(theta_out)
                continue
            in_bag, out = np.unique(subsets[0]), subsets[1]
            assert np.intersect1d(in_bag, out).size == 0
            assert np.array_equal(np.union1d(in_bag, out), np.arange(d.n))
            assert np.array_equal(out, np.sort(out))


def test_replicate_task_lets_a_numpy_error_propagate(monkeypatch):
    # Only the library's own errors make a replicate invalid. A LinAlgError
    # (a ValueError) in the fits or in the out-of-bag grade is a fault.
    d = make_dataset(17, n=200, p=2)
    task = partial(_replicate_row, d, FitRecipe("ml"), CALIBRATION_SLOPE,
                   ResamplePlan(4, 9), True)

    def failing_out_of_bag(model, data):
        if data.n < d.n:
            raise np.linalg.LinAlgError("injected")
        return predict(model, data)

    for failing in (raising(np.linalg.LinAlgError), failing_out_of_bag):
        monkeypatch.setattr(optimism, "predict", failing)
        with pytest.raises(np.linalg.LinAlgError):
            task(0)


def test_unknown_method_rejected():
    d = make_dataset(57, n=30, p=1)
    reps = evaluate_replicates(d, FitRecipe("ml"), C_STATISTIC,
                               ResamplePlan(5, 1))
    with pytest.raises(OptimismError, match="unknown correction"):
        correct("jackknife", C_STATISTIC, 0.8, reps)
    with pytest.raises(OptimismError, match="unknown correction"):
        validate(d, FitRecipe("ml"), C_STATISTIC, ResamplePlan(5, 1),
                 corrections=["jackknife"])


def test_nan_marks_an_invalid_replicate():
    reps = reps_of([0.9, np.nan, 0.8, 0.7], [0.8, 0.8, np.nan, 0.6],
                   [0.7, 0.7, 0.7, np.nan])
    assert reps.B == 4
    assert reps.valid.tolist() == [True, False, False, True]
    assert reps.oob_valid.tolist() == [True, False, False, False]
    assert harrell_from_replicates(0.8, reps).n_valid == 2
    assert p632_from_replicates(0.8, reps).theta_out == 0.7


def test_no_valid_replicates_is_fatal():
    empty = reps_of([np.nan], [np.nan], [np.nan])
    with pytest.raises(OptimismError):
        harrell_from_replicates(0.8, empty)
    with pytest.raises(OptimismError):
        p632_from_replicates(0.8, empty)


def test_gamma_comes_from_measure():
    assert no_information(C_STATISTIC) == 0.5
