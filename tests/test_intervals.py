from functools import partial

import numpy as np
import pytest
from scipy.special import ndtri

from bootval import intervals
from bootval.intervals import (APPARENT, DELONG, IntervalError,
                               IntervalEstimate, LOCATION_SHIFTED, TWO_STAGE,
                               _two_stage_outer, apparent_bootstrap_ci,
                               delong_interval, location_shifted_ci,
                               parse_method, two_stage_ci, validate)
from bootval.metrics import (C_STATISTIC, CALIBRATION_SLOPE, delong_variance,
                             measure_value)
from bootval.models import FitError, FitRecipe, predict
from bootval.optimism import (METHODS, OptimismError, apparent_fit, correct,
                              evaluate_replicates)
from bootval.resampling import ResamplePlan, ResamplingError

from conftest import make_dataset, raising
from oracles import (location_shifted_reference, percentile_oracle,
                     two_stage_reference)


def interval(d, recipe, plan, method, alpha=0.05, **kw):
    """One interval through the validation pipeline."""
    return validate(d, recipe, C_STATISTIC, plan, methods=[method],
                    alpha=alpha, **kw).intervals[0]


def test_parse_method():
    assert parse_method("delong") == ("delong", None)
    assert parse_method("two-stage:0.632plus") == ("two-stage", "0.632plus")
    with pytest.raises(IntervalError):
        parse_method("two-stage")  # correction required
    with pytest.raises(IntervalError):
        parse_method("delong:harrell")  # no correction allowed
    with pytest.raises(IntervalError):
        parse_method("waldo")


def test_interval_estimate_invariants():
    est = IntervalEstimate("x", 0.8, 0.7, 0.9, 0.05)
    assert est.width == pytest.approx(0.2)
    assert est.contains(0.8) and not est.contains(0.95)
    with pytest.raises(IntervalError):
        IntervalEstimate("x", 0.8, 0.9, 0.7, 0.05)


def test_delong_interval_wraps_metrics():
    d = make_dataset(61, n=100, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(5, 1)
    scores = predict(apparent_fit(d, recipe, plan), d)
    est = delong_interval(scores, d.outcomes, 0.05)
    assert interval(d, recipe, plan, DELONG) == est
    var = delong_variance(scores.values, d.outcomes)
    half = float(ndtri(1.0 - 0.05 / 2.0)) * np.sqrt(var)
    assert (est.lower, est.upper) == (est.point - half, est.point + half)
    assert est.method == DELONG
    assert est.point == measure_value(C_STATISTIC, scores, d.outcomes)


def test_validate_rejects_delong_for_calibration_slope(monkeypatch):
    # raised before any fit: the injected apparent fit is never reached
    d = make_dataset(62, n=80, p=2)
    monkeypatch.setattr(intervals, "apparent_fit", raising(AssertionError))
    with pytest.raises(IntervalError, match="c-statistic only"):
        validate(d, FitRecipe(), CALIBRATION_SLOPE, ResamplePlan(5, 1),
                 methods=["apparent", "delong"])


@pytest.mark.parametrize("kwargs, error, message", [
    ({"alpha": 1.5, "methods": ["apparent"]}, ResamplingError,
     r"alpha must be in \(0, 1\)"),
    ({"alpha": 1.0, "methods": ["delong"]}, ResamplingError,
     r"alpha must be in \(0, 1\)"),
    ({"corrections": ["bogus"]}, OptimismError,
     "unknown correction method 'bogus'"),
], ids=["alpha", "alpha-delong", "correction"])
def test_validate_checks_its_arguments_before_any_fit(monkeypatch, kwargs,
                                                      error, message):
    # the injected apparent fit is never reached
    d = make_dataset(62, n=80, p=2)
    monkeypatch.setattr(intervals, "apparent_fit", raising(AssertionError))
    with pytest.raises(error, match=message):
        validate(d, FitRecipe(), C_STATISTIC, ResamplePlan(5, 1), **kwargs)


def test_apparent_ci_matches_percentile_oracle_on_replicates():
    d = make_dataset(63, n=70, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(60, 8)
    run = validate(d, recipe, C_STATISTIC, plan, methods=[APPARENT])
    est, reps = run.intervals[0], run.replicates
    vals = reps.theta_boot[reps.valid]
    assert est.lower == percentile_oracle(vals, 0.025)
    assert est.upper == percentile_oracle(vals, 0.975)
    assert est.method == APPARENT


def test_location_shift_identity_all_corrections():
    d = make_dataset(65, n=80, p=3)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(40, 13)
    reps = evaluate_replicates(d, recipe, C_STATISTIC, plan)
    apparent = measure_value(C_STATISTIC,
                             predict(apparent_fit(d, recipe, plan), d),
                             d.outcomes)
    app_ci = apparent_bootstrap_ci(apparent, reps, 0.05)
    for correction in METHODS:
        est = location_shifted_ci(
            correct(correction, C_STATISTIC, apparent, reps), reps, 0.05)
        assert est.lower == app_ci.lower - est.shift
        assert est.upper == app_ci.upper - est.shift
        assert est.width == app_ci.width
        assert est.method == LOCATION_SHIFTED
        assert est.correction == correction
        assert est.shift == apparent - est.point


def test_location_shift_zero_shift_equals_apparent():
    # stub replicate set with boot == orig makes the Harrell shift zero
    from bootval.optimism import ReplicateSet
    vals = np.linspace(0.6, 0.9, 10)
    reps = ReplicateSet(vals, vals.copy(), np.full(10, np.nan))
    app = apparent_bootstrap_ci(0.75, reps, 0.05)
    shifted = location_shifted_ci(correct("harrell", C_STATISTIC, 0.75, reps),
                                  reps, 0.05)
    assert shifted.shift == 0.0
    assert (shifted.lower, shifted.upper) == (app.lower, app.upper)


def test_location_shift_matches_oracle():
    d = make_dataset(69, n=50, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(30, 17)
    est = interval(d, recipe, plan, "location-shift:harrell")
    ref = location_shifted_reference(d, recipe, "harrell", 30, 17, 0.05)
    assert (est.lower, est.upper) == ref


def test_two_stage_matches_oracle_exactly():
    d = make_dataset(71, n=60, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(25, 19)
    est = interval(d, recipe, plan, "two-stage:harrell", inner_B=25)
    ref = two_stage_reference(d, recipe, "harrell", 25, 25, 19, 0.05)
    assert (est.point, est.lower, est.upper) == ref
    assert est.method == TWO_STAGE
    assert est.B_outer == 25 and est.B_inner == 25


def test_two_stage_632_family_matches_oracle_exactly():
    # these corrections read the inner bootstraps' out-of-bag values
    d = make_dataset(89, n=50, p=2)
    recipe = FitRecipe("ml")
    for method in ("0.632", "0.632plus"):
        est = interval(d, recipe, ResamplePlan(10, 37),
                       f"two-stage:{method}", inner_B=10)
        ref = two_stage_reference(d, recipe, method, 10, 10, 37, 0.05)
        assert (est.point, est.lower, est.upper) == ref


def test_harrell_validation_keeps_top_level_out_of_bag_values():
    """Only the two-stage inner bootstraps skip the out-of-bag sets that
    Harrell's correction does not read; the report's replicates keep
    them."""
    d = make_dataset(87, n=50, p=2)
    plan = ResamplePlan(12, 33)
    run = validate(d, FitRecipe("ml"), C_STATISTIC, plan, ["harrell"],
                   ["two-stage:harrell"], inner_B=6)
    full = evaluate_replicates(d, FitRecipe("ml"), C_STATISTIC, plan)
    assert np.array_equal(run.replicates.oob_valid, full.oob_valid)
    assert np.array_equal(run.replicates.theta_out, full.theta_out,
                          equal_nan=True)
    assert full.oob_valid.any()


def test_two_stage_worker_count_invariance():
    d = make_dataset(73, n=50, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(12, 23)
    seq = interval(d, recipe, plan, "two-stage:harrell", inner_B=12,
                   workers=1)
    par = interval(d, recipe, plan, "two-stage:harrell", inner_B=12,
                   workers=4)
    assert (seq.point, seq.lower, seq.upper) == (par.point, par.lower,
                                                 par.upper)


def test_two_stage_inner_b_validation():
    d = make_dataset(75, n=40, p=1)
    with pytest.raises(IntervalError):
        interval(d, FitRecipe("ml"), ResamplePlan(5, 1), "two-stage:harrell",
                 inner_B=0)


def test_two_stage_point_is_original_data_corrected_value():
    d = make_dataset(77, n=50, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(15, 29)
    run = validate(d, recipe, C_STATISTIC, plan, ["harrell"],
                   ["two-stage:harrell"], inner_B=10)
    point = correct("harrell", C_STATISTIC, run.apparent, run.replicates)
    est = run.intervals[0]
    assert est.point == point.corrected == run.corrections["harrell"].corrected


def test_two_stage_wider_than_location_shift_on_average():
    # the two-stage interval reflects corrected-estimate variability and is
    # wider than the shifted apparent interval averaged over seeds
    widths_ls, widths_ts = [], []
    for seed in range(8):
        d = make_dataset(1000 + seed, n=60, p=3)
        recipe = FitRecipe("ml")
        plan = ResamplePlan(30, seed)
        ls, ts = validate(d, recipe, C_STATISTIC, plan,
                          methods=["location-shift:harrell",
                                   "two-stage:harrell"],
                          inner_B=30).intervals
        widths_ls.append(ls.width)
        widths_ts.append(ts.width)
    assert np.mean(widths_ts) > np.mean(widths_ls)


def test_reference_inner_b_stability():
    # widening inner_B changes the oracle interval only modestly
    d = make_dataset(79, n=60, p=1)
    recipe = FitRecipe("ml")
    a = two_stage_reference(d, recipe, "harrell", 40, 10, 3, 0.05)
    b = two_stage_reference(d, recipe, "harrell", 40, 100, 3, 0.05)
    assert abs(a[1] - b[1]) < 0.05 and abs(a[2] - b[2]) < 0.05


def test_reference_rejects_large_instances():
    d = make_dataset(81, n=60, p=1)
    with pytest.raises(ValueError, match="small instances"):
        two_stage_reference(d, FitRecipe("ml"), "harrell", 200, 200, 1)


def test_two_stage_all_outer_invalid_is_fatal():
    reps = evaluate_replicates(make_dataset(83, n=40, p=1), FitRecipe("ml"),
                               C_STATISTIC, ResamplePlan(5, 1))
    point = correct("harrell", C_STATISTIC, 0.7, reps)
    with pytest.raises(IntervalError, match="all outer replicates invalid"):
        two_stage_ci(point, np.full(3, np.nan), 2)


@pytest.mark.parametrize("name, error", [("_bootstrap", FitError),
                                         ("correct", OptimismError)])
def test_two_stage_outer_task_catches_only_library_errors(monkeypatch, name,
                                                          error):
    # The library's error makes the outer value undefined (NaN); a
    # LinAlgError (a ValueError) is a fault and propagates.
    task = partial(_two_stage_outer, make_dataset(85, n=50, p=2),
                   FitRecipe("ml"), C_STATISTIC, ResamplePlan(4, 31), 8,
                   METHODS, None)
    monkeypatch.setattr(intervals, name, raising(error))
    assert np.isnan(task(0)).all()
    monkeypatch.setattr(intervals, name, raising(np.linalg.LinAlgError))
    with pytest.raises(np.linalg.LinAlgError):
        task(0)


def test_two_stage_shares_one_outer_map_across_corrections():
    """Each two-stage interval equals the one computed on its own."""
    d = make_dataset(85, n=50, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(10, 31)
    specs = [f"two-stage:{c}" for c in METHODS]
    together = validate(d, recipe, C_STATISTIC, plan, methods=specs,
                        inner_B=8).intervals
    for spec, est in zip(specs, together):
        assert est == interval(d, recipe, plan, spec, inner_B=8)
