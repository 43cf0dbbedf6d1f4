import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from bootval import simulation
from bootval.intervals import IntervalError
from bootval.simulation import (BINARY_NAMES, BLOCK_ROWS, COLUMN_NAMES,
                                CovariateGenerator, GeneratorConfig,
                                ScenarioSpec, SimulationError, TrueModel,
                                brentq, bvn_cdf, calibrate_intercept,
                                coverage_to_csv, coverage_to_json,
                                CoverageResult, derive_n, estimate_true_auc,
                                generate_cohort, run_scenario,
                                true_risk_score)
from bootval.metrics import c_statistic_value
from bootval.models import logistic
from bootval.resampling import ResamplingError, stream

from conftest import raising


def test_derive_n_examples():
    assert derive_n(8, 10, 0.125) == 640
    assert derive_n(17, 10, 0.125) == 1360
    assert derive_n(17, 40, 0.0625) == 10880


def test_scenario_spec_reads_the_table():
    s = ScenarioSpec(1)
    assert (s.epv, s.event_rate, s.p, s.coefficient_type) == (10, 0.125, 8, 1)
    assert s.n == 640
    assert ScenarioSpec(21).n == 5440
    with pytest.raises(SimulationError):
        ScenarioSpec(25)


def test_default_config_loads_and_is_consistent():
    cfg = GeneratorConfig.default()
    assert cfg.continuous_means.shape == (3,)
    assert cfg.continuous_covariance.shape == (3, 3)
    assert abs(cfg.smoking_proportions.sum() - 1.0) < 1e-9
    assert cfg.binary_marginals.shape == (len(BINARY_NAMES),)
    assert cfg.binary_correlations.shape == (len(BINARY_NAMES),
                                             len(BINARY_NAMES))
    for p in (8, 17):
        for t in (1, 2):
            want = 8 if p == 8 else len(COLUMN_NAMES)
            assert cfg.coefficients[(p, t)].shape == (want,)


def test_generator_sample_shape_and_determinism():
    gen = CovariateGenerator(GeneratorConfig.default())
    a = gen.sample(500, stream(1, 0))
    b = gen.sample(500, stream(1, 0))
    assert a.shape == (500, len(COLUMN_NAMES))
    assert np.array_equal(a, b)
    # dichotomized/dummy columns are 0/1
    names = list(COLUMN_NAMES)
    for col in ("A65", "SMK1", "SMK2", *BINARY_NAMES):
        vals = a[:, names.index(col)]
        assert set(np.unique(vals)) <= {0.0, 1.0}


def column_stack_sample(gen, n, rng):
    """CovariateGenerator.sample as it was written with np.column_stack,
    frozen here as the reference for the direct-write version."""
    cfg = gen.config
    cont = (rng.standard_normal((n, 3)) @ gen._cont_chol.T
            + cfg.continuous_means)
    height, weight, age = cont[:, 0], cont[:, 1], cont[:, 2]
    a65 = (age >= cfg.age_threshold).astype(float)
    u = rng.random(n)
    cut = np.cumsum(cfg.smoking_proportions)
    smk1 = (u < cut[0]).astype(float)
    smk2 = ((u >= cut[0]) & (u < cut[1])).astype(float)
    z = rng.standard_normal((n, gen._binary_thresholds.size))
    z = z @ gen._latent_chol.T
    binary = (z > gen._binary_thresholds).astype(float)
    by_name = dict(zip(BINARY_NAMES, binary.T))
    columns = {"A65": a65, "HEI": height, "WEI": weight,
               "SMK1": smk1, "SMK2": smk2, **by_name}
    return np.column_stack([columns[name] for name in COLUMN_NAMES])


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_generator_sample_equals_column_stack_version(n):
    gen = CovariateGenerator(GeneratorConfig.default())
    for seed in (0, 1, 7, 12345):
        rng, ref_rng = stream(seed, 3, 1), stream(seed, 3, 1)
        x, ref = gen.sample(n, rng), column_stack_sample(gen, n, ref_rng)
        assert x.dtype == ref.dtype == np.float64
        assert x.flags.c_contiguous and ref.flags.c_contiguous
        assert np.array_equal(x, ref)
        # the next draw agrees too, so the draw order is unchanged
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n", [1, 7, 4097, 25_003, 50_007])
def test_generator_blocks_concatenate_to_sample(n):
    gen = CovariateGenerator(GeneratorConfig.default())
    ref_rng = stream(n, 3, 1)
    ref = column_stack_sample(gen, n, ref_rng)  # what sample(n) returns
    after = ref_rng.random()
    for block in (7, 64, 4096, BLOCK_ROWS):
        rng = stream(n, 3, 1)
        parts = list(gen.blocks(n, rng, block))
        assert all(len(x) == block for x in parts[:-1])
        assert all(x.flags.c_contiguous for x in parts)
        assert np.concatenate(parts).tobytes() == ref.tobytes()
        assert rng.random() == after


def one_shot_lp(gen, slopes, n, rng, chunk):
    """The linear predictor as it was computed before blocks: one product
    per chunk of the frozen column-stack sample."""
    return np.concatenate([
        column_stack_sample(gen, min(chunk, n - lo), rng)[:, :slopes.size]
        @ slopes for lo in range(0, n, chunk)])


@pytest.mark.parametrize("p", [8, 17])
def test_streamed_lp_equals_one_shot_product(p):
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    slopes = cfg.coefficients[(p, 1)]
    # Chunks stay below about 26,000 rows, where OpenBLAS would split a
    # one-shot product across threads and change its bits.
    for n, chunk in ((50_007, 20_011), (20_011, 20_011), (999, 250)):
        rng, ref_rng = stream(n, 3, 0), stream(n, 3, 0)
        lp = simulation._sample_lp(gen, slopes, slopes.size, n, rng, chunk)
        ref = one_shot_lp(gen, slopes, n, ref_rng, chunk)
        assert lp.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()


SRC = Path(__file__).resolve().parent.parent / "src"

LP_DIGESTS = """
import hashlib
from bootval import simulation as s
from bootval.resampling import stream
cfg = s.GeneratorConfig.default()
gen, slopes, n = s.CovariateGenerator(cfg), cfg.coefficients[(17, 1)], 75_013
lp = s._sample_lp(gen, slopes, 18, n, stream(5, 3, 1), chunk=n)
one_shot = gen.sample(n, stream(5, 3, 1)) @ slopes
print(hashlib.sha256(lp).hexdigest(), hashlib.sha256(one_shot).hexdigest())
"""


def test_streamed_lp_does_not_depend_on_blas_threads():
    """A one-shot product of 75,013 rows and 17 columns differs in some
    rows between one and two OpenBLAS threads; the streamed product is the
    one-shot product at one thread, at both."""
    streamed = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", LP_DIGESTS], env=env,
                              capture_output=True, text=True, check=True)
        lp, one_shot = done.stdout.split()
        if threads == "1":
            assert lp == one_shot
        streamed.append(lp)
    assert streamed[0] == streamed[1]


COHORT_LP = """
from bootval import simulation as s
from bootval.resampling import stream
cfg = s.GeneratorConfig.default()
gen, slopes, n = s.CovariateGenerator(cfg), cfg.coefficients[(17, 1)], 27_027
model, passed, logistic = s.TrueModel(-0.85, slopes), [], s.logistic
s.logistic = lambda eta: passed.append(eta.copy()) or logistic(eta)
s.generate_cohort(gen, model, 17, n, seed=5)
want = model.beta0 + s._sample_lp(gen, slopes, 18, n, stream(5, 3, 1),
                                  chunk=n)
print(passed[0].tobytes() == want.tobytes())
"""


def test_generate_cohort_lp_does_not_depend_on_blas_threads():
    """At two OpenBLAS threads a one-shot product of 27,027 rows and 17
    columns differs from the one-thread bits in a row, by one ulp, which
    scenario 5's intercept (about -0.85) keeps. The cohort's linear
    predictor is reduced in blocks, as _sample_lp reduces it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", COHORT_LP], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "True"


def test_generator_marginals_roughly_match():
    gen = CovariateGenerator(GeneratorConfig.default())
    x = gen.sample(100_000, stream(2, 0))
    cfg = gen.config
    names = list(COLUMN_NAMES)
    for name, target in zip(BINARY_NAMES, cfg.binary_marginals):
        assert abs(x[:, names.index(name)].mean() - target) < 0.01
    smk1 = x[:, names.index("SMK1")].mean()
    assert abs(smk1 - cfg.smoking_proportions[0]) < 0.01
    hei = x[:, names.index("HEI")]
    assert abs(hei.mean() - cfg.continuous_means[0]) < 0.2


def test_generator_table_without_a_section_rejected():
    text = (resources.files("bootval") / "params" /
            "default_generator.table").read_text()
    text = text.replace("[age_threshold]\n65\n", "")
    with pytest.raises(SimulationError,
                       match=r"no \[age_threshold\] section"):
        GeneratorConfig.from_text(text)


def test_infeasible_binary_correlation_rejected():
    cfg = GeneratorConfig.default()
    bad = cfg.binary_correlations.copy()
    bad[0, 1] = bad[1, 0] = 0.99  # infeasible for small marginals
    with pytest.raises(SimulationError, match="infeasible"):
        CovariateGenerator(replace(cfg, binary_correlations=bad))


@pytest.mark.parametrize("marginal", [0.0, 1.0, -0.1])
def test_binary_marginal_outside_unit_interval_rejected(marginal):
    cfg = GeneratorConfig.default()
    marg = cfg.binary_marginals.copy()
    marg[2] = marginal
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no sqrt or division warning
        with pytest.raises(SimulationError,
                           match=f"marginal {marginal} of {BINARY_NAMES[2]}"):
            CovariateGenerator(replace(cfg, binary_marginals=marg))


def record_calls(f, calls):
    def g(x):
        calls.append(x)
        return f(x)
    return g


def assert_brentq_matches_scipy(f, a, b, xtol):
    """The same root, from the same sequence of evaluation points."""
    ours, theirs = [], []
    root = brentq(record_calls(f, ours), a, b, xtol=xtol)
    want = scipy_brentq(record_calls(f, theirs), a, b, xtol=xtol)
    assert type(root) is float
    assert root == want
    assert ours == theirs


def test_brentq_matches_scipy_on_random_monotone_functions():
    rng = np.random.default_rng(20)
    shapes = (
        lambda x, r, s: math.tanh(s * (x - r)),
        lambda x, r, s: s * (x - r) ** 3 + 1e-3 * (x - r),
        lambda x, r, s: math.expm1(min(s * (x - r), 700.0)),
        lambda x, r, s: math.copysign(abs(x - r) ** 0.2, x - r),
        lambda x, r, s: math.atan(x - r) * s - 0.3 * (x > r + 1),
    )
    for i in range(2000):
        root, scale = rng.normal(0, 3), rng.uniform(0.01, 100)
        shape = shapes[i % len(shapes)]
        a = root - rng.uniform(0, 10)
        b = root + rng.uniform(0, 10)
        if i % 2:
            a, b = b, a
        xtol = 10.0 ** rng.uniform(-300, -1) if i % 3 else 1e-10
        assert_brentq_matches_scipy(
            lambda x: shape(x, root, scale), a, b, xtol)


def test_brentq_matches_scipy_on_calibration_excess():
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    for (p, t), rate in (((8, 1), 0.125), ((17, 2), 0.0625)):
        slopes = cfg.coefficients[(p, t)]
        lp = gen.sample(20_000, stream(3, 3, 0))[:, :slopes.size] @ slopes
        base = math.log(rate / (1.0 - rate))

        def excess(b0):
            return float(logistic(b0 + lp).mean()) - rate
        assert_brentq_matches_scipy(excess, base - 15.0, base + 15.0, 1e-10)


def test_brentq_matches_scipy_where_the_extrapolation_divides_by_zero():
    # f is so small that dblk * dpre * (fblk - fpre) underflows to 0; C
    # then gets a non-finite step and bisects, where Python would raise
    def f(x):
        return 1e-160 * ((x - 0.3) + (x - 0.3) ** 3)
    assert_brentq_matches_scipy(f, -1.0, 2.0, 1e-10)


def test_brentq_raises_as_scipy_does():
    def same_sign(x):
        return x * x + 1.0

    def nan_inside(x):
        return math.nan if x < 1.0 else x - 0.5

    def step(x):
        return 1.0 if x > 0.1 else -1.0
    for f, a, b, xtol, error in ((same_sign, -1.0, 1.0, 1e-10, ValueError),
                                 (nan_inside, 0.0, 2.0, 1e-10, ValueError),
                                 (step, -1e300, 1e300, 5e-324,
                                  RuntimeError)):
        with pytest.raises(error):
            scipy_brentq(f, a, b, xtol=xtol)
        with pytest.raises(error):
            brentq(f, a, b, xtol=xtol)


@pytest.mark.parametrize("band", [(0.0, 0.3), (0.3, 0.75), (0.75, 0.925),
                                  (0.925, 0.9999)])
def test_bvn_cdf_matches_multivariate_normal(band):
    rng = np.random.default_rng(int(band[0] * 1000))
    for _ in range(50):
        r = float(rng.uniform(*band) * rng.choice([-1, 1]))
        t = rng.normal(0, 2, (100, 2))
        # ties h = k once k is flipped for r < 0 are where the |r| >= 0.925
        # branch's closed-form term counts; wide ones cancel the most
        t[50:] = rng.normal(0, 8, (50, 1))
        t[75:, 1] *= -1
        want = multivariate_normal.cdf(t, mean=[0.0, 0.0],
                                       cov=[[1.0, r], [r, 1.0]])
        got = [bvn_cdf(t1, t2, r) for t1, t2 in t.tolist()]
        assert got == want.tolist()


def scipy_latent_rho(p1, p2, target):
    """simulation._latent_rho as it was written with scipy.stats and
    scipy.optimize, frozen here as the reference for the local port."""
    if target == 0.0:
        return 0.0
    t1 = ndtri(1.0 - p1)
    t2 = ndtri(1.0 - p2)
    joint_target = p1 * p2 + target * np.sqrt(
        p1 * (1 - p1) * p2 * (1 - p2))

    def upper_tail(rho):
        cdf = multivariate_normal.cdf([t1, t2], mean=[0.0, 0.0],
                                      cov=[[1.0, rho], [rho, 1.0]])
        return 1.0 - ndtr(t1) - ndtr(t2) + cdf

    return scipy_brentq(lambda r: upper_tail(r) - joint_target, -0.999,
                        0.999, xtol=1e-10)


def test_latent_rho_matches_scipy_version():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p1, p2 = (np.float64(p) for p in rng.uniform(0.02, 0.98, 2))
        lo, hi = simulation._phi_bounds(p1, p2)
        target = np.float64(rng.uniform(0.9 * lo, 0.9 * hi))
        got = simulation._latent_rho(p1, p2, target)
        assert got == scipy_latent_rho(p1, p2, target)


def test_default_latent_cholesky_matches_scipy_version(monkeypatch):
    cfg = GeneratorConfig.default()
    ours = CovariateGenerator(cfg)
    monkeypatch.setattr(simulation, "_latent_rho", scipy_latent_rho)
    theirs = CovariateGenerator(cfg)
    assert np.array_equal(ours._latent_chol, theirs._latent_chol)


@pytest.mark.parametrize("error", [ValueError("plain"), ZeroDivisionError()])
def test_run_scenario_propagates_errors_outside_the_library(monkeypatch,
                                                            error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(simulation, "validate", fail)
    with pytest.raises(type(error)):
        run_scenario(ScenarioSpec(1), ["delong"], replications=2, B=5,
                     inner_B=5, seed=1, calibration_n=20_000,
                     estimand_n=5_000)


def test_run_scenario_counts_library_errors_as_failures(monkeypatch):
    def fail(*args, **kwargs):
        raise IntervalError("all outer replicates invalid")
    monkeypatch.setattr(simulation, "validate", fail)
    [result] = run_scenario(ScenarioSpec(1), ["delong"],
                            replications=2, B=5, inner_B=5, seed=1,
                            calibration_n=20_000, estimand_n=5_000)
    assert result.failures == 2 and result.replications == 0


@pytest.mark.parametrize("change, error, message", [
    ({"inner_B": 0}, IntervalError, "inner_B must be >= 1"),
    ({"alpha": 1.5}, SimulationError, "alpha must be in"),
    ({"seed": -1}, SimulationError, "seed must be >= 0"),
    ({"replications": 0}, SimulationError, "replications must be >= 1"),
    ({"B": 0}, ResamplingError, "B must be >= 1"),
    ({"calibration_n": 0}, SimulationError,
     "calibration sample must have >= 1 row"),
    ({"estimand_n": 999}, SimulationError,
     "external test cohort must have >= 1000 rows"),
    ({"workers": 0}, ResamplingError, "workers must be >= 1"),
], ids=["inner_B", "alpha", "seed", "replications", "B", "calibration_n",
        "estimand_n", "workers"])
def test_run_scenario_checks_its_arguments_before_set_up(monkeypatch, change,
                                                         error, message):
    # a bad argument raises before the generator is built, instead of
    # failing every replication
    monkeypatch.setattr(simulation, "CovariateGenerator",
                        raising(AssertionError))
    kwargs = {"replications": 2, "B": 5, "inner_B": 5, "seed": 1,
              "alpha": 0.05, **change}
    with pytest.raises(error, match=message):
        run_scenario(ScenarioSpec(1), ["apparent", "two-stage:harrell"],
                     **kwargs)


def test_run_scenario_ignores_inner_B_without_a_two_stage_method(
        monkeypatch):
    monkeypatch.setattr(simulation, "CovariateGenerator",
                        raising(AssertionError))
    with pytest.raises(AssertionError):  # reached the set-up
        run_scenario(ScenarioSpec(1), ["apparent"], replications=2, B=5,
                     inner_B=0, seed=1)


def test_run_scenario_lets_a_bad_B_propagate():
    # ResamplePlan rejects B = 0 outside the replication's error catch, so
    # it is not counted as a failed replication
    with pytest.raises(ResamplingError, match="B must be"):
        run_scenario(ScenarioSpec(1), ["apparent"], replications=2, B=0,
                     inner_B=5, seed=1, calibration_n=20_000,
                     estimand_n=5_000)


def test_calibrate_intercept_closed_forms():
    gen = CovariateGenerator(GeneratorConfig.default())
    b0 = calibrate_intercept(gen, np.zeros(8), 0.5, 8, sample_n=20_000,
                             seed=3)
    assert abs(b0) < 1e-6
    b0 = calibrate_intercept(gen, np.zeros(8), 0.125, 8, sample_n=20_000,
                             seed=3)
    assert abs(b0 - np.log(0.125 / 0.875)) < 1e-6
    with pytest.raises(SimulationError):
        calibrate_intercept(gen, np.zeros(8), 1.5, 8)


def test_calibrated_rate_achieved_on_fresh_cohort():
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    slopes = cfg.coefficients[(8, 1)]
    b0 = calibrate_intercept(gen, slopes, 0.125, 8, sample_n=200_000, seed=4)
    d = generate_cohort(gen, TrueModel(b0, slopes), 8, 100_000, seed=5)
    assert abs(d.outcomes.mean() - 0.125) < 0.01


def test_generate_cohort_determinism_and_shape():
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    model = TrueModel(-2.0, cfg.coefficients[(8, 1)])
    a = generate_cohort(gen, model, 8, 300, seed=6)
    b = generate_cohort(gen, model, 8, 300, seed=6)
    c = generate_cohort(gen, model, 8, 300, seed=7)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.predictors, b.predictors)
    assert not np.array_equal(a.outcomes, c.outcomes)
    assert a.p == 8 and a.names == COLUMN_NAMES[:8]


def test_generate_cohort_slope_width_mismatch():
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    with pytest.raises(SimulationError, match="width"):
        generate_cohort(gen, TrueModel(0.0, np.zeros(5)), 8, 100, seed=1)


def test_estimate_true_auc_uninformative_model():
    gen = CovariateGenerator(GeneratorConfig.default())
    auc = estimate_true_auc(gen, TrueModel(0.0, np.zeros(8)), 8, 50_000,
                            seed=8)
    assert abs(auc - 0.5) < 0.01
    with pytest.raises(SimulationError):
        estimate_true_auc(gen, TrueModel(0.0, np.zeros(8)), 8, 10, seed=8)


def test_estimate_true_auc_informative_and_stable():
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    slopes = cfg.coefficients[(8, 1)]
    b0 = calibrate_intercept(gen, slopes, 0.125, 8, sample_n=100_000, seed=9)
    model = TrueModel(b0, slopes)
    a = estimate_true_auc(gen, model, 8, 100_000, seed=10)
    b = estimate_true_auc(gen, model, 8, 100_000, seed=11)
    assert a > 0.6  # the bundled coefficients give an informative model
    assert abs(a - b) < 0.01


def traced_peak(call):
    """Peak bytes allocated while call() runs, as tracemalloc counts them;
    NumPy reports its array buffers to it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_set_up_does_not_hold_the_predictor_matrix():
    # 73.2 and 103.8 MiB when both built their whole predictor matrices
    cfg = GeneratorConfig.default()
    gen = CovariateGenerator(cfg)
    slopes = cfg.coefficients[(17, 1)]
    assert traced_peak(lambda: estimate_true_auc(
        gen, TrueModel(-2.0, slopes), 17, 200_000, seed=1)) < 40 * 2**20
    assert traced_peak(lambda: calibrate_intercept(
        gen, slopes, 0.125, 17, sample_n=400_000, seed=1)) < 50 * 2**20


def test_estimate_true_auc_ties_equal_decimal_risks():
    """Slope sums equal in decimal (0.1 + 0.2 = 0.3) are ties, however the
    float sums round: the estimand is the AUC of the exact integer-scaled
    score, and summing in another order does not change it."""
    gen = CovariateGenerator(GeneratorConfig.default())
    tenths = np.array([1, 2, 3, 6, 9, 4, 5, 7])
    model = TrueModel(-2.0, tenths / 10)
    auc = estimate_true_auc(gen, model, 8, 20_000, seed=12)
    d = generate_cohort(gen, model, 8, 20_000, seed=12)
    x, y = d.predictors, d.outcomes
    # the float sums do split the decimal ties on this cohort
    assert np.unique(x @ model.slopes).size > np.unique(x @ tenths).size
    assert auc == c_statistic_value(x @ tenths, y)
    for order in (np.arange(8)[::-1], np.array([4, 0, 7, 2, 6, 1, 5, 3])):
        rowwise = np.zeros(d.n)
        for j in order:
            rowwise += x[:, j] * model.slopes[j]
        assert auc == c_statistic_value(np.round(rowwise, 10), y)
        assert auc == c_statistic_value(
            true_risk_score(x[:, order] @ model.slopes[order]), y)


def test_coverage_result_validation():
    with pytest.raises(SimulationError):
        CoverageResult(1, "delong", 10, 1.2, 0.1, 0, 0.7)


def test_coverage_serialization_shapes():
    rows = [CoverageResult(1, "delong", 10, 0.9, 0.11, 0, 0.73),
            CoverageResult(1, "apparent", 10, 0.8, 0.12, 0, 0.73)]
    csv_text = coverage_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("scenario,method,")
    assert len(lines) == 3
    import json
    payload = json.loads(coverage_to_json(rows, {"seed": 1}))
    assert payload["meta"]["seed"] == 1
    assert len(payload["results"]) == 2
