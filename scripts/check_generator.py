"""Check the generator's local numerics against the SciPy routines they
follow, and its streamed linear predictor against the one-shot product,
bit for bit.

Usage (from the root of a checkout):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/check_generator.py

Five comparisons:

- simulation.bvn_cdf against scipy.stats.multivariate_normal.cdf on over
  10**6 points (t1, t2, r), a quarter in each of Genz's |r| bands (below
  0.3, 0.75 and 0.925, and above), with points where t1 = t2 and t1 = -t2;
- simulation.brentq against scipy.optimize.brentq on over 10**5 random
  monotone functions: the same root from the same evaluation points;
- simulation._latent_rho against its SciPy form on random feasible
  marginals and binary correlations;
- the linear predictor of every scenario at seeds 1 and 2, streamed block
  by block as the library computes it and as one product per sample of
  the whole predictor matrix: at calibration size (1,000,000 rows, and the
  ragged 1,000,003, in 200,000-row chunks) and at estimand size (500,000
  and 500,003 rows in one chunk), each with the stream's next draw;
- the full-size set-up of scenarios 1, 5, 17 and 21 (calibration_n
  1,000,000, estimand_n 500,000, seed 1), as the library runs it, once
  with multivariate_normal.cdf and scipy.optimize.brentq put back and once
  with the one-shot linear predictor put back: the latent Cholesky factor,
  the calibrated intercept and the true AUC.

The one-shot product is the reference at one BLAS thread only: at two,
OpenBLAS splits a product of more than about 26,000 rows across threads,
and some rows change. So the script refuses to run unless
OPENBLAS_NUM_THREADS=1. Prints one line per comparison and exits with
status 1 at the first mismatch. Takes about four minutes on one core.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager

import numpy as np
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtri
from scipy.stats import multivariate_normal

from bootval import simulation
from bootval.resampling import stream
from bootval.simulation import (COLUMN_NAMES, SCENARIO_TABLE,
                                CovariateGenerator, GeneratorConfig,
                                ScenarioSpec, TrueModel, brentq, bvn_cdf,
                                calibrate_intercept, columns_for_p,
                                estimate_true_auc)

#: |r| bands of Genz's method; each gets a quarter of the tail points
BANDS = ((0.0, 0.3), (0.3, 0.75), (0.75, 0.925), (0.925, 0.9999))
#: correlations per band, and points (t1, t2) per correlation
CORRELATIONS, POINTS = 250, 1000
ROOT_PROBLEMS = 100_000
LATENT_PROBLEMS = 2_000
SCENARIOS = (1, 5, 17, 21)
SEED = 1
#: (rows, rows per chunk, stream path) of the streamed linear predictors:
#: calibration draws from stream(seed', 3, 0), the estimand from (3, 1)
LP_SIZES = ((1_000_000, 200_000, 0), (1_000_003, 200_000, 0),
            (500_000, 500_000, 1), (500_003, 500_003, 1))
LP_SEEDS = (1, 2)


def fail(what: str) -> None:
    print(f"MISMATCH: {what}")
    sys.exit(1)


def scipy_bvn_cdf(t1, t2, r):
    return multivariate_normal.cdf([t1, t2], mean=[0.0, 0.0],
                                   cov=[[1.0, r], [r, 1.0]])


def scipy_brentq_xtol(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol)


def tail_points(rng, n):
    """Thresholds as the generator makes them (normal quantiles of uniform
    marginals), wider normal draws, and the ties t1 = t2 and t1 = -t2, where
    the last band's closed-form term counts most."""
    t = np.where(rng.random((n, 2)) < 0.5,
                 ndtri(rng.uniform(0.001, 0.999, (n, 2))),
                 rng.normal(0.0, 3.0, (n, 2)))
    tie = rng.random(n)
    t[tie < 0.2, 1] = t[tie < 0.2, 0]
    t[tie > 0.8, 1] = -t[tie > 0.8, 0]
    t[rng.random(n) < 0.25] *= 3.0
    return t


def check_tail() -> int:
    rng = np.random.default_rng(SEED)
    n = 0
    for lo, hi in BANDS:
        for _ in range(CORRELATIONS):
            r = float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))
            t = tail_points(rng, POINTS)
            want = multivariate_normal.cdf(t, mean=[0.0, 0.0],
                                           cov=[[1.0, r], [r, 1.0]])
            for (t1, t2), w in zip(t.tolist(), want.tolist()):
                if bvn_cdf(t1, t2, r) != w:
                    fail(f"bvn_cdf({t1!r}, {t2!r}, {r!r})")
            n += POINTS
    return n


def monotone(kind, root, scale):
    if kind == 0:
        return lambda x: math.tanh(scale * (x - root))
    if kind == 1:
        return lambda x: scale * (x - root) ** 3 + 1e-3 * (x - root)
    if kind == 2:
        return lambda x: math.expm1(min(scale * (x - root), 700.0))
    if kind == 3:
        return lambda x: math.copysign(abs(x - root) ** 0.2, x - root)
    if kind == 4:
        return lambda x: scale * 1e-160 * ((x - root) + (x - root) ** 3)
    return lambda x: math.atan(x - root) * scale - 0.3 * (x > root + 1)


def outcome(call):
    """call()'s value, or the name of the error SciPy's solver raises"""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def solve(solver, f, a, b, xtol):
    """(root or error name, evaluation points)"""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return outcome(lambda: solver(g, a, b, xtol)), calls


def check_roots() -> tuple[int, int]:
    rng = np.random.default_rng(SEED)
    errors = 0
    for i in range(ROOT_PROBLEMS):
        root, scale = float(rng.normal(0, 3)), float(rng.uniform(0.01, 100))
        f = monotone(i % 6, root, scale)
        a, b = root - rng.uniform(0, 10), root + rng.uniform(0, 10)
        if i % 2:
            a, b = b, a
        if i % 50 == 0:  # no sign change
            a, b = root + 1.0, root + 2.0
        xtol = 10.0 ** rng.uniform(-300, -1) if i % 3 else 1e-10
        ours = solve(brentq, f, a, b, xtol)
        theirs = solve(scipy_brentq_xtol, f, a, b, xtol)
        if ours != theirs or type(ours[0]) is not type(theirs[0]):
            fail(f"brentq kind={i % 6} root={root!r} scale={scale!r} "
                 f"a={a!r} b={b!r} xtol={xtol!r}")
        errors += isinstance(theirs[0], str)
    return ROOT_PROBLEMS, errors


def check_latent_rho() -> int:
    rng = np.random.default_rng(SEED)
    latent_rho = simulation._latent_rho
    for _ in range(LATENT_PROBLEMS):
        p1, p2 = (np.float64(p) for p in rng.uniform(0.01, 0.99, 2))
        lo, hi = simulation._phi_bounds(p1, p2)
        target = np.float64(rng.uniform(0.95 * lo, 0.95 * hi))
        ours = outcome(lambda: latent_rho(p1, p2, target))
        with scipy_path():
            theirs = outcome(lambda: latent_rho(p1, p2, target))
        if ours != theirs:
            fail(f"_latent_rho({p1!r}, {p2!r}, {target!r})")
    return LATENT_PROBLEMS


@contextmanager
def scipy_path():
    """Within the block, the library calls SciPy's routines again."""
    saved = simulation.brentq, simulation.bvn_cdf
    simulation.brentq = scipy_brentq_xtol
    simulation.bvn_cdf = scipy_bvn_cdf
    try:
        yield
    finally:
        simulation.brentq, simulation.bvn_cdf = saved


def one_shot_sample(gen, n, rng):
    """CovariateGenerator.sample as it was before it streamed: each draw
    for all n rows at once, and the whole matrix at once."""
    cfg, col = gen.config, {name: j for j, name in enumerate(COLUMN_NAMES)}
    out = np.empty((n, len(COLUMN_NAMES)))
    cont = (rng.standard_normal((n, 3)) @ gen._cont_chol.T
            + cfg.continuous_means)
    out[:, col["HEI"]], out[:, col["WEI"]] = cont[:, 0], cont[:, 1]
    out[:, col["A65"]] = cont[:, 2] >= cfg.age_threshold
    u = rng.random(n)
    cut = np.cumsum(cfg.smoking_proportions)
    out[:, col["SMK1"]] = u < cut[0]
    out[:, col["SMK2"]] = (u >= cut[0]) & (u < cut[1])
    z = rng.standard_normal((n, gen._binary_thresholds.size))
    out[:, simulation._BINARY_COLUMNS] = (z @ gen._latent_chol.T
                                          > gen._binary_thresholds)
    return out


def one_shot_lp(gen, slopes, col_hi, n, rng, chunk=200_000):
    """simulation._sample_lp as it was: one product per whole sample."""
    out = np.empty(n)
    for lo in range(0, n, chunk):
        x = one_shot_sample(gen, min(chunk, n - lo), rng)
        out[lo:lo + len(x)] = x[:, :col_hi] @ slopes
    return out


def check_streaming() -> int:
    config = GeneratorConfig.default()
    gen = CovariateGenerator(config)
    done = 0
    for seed in LP_SEEDS:
        for scenario, (_, _, p, ctype) in SCENARIO_TABLE.items():
            slopes = config.coefficients[(p, ctype)]
            hi = columns_for_p(p)
            for n, chunk, path in LP_SIZES:
                sub = simulation._subseed(seed, path + 1, scenario)
                ours, theirs = stream(sub, 3, path), stream(sub, 3, path)
                lp = simulation._sample_lp(gen, slopes, hi, n, ours, chunk)
                want = one_shot_lp(gen, slopes, hi, n, theirs, chunk)
                if (lp.tobytes() != want.tobytes()
                        or ours.random() != theirs.random()):
                    fail(f"streamed linear predictor of scenario "
                         f"{scenario}, seed {seed}, {n:,} rows")
                done += 1
    return done


@contextmanager
def one_shot_path():
    """Within the block, the library's linear predictors are one-shot."""
    saved = simulation._sample_lp
    simulation._sample_lp = one_shot_lp
    try:
        yield
    finally:
        simulation._sample_lp = saved


def setup(spec: ScenarioSpec):
    """What run_scenario computes before its replications."""
    config = GeneratorConfig.default()
    gen = CovariateGenerator(config)
    slopes = config.coefficients[(spec.p, spec.coefficient_type)]
    beta0 = calibrate_intercept(gen, slopes, spec.event_rate, spec.p,
                                sample_n=1_000_000,
                                seed=simulation._subseed(SEED, 1, spec.id))
    true_auc = estimate_true_auc(gen, TrueModel(beta0, slopes), spec.p,
                                 500_000,
                                 seed=simulation._subseed(SEED, 2, spec.id))
    return gen._latent_chol, beta0, true_auc


def check_setups() -> list[str]:
    lines = []
    for scenario in SCENARIOS:
        spec = ScenarioSpec(scenario)
        chol, beta0, auc = setup(spec)
        with scipy_path():
            want_chol, want_beta0, want_auc = setup(spec)
        if not np.array_equal(chol, want_chol):
            fail(f"scenario {scenario}: latent Cholesky factor")
        with one_shot_path():
            shot = setup(spec)[1:]
        for path, want in (("SciPy", (want_beta0, want_auc)),
                           ("one-shot", shot)):
            if (beta0, auc) != want:
                fail(f"scenario {scenario}: beta0 {beta0!r}, true AUC "
                     f"{auc!r} against {want!r} on the {path} path")
        lines.append(f"scenario {scenario}: beta0 {beta0!r}, "
                     f"true AUC {auc!r}")
    return lines


def main() -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("check_generator: set OPENBLAS_NUM_THREADS=1 (see the "
              "docstring)", file=sys.stderr)
        return 2
    print(f"bvn_cdf: {check_tail():,} points equal "
          f"multivariate_normal.cdf")
    n, errors = check_roots()
    print(f"brentq: {n:,} problems equal scipy.optimize.brentq, root and "
          f"evaluation points ({errors:,} raise in both)")
    print(f"_latent_rho: {check_latent_rho():,} problems equal the SciPy "
          f"form")
    print(f"linear predictor: {check_streaming()} streamed products equal "
          f"the one-shot product, with the next draw")
    for line in check_setups():
        print(f"set-up {line}: Cholesky factor, beta0 and true AUC equal "
              f"on the SciPy and one-shot paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
