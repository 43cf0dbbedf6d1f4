"""Check the generator's local numerics against the SciPy routines they
follow, bit for bit.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/check_generator.py

Four comparisons:

- simulation.bvn_cdf against scipy.stats.multivariate_normal.cdf on over
  10**6 points (t1, t2, r), a quarter in each of Genz's |r| bands (below
  0.3, 0.75 and 0.925, and above), with points where t1 = t2 and t1 = -t2;
- simulation.brentq against scipy.optimize.brentq on over 10**5 random
  monotone functions: the same root from the same evaluation points;
- simulation._latent_rho against its SciPy form on random feasible
  marginals and binary correlations;
- the full-size set-up of scenarios 1, 5, 17 and 21 (calibration_n
  1,000,000, estimand_n 500,000, seed 1), once as the library runs it and
  once with multivariate_normal.cdf and scipy.optimize.brentq put back:
  the latent Cholesky factor, the calibrated intercept and the true AUC.

Prints one line per comparison and exits with status 1 at the first
mismatch. Takes about a minute on one core.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

import numpy as np
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtri
from scipy.stats import multivariate_normal

from bootval import simulation
from bootval.simulation import (CovariateGenerator, GeneratorConfig,
                                ScenarioSpec, TrueModel, brentq, bvn_cdf,
                                calibrate_intercept, estimate_true_auc)

#: |r| bands of Genz's method; each gets a quarter of the tail points
BANDS = ((0.0, 0.3), (0.3, 0.75), (0.75, 0.925), (0.925, 0.9999))
#: correlations per band, and points (t1, t2) per correlation
CORRELATIONS, POINTS = 250, 1000
ROOT_PROBLEMS = 100_000
LATENT_PROBLEMS = 2_000
SCENARIOS = (1, 5, 17, 21)
SEED = 1


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
        spec = ScenarioSpec.by_id(scenario)
        chol, beta0, auc = setup(spec)
        with scipy_path():
            want_chol, want_beta0, want_auc = setup(spec)
        if not np.array_equal(chol, want_chol):
            fail(f"scenario {scenario}: latent Cholesky factor")
        if (beta0, auc) != (want_beta0, want_auc):
            fail(f"scenario {scenario}: beta0 {beta0!r} against "
                 f"{want_beta0!r}, true AUC {auc!r} against {want_auc!r}")
        lines.append(f"scenario {scenario}: beta0 {beta0!r}, "
                     f"true AUC {auc!r}")
    return lines


def main() -> int:
    print(f"bvn_cdf: {check_tail():,} points equal "
          f"multivariate_normal.cdf")
    n, errors = check_roots()
    print(f"brentq: {n:,} problems equal scipy.optimize.brentq, root and "
          f"evaluation points ({errors:,} raise in both)")
    print(f"_latent_rho: {check_latent_rho():,} problems equal the SciPy "
          f"form")
    for line in check_setups():
        print(f"set-up {line}, Cholesky factor, beta0 and true AUC equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
