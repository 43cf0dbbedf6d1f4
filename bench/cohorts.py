"""Validation cohorts made by the benchmark itself, from its seed.

The cohorts copy the shape of the package's scenarios 5 and 21 (17
predictors, about 12.5% events; n = 1,360 and 5,440) without using
`bootval.simulation`, so a change to the program's generator cannot change
the benchmark's inputs. Three columns are continuous (height, weight, age),
so every row is distinct; the other fourteen are binary, with prevalences
and a shared latent factor of the same order as the package's generator.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

EVENT_RATE = 0.125
CONTINUOUS = ((171.0, 10.0), (79.0, 15.0), (61.0, 12.0))
PREVALENCE = (0.25, 0.15, 0.08, 0.30, 0.12, 0.05, 0.30, 0.17, 0.38, 0.33,
              0.37, 0.42, 0.38, 0.42)
SLOPES = np.array([-0.012, -0.006, 0.05, 0.35, 0.40, 0.85, 0.60, 0.70, 1.60,
                   0.45, 0.35, 0.15, -0.25, -0.10, -0.12, 0.20, -0.15])
#: correlation that the shared latent factor gives every pair of columns
LATENT_RHO = 0.1


def _intercept(lp: np.ndarray) -> float:
    """Intercept at which the mean event probability on this sample is
    EVENT_RATE (bisection; the mean is increasing in the intercept)."""
    lo, hi = -20.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(mid + lp)))) < EVENT_RATE:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_cohort(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, predictors) of an n-row cohort; a pure function of
    (seed, n)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed, n])))
    p = len(CONTINUOUS) + len(PREVALENCE)
    z = (np.sqrt(1.0 - LATENT_RHO) * rng.standard_normal((n, p))
         + np.sqrt(LATENT_RHO) * rng.standard_normal((n, 1)))
    x = np.empty((n, p))
    for j, (mean, sd) in enumerate(CONTINUOUS):
        x[:, j] = np.round(mean + sd * z[:, j], 6)
    for k, prev in enumerate(PREVALENCE):
        j = len(CONTINUOUS) + k
        x[:, j] = z[:, j] > NormalDist().inv_cdf(1.0 - prev)
    lp = x @ SLOPES
    eta = _intercept(lp) + lp
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
    return y, x


def write_csv(path, y: np.ndarray, x: np.ndarray) -> None:
    """Header `y,x1,...,xp`; every value printed so that it reads back
    exactly."""
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(x.shape[1])])
    np.savetxt(path, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
               header=header, comments="")
