"""Check the placement C-statistic and DeLong variance against the midrank
forms they replaced, byte for byte.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/check_ranks.py

The reference is the midrank `c_statistic_value` and `delong_variance`
kept verbatim in tests/oracles.py. Two comparisons:

- metrics.c_statistic_value and metrics.delong_variance on 10**5 random
  inputs of 2 to 10**4 rows (log-uniform), with distinct scores, heavy
  ties, and ±inf, -0.0 and 0.0 among them, one NaN in some inputs, and
  event fractions from none to all: the same bytes, or MetricError from
  both;
- the same two on the estimand's input: true_risk_score-rounded linear
  predictors of 500,000 rows with their outcomes, drawn as
  estimate_true_auc draws them, at seeds 1 and 2 for scenarios 1, 4, 5
  and 8: 8 and 17 predictors, both coefficient types and both event
  fractions (the intercept calibrated on 200,000 rows).

Prints one line per comparison and exits with status 1 at the first
mismatch. Takes about a minute and a half on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from bootval.metrics import MetricError, c_statistic_value, delong_variance
from bootval.models import logistic
from bootval.resampling import stream
from bootval.simulation import (CovariateGenerator, GeneratorConfig,
                                ScenarioSpec, _sample_lp,
                                calibrate_intercept, columns_for_p,
                                true_risk_score)
from oracles import midrank_c_statistic, midrank_delong_variance

INPUTS = 100_000
MAX_ROWS = 10_000
SPECIAL = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, np.inf])
SCENARIOS = (1, 4, 5, 8)
SEEDS = (1, 2)
ESTIMAND_N = 500_000
CALIBRATION_N = 200_000
PAIRS = ((c_statistic_value, midrank_c_statistic),
         (delong_variance, midrank_delong_variance))


def fail(what: str) -> None:
    print(f"MISMATCH: {what}")
    sys.exit(1)


def compare(scores: np.ndarray, outcomes: np.ndarray, what: str) -> str:
    """'equal', 'raise' or 'nan' when both paths agree; fails otherwise."""
    kinds = []
    for ours, reference in PAIRS:
        try:
            want = reference(scores, outcomes)
        except MetricError:
            try:
                ours(scores, outcomes)
            except MetricError:
                kinds.append("raise")
                continue
            fail(f"{what}: {ours.__name__} did not raise")
        got = ours(scores, outcomes)
        if (type(got) is not type(want) or np.float64(got).tobytes()
                != np.float64(want).tobytes()):
            fail(f"{what}: {ours.__name__} {got!r} against {want!r}")
        kinds.append("nan" if np.isnan(got) else "equal")
    return kinds[0]


def random_input(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = int(np.exp(rng.uniform(np.log(2), np.log(MAX_ROWS + 0.5))))
    kind = rng.integers(4)
    if kind == 0:
        scores = rng.normal(size=n)
    elif kind == 1:
        levels = int(rng.integers(1, 20))
        scores = rng.integers(0, levels, size=n) / levels
    elif kind == 2:
        scores = rng.choice(SPECIAL, size=n)
    else:
        scores = rng.normal(size=n)
        mixed = rng.random(n) < rng.random()
        scores[mixed] = rng.choice(SPECIAL, size=int(mixed.sum()))
    if rng.random() < 0.05:
        scores[rng.integers(n)] = np.nan
    outcomes = (rng.random(n) < rng.random()).astype(np.float64)
    return scores, outcomes


def check_random() -> dict[str, int]:
    rng = np.random.default_rng(20261019)
    tally = {"equal": 0, "raise": 0, "nan": 0}
    for i in range(INPUTS):
        scores, outcomes = random_input(rng)
        tally[compare(scores, outcomes, f"random input {i}")] += 1
    return tally


def check_estimand(scenario: int, seed: int) -> tuple[float, float]:
    spec = ScenarioSpec(scenario)
    config = GeneratorConfig.default()
    gen = CovariateGenerator(config)
    slopes = config.coefficients[(spec.p, spec.coefficient_type)]
    beta0 = calibrate_intercept(gen, slopes, spec.event_rate, spec.p,
                                sample_n=CALIBRATION_N, seed=seed)
    rng = stream(seed, 3, 1)
    lp = _sample_lp(gen, slopes, columns_for_p(spec.p), ESTIMAND_N, rng,
                    chunk=ESTIMAND_N)
    y = rng.random(ESTIMAND_N) < logistic(beta0 + lp)
    scores = true_risk_score(lp)
    what = f"scenario {scenario} seed {seed}"
    if compare(scores, y, what) != "equal":
        fail(f"{what}: not a finite C-statistic")
    return c_statistic_value(scores, y), delong_variance(scores, y)


def main() -> int:
    tally = check_random()
    print(f"random inputs: {INPUTS:,} of 2 to {MAX_ROWS:,} rows, "
          f"C-statistic and DeLong variance equal the midrank reference "
          f"({tally['equal']:,} finite, {tally['nan']:,} NaN, "
          f"{tally['raise']:,} raise in both)")
    for scenario in SCENARIOS:
        for seed in SEEDS:
            auc, var = check_estimand(scenario, seed)
            print(f"estimand scenario {scenario} seed {seed}: "
                  f"{ESTIMAND_N:,} rounded true risk scores, AUC {auc!r} "
                  f"and DeLong variance {var!r} equal the midrank "
                  f"reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
