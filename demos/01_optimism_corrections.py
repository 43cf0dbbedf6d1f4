"""Optimism-corrected performance of a logistic model.

Fits a maximum-likelihood logistic model on a synthetic cohort, then shows
how much of its apparent C-statistic is optimism: the same bootstrap
replicate set feeds Harrell's bias correction and the 0.632 / 0.632+
estimators, so the three corrections are directly comparable.
"""

import numpy as np

from bootval import Dataset, class_counts
from bootval.intervals import validate
from bootval.metrics import C_STATISTIC
from bootval.models import FitRecipe
from bootval.optimism import METHODS
from bootval.resampling import ResamplePlan


def synthetic_cohort(seed: int, n: int = 150, p: int = 10) -> Dataset:
    """Small-EPV setting: plenty of noise predictors, so overfitting is
    visible."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    eta = -1.2 + x[:, 0] * 0.9 - x[:, 1] * 0.5  # only 2 real signals
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Dataset(y, x)


def main():
    d = synthetic_cohort(seed=2024)
    events, nonevents = class_counts(d)
    print(f"cohort: n={d.n}, p={d.p}, events={events} "
          f"(EPV = {events / d.p:.1f})")

    recipe = FitRecipe("ml")
    plan = ResamplePlan(B=500, seed=1)

    # one apparent fit and one replicate set, shared by all three corrections
    result = validate(d, recipe, C_STATISTIC, plan, corrections=METHODS)
    print(f"\napparent C-statistic: {result.apparent:.4f}")
    print("(the model is graded on the data it was trained on, so this "
          "overstates performance)")

    reps = result.replicates
    print(f"\nbootstrap replicates: {plan.B} "
          f"({int(reps.valid.sum())} valid, "
          f"{int(reps.oob_valid.sum())} with usable "
          f"out-of-bag sets)")

    print(f"\n{'method':<10} {'corrected':>10} {'optimism':>10}")
    for method in METHODS:
        res = result.corrections[method]
        print(f"{method:<10} {res.corrected:>10.4f} {res.optimism:>10.4f}")
        if res.R is not None:
            print(f"{'':<10} relative overfitting rate R = {res.R:.3f}, "
                  f"weight w = {res.w:.3f}")


if __name__ == "__main__":
    main()
