"""Validating penalized models: the tuning is part of what gets bootstrapped.

Ridge and lasso recipes carry their penalty-selection rule (10-fold CV over
a descending lambda grid) with them, so every bootstrap replicate re-selects
lambda on its own resample. This demo compares corrected C-statistics for
ML, ridge, and lasso on the same small-EPV cohort, and prints each lasso
fit's surviving predictors. Each validation spreads its replicates over
every CPU, as the command line does by default.
"""

import os

import numpy as np

from bootval import Dataset
from bootval.intervals import validate
from bootval.metrics import C_STATISTIC
from bootval.models import FitRecipe, lasso_lambda_max
from bootval.optimism import apparent_fit
from bootval.resampling import ResamplePlan


def main():
    rng = np.random.default_rng(31)
    n, p = 120, 12
    x = rng.normal(size=(n, p))
    eta = -1.0 + 0.8 * x[:, 0] - 0.6 * x[:, 1] + 0.4 * x[:, 2]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    d = Dataset(y, x)
    print(f"cohort: n={n}, p={p}, 3 true signals, "
          f"{int(y.sum())} events")
    print(f"lasso lambda_max = {lasso_lambda_max(d):.3f}\n")

    plan = ResamplePlan(B=100, seed=3)
    print(f"{'estimator':<8} {'apparent':>9} {'corrected':>10} "
          f"{'optimism':>9}")
    for estimator in ("ml", "ridge", "lasso"):
        # penalty=None -> CV-selected; a shorter grid keeps the demo quick
        recipe = FitRecipe(estimator, n_lambdas=40)
        res = validate(d, recipe, C_STATISTIC, plan, corrections=["harrell"],
                       workers=os.cpu_count() or 1).corrections["harrell"]
        print(f"{estimator:<8} {res.apparent:>9.4f} {res.corrected:>10.4f} "
              f"{res.optimism:>9.4f}")
        if estimator == "lasso":
            model = apparent_fit(d, recipe, plan)
            kept = np.flatnonzero(model.slopes != 0.0)
            print(f"{'':<8} selected lambda = {model.penalty:.4f}; "
                  f"nonzero slopes at columns {kept.tolist()}")


if __name__ == "__main__":
    main()
