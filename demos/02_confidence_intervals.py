"""All four confidence intervals for the C-statistic, side by side.

DeLong's interval and the apparent bootstrap interval are centered on the
apparent (optimistic) estimate. The location-shifted interval translates
the apparent interval by the estimated optimism, keeping its width exactly.
The two-stage interval re-runs the whole correction inside every outer
resample, so it also reflects the variability of the correction itself and
is typically wider.
"""

import numpy as np

from bootval import Dataset
from bootval.intervals import validate
from bootval.metrics import C_STATISTIC
from bootval.models import FitRecipe
from bootval.resampling import ResamplePlan


def main():
    rng = np.random.default_rng(7)
    n, p = 120, 8
    x = rng.normal(size=(n, p))
    eta = -1.0 + x[:, 0] - 0.6 * x[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    d = Dataset(y, x)

    recipe = FitRecipe("ml")
    plan = ResamplePlan(B=300, seed=42)
    inner_B = 300

    def show(label, est):
        print(f"{label:<28} {est.point:.4f} "
              f"({est.lower:.4f}, {est.upper:.4f})  width {est.width:.4f}")

    print(f"n={n}, p={p}, B={plan.B}, alpha=0.05")
    print(f"(the two-stage interval takes {plan.B} x {inner_B} "
          "resamples)...\n")
    # one apparent fit and one replicate set feed every interval
    delong, app_ci, ls, ts = validate(
        d, recipe, C_STATISTIC, plan,
        methods=["delong", "apparent", "location-shift:harrell",
                 "two-stage:harrell"],
        inner_B=inner_B).intervals
    show("DeLong (apparent)", delong)
    show("apparent bootstrap", app_ci)
    show("location-shifted (Harrell)", ls)
    print(f"{'':<28} shift = {ls.shift:.4f}; width identical to the "
          f"apparent interval: {ls.width == app_ci.width}")
    show("two-stage (Harrell)", ts)

if __name__ == "__main__":
    main()
