"""A miniature coverage experiment with the simulation harness.

Runs scenario 1 of the study grid (EPV 10, event rate 0.125, 8 predictors,
n=640) at toy sizes so it finishes in seconds, and tabulates how
often each interval method captures the scenario's true AUC. Even at this
scale the apparent bootstrap interval's undercoverage is usually visible.

The full desk-scale study (scenarios 1, 5, 17, 21 at 200 replications,
B = inner_B = 200) is what scripts/run_coverage_study.sh regenerates; its
results ship in results/coverage_smoke.csv.
"""

from bootval.simulation import (GeneratorConfig, ScenarioSpec,
                                coverage_to_csv, run_scenario)


def main():
    spec = ScenarioSpec(1)
    print(f"scenario {spec.id}: EPV={spec.epv}, event rate="
          f"{spec.event_rate}, p={spec.p}, n={spec.n}")

    methods = ["delong", "apparent", "location-shift:harrell",
               "two-stage:harrell"]
    results = run_scenario(
        spec, methods,
        replications=20, B=50, inner_B=50, seed=1,
        config=GeneratorConfig.default(),
        calibration_n=100_000, estimand_n=50_000)

    print(f"\ntrue AUC estimand: {results[0].true_auc:.4f}")
    print(f"(20 replications only; binomial noise is about +/-0.1)\n")
    print(coverage_to_csv(results))


if __name__ == "__main__":
    main()
