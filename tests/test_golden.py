"""Golden reports: `validate` and `simulate` outputs compared byte for byte
with files under tests/golden/, at 1 and 2 workers.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import os
from pathlib import Path

import numpy as np
import pytest

from bootval.cli import main
from bootval.data import Dataset

from conftest import make_dataset, save_csv

GOLDEN = Path(__file__).resolve().parent / "golden"


def cohort_80(path):
    save_csv(make_dataset(11, n=80, p=3), path, outcome_column="y")


def cohort_rare(path):
    """14 rows, 3 events: the two-stage interval's outer validity differs
    by correction (some outer resamples have no usable out-of-bag set)."""
    x = np.random.default_rng(1).normal(size=(14, 1))
    y = np.zeros(14)
    y[:3] = 1
    save_csv(Dataset(y, x), path, outcome_column="y")


def _validate(cohort, *extra):
    return cohort, ["validate", "--input", "cohort.csv",
                    "--outcome-column", "y", "--output", "report.json",
                    *extra]


#: name -> (cohort writer or None, CLI arguments, output files)
CASES = {
    "validate_cstat": (*_validate(cohort_80, "--B", "20", "--inner-B", "10",
                                  "--seed", "3"), ("report.json",)),
    "validate_slope": (*_validate(cohort_80, "--measure",
                                  "calibration-slope", "--ci-methods",
                                  "apparent,location-shift,two-stage",
                                  "--B", "20", "--inner-B", "10",
                                  "--seed", "3"), ("report.json",)),
    "validate_ridge": (*_validate(cohort_80, "--estimator", "ridge",
                                  "--penalty", "0.5", "--B", "8",
                                  "--inner-B", "4", "--seed", "3"),
                       ("report.json",)),
    "validate_ridge_cv": (*_validate(cohort_80, "--estimator", "ridge",
                                     "--ci-methods",
                                     "delong,apparent,location-shift",
                                     "--B", "3", "--seed", "3"),
                          ("report.json",)),
    "validate_lasso_cv": (*_validate(cohort_80, "--estimator", "lasso",
                                     "--B", "2", "--inner-B", "2",
                                     "--seed", "3"), ("report.json",)),
    "validate_rare": (*_validate(cohort_rare, "--B", "40", "--inner-B", "2",
                                 "--seed", "3"), ("report.json",)),
    "simulate_s1": (None, ["simulate", "--scenarios", "1", "--methods",
                           "delong,apparent,location-shift:harrell,"
                           "two-stage:harrell,two-stage:0.632",
                           "--replications", "2", "--B", "8", "--seed", "5",
                           "--calibration-n", "20000", "--estimand-n",
                           "2000", "--output-prefix", "cov"],
                    ("cov.csv", "cov.json")),
}


def run_case(name, workdir, workers):
    """Run one case inside workdir; returns {output file: bytes}."""
    cohort, argv, outputs = CASES[name]
    workdir.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        if cohort is not None:
            cohort("cohort.csv")
        assert main([*argv, "--workers", str(workers)]) == 0
        return {out: (workdir / out).read_bytes() for out in outputs}
    finally:
        os.chdir(old)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, workers, tmp_path):
    got = run_case(name, tmp_path, workers)
    for out, data in got.items():
        assert data == (GOLDEN / f"{name}.{out}").read_bytes(), out


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for out, data in run_case(name, Path(tmp) / name, 1).items():
                (GOLDEN / f"{name}.{out}").write_bytes(data)
                print(f"wrote golden/{name}.{out}")
