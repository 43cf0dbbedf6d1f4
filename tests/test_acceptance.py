"""Acceptance suite: the nine criteria, each with its stated tolerance.

Criterion 7 validates the bundled desk-scale coverage study artifact
(results/coverage_smoke.csv); regenerate it with
scripts/run_coverage_study.sh. Criterion 8 needs the external GUSTO-I
West-region CSV and is skipped unless BOOTVAL_GUSTO_CSV points at it.
"""

import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bootval.cli import main
from bootval.data import Dataset, load_csv
from bootval.metrics import c_statistic_value
from bootval.models import FitRecipe, fit_ml, fit_penalized
from bootval.optimism import (ReplicateSet, harrell_from_replicates,
                              p632_from_replicates,
                              p632plus_from_replicates)
from bootval.intervals import validate
from bootval.resampling import ResamplePlan, draw

from conftest import make_dataset, save_csv
from oracles import (auc_bruteforce, log_likelihood, log_likelihood_gradient,
                     two_stage_reference)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_criterion_1_auc_oracle_equivalence():
    """1,000 random instances (n <= 200, ties injected): exact equality,
    under 10 s."""
    rng = np.random.default_rng(20260823)
    t0 = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        scores = rng.random(n)
        # inject ties by rounding a random subset to one decimal
        tie_mask = rng.random(n) < 0.5
        scores[tie_mask] = np.round(scores[tie_mask], 1)
        y = rng.integers(0, 2, size=n)
        if not 0 < y.sum() < n:
            y[0], y[1] = 0, 1
        fast = c_statistic_value(scores, y)
        oracle = auc_bruteforce(scores, y)
        assert fast == oracle
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_gradient_check():
    """Analytic gradient vs central differences at 100 random points,
    relative error < 1e-6."""
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(20, 80))
        p = int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n).astype(float)
        if not 0 < y.sum() < n:
            y[0], y[1] = 0.0, 1.0
        d = Dataset(y, x)
        beta = rng.normal(scale=0.5, size=p + 1)
        grad = log_likelihood_gradient(beta, d)
        h = 1e-5
        fd = np.empty(p + 1)
        for j in range(p + 1):
            e = np.zeros(p + 1)
            e[j] = h
            fd[j] = (log_likelihood(beta + e, d)
                     - log_likelihood(beta - e, d)) / (2.0 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)
        assert rel < 1e-6


def test_criterion_3_ridge_lambda_zero_agreement():
    """Ridge at lambda=0 matches fit_ml within 1e-6 on 50 datasets
    (n=200, p=8)."""
    worst = 0.0
    for seed in range(50):
        d = make_dataset(300 + seed, n=200, p=8,
                         slopes=0.4 * (-0.7) ** np.arange(8))
        m_ml = fit_ml(d)
        m_rg = fit_penalized(d, FitRecipe("ridge", penalty=0.0))
        worst = max(worst, abs(m_ml.intercept - m_rg.intercept),
                    float(np.max(np.abs(m_ml.slopes - m_rg.slopes))))
    assert worst < 1e-6


def test_criterion_4_formula_identities_exact():
    """0.632 convex combination, 0.632+ weight limits, Harrell identity,
    and the location-shift bound/width identities, all exact."""
    def reps(boot, orig, out):
        return ReplicateSet(np.array([boot]), np.array([orig]),
                            np.array([out]))

    # 0.632 convex combination with the literal constants
    r = p632_from_replicates(0.9, reps(0.9, 0.9, 0.8))
    assert r.corrected == 0.368 * 0.9 + 0.632 * 0.8

    # 0.632+ limits: R=0 => w=0.632; R=1 => w=1
    r0 = p632plus_from_replicates(0.8, reps(0.8, 0.8, 0.8), 0.5)
    assert r0.R == 0.0 and r0.w == 0.632
    r1 = p632plus_from_replicates(0.9, reps(0.9, 0.9, 0.5), 0.5)
    assert r1.R == 1.0 and r1.w == 1.0

    # Harrell: corrected = apparent - optimism, exactly
    h = harrell_from_replicates(
        0.84, ReplicateSet(np.array([0.90, 0.88]), np.array([0.85, 0.87]),
                           np.full(2, np.nan)))
    assert h.corrected == h.apparent - h.optimism

    # location-shift: bounds = apparent bounds - shift; width identical
    for seed in range(20):
        d = make_dataset(400 + seed, n=70, p=3)
        recipe = FitRecipe("ml")
        plan = ResamplePlan(40, seed)
        corrections = ("harrell", "0.632", "0.632plus")
        app, *shifted = validate(
            d, recipe, "c-statistic", plan,
            methods=["apparent", *(f"location-shift:{c}"
                                   for c in corrections)]).intervals
        for correction, ls in zip(corrections, shifted):
            assert ls.correction == correction
            assert ls.lower == app.lower - ls.shift
            assert ls.upper == app.upper - ls.shift
            assert ls.width == app.width


def test_criterion_5_two_stage_oracle_equality():
    """two_stage_ci equals the independent straight-line oracle exactly on
    n=60, p=2, B=inner_B=50, shared seed; under 60 s."""
    t0 = time.monotonic()
    d = make_dataset(500, n=60, p=2)
    recipe = FitRecipe("ml")
    plan = ResamplePlan(50, 123)
    est = validate(d, recipe, "c-statistic", plan,
                   methods=["two-stage:harrell"], inner_B=50, alpha=0.05,
                   workers=1).intervals[0]
    ref = two_stage_reference(d, recipe, "harrell", 50, 50, 123, 0.05)
    assert (est.point, est.lower, est.upper) == ref
    assert time.monotonic() - t0 < 60.0


def test_criterion_6_determinism_under_parallelism(tmp_path):
    """validate and simulate outputs are byte-identical at worker counts
    1, 4, and 8 with a fixed seed."""
    d = make_dataset(600, n=80, p=2)
    csv_in = tmp_path / "dev.csv"
    save_csv(d, csv_in, outcome_column="y")

    validate_outputs = []
    for w in (1, 4, 8):
        out = tmp_path / f"v{w}.json"
        rc = main(["validate", "--input", str(csv_in),
                   "--outcome-column", "y", "--B", "24", "--seed", "5",
                   "--workers", str(w), "--output", str(out)])
        assert rc == 0
        validate_outputs.append(out.read_bytes())
    assert validate_outputs[0] == validate_outputs[1] == validate_outputs[2]

    simulate_outputs = []
    for w in (1, 4, 8):
        prefix = tmp_path / f"s{w}"
        rc = main(["simulate", "--scenarios", "1",
                   "--methods", "delong,apparent,location-shift:harrell",
                   "--replications", "2", "--B", "8", "--seed", "5",
                   "--workers", str(w), "--calibration-n", "20000",
                   "--estimand-n", "2000", "--output-prefix", str(prefix)])
        assert rc == 0
        simulate_outputs.append(
            (prefix.with_suffix(".csv").read_bytes(),
             prefix.with_suffix(".json").read_bytes()))
    assert simulate_outputs[0] == simulate_outputs[1] == simulate_outputs[2]


#: The study parameters criterion 7 states; an artifact made at other sizes
#: does not pass.
COVERAGE_META = {"scenarios": [1, 5, 17, 21], "replications": 200,
                 "B": 200, "inner_B": 200, "seed": 1,
                 "calibration_n": 1_000_000, "estimand_n": 500_000,
                 "rng_scheme": "philox-seedsequence-keyed"}


def _load_coverage():
    csv_path = REPO_ROOT / "results" / "coverage_smoke.csv"
    json_path = csv_path.with_suffix(".json")
    for path in (csv_path, json_path):
        if not path.exists():
            pytest.fail(
                f"results/{path.name} missing; regenerate it with "
                "scripts/run_coverage_study.sh (several hours)")
    report = json.loads(json_path.read_text())
    for key, want in COVERAGE_META.items():
        got = report["meta"].get(key)
        assert got == want, (
            f"coverage artifact has {key}={got!r}; criterion 7 needs {want!r}")
    table = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["scenario"]), row["method"])
            table[key] = (float(row["coverage"]), float(row["mean_width"]),
                          int(row["replications"]))
    # the CSV prints 6 significant digits, the JSON rounds to 6 decimals
    results = {(r["scenario"], r["method"]): r for r in report["results"]}
    assert set(results) == set(table), "CSV and JSON rows differ"
    for key, (cov, width, n) in table.items():
        r = results[key]
        assert (cov, n) == (r["coverage"], r["replications"]), key
        assert abs(width - r["mean_width"]) <= 1e-6, key
    return table


def test_criterion_7_desk_scale_coverage_study():
    """Scenarios 1, 5, 17, 21 at 200 replications, B=inner_B=200:
    (a) two-stage Harrell coverage in [0.91, 0.99] everywhere;
    (b) apparent < location-shifted coverage in scenarios 5 and 21;
    (c) location-shifted coverage >= 0.88 in scenarios 17 and 21."""
    table = _load_coverage()
    scenarios = (1, 5, 17, 21)
    for sid in scenarios:
        cov, _, n = table[(sid, "two-stage:harrell")]
        assert n >= 190, f"scenario {sid}: too many failed replications"
        assert 0.91 <= cov <= 0.99, (
            f"scenario {sid}: two-stage coverage {cov}")
    for sid in (5, 21):
        app, _, _ = table[(sid, "apparent")]
        shifted, _, _ = table[(sid, "location-shift:harrell")]
        assert app < shifted, (
            f"scenario {sid}: apparent {app} !< location-shifted {shifted}")
    for sid in (17, 21):
        shifted, _, _ = table[(sid, "location-shift:harrell")]
        assert shifted >= 0.88, (
            f"scenario {sid}: location-shifted coverage {shifted}")


@pytest.mark.skipif("BOOTVAL_GUSTO_CSV" not in os.environ,
                    reason="GUSTO-I West-region CSV not supplied "
                           "(set BOOTVAL_GUSTO_CSV)")
def test_criterion_8_gusto_reproduction(tmp_path):
    """Conditional reproduction of the published GUSTO-I validation values
    (8- and 17-variable ML models, B=2000)."""
    d17 = load_csv(os.environ["BOOTVAL_GUSTO_CSV"], "y")
    assert d17.p == 17
    d8 = d17.subset(np.arange(d17.n))
    d8 = Dataset(d17.outcomes, d17.predictors[:, :8], d17.names[:8])
    recipe = FitRecipe("ml")
    plan = ResamplePlan(2000, 1)

    v8 = validate(d8, recipe, "c-statistic", plan, ["harrell"],
                  ["delong", "location-shift:harrell", "two-stage:harrell"],
                  inner_B=2000)
    v17 = validate(d17, recipe, "c-statistic", plan, ["harrell"],
                   ["delong"])
    assert abs(v8.apparent - 0.819) <= 0.001
    assert abs(v17.apparent - 0.832) <= 0.001

    dl8, ls8, ts8 = v8.intervals
    assert abs(dl8.lower - 0.783) <= 0.002
    assert abs(dl8.upper - 0.854) <= 0.002
    dl17 = v17.intervals[0]
    assert abs(dl17.lower - 0.796) <= 0.002
    assert abs(dl17.upper - 0.867) <= 0.002

    h8 = v8.corrections["harrell"]
    h17 = v17.corrections["harrell"]
    assert abs(h8.corrected - 0.810) <= 0.003
    assert abs(h17.corrected - 0.811) <= 0.003

    assert abs(ls8.lower - 0.777) <= 0.005
    assert abs(ls8.upper - 0.846) <= 0.005
    assert abs(ts8.lower - 0.777) <= 0.005
    assert abs(ts8.upper - 0.850) <= 0.005


def test_criterion_9_oob_fraction():
    """Mean out-of-bag fraction over 10^4 draws at n=1000 is
    0.368 +/- 0.005."""
    n = 1000
    plan = ResamplePlan(10_000, 9)
    total = 0
    for r in range(plan.B):
        total += np.count_nonzero(
            np.bincount(draw(plan, r, n), minlength=n) == 0)
    frac = total / (plan.B * n)
    assert abs(frac - 0.368) <= 0.005
