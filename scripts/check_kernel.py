"""Check the count kernel against its earlier form, byte for byte.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/check_kernel.py

The reference is the Newton fit, C-statistic and outer-product table kept
verbatim in tests/oracles.py. Cohorts come from the simulation's generator
at the shapes of scenarios 1, 5, 17 and 21 (8 or 17 predictors, 640 to
5,440 rows, event fraction 0.125), two cohorts each, and from small
subsets of them with one or two events, whose resamples are redrawn. Blocks
of 1 to 100 replicates are drawn as optimism._counts_block draws them,
from the dataset's patterns and, as a two-stage outer replicate draws its
inner blocks, from patterns restricted to an outer resample. Four
comparisons:

- fit_ml_counts against the reference fit, on the bytes of the
  coefficients; the restricted patterns' fit against the reference fit on
  Patterns(d.subset(rows));
- c_statistics against the reference on the bytes of the C-statistics of
  each block on itself, on every row and out of bag;
- Patterns.restrict(rows)._zz against Patterns(d.subset(rows))._zz and the
  reference table, byte for byte;
- the starting linear predictor: b @ z.T equals the intercept repeated,
  and its logistic the repeated logistic of the intercept, byte for byte.

Prints one line per scenario and one per comparison, and exits with status
1 at the first mismatch. Takes about ten minutes on one core.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from bootval.data import Dataset
from bootval.kernel import Patterns, c_statistics, fit_ml_counts, risk_scores
from bootval.models import MAX_ITER, TOL, logistic
from bootval.optimism import two_class_block, two_class_draw
from bootval.resampling import ResamplePlan, draw_block, inner_level
from bootval.simulation import (CovariateGenerator, GeneratorConfig,
                                ScenarioSpec, TrueModel, calibrate_intercept,
                                generate_cohort)
from oracles import (kernel_c_statistics, kernel_fit_ml_counts,
                     kernel_outer_products)

SCENARIOS = (1, 5, 17, 21)
COHORT_SEEDS = (1, 2)
#: replicates per block, cycled; 100 is optimism.BLOCK
SIZES = (1, 2, 3, 5, 8, 13, 21, 40, 100)
#: (top-level blocks, outer replicates, inner blocks per outer replicate)
#: per cohort, fewer where a block costs more
PLAN = {1: (1500, 60, 8), 5: (500, 50, 6), 17: (600, 40, 5),
        21: (150, 25, 4)}
#: (rows, events) of the small subsets, and blocks on each
SMALL = ((8, 1), (12, 1), (12, 2), (20, 1), (30, 2))
SMALL_BLOCKS = 60

totals = dict.fromkeys(("blocks", "replicates", "restricted", "cstats",
                        "tables", "starts", "redrawn"), 0)


def fail(what: str) -> None:
    print(f"MISMATCH: {what}")
    sys.exit(1)


def cohort(spec: ScenarioSpec, gen, config, seed: int) -> Dataset:
    slopes = config.coefficients[(spec.p, spec.coefficient_type)]
    beta0 = calibrate_intercept(gen, slopes, spec.event_rate, spec.p,
                                sample_n=100_000, seed=seed)
    return generate_cohort(gen, TrueModel(beta0, slopes), spec.p, spec.n,
                           seed)


def check_start(pat: Patterns, events, trials, where: str) -> None:
    ybar = events.sum(axis=1) / trials.sum(axis=1)
    b = np.zeros((events.shape[0], pat.z.shape[1]))
    b[:, 0] = np.log(ybar / (1.0 - ybar))
    eta = np.repeat(b[:, :1], pat.k, axis=1)
    if (b @ pat.z.T).tobytes() != eta.tobytes():
        fail(f"starting eta {where}")
    if logistic(eta).tobytes() != np.repeat(logistic(b[:, :1]), pat.k,
                                            axis=1).tobytes():
        fail(f"starting p {where}")
    totals["starts"] += 1


def check_block(pat: Patterns, rows: np.ndarray, ref: Patterns,
                where: str) -> None:
    """Fit and grade the resamples rows of pat's dataset as the kernel
    and, on ref (pat's equal), as the reference."""
    events, trials = pat.counts(rows)
    check_start(pat, events, trials, where)
    beta = fit_ml_counts(pat, events, trials, MAX_ITER, TOL)
    want = kernel_fit_ml_counts(ref, events, trials, MAX_ITER, TOL)
    if beta.tobytes() != want.tobytes():
        fail(f"fit_ml_counts {where}")
    samples = [(events, trials), pat.counts(np.arange(pat.index.shape[0])),
               pat.counts_outside(rows)]
    scores = risk_scores(pat, beta)
    for i, (got, ref_c) in enumerate(zip(
            c_statistics(scores, samples),
            kernel_c_statistics(scores, samples))):
        if got.tobytes() != ref_c.tobytes():
            fail(f"c_statistics sample {i} {where}")
    totals["blocks"] += 1
    totals["replicates"] += rows.shape[0]
    totals["cstats"] += rows.shape[0] * len(samples)


def two_class_rows(d: Dataset, plan: ResamplePlan, r: int) -> np.ndarray:
    rows, ok = two_class_block(d, plan, range(r))
    return rows[ok]


def check_restrict(parent: Patterns, d: Dataset, idx, where: str):
    pat, ref = parent.restrict(idx), Patterns(d.subset(idx))
    table = pat._zz.tobytes()
    if (table != ref._zz.tobytes()
            or table != kernel_outer_products(ref.z).tobytes()):
        fail(f"restrict _zz {where}")
    totals["tables"] += 1
    return pat, ref


def check_cohort(d: Dataset, scenario: int, seed: int, label: str) -> None:
    parent = Patterns(d)
    if parent._zz.tobytes() != kernel_outer_products(parent.z).tobytes():
        fail(f"Patterns _zz {label}")
    top, outer, inner = PLAN[scenario]
    for j in range(top):
        r = SIZES[j % len(SIZES)]
        plan = ResamplePlan(r, seed, inner_level(10**6 + j))
        check_block(parent, two_class_rows(d, plan, r), parent,
                    f"{label} top block {j} R={r}")
    plan = ResamplePlan(outer, seed)
    for b in range(outer):
        idx = two_class_draw(d, plan, b)
        pat, ref = check_restrict(parent, d, idx, f"{label} outer {b}")
        sub = d.subset(idx)
        for j in range(inner):
            r = SIZES[(b + j) % len(SIZES)]
            inner_plan = ResamplePlan(r, seed + j, inner_level(b))
            check_block(pat, two_class_rows(sub, inner_plan, r), ref,
                        f"{label} outer {b} inner block {j} R={r}")
            totals["restricted"] += 1


def check_small(d: Dataset, seed: int, label: str) -> None:
    """Subsets with one or two events, where some first draws lack an
    event and are redrawn."""
    ones = np.flatnonzero(d.outcomes == 1)
    zeros = np.flatnonzero(d.outcomes == 0)
    for n, events in SMALL:
        sub = d.subset(np.concatenate([ones[:events],
                                       zeros[:n - events]]))
        pat = Patterns(sub)
        for j in range(SMALL_BLOCKS):
            r = SIZES[j % len(SIZES)]
            plan = ResamplePlan(r, seed + j)
            rows, ok = two_class_block(sub, plan, range(r))
            first = sub.outcomes[draw_block(plan, range(r), n)].sum(axis=1)
            totals["redrawn"] += int(((first == 0) | (first == n)).sum())
            if ok.any():
                check_block(pat, rows[ok], pat,
                            f"{label} small n={n} events={events} "
                            f"block {j} R={r}")


def main() -> int:
    config = GeneratorConfig.default()
    gen = CovariateGenerator(config)
    for scenario in SCENARIOS:
        spec = ScenarioSpec(scenario)
        start = time.perf_counter()
        before = dict(totals)
        for seed in COHORT_SEEDS:
            d = cohort(spec, gen, config, seed)
            label = f"scenario {scenario} seed {seed}"
            check_cohort(d, scenario, seed, label)
            check_small(d, seed, label)
        print(f"scenario {scenario} (n={spec.n}, p={spec.p}): "
              f"{totals['blocks'] - before['blocks']:,} blocks equal, "
              f"{time.perf_counter() - start:.0f} s", flush=True)
    print(f"fit_ml_counts: {totals['blocks']:,} blocks "
          f"({totals['replicates']:,} replicates, "
          f"{totals['restricted']:,} blocks on restricted patterns) give the "
          f"reference coefficients' bytes")
    print(f"c_statistics: {totals['cstats']:,} C-statistics (in-bag, every "
          f"row, out of bag) equal the reference's bytes; "
          f"{totals['redrawn']:,} first draws lacked a class")
    print(f"restrict: {totals['tables']:,} restricted _zz tables equal "
          f"Patterns(d.subset(rows))._zz and the reference table")
    print(f"starting eta: {totals['starts']:,} blocks' b @ z.T and its "
          f"logistic equal the repeated intercept's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
