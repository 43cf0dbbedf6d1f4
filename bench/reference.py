"""Reference figures for bench/README.md, measured with the benchmark's
own process timing (bench/run.py `invoke`).

Usage (from the root of a checkout):

    python3 bench/reference.py [--repeats N]

Prints the share of distinct predictor rows in the benchmark's inputs; for
each configuration below, the wall time, CPU time and peak resident set of
N command-line runs at two workers; and each workload's wall time at one
worker untraced and traced (2N pairs), which gives the tracing overhead.
Takes about twenty minutes at the default of 3 repeats.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys

import numpy as np

import run
from cohorts import make_cohort, write_csv


class Command:
    """A fixed command line, for `run.invoke`."""

    refits = 1

    def __init__(self, *argv):
        self.args = [str(a) for a in argv]

    def argv(self, workers: int) -> list[str]:
        return self.args + ["--workers", str(workers)]

    def output(self) -> bytes:
        return b""


def configurations(work):
    s21, s5 = work / "s21.csv", work / "s5.csv"
    write_csv(s21, *make_cohort(1, 5440))
    write_csv(s5, *make_cohort(1, 1360))

    def validate(path, *extra):
        return Command("validate", "--input", path, "--outcome-column", "y",
                       "--seed", 1, "--output", work / "report.json", *extra)

    yield ("validate s21-shaped, B=100, inner_B=50, three corrections",
           validate(s21, "--B", 100, "--inner-B", 50), True)
    yield ("validate s21-shaped, B=100, inner_B=50, --corrections harrell",
           validate(s21, "--B", 100, "--inner-B", 50,
                    "--corrections", "harrell"), True)
    yield ("validate s21-shaped, B=100, no two-stage",
           validate(s21, "--B", 100,
                    "--ci-methods", "delong,apparent,location-shift"), True)
    yield ("simulate scenario 1, 8 replications, B=inner_B=100",
           Command("simulate", "--scenarios", 1, "--replications", 8,
                   "--B", 100, "--seed", 1,
                   "--output-prefix", work / "sim"), True)
    yield ("validate --estimator lasso s5-shaped, B=8",
           validate(s5, "--estimator", "lasso", "--B", 8,
                    "--ci-methods", "delong,apparent,location-shift"), True)
    for pinned in (True, False):
        yield (f"validate s21-shaped, B=100, inner_B=10, "
               f"{'one BLAS thread' if pinned else 'default BLAS threads'}",
               validate(s21, "--B", 100, "--inner-B", 10), pinned)


def distinct_rows():
    """Distinct predictor rows of each workload's inputs, seeds 1 to 10."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from bootval.resampling import stream
    from bootval.simulation import CovariateGenerator, GeneratorConfig

    gen = CovariateGenerator(GeneratorConfig.default())
    share = {"sim-s1 (scenario-1 generator, n = 640)": [
        len(np.unique(gen.sample(640, stream(s, 3, 1))[:, :8], axis=0))
        for s in range(1, 11)]}
    for name, n in (("validate-s21", 5440), ("validate-lasso", 1360)):
        share[f"{name} (n = {n})"] = [
            len(np.unique(make_cohort(s, n)[1], axis=0))
            for s in range(1, 11)]
    for name, counts in share.items():
        print(f"{name}: distinct rows {min(counts)}-{max(counts)}, "
              f"median {statistics.median(counts)}")


def tracing_overhead(work, repeats: int):
    """Each workload at one worker (seed 1), untraced and traced in turn;
    the pairs alternate which runs first."""
    for workload in run.WORKLOADS.values():
        workload.prepare(1, work)
        walls = {"plain": [], "trace": []}
        for i in range(2 * repeats):
            for mode in ("plain", "trace")[::1 if i % 2 else -1]:
                walls[mode].append(run.invoke(workload, mode, 1,
                                              work)["wall_s"])
        plain, traced = (statistics.median(walls[m]) for m in walls)
        print(f"{workload.name}, one worker: untraced {plain:.2f} s, "
              f"traced {traced:.2f} s, overhead {traced / plain - 1:+.1%}",
              flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    work = run.BENCH / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        distinct_rows()
        imports = []
        for label, command, pinned in configurations(work):
            runs = [run.invoke(command, "plain", run.WORKERS, work,
                               pin_blas=pinned)
                    for _ in range(args.repeats)]
            if not all(r["ok"] for r in runs):
                print(f"{label}: failed", file=sys.stderr)
                return 1
            imports += [r["hooks"]["import_s"] for r in runs]
            cells = []
            for key, unit in (("wall_s", "s"), ("cpu_s", "s CPU"),
                              ("peak_rss_mb", "MiB")):
                v = [r[key] for r in runs]
                cells.append(f"{statistics.median(v):.1f} {unit} "
                             f"[{min(v):.1f}-{max(v):.1f}]")
            print(f"{label}: " + ", ".join(cells), flush=True)
        print(f"import bootval.cli: {min(imports):.2f}-{max(imports):.2f} s")
        tracing_overhead(work, args.repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
