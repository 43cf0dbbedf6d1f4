"""Benchmark of the `bootval` command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run makes its inputs from --seed, then starts the command line again
and again, at two workers and one BLAS thread per process, for about S
seconds; a new invocation starts only while the median invocation still fits
in the time left, so every invocation is a whole operation. After timing it
checks the outputs and prints one JSON line as the last line of standard
output: with --trace 0 the end-to-end metrics of BENCHMARK.json (medians
over the invocations), with --trace 1 its per-layer metrics, from a traced
invocation at one worker and an invocation at two workers that times only
the process maps. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from cohorts import make_cohort, write_csv
from launch import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS = 2


class SimS1:
    """`bootval simulate` on scenario 1 with the default methods, sizes of
    calibration and estimand, and B = inner_B."""

    name = "sim-s1"
    replications = 4
    B = 100
    estimand_n = 500_000  # the command line's default
    event_rate = 0.125  # scenario 1
    refits = replications * (1 + B + B * (1 + B))

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.prefix = work / "sim"

    def argv(self, workers: int) -> list[str]:
        return ["simulate", "--scenarios", "1",
                "--replications", str(self.replications),
                "--B", str(self.B), "--inner-B", str(self.B),
                "--seed", str(self.seed), "--workers", str(workers),
                "--output-prefix", str(self.prefix)]

    def output(self) -> bytes:
        return self.prefix.with_suffix(".json").read_bytes()

    def check(self, output: bytes) -> list[str]:
        result = json.loads(output)
        reference = checks.reference_true_auc(
            ROOT / "results" / "coverage_smoke.csv", 1)
        return checks.check_simulate(result, self.replications,
                                     self.estimand_n, self.event_rate,
                                     reference)


class Validate:
    """`bootval validate` with the C-statistic and all three corrections on
    a cohort CSV the benchmark writes from its seed."""

    def __init__(self, name, n, B, inner_B, estimator, ci_methods):
        self.name, self.n, self.B, self.inner_B = name, n, B, inner_B
        self.estimator, self.ci_methods = estimator, ci_methods
        self.two_stage = "two-stage" in ci_methods
        self.refits = 1 + B + (3 * B * (1 + inner_B) if self.two_stage
                               else 0)

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.y, self.x = make_cohort(seed, self.n)
        self.csv = work / "cohort.csv"
        self.report = work / "report.json"
        write_csv(self.csv, self.y, self.x)

    def argv(self, workers: int) -> list[str]:
        out = ["validate", "--input", str(self.csv), "--outcome-column", "y",
               "--estimator", self.estimator, "--measure", "c-statistic",
               "--corrections", ",".join(checks.CORRECTIONS),
               "--ci-methods", ",".join(self.ci_methods),
               "--B", str(self.B), "--seed", str(self.seed),
               "--workers", str(workers), "--output", str(self.report)]
        if self.inner_B:
            out += ["--inner-B", str(self.inner_B)]
        return out

    def output(self) -> bytes:
        return self.report.read_bytes()

    def check(self, output: bytes) -> list[str]:
        report = json.loads(output)
        failures = checks.check_validate(report, self.B, self.inner_B,
                                         self.two_stage)
        if self.estimator == "ml":
            failures += checks.check_against_reference(report, self.y,
                                                       self.x)
        return failures


WORKLOADS = {w.name: w for w in (
    SimS1(),
    Validate("validate-s21", 5440, B=40, inner_B=40, estimator="ml",
             ci_methods=("delong", "apparent", "location-shift",
                         "two-stage")),
    Validate("validate-lasso", 1360, B=8, inner_B=None, estimator="lasso",
             ci_methods=("delong", "apparent", "location-shift")),
)}


def child_env(pin_blas: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if pin_blas:
        # one BLAS thread per process: at the default every pool worker
        # starts its own BLAS threads and the cores are oversubscribed
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def invoke(workload, mode: str, workers: int, work: Path,
           pin_blas: bool = True) -> dict:
    """One command-line process, timed from launch to exit. CPU time and
    peak resident set come from wait4, so they cover the pool workers the
    process started and reaped. Set-up ends at the first process map."""
    hooks = work / "hooks.json"
    hooks.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), str(hooks), mode,
           *workload.argv(workers)]
    with open(work / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(pin_blas),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((work / "stderr.txt").read_text()[-2000:])
        return {"ok": False}
    marks = json.loads(hooks.read_text())
    setup = marks["first_map"] - start
    return {"ok": True, "wall_s": wall, "setup_s": setup,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "refits_per_s": workload.refits / (wall - setup),
            "hooks": marks, "output": workload.output()}


def timed_rounds(seconds: float, one_round) -> list:
    """Whole rounds for about `seconds`: at least one, and another only
    while the median round still fits in the time left."""
    start = time.monotonic()
    rounds, durations = [], []
    while True:
        t = time.monotonic()
        rounds.append(one_round())
        durations.append(time.monotonic() - t)
        if (time.monotonic() - start + statistics.median(durations)
                > seconds):
            return rounds


def layer_metrics(trace: dict, maps: dict) -> dict:
    """Per-layer metrics from one traced invocation at one worker and one
    invocation at two workers that timed only the process maps. Every
    traced function gives `<span>_calls` and `<span>_s`; a layer the
    workload does not reach reads 0."""
    total, calls = trace["total"], trace["calls"]
    out = {}
    for name in [span for span, *_ in LAYERS] + ["data.subset"]:
        out[f"{name}_calls"] = calls.get(name, 0)
        out[f"{name}_s"] = total.get(name, 0.0)
    out.update(trace["counts"])
    map_one, map_two = total["resampling.map"], maps["total"]["resampling.map"]
    out.update({"cli.import_s": trace["import_s"],
                "resampling.map_calls": calls["resampling.map"],
                "resampling.map_s": map_two,
                "resampling.pool_speedup": map_one / map_two,
                "optimism.evaluate_s": trace["self"].get("optimism.evaluate",
                                                         0.0)})
    return out


def run(workload, seconds: float, trace: bool, work: Path, spec: dict):
    """Timed rounds, then output checks; returns the result object."""
    if trace:
        def one_round():
            return [invoke(workload, "trace", 1, work),
                    invoke(workload, "maps", WORKERS, work)]
    else:
        def one_round():
            return [invoke(workload, "plain", WORKERS, work)]
    rounds = timed_rounds(seconds, one_round)
    done = [r for r in rounds if all(i["ok"] for i in r)]
    if not done:
        raise RuntimeError("every round failed")
    outputs = [i["output"] for r in done for i in r]
    failures = []
    if any(out != outputs[0] for out in outputs):
        failures.append("outputs differ between invocations")
    failures += workload.check(outputs[0])
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if trace:
        metrics = spec["per_layer"]
        samples = [layer_metrics(r[0]["hooks"], r[1]["hooks"]) for r in done]
    else:
        metrics = spec["end_to_end"]
        samples = [r[0] for r in done]
    values = {m["name"]: statistics.median(s[m["name"]] for s in samples)
              for m in metrics}
    return {"correct": not failures, "attempted": len(rounds),
            "failed": len(rounds) - len(done),
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in metrics}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bootval" / "cli.py").is_file():
        print(f"bench: no bootval sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(args.seed, work)
        # import once untimed, so that bytecode and the file cache are warm
        subprocess.run([sys.executable, "-c", "import bootval.cli"],
                       env=child_env(), check=True)
        result = run(workload, args.seconds, bool(args.trace), work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
