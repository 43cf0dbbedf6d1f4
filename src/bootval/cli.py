"""Command-line front end.

`bootval validate` runs optimism corrections and confidence intervals on a
user CSV; `bootval simulate` runs scenario coverage studies. Reports are
machine-readable (JSON for validation, CSV + JSON for simulations) and
fully reproducible from the embedded config + seed; progress and timing go
to stderr so stdout stays parseable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .data import DataError, load_csv
from .intervals import (CI_METHODS, CORRECTED, DELONG, IntervalError,
                        parse_method, validate)
from .metrics import C_STATISTIC, CALIBRATION_SLOPE, MetricError
from .models import FitError, FitRecipe
from .optimism import METHODS, OptimismError
from .resampling import ResamplePlan, ResamplingError
from .simulation import (GeneratorConfig, ScenarioSpec, SimulationError,
                         coverage_to_csv, coverage_to_json, run_scenario)
# Not called here: bench/launch.py times these layers through the names
# this module imports.
from .intervals import two_stage_ci  # noqa: F401
from .models import predict  # noqa: F401
from .optimism import evaluate_replicates  # noqa: F401

RNG_SCHEME = "philox-seedsequence-keyed"


class ConfigError(ValueError):
    pass


def _sig6(x):
    """Print-side rounding to 6 significant digits."""
    return float(f"{x:.6g}")


def _parse_list(raw: str, what: str) -> list[str]:
    """The comma-separated items, each once, in first-come order: a
    repeated item runs and reports once."""
    items = list(dict.fromkeys(s.strip() for s in raw.split(",")
                               if s.strip()))
    if not items:
        raise ConfigError(f"no {what} requested")
    return items


def _interval_specs(ci_methods, corrections) -> list[str]:
    """--ci-methods x --corrections as method specs in report order:
    delong, apparent, location-shift per correction, two-stage per
    correction, whatever the order given."""
    specs = []
    for item in ci_methods:
        if ":" in item:
            raise ConfigError(f"--ci-methods takes interval kinds, got "
                              f"{item!r}; --corrections names the "
                              f"corrections")
        if item in CORRECTED:
            specs += [f"{item}:{c}" for c in corrections]
        else:
            specs.append(item)
    return sorted(dict.fromkeys(specs),
                  key=lambda spec: CI_METHODS.index(parse_method(spec)[0]))


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals end in the library's error line;
    subcommand parsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"bootval: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bootval",
        description="Internal validation of binary-outcome prediction "
                    "models with optimism-corrected bootstrap confidence "
                    "intervals.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a model on a CSV dataset")
    v.add_argument("--input", required=True, help="CSV file (header row, "
                   "comma-delimited, numeric columns)")
    v.add_argument("--outcome-column", required=True)
    v.add_argument("--estimator", choices=["ml", "ridge", "lasso"],
                   default="ml")
    v.add_argument("--penalty", type=float, default=None,
                   help="fixed lambda; omit for CV selection (ridge/lasso)")
    v.add_argument("--measure", choices=[C_STATISTIC, CALIBRATION_SLOPE],
                   default=C_STATISTIC)
    v.add_argument("--corrections", default="harrell,0.632,0.632plus",
                   help="comma-separated subset of harrell,0.632,0.632plus")
    v.add_argument("--ci-methods", default=None,
                   help="comma-separated subset of delong,apparent,"
                   "location-shift,two-stage (default: all four for the "
                   "c-statistic, all but delong for the calibration slope)")
    v.add_argument("--B", type=int, default=2000)
    v.add_argument("--inner-B", type=int, default=None,
                   help="inner bootstrap size for two-stage (default: B)")
    v.add_argument("--alpha", type=float, default=0.05)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--workers", type=int, default=None)
    v.add_argument("--output", default="-", help="JSON report path or -")

    s = sub.add_parser("simulate", help="run scenario coverage studies")
    s.add_argument("--scenarios", default="1,5,17,21",
                   help="comma-separated scenario ids (1..24)")
    s.add_argument("--generator-params", default=None,
                   help="generator parameter table (default: bundled "
                   "synthetic set)")
    s.add_argument("--methods", default="delong,apparent,"
                   "location-shift:harrell,two-stage:harrell")
    s.add_argument("--replications", type=int, default=200)
    s.add_argument("--B", type=int, default=200)
    s.add_argument("--inner-B", type=int, default=None)
    s.add_argument("--alpha", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--workers", type=int, default=None)
    s.add_argument("--calibration-n", type=int, default=1_000_000)
    s.add_argument("--estimand-n", type=int, default=500_000)
    s.add_argument("--output-prefix", default="coverage",
                   help="writes <prefix>.csv and <prefix>.json")
    return parser


def _check_common(args):
    if args.B < 1:
        raise ConfigError("B must be >= 1")
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError("alpha must be in (0, 1)")
    if args.inner_B is None:
        args.inner_B = args.B
    if args.inner_B < 1:
        raise ConfigError("inner_B must be >= 1")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    if args.workers is None:
        args.workers = os.cpu_count() or 1


def validate_command(args) -> dict:
    _check_common(args)
    if args.penalty is not None and args.estimator == "ml":
        raise ConfigError("--penalty applies to --estimator ridge or lasso "
                          "only")
    corrections = _parse_list(args.corrections, "correction")
    for method in corrections:
        if method not in METHODS:
            raise ConfigError(f"unknown correction {method!r}")
    # without --ci-methods: every interval the measure has
    ci_methods = (_parse_list(args.ci_methods, "CI method")
                  if args.ci_methods is not None
                  else [m for m in CI_METHODS
                        if m != DELONG or args.measure == C_STATISTIC])
    specs = _interval_specs(ci_methods, corrections)
    d = load_csv(args.input, args.outcome_column)
    recipe = FitRecipe(args.estimator, penalty=args.penalty)
    plan = ResamplePlan(args.B, args.seed)

    t0 = time.monotonic()
    print(f"[bootval] validate: {len(specs)} intervals, B={plan.B}, "
          f"inner_B={args.inner_B}", file=sys.stderr)
    result = validate(d, recipe, args.measure, plan, corrections, specs,
                      inner_B=args.inner_B, alpha=args.alpha,
                      workers=args.workers)
    reps = result.replicates
    print(f"[bootval] {plan.B} replicates evaluated "
          f"({int(reps.valid.sum())} valid)", file=sys.stderr)

    corrections_out = {}
    for method in corrections:
        res = result.corrections[method]
        entry = {"apparent": _sig6(res.apparent),
                 "corrected": _sig6(res.corrected),
                 "optimism": _sig6(res.optimism),
                 "n_valid": res.n_valid}
        if res.theta_out is not None:
            entry["theta_out"] = _sig6(res.theta_out)
        if res.R is not None:
            entry["relative_overfitting_rate"] = _sig6(res.R)
            entry["weight"] = _sig6(res.w)
            entry["r_fallback"] = res.r_fallback
        corrections_out[method] = entry

    intervals_out = []
    for est in result.intervals:
        row = {"method": est.method, "point": _sig6(est.point),
               "lower": _sig6(est.lower), "upper": _sig6(est.upper),
               "alpha": est.alpha, "n_valid": est.n_valid}
        if est.correction:
            row["correction"] = est.correction
        if est.B_outer:
            row["B_outer"] = est.B_outer
        if est.B_inner:
            row["B_inner"] = est.B_inner
        if est.shift is not None:
            row["shift"] = _sig6(est.shift)
        intervals_out.append(row)
    print(f"[bootval] validate finished in "
          f"{time.monotonic() - t0:.1f}s", file=sys.stderr)

    return {
        "config": {
            "command": "validate",
            "input": args.input,
            "outcome_column": args.outcome_column,
            "estimator": args.estimator,
            "penalty": args.penalty,
            "measure": args.measure,
            "corrections": corrections,
            "ci_methods": ci_methods,
            "B": args.B,
            "inner_B": args.inner_B,
            "alpha": args.alpha,
            "seed": args.seed,
        },
        "dataset": {"n": d.n, "p": d.p, "names": list(d.names)},
        "apparent": _sig6(result.apparent),
        "corrections": corrections_out,
        "intervals": intervals_out,
        "replicates": {"B": plan.B, "valid": int(reps.valid.sum()),
                       "oob_valid": int(reps.oob_valid.sum())},
        "library_version": __version__,
        "rng_scheme": RNG_SCHEME,
    }


def simulate_command(args) -> tuple[str, str]:
    _check_common(args)
    methods = _parse_list(args.methods, "CI method")
    scenarios = _parse_list(args.scenarios, "scenario")
    try:
        # "1,01" names scenario 1 twice
        ids = list(dict.fromkeys(int(s) for s in scenarios))
    except ValueError:
        raise ConfigError(f"scenario ids must be integers, got "
                          f"{args.scenarios!r}") from None
    specs = [ScenarioSpec(i) for i in ids]
    config = (GeneratorConfig.from_file(args.generator_params)
              if args.generator_params else GeneratorConfig.default())

    results = []
    t0 = time.monotonic()
    for spec in specs:
        print(f"[bootval] scenario {spec.id} (n={spec.n}, p={spec.p}): "
              f"{args.replications} replications, B={args.B}, "
              f"inner_B={args.inner_B}", file=sys.stderr)
        results.extend(run_scenario(
            spec, methods, args.replications, args.B, args.inner_B,
            args.seed, alpha=args.alpha, workers=args.workers,
            config=config, calibration_n=args.calibration_n,
            estimand_n=args.estimand_n))
        print(f"[bootval] scenario {spec.id} done "
              f"({time.monotonic() - t0:.1f}s elapsed)", file=sys.stderr)

    meta = {
        "command": "simulate",
        "scenarios": [s.id for s in specs],
        "methods": methods,
        "replications": args.replications,
        "B": args.B,
        "inner_B": args.inner_B,
        "alpha": args.alpha,
        "seed": args.seed,
        "calibration_n": args.calibration_n,
        "estimand_n": args.estimand_n,
        "library_version": __version__,
        "rng_scheme": RNG_SCHEME,
        "binary_generator": "gaussian-copula-dichotomized",
        "estimand_policy": "fixed-per-scenario",
    }
    return coverage_to_csv(results), coverage_to_json(results, meta)


def _check_writable(path: str):
    """Raise ConfigError if a report cannot be written to path."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path}: no directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ConfigError(f"cannot write {path}: permission denied")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        paths = [args.output_prefix + ".csv", args.output_prefix + ".json"]
    else:
        paths = [] if args.output == "-" else [args.output]
    try:
        for path in paths:  # before any compute
            _check_writable(path)
        if args.command == "simulate":
            texts = simulate_command(args)
        else:
            texts = [json.dumps(validate_command(args), indent=2,
                                sort_keys=True) + "\n"]
        if not paths:
            sys.stdout.write(texts[0])
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ConfigError, DataError, FitError, IntervalError, MetricError,
            OptimismError, ResamplingError, SimulationError) as exc:
        print(f"bootval: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
