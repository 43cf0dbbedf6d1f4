"""Run the `bootval` command line in this process, with timing hooks.

Usage: python3 bench/launch.py HOOKS.json MODE CLI-ARG...

MODE is one of
  plain  record only when the first process map starts (the end of set-up);
  maps   also time every process map called in this process;
  trace  time every layer's public functions and count their work.

The hooks replace each function where its callers look it up (for example
`bootval.optimism.fit_ml_counts`, since `optimism` imports it by name), so
nothing in the package changes. Spans and counts stay in memory and are
written to HOOKS.json when the command returns; the command's exit status
is this process's exit status.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (span name, function's home module, attribute, modules that look it up)
MAPS = (
    ("resampling.map", "bootval.resampling", "map_records",
     ("bootval.optimism", "bootval.simulation")),
    ("resampling.map", "bootval.resampling", "map_indices",
     ("bootval.intervals",)),
)
LAYERS = (
    ("data.load_csv", "bootval.data", "load_csv", ("bootval.cli",)),
    ("resampling.draw", "bootval.resampling", "draw", ("bootval.optimism",)),
    ("models.fit_ml", "bootval.models", "fit_ml",
     ("bootval.models", "bootval.metrics")),
    ("models.fit_penalized", "bootval.models", "fit_penalized",
     ("bootval.models",)),
    ("models.predict", "bootval.models", "predict",
     ("bootval.cli", "bootval.optimism", "bootval.intervals",
      "bootval.simulation")),
    ("kernel.patterns", "bootval.kernel", "Patterns", ("bootval.optimism",)),
    ("kernel.fit", "bootval.kernel", "fit_ml_counts", ("bootval.optimism",)),
    ("kernel.risk_scores", "bootval.kernel", "risk_scores",
     ("bootval.optimism",)),
    ("kernel.cstat", "bootval.kernel", "c_statistics", ("bootval.optimism",)),
    ("metrics.cstat", "bootval.metrics", "c_statistic_value",
     ("bootval.metrics", "bootval.simulation")),
    ("optimism.evaluate", "bootval.optimism", "evaluate_replicates",
     ("bootval.optimism", "bootval.cli", "bootval.intervals",
      "bootval.simulation")),
    ("intervals.two_stage", "bootval.intervals", "two_stage_ci",
     ("bootval.cli", "bootval.simulation")),
    ("simulation.generator", "bootval.simulation", "CovariateGenerator",
     ("bootval.simulation",)),
    ("simulation.calibrate", "bootval.simulation", "calibrate_intercept",
     ("bootval.simulation",)),
    ("simulation.estimand", "bootval.simulation", "estimate_true_auc",
     ("bootval.simulation",)),
    ("simulation.cohort", "bootval.simulation", "generate_cohort",
     ("bootval.simulation",)),
)


COUNTS = ("models.newton_iters", "models.nonconverged",
          "kernel.fit_replicates", "optimism.replicates", "optimism.redraws",
          "optimism.invalid", "intervals.outer_replicates")


def _count_work(name, counts, args, kwargs, result):
    """Counts of work done, read from a call's arguments and result."""
    if name == "resampling.draw":
        counts["optimism.redraws"] += kwargs.get("retry", 0) > 0
    elif name == "models.fit_ml":
        counts["models.newton_iters"] += result.iterations
        counts["models.nonconverged"] += not result.converged
    elif name == "kernel.fit":
        counts["kernel.fit_replicates"] += args[1].shape[0]
    elif name == "optimism.evaluate":
        counts["optimism.replicates"] += result.B
        counts["optimism.invalid"] += result.B - int(result.valid.sum())
    elif name == "intervals.two_stage":
        counts["intervals.outer_replicates"] += result.B_outer


class Tracer:
    """Span times and counts of one process.

    A span's self time is its duration less the time its child spans
    cover. A process map is transparent: at one worker its tasks run inline,
    and their spans count as children of the span that called the map.
    Only outermost maps add to the map's time, so nested maps at one worker
    are not counted twice."""

    def __init__(self):
        self.first_map = None
        self.total = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self._covered = [0.0]  # child time of each open span; [0] is root
        self._map_depth = 0

    def wrap(self, name, fn, transparent=False):
        def traced(*args, **kwargs):
            if transparent:
                if self.first_map is None:
                    self.first_map = time.monotonic()
                self._map_depth += 1
            self._covered.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                covered = self._covered.pop()
                if transparent:
                    self._map_depth -= 1
                    self._covered[-1] += covered
                    if self._map_depth == 0:
                        self.total[name] += duration
                else:
                    self._covered[-1] += duration
                    self.total[name] += duration
                    self.self_time[name] += duration - covered
                self.calls[name] += 1
            _count_work(name, self.counts, args, kwargs, result)
            return result
        return traced

    def report(self) -> dict:
        return {"first_map": self.first_map, "total": self.total,
                "self": self.self_time, "calls": self.calls,
                "counts": self.counts}


def _install(table, tracer, transparent=False):
    for name, home, attr, users in table:
        original = getattr(importlib.import_module(home), attr)
        wrapped = tracer.wrap(name, original, transparent)
        for user in users:
            module = importlib.import_module(user)
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{user}.{attr} is not {home}.{attr}")
            setattr(module, attr, wrapped)


def _mark_first_map(tracer):
    """Record the first map's start, then put the maps back untouched."""
    originals = []
    for _, home, attr, users in MAPS:
        original = getattr(importlib.import_module(home), attr)
        for user in users:
            originals.append((importlib.import_module(user), attr, original))

    def marking(original):
        def first(*args, **kwargs):
            tracer.first_map = time.monotonic()
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            return original(*args, **kwargs)
        return first

    for module, attr, original in originals:
        setattr(module, attr, marking(original))


def main(argv: list[str]) -> int:
    hooks_path, mode, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import bootval.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    if mode == "plain":
        _mark_first_map(tracer)
    elif mode == "maps":
        _install(MAPS, tracer, transparent=True)
    elif mode == "trace":
        _install(MAPS, tracer, transparent=True)
        _install(LAYERS, tracer)
        dataset = bootval.data.Dataset
        dataset.subset = tracer.wrap("data.subset", dataset.subset)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    status = bootval.cli.main(cli_args)
    with open(hooks_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, **tracer.report()}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
