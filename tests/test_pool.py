"""The worker pool that one validation or one scenario maps on, and its pin
of every process that computes to one BLAS thread."""

import json
import os
import resource
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from bootval import intervals, optimism, resampling, simulation
from bootval.intervals import validate
from bootval.metrics import C_STATISTIC
from bootval.models import FitRecipe
from bootval.resampling import (ResamplePlan, ResamplingError, WorkerPool,
                                blas_threads, map_records)
from bootval.simulation import (GeneratorConfig, ScenarioSpec,
                                SimulationError, run_scenario)

from conftest import make_dataset

ROOT = Path(__file__).resolve().parent.parent

needs_blas_threads = pytest.mark.skipif(
    blas_threads() is None,
    reason="NumPy's OpenBLAS has no thread-count functions")

# Calibration-slope values of a 27,000-row cohort: above about 26,000 rows
# OpenBLAS splits an n-row product across threads, and the sums change.
BITS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[2])
from cohorts import make_cohort
from bootval.data import Dataset
from bootval.intervals import validate
from bootval.metrics import CALIBRATION_SLOPE
from bootval.models import FitRecipe
from bootval.resampling import ResamplePlan

y, x = make_cohort(1, 27_000)
d = Dataset(y, x, tuple(f"x{j}" for j in range(x.shape[1])))
v = validate(d, FitRecipe("ml"), CALIBRATION_SLOPE, ResamplePlan(8, 1),
             corrections=["harrell"],
             methods=["apparent", "location-shift:harrell"],
             workers=int(sys.argv[1]))
values = [v.apparent, v.corrections["harrell"].corrected,
          *(b for est in v.intervals for b in (est.lower, est.upper)),
          *v.replicates.theta_boot, *v.replicates.theta_orig]
print(json.dumps([float(value).hex() for value in values]))
"""


def calibration_slope_bits(workers, blas_env):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(blas_env)
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", BITS_SCRIPT, str(workers),
         str(ROOT / "bench")],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_large_cohort_values_do_not_depend_on_blas_threads_or_workers():
    runs = {(workers, str(blas_env)): calibration_slope_bits(workers, blas_env)
            for workers in (1, 2)
            for blas_env in ({}, {"OPENBLAS_NUM_THREADS": "1"})}
    first = next(iter(runs.values()))
    assert all(bits == first for bits in runs.values()), runs


def _blas_threads_here(r):
    return blas_threads()


@pytest.fixture
def caller_at_two_blas_threads():
    saved = blas_threads()
    resampling._set_blas_threads(2)
    yield
    resampling._set_blas_threads(saved)


@needs_blas_threads
def test_pool_runs_one_blas_thread_and_restores_the_callers(
        caller_at_two_blas_threads):
    with WorkerPool(2) as pool:
        assert blas_threads() == 1
        assert map_records(4, _blas_threads_here, pool) == [1] * 4
        assert pool.submit(_blas_threads_here, 0).result() == 1
    assert blas_threads() == 2


def test_pool_without_blas_thread_functions_pins_nothing_and_says_so(
        monkeypatch, capsys):
    monkeypatch.setattr(resampling.ctypes, "CDLL", lambda path: object())
    assert resampling._openblas.__wrapped__() is None
    assert "BLAS threads not pinned" in capsys.readouterr().err
    monkeypatch.setattr(resampling, "_openblas", lambda: None)
    resampling._set_blas_threads(1)  # each worker's pin as it starts
    with WorkerPool(1) as pool:
        assert map_records(3, _blas_threads_here, pool) == [None] * 3
    assert blas_threads() is None


def record_blas_threads_at_maps(monkeypatch):
    """The caller's BLAS thread count at each map of replicates,
    replications or outer replicates, wrapped where its callers look it
    up."""
    seen = []
    for module, name in ((optimism, "map_records"),
                         (simulation, "map_records"),
                         (intervals, "map_indices")):
        def recording(*args, original=getattr(module, name), **kwargs):
            seen.append(blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return seen


@needs_blas_threads
@pytest.mark.parametrize("workers", [1, 2])
def test_validate_pins_the_caller_and_restores_it(
        workers, caller_at_two_blas_threads, monkeypatch):
    seen = record_blas_threads_at_maps(monkeypatch)
    validate(make_dataset(61, n=60, p=2), FitRecipe("ml"), C_STATISTIC,
             ResamplePlan(4, 2), methods=["two-stage:harrell"], inner_B=2,
             workers=workers)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


@needs_blas_threads
@pytest.mark.parametrize("workers", [1, 2])
def test_run_scenario_pins_the_caller_and_restores_it(
        workers, caller_at_two_blas_threads, monkeypatch):
    seen = record_blas_threads_at_maps(monkeypatch)
    run_scenario(ScenarioSpec(1), ["apparent"], 2, 4, None, seed=1,
                 workers=workers, calibration_n=20_000, estimand_n=2_000)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


@needs_blas_threads
def test_run_scenario_restores_the_callers_blas_threads_on_error(
        caller_at_two_blas_threads):
    config = GeneratorConfig.default()
    bad = GeneratorConfig(**{**config.__dict__,
                             "continuous_covariance": -np.eye(3)})
    with pytest.raises(SimulationError):
        run_scenario(ScenarioSpec(1), ["apparent"], 2, 4, None, seed=1,
                     workers=2, config=bad)
    assert blas_threads() == 2


@pytest.fixture
def executors_built(monkeypatch):
    """The number of process pools built, as a one-item list, and the name
    of each function submitted to them."""
    built, submitted = [0], []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args, **kwargs):
            submitted.append(getattr(fn, "__name__", None))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(resampling, "ProcessPoolExecutor", Counting)
    return built, submitted


@pytest.mark.parametrize("workers", [0, -3])
def test_pool_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ResamplingError, match="workers must be >= 1"):
        WorkerPool(workers)
    with pytest.raises(ResamplingError, match="workers must be >= 1"):
        validate(make_dataset(63, n=60, p=2), FitRecipe("ml"), C_STATISTIC,
                 ResamplePlan(4, 2), workers=workers)


@pytest.fixture
def pools_entered(monkeypatch):
    """The worker count of each WorkerPool entered."""
    entered = []
    original = WorkerPool.__enter__

    def counting(self):
        entered.append(self.workers)
        return original(self)

    monkeypatch.setattr(WorkerPool, "__enter__", counting)
    return entered


def test_validate_opens_one_pool_for_its_nested_maps(pools_entered):
    # at one worker every map runs here: the CV folds of each fit, the
    # replicates, the outer replicates and each outer replicate's inner
    # bootstrap; only validate enters a pool
    validate(make_dataset(62, n=60, p=2), FitRecipe("lasso", n_lambdas=5),
             C_STATISTIC, ResamplePlan(4, 3), corrections=["harrell"],
             methods=["two-stage:harrell"], inner_B=2, workers=1)
    assert pools_entered == [1]


def test_run_scenario_opens_one_pool_for_its_replications(pools_entered):
    # each replication's validation maps on no pool: at one worker it runs
    # here, and at more it already runs on a worker
    run_scenario(ScenarioSpec(1), ["two-stage:harrell"], 3, 4, 2, seed=1,
                 workers=1, calibration_n=20_000, estimand_n=2_000)
    assert pools_entered == [1]


def test_validate_builds_one_executor(executors_built):
    # a CV-selected lasso maps its folds, then the replicates, then the
    # two-stage outer replicates
    validate(make_dataset(62, n=60, p=2), FitRecipe("lasso", n_lambdas=5),
             C_STATISTIC, ResamplePlan(4, 3), corrections=["harrell"],
             methods=["two-stage:harrell"], inner_B=2, workers=2)
    assert executors_built[0] == [1]


def test_run_scenario_builds_one_executor_for_set_up_and_replications(
        executors_built):
    run_scenario(ScenarioSpec(1), ["apparent"], 2, 4, None, seed=1,
                 workers=2, calibration_n=20_000, estimand_n=2_000)
    built, submitted = executors_built
    assert built == [1]
    assert submitted[:2] == ["calibrate_intercept", "estimand_draws"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_scenario_maps_replications_after_its_set_up(workers,
                                                         monkeypatch):
    """The calibration and the estimand's covariates go to the pool by a
    direct submit; the first map, of the replications, starts after both
    have returned."""
    submitted, at_first_map = [], []
    original_submit = WorkerPool.submit

    def recording_submit(self, fn, *args):
        future = original_submit(self, fn, *args)
        submitted.append((fn.__name__, future))
        return future

    original_map = simulation.map_records

    def recording_map(*args, **kwargs):
        if not at_first_map:
            at_first_map.extend((name, future.done())
                                for name, future in submitted)
        return original_map(*args, **kwargs)

    monkeypatch.setattr(WorkerPool, "submit", recording_submit)
    monkeypatch.setattr(simulation, "map_records", recording_map)
    run_scenario(ScenarioSpec(1), ["apparent"], 2, 4, None, seed=1,
                 workers=workers, calibration_n=20_000, estimand_n=2_000)
    assert at_first_map == [("calibrate_intercept", True),
                            ("estimand_draws", True)]


needs_mallopt = pytest.mark.skipif(
    resampling._mallopt() is None, reason="the C library has no mallopt")

# eight arrays of 344,000 floats (2.75 MB each), the size of one block array
# of a study-shape inner bootstrap: 100 replicates of about 3,440 rows
ROUND_ARRAYS, ROUND_FLOATS = 8, 344_000
ROUND_PAGES = ROUND_ARRAYS * ROUND_FLOATS * 8 // resource.getpagesize()


def fault_rounds() -> list[int]:
    """Minor page faults in each of three rounds that allocate, fill and
    free the round's arrays."""
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.full(ROUND_FLOATS, 1.0) for _ in range(ROUND_ARRAYS)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    return faults


@needs_mallopt
def test_pool_workers_keep_the_memory_they_free():
    # the first round may fault its pages in; later rounds reuse them
    with WorkerPool(2) as pool:
        faults = pool.submit(fault_rounds).result()
    assert max(faults[1:]) < 64, faults


# A fresh process, so that no earlier test has moved its allocator's
# adaptive thresholds.
CALLER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_pool import fault_rounds
from bootval.resampling import WorkerPool
before = fault_rounds()
with WorkerPool(2) as pool:
    pool.submit(fault_rounds).result()
print(json.dumps([before, fault_rounds()]))
"""


@needs_mallopt
def test_pool_leaves_the_callers_allocator_as_found():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", CALLER_SCRIPT, str(ROOT / "tests")],
        env=env, capture_output=True, text=True, check=True).stdout
    before, after = json.loads(out)
    # glibc gives the freed arrays back, so every round faults them in again
    assert min(before[1:]) > ROUND_PAGES // 2, before
    assert min(after[1:]) > ROUND_PAGES // 2, after
