"""Deterministic, parallelizable bootstrap engine.

Streams are counter-based (Philox) and keyed structurally by
(master seed, level path, replicate index, purpose, retry), so replicate r
of a plan yields the same index vector regardless of execution order or
worker count. Inner streams for outer replicate b live under a distinct
level path and can never collide with outer streams or with other inner
streams.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# purpose tags inside one replicate's key space
_DRAW = 0
_CV = 1

OUTER = (0,)


def inner_level(outer_index: int) -> tuple[int, ...]:
    """Level path for the inner bootstrap nested in outer replicate b."""
    return (1, outer_index)


def stream(seed: int, *path: int) -> np.random.Generator:
    """The one RNG-stream definition, shared with the test oracles."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


class ResamplingError(ValueError):
    pass


@dataclass(frozen=True)
class ResamplePlan:
    B: int
    seed: int
    level: tuple[int, ...] = OUTER

    def __post_init__(self):
        if self.B < 1:
            raise ResamplingError("B must be >= 1")

    def rng(self, r: int, purpose: int = _DRAW, retry: int = 0):
        return stream(self.seed, *self.level, r, purpose, retry)

    def cv_rng(self, r: int) -> np.random.Generator:
        """Deterministic stream for CV fold assignment within replicate r."""
        return self.rng(r, purpose=_CV)


@dataclass(frozen=True)
class Resample:
    indices: np.ndarray
    out_of_bag: np.ndarray


def draw(plan: ResamplePlan, r: int, n: int, retry: int = 0) -> Resample:
    """Replicate r's resample: n draws with replacement from 0..n-1, plus
    the sorted out-of-bag complement. Pure function of (seed, level, r,
    retry, n)."""
    if r >= plan.B:
        raise ResamplingError(f"replicate index {r} out of range (B={plan.B})")
    rng = plan.rng(r, retry=retry)
    idx = rng.integers(0, n, size=n)
    in_bag = np.zeros(n, dtype=bool)
    in_bag[idx] = True
    return Resample(indices=idx, out_of_bag=np.flatnonzero(~in_bag))


@dataclass(frozen=True)
class BootstrapDistribution:
    values: np.ndarray
    valid_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = (np.isfinite(values) if self.valid_mask is None
                else np.asarray(self.valid_mask, dtype=bool))
        if mask.shape != values.shape:
            raise ResamplingError("valid_mask must match values in length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid_mask", mask)

    @property
    def B(self) -> int:
        return self.values.shape[0]

    def valid_values(self) -> np.ndarray:
        return self.values[self.valid_mask]


def quantile_type7(sorted_values: np.ndarray, q: float) -> float:
    """Linear interpolation between closest order statistics (type 7).

    Takes already-sorted values; the formula is intentionally written out
    so an independent copy in the test oracles can match it exactly."""
    n = sorted_values.shape[0]
    g = (n - 1) * q
    lo = int(np.floor(g))
    if lo >= n - 1:
        return float(sorted_values[n - 1])
    frac = g - lo
    return float(sorted_values[lo]
                 + frac * (sorted_values[lo + 1] - sorted_values[lo]))


def percentile_interval(dist: BootstrapDistribution,
                        alpha: float) -> tuple[float, float]:
    """(q_{alpha/2}, q_{1-alpha/2}) of the valid replicate values."""
    if not 0.0 < alpha < 1.0:
        raise ResamplingError("alpha must be in (0, 1)")
    vals = np.sort(dist.valid_values())
    if vals.shape[0] < 2:
        raise ResamplingError("need at least 2 valid replicates")
    return (quantile_type7(vals, alpha / 2.0),
            quantile_type7(vals, 1.0 - alpha / 2.0))


def default_workers() -> int:
    env = os.environ.get("BOOTVAL_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def map_records(n_items: int, task, workers: int = 1) -> list:
    """[task(0), ..., task(n_items - 1)], possibly across processes.

    The list is in index order whatever the worker count. task must be a
    pure, picklable callable; its exceptions propagate."""
    if workers <= 1 or n_items <= 1:
        return [task(r) for r in range(n_items)]
    chunk = max(1, n_items // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(n_items), chunksize=chunk))


def map_indices(n_items: int, task, workers: int = 1) -> np.ndarray:
    """map_records for tasks that return a float or a row of floats, as a
    float array; NaN marks an invalid entry."""
    return np.array(map_records(n_items, task, workers=workers),
                    dtype=np.float64)
