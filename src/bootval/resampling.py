"""Deterministic, parallelizable bootstrap engine.

A resample is its index vector: n row indices drawn with replacement. The
out-of-bag rows, which only the 0.632 family reads, are derived from it
where they are graded. A bootstrap distribution is the array of its valid
replicate values.

Streams are counter-based (Philox) and keyed structurally by
(master seed, level path, replicate index, purpose, retry), so replicate r
of a plan yields the same index vector regardless of execution order or
worker count. Inner streams for outer replicate b live under a distinct
level path and can never collide with outer streams or with other inner
streams.

A stream's Philox key is SeedSequence(seed, spawn_key=path)'s
generate_state(2, uint64), and its counter starts at zero. draw_block
draws a block of replicates at once: it derives every key of the block in
one vectorised pass of the SeedSequence hash, then sets one Philox to each
key in turn and lets NumPy draw the integers, so each row equals draw()'s.

map_records runs the tasks of one validation or one scenario on the one
WorkerPool that validate or run_scenario opens (see WorkerPool).
"""

from __future__ import annotations

import ctypes
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache

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
        if self.seed < 0:
            raise ResamplingError("seed must be >= 0")

    def rng(self, r: int, purpose: int = _DRAW, retry: int = 0):
        return stream(self.seed, *self.level, r, purpose, retry)

    def cv_rng(self, r: int) -> np.random.Generator:
        """Deterministic stream for CV fold assignment within replicate r."""
        return self.rng(r, purpose=_CV)


def draw(plan: ResamplePlan, r: int, n: int, retry: int = 0) -> np.ndarray:
    """Replicate r's resample: the indices of n draws with replacement from
    0..n-1. Pure function of (seed, level, r, retry, n)."""
    if r >= plan.B:
        raise ResamplingError(f"replicate index {r} out of range (B={plan.B})")
    return plan.rng(r, retry=retry).integers(0, n, size=n)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(k: int) -> list[int]:
    """k as SeedSequence takes an integer (_coerce_to_uint32_array): its
    32-bit words, least significant first; zero is one word."""
    if k < 0:
        raise ResamplingError("stream keys must be nonnegative")
    words = [k & _MASK32]
    while k > _MASK32:
        k >>= 32
        words.append(k & _MASK32)
    return words


def _seed_sequence_state(entropy: list) -> np.ndarray:
    """SeedSequence's pool mixing and generate_state(2, uint64) on an
    assembled entropy list whose words are ints (shared by every row) or
    uint64 arrays (one word per row); returns the (rows, 2) uint64 keys.

    A word is kept below 2**32 by masking after each product, so the same
    expressions serve ints and arrays, and a uint64 difference that wraps
    still masks to the uint32 one."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = _INIT_B
    state = []
    for value in pool:
        value = value ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    axis=-1)


def philox_keys(seed: int, prefix, rs, suffix) -> np.ndarray:
    """The Philox key of stream(seed, *prefix, r, *suffix) for every r in
    rs, as a (len(rs), 2) uint64 array: row i equals
    SeedSequence(seed, spawn_key=(*prefix, rs[i], *suffix))
    .generate_state(2, np.uint64)."""
    run = _words(seed)
    run += [0] * (_POOL - len(run))  # as SeedSequence pads for a spawn key
    head = run + [w for k in prefix for w in _words(k)]
    tail = [w for k in suffix for w in _words(k)]
    rs = np.asarray(rs, dtype=np.uint64)
    keys = np.empty((rs.size, 2), dtype=np.uint64)
    wide = rs > _MASK32  # two entropy words, not one
    for rows, words in ((~wide, [rs[~wide]]),
                        (wide, [rs[wide] & _MASK32, rs[wide] >> 32])):
        if rows.any():
            keys[rows] = _seed_sequence_state(head + words + tail)
    return keys


def draw_block(plan: ResamplePlan, rs: range, n: int) -> np.ndarray:
    """draw(plan, r, n) for every r in rs, as the rows of a
    (len(rs), n) array.

    One Philox and one Generator serve the block: before each row the
    Philox is set to that replicate's key, counter zero and an empty
    buffer, which is the state stream() builds, and NumPy draws the
    integers as in draw()."""
    if rs and rs[-1] >= plan.B:
        raise ResamplingError(
            f"replicate index {rs[-1]} out of range (B={plan.B})")
    keys = philox_keys(plan.seed, plan.level, rs, (_DRAW, 0)).tolist()
    bits = np.random.Philox(0)  # state replaced below
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(rs), n), dtype=np.int64)
    for row, key in zip(out, keys):
        state["state"]["key"] = key
        bits.state = state
        row[:] = gen.integers(0, n, size=n)
    return out


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


def percentile_interval(values: np.ndarray,
                        alpha: float) -> tuple[float, float]:
    """(q_{alpha/2}, q_{1-alpha/2}) of the given replicate values."""
    if not 0.0 < alpha < 1.0:
        raise ResamplingError("alpha must be in (0, 1)")
    vals = np.sort(values)
    if vals.shape[0] < 2:
        raise ResamplingError("need at least 2 valid replicates")
    return (quantile_type7(vals, alpha / 2.0),
            quantile_type7(vals, 1.0 - alpha / 2.0))


@cache
def _openblas():
    """The thread-count getter and setter of NumPy's bundled OpenBLAS, found
    through the NumPy extension that links it; None, said once on stderr,
    where they are missing."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        sys.stderr.write("[bootval] BLAS threads not pinned: NumPy's OpenBLAS "
                         "has no scipy_openblas_set_num_threads64_\n")
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count; None where it cannot be read."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def _set_blas_threads(count: int) -> None:
    lib = _openblas()
    if lib is not None:
        lib[1](count)


class WorkerPool:
    """The processes of one validation or one scenario, as a context
    manager. While it is open every process that computes runs one BLAS
    thread: the workers from their start, the caller until the pool closes,
    when the caller's own count is restored. So no bit depends on the
    thread count, over which OpenBLAS splits a product from about 26,000
    rows. At one worker tasks run here; otherwise the processes start with
    the first task submitted."""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ResamplingError("workers must be >= 1")
        self.workers = workers
        self._executor = None
        self._saved = None

    def __enter__(self) -> "WorkerPool":
        self._saved = blas_threads()
        _set_blas_threads(1)
        if self.workers > 1:
            self._executor = ProcessPoolExecutor(
                self.workers, initializer=_set_blas_threads, initargs=(1,))
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        _set_blas_threads(self._saved)

    def submit(self, fn, *args) -> Future:
        """fn(*args) on a worker, as a Future; at one worker fn runs at
        once, here. fn must be picklable."""
        if self.workers > 1:
            return self._executor.submit(fn, *args)
        future = Future()
        future.set_result(fn(*args))
        return future


def map_records(n_items: int, task, pool: WorkerPool | None = None) -> list:
    """[task(0), ..., task(n_items - 1)] in index order: across the open
    pool's processes, or here when there is no pool (the caller already
    runs on a worker), the pool has one worker or there is one task.

    task must be a pure, picklable callable; its exceptions propagate."""
    if pool is None or pool.workers == 1 or n_items <= 1:
        return [task(r) for r in range(n_items)]
    chunk = max(1, n_items // (pool.workers * 4))
    return list(pool._executor.map(task, range(n_items), chunksize=chunk))


def map_indices(n_items: int, task,
                pool: WorkerPool | None = None) -> np.ndarray:
    """map_records for tasks that return a float or a row of floats, as a
    float array; NaN marks an invalid entry."""
    return np.array(map_records(n_items, task, pool), dtype=np.float64)
