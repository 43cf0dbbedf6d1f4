"""Check the block draw against the one-replicate definitions.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/check_block_draw.py

Three comparisons, over seeds of one, two and three 32-bit words, the
outer level and inner levels whose outer index takes one or two words:

- resampling.philox_keys against SeedSequence(...).generate_state(2,
  uint64), for every retry 0 to MAX_REDRAWS, on over 10**6 keys;
- resampling.draw_block against draw(...), at resample sizes on
  either side of powers of two, on over 10**6 draws;
- optimism.two_class_block against two_class_draw on cohorts with no, one
  and two events, so that replicates are redrawn and some spend every
  redraw.

Prints one line per comparison and exits with status 1 at the first
mismatch. Takes a few minutes on one core.
"""

from __future__ import annotations

import sys

import numpy as np

from bootval.data import Dataset
from bootval.optimism import (BLOCK, MAX_REDRAWS, two_class_block,
                              two_class_draw)
from bootval.resampling import (OUTER, ResamplePlan, draw, draw_block,
                                inner_level, philox_keys)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345)
LEVELS = (OUTER, inner_level(0), inner_level(7), inner_level(2**32 - 1),
          inner_level(2**32 + 1))
#: replicate indices of each key check, among them indices of two words
KEY_RS = [*range(1300), 2**32 - 1, 2**32, 2**32 + 1]
#: replicates per plan of the draw checks: ten blocks and a partial one
B = 1050
#: resample sizes next to powers of two, where NumPy's bounded draw
#: changes its mask and rejection threshold
SIZES = sorted({m + d for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                                2048, 4096) for d in (-1, 0, 1)})


def blocks():
    return [range(lo, min(B, lo + BLOCK)) for lo in range(0, B, BLOCK)]


def fail(what: str) -> None:
    print(f"MISMATCH: {what}")
    sys.exit(1)


def check_keys() -> int:
    n = 0
    for seed in SEEDS:
        for level in LEVELS:
            for retry in range(MAX_REDRAWS + 1):
                got = philox_keys(seed, level, KEY_RS, (0, retry))
                for r, key in zip(KEY_RS, got):
                    want = np.random.SeedSequence(
                        seed, spawn_key=(*level, r, 0, retry))
                    if not np.array_equal(
                            key, want.generate_state(2, np.uint64)):
                        fail(f"key seed={seed} path={(*level, r, 0, retry)}")
                n += len(KEY_RS)
    return n


def check_draws() -> int:
    n = 0
    for seed in SEEDS:
        for level in LEVELS:
            for size in SIZES:
                plan = ResamplePlan(B, seed, level)
                for rs in blocks():
                    got = draw_block(plan, rs, size)
                    for r, row in zip(rs, got):
                        if not np.array_equal(row, draw(plan, r, size)):
                            fail(f"draw seed={seed} level={level} r={r} "
                                 f"n={size}")
                    n += len(rs)
    return n


def check_redraws() -> tuple[int, int, int]:
    n = redrawn = exhausted = 0
    for events, size in ((0, 20), (1, 12), (1, 40), (2, 12), (2, 256)):
        y = np.zeros(size)
        y[:events] = 1.0
        d = Dataset(y, np.zeros((size, 1)))
        for seed in SEEDS:
            for level in LEVELS:
                plan = ResamplePlan(B, seed, level)
                for rs in blocks():
                    idx, ok = two_class_block(d, plan, rs)
                    for r, row, got in zip(rs, idx, ok):
                        want = two_class_draw(d, plan, r)
                        if got != (want is not None) or (
                                got and not np.array_equal(row, want)):
                            fail(f"redraw seed={seed} level={level} r={r} "
                                 f"events={events} n={size}")
                        first = y[draw(plan, r, size)].sum()
                        redrawn += not 0 < first < size
                        exhausted += want is None
                    n += len(rs)
    return n, redrawn, exhausted


def main() -> int:
    print(f"philox_keys: {check_keys():,} keys equal SeedSequence state")
    print(f"draw_block: {check_draws():,} draws equal draw() at "
          f"n in {SIZES}")
    n, redrawn, exhausted = check_redraws()
    print(f"two_class_block: {n:,} replicates equal two_class_draw "
          f"({redrawn:,} redrawn, {exhausted:,} spent every redraw)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
