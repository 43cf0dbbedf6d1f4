import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootval import optimism
from bootval.data import Dataset
from bootval.intervals import apparent_bootstrap_ci, two_stage_ci
from bootval.optimism import (HARRELL, OptimismResult, ReplicateSet,
                              two_class_block, two_class_draw)
from bootval.resampling import (OUTER, ResamplePlan, ResamplingError,
                                WorkerPool, draw, draw_block, inner_level,
                                map_indices, percentile_interval,
                                philox_keys, quantile_type7, stream)

from oracles import percentile_oracle


def test_plan_validation():
    with pytest.raises(ResamplingError):
        ResamplePlan(0, 1)
    with pytest.raises(ResamplingError, match="seed must be >= 0"):
        ResamplePlan(10, -1)


def test_draw_n_equals_one():
    assert np.array_equal(draw(ResamplePlan(5, 1), 0, 1), [0])


def test_draw_is_deterministic():
    plan = ResamplePlan(10, 42)
    assert np.array_equal(draw(plan, 3, 50), draw(plan, 3, 50))


def test_draw_indices_in_range():
    # the out-of-bag set is built where it is graded (test_optimism)
    idx = draw(ResamplePlan(4, 9), 1, 200)
    assert idx.shape == (200,) and idx.dtype == np.int64
    assert np.all((0 <= idx) & (idx < 200))


def test_draw_differs_across_replicates_retries_and_levels():
    plan = ResamplePlan(4, 9)
    a = draw(plan, 0, 100)
    b = draw(plan, 1, 100)
    c = draw(plan, 0, 100, retry=1)
    inner = draw(ResamplePlan(4, 9, level=inner_level(0)), 0, 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, inner)


def test_draw_out_of_range():
    with pytest.raises(ResamplingError):
        draw(ResamplePlan(4, 9), 4, 10)


SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
LEVELS = (OUTER, inner_level(0), inner_level(2**32 - 1), inner_level(2**32),
          inner_level(2**32 + 1))


def test_philox_keys_equal_seed_sequence_state():
    # replicate indices of one and two 32-bit words, retries 0 to 25
    rs = [0, 1, 99, 2**32 - 1, 2**32, 2**32 + 5]
    for seed in SEEDS:
        for level in LEVELS:
            for retry in (0, 1, 25):
                want = [np.random.SeedSequence(
                    seed, spawn_key=(*level, r, 0, retry)).generate_state(
                        2, np.uint64) for r in rs]
                got = philox_keys(seed, level, rs, (0, retry))
                assert got.dtype == np.uint64
                assert np.array_equal(got, want), (seed, level, retry)


def test_draw_block_equals_draw():
    for seed in SEEDS:
        for level in LEVELS:
            plan = ResamplePlan(130, seed, level)  # not a multiple of 100
            for n in (1, 2, 255, 256, 257):
                for rs in (range(0, 3), range(100, 130)):
                    want = [draw(plan, r, n) for r in rs]
                    assert np.array_equal(draw_block(plan, rs, n), want)
    plan = ResamplePlan(3, 5, inner_level(2**32 + 1))
    want = [draw(plan, r, 65_537) for r in range(3)]
    assert np.array_equal(draw_block(plan, range(3), 65_537), want)


@pytest.mark.parametrize("events, n, max_redraws", [
    (1, 40, optimism.MAX_REDRAWS), (2, 12, optimism.MAX_REDRAWS),
    (1, 12, 1),  # some replicates spend every redraw
])
def test_two_class_block_equals_two_class_draw(events, n, max_redraws,
                                               monkeypatch):
    monkeypatch.setattr(optimism, "MAX_REDRAWS", max_redraws)
    y = np.zeros(n)
    y[:events] = 1.0
    d = Dataset(y, np.zeros((n, 1)))
    plan = ResamplePlan(130, 8, inner_level(3))
    idx, ok = two_class_block(d, plan, range(100, 130))
    want = [two_class_draw(d, plan, r) for r in range(100, 130)]
    assert np.array_equal(ok, [w is not None for w in want])
    got = [w for w in want if w is not None]
    assert all(np.array_equal(row, w) for row, w in zip(idx[ok], got))
    redrawn = [r for r in range(100, 130)
               if not 0 < y[draw(plan, r, n)].sum() < n]
    assert redrawn and (ok.all() == (max_redraws > 1))


def test_draw_block_out_of_range():
    with pytest.raises(ResamplingError):
        draw_block(ResamplePlan(4, 9), range(2, 5), 10)
    with pytest.raises(ValueError):  # as SeedSequence rejects it
        draw_block(ResamplePlan(4, -1), range(2), 10)


def test_stream_keying_is_structural():
    # distinct paths yield distinct streams; same path yields the same one
    a = stream(1, 0, 3).integers(0, 1_000_000, 8)
    b = stream(1, 0, 3).integers(0, 1_000_000, 8)
    c = stream(1, 0, 4).integers(0, 1_000_000, 8)
    d = stream(2, 0, 3).integers(0, 1_000_000, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_quantile_type7_matches_oracle():
    rng = np.random.default_rng(3)
    values = rng.random(1000)
    s = np.sort(values)
    for q in (0.0, 0.025, 0.5, 0.975, 1.0):
        assert quantile_type7(s, q) == percentile_oracle(values, q)


def test_quantile_on_integers_matches_oracle():
    values = np.arange(1.0, 1001.0)
    s = np.sort(values)
    assert quantile_type7(s, 0.025) == percentile_oracle(values, 0.025)
    assert quantile_type7(s, 0.975) == percentile_oracle(values, 0.975)


def test_percentile_interval_constant_distribution():
    assert percentile_interval(np.full(20, 0.7), 0.05) == (0.7, 0.7)


def test_percentile_interval_permutation_invariant():
    rng = np.random.default_rng(4)
    values = rng.random(500)
    a = percentile_interval(values, 0.05)
    b = percentile_interval(values[::-1].copy(), 0.05)
    assert a == b


def test_percentile_interval_uses_only_valid_replicates():
    # the intervals pass only the valid replicates' values
    values = np.array([0.1, 0.2, 0.3, 99.0])
    mask = np.array([True, True, True, False])
    want = percentile_interval(values[:3], 0.5)
    assert want[1] < 1.0
    marked = np.where(mask, values, np.nan)  # NaN marks an invalid value
    reps = ReplicateSet(marked, marked, np.full(4, np.nan))
    app = apparent_bootstrap_ci(0.2, reps, 0.5)
    assert (app.lower, app.upper) == want
    two = two_stage_ci(OptimismResult(HARRELL, 0.75, 0.5, 0.25), marked, 5,
                       0.5)
    assert (two.lower, two.upper) == want and two.n_valid == 3


def test_percentile_interval_validation():
    with pytest.raises(ResamplingError, match="at least 2"):
        percentile_interval(np.array([0.5]), 0.05)
    with pytest.raises(ResamplingError, match="alpha"):
        percentile_interval(np.array([0.1, 0.2]), 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200),
       st.floats(0.01, 0.99))
def test_interval_bounds_within_data_range(values, alpha):
    lo, hi = percentile_interval(np.array(values), alpha)
    assert min(values) <= lo <= hi <= max(values)


class _ConstantTask:
    def __call__(self, r):
        return 0.7


class _SeedSensitiveTask:
    def __init__(self, plan, n):
        self.plan = plan
        self.n = n

    def __call__(self, r):
        return float(draw(self.plan, r, self.n).mean())


class _SometimesInvalid:
    def __call__(self, r):
        if r % 3 == 0:
            return np.nan
        return float(r)


def test_map_indices_constant_task():
    values = map_indices(10, _ConstantTask())
    assert np.array_equal(values, np.full(10, 0.7))
    assert np.isfinite(values).all()


def test_map_indices_worker_count_invariance():
    plan = ResamplePlan(24, 77)
    task = _SeedSensitiveTask(plan, 100)
    with WorkerPool(1) as pool:
        seq = map_indices(plan.B, task, pool)
    with WorkerPool(4) as pool:
        par = map_indices(plan.B, task, pool)
    assert np.array_equal(seq, par)


def test_map_indices_nan_marks_invalid():
    values = map_indices(9, _SometimesInvalid())
    valid = ~np.isnan(values)
    assert int(valid.sum()) == 6
    assert np.array_equal(np.sort(values[valid]),
                          [1.0, 2.0, 4.0, 5.0, 7.0, 8.0])


class _Square:
    def __call__(self, r):
        return float(r * r)


class _Row:
    def __call__(self, r):
        return [float(r), np.nan if r % 2 else -float(r)]


def test_map_indices_results_keyed_by_index():
    with WorkerPool(3) as pool:
        values = map_indices(6, _Square(), pool)
    assert np.array_equal(values, [0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
    with WorkerPool(2) as pool:
        rows = map_indices(5, _Row(), pool)
    assert rows.shape == (5, 2)
    assert np.array_equal(rows[:, 0], np.arange(5.0))
    assert np.array_equal(np.isnan(rows[:, 1]), [False, True] * 2 + [False])


def test_oob_fraction_near_e_inverse():
    # quick version of the acceptance check (full version in acceptance)
    plan = ResamplePlan(500, 3)
    n = 500
    frac = np.mean([np.count_nonzero(np.bincount(draw(plan, r, n),
                                                 minlength=n) == 0) / n
                    for r in range(plan.B)])
    assert abs(frac - 0.368) < 0.01
