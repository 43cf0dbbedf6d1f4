"""Shared fixtures: small deterministic synthetic datasets, and a CSV
writer for the command-line tests."""

import csv

import numpy as np
import pytest

from bootval.data import Dataset


def make_dataset(seed: int, n: int = 80, p: int = 3,
                 slopes=None, intercept: float = -0.5) -> Dataset:
    """A logistic-model dataset that is deterministic per seed and has both
    outcome classes (regenerated with shifted seeds until it does)."""
    if slopes is None:
        slopes = 0.8 * (-0.5) ** np.arange(p)
    slopes = np.asarray(slopes, dtype=float)
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        x = rng.normal(size=(n, p))
        eta = intercept + x @ slopes
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        if 0.0 < y.mean() < 1.0:
            return Dataset(y, x)
    raise AssertionError("could not generate a two-class dataset")


def save_csv(d: Dataset, path, outcome_column: str = "y"):
    """Write a Dataset back to CSV (outcome first, predictors in order)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([outcome_column, *d.names])
        for i in range(d.n):
            writer.writerow([repr(float(d.outcomes[i])),
                             *[repr(float(v)) for v in d.predictors[i]]])


def raising(error):
    """A stand-in for any function: it raises error("injected")."""
    def fail(*args, **kwargs):
        raise error("injected")
    return fail


@pytest.fixture
def small_dataset() -> Dataset:
    return make_dataset(11, n=80, p=3)


@pytest.fixture
def tiny_dataset() -> Dataset:
    return make_dataset(7, n=30, p=1)
