"""Dataset model and delimited-file ingestion.

The dataset is the unit of resampling: a binary outcome vector plus a
numeric predictor matrix with column names. Categorical expansion (dummy
coding) is expected to happen upstream; this module only sees numeric
columns. Missing values are rejected, not imputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset contents."""


@dataclass(frozen=True)
class Dataset:
    """Immutable binary-outcome dataset: outcomes y (0/1) and an n-by-p
    predictor matrix. Safe to share across concurrent readers."""

    outcomes: np.ndarray
    predictors: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        y = np.asarray(self.outcomes, dtype=np.float64)
        x = np.asarray(self.predictors, dtype=np.float64)
        if x.ndim != 2:
            raise DataError("predictors must be a 2-D matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DataError("outcomes length must match predictor rows")
        if not np.all((y == 0.0) | (y == 1.0)):
            bad = int(np.flatnonzero((y != 0.0) & (y != 1.0))[0])
            raise DataError(f"outcome at row {bad} is not 0 or 1")
        if not np.all(np.isfinite(x)):
            raise DataError("predictors contain non-finite entries")
        names = tuple(self.names) if self.names else tuple(
            f"x{j + 1}" for j in range(x.shape[1]))
        if len(names) != x.shape[1]:
            raise DataError("names length must match predictor columns")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "predictors", x)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def p(self) -> int:
        return self.predictors.shape[1]

    def check_fittable(self):
        """Both outcome classes and n >= 2 are required before any model fit."""
        if self.n < 2:
            raise DataError("need at least 2 records to fit a model")
        events, nonevents = class_counts(self)
        if events == 0 or nonevents == 0:
            raise DataError("dataset has a single outcome class")

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row subset / resample view (copies; Dataset stays immutable).

        Skips revalidation: rows of a valid dataset are valid. The
        bootstrap engines call this millions of times."""
        idx = np.asarray(indices, dtype=np.intp)
        d = object.__new__(Dataset)
        object.__setattr__(d, "outcomes", self.outcomes[idx])
        object.__setattr__(d, "predictors", self.predictors[idx])
        object.__setattr__(d, "names", self.names)
        return d


def class_counts(d: Dataset) -> tuple[int, int]:
    """Return (events, nonevents); always sums to n."""
    events = int(np.count_nonzero(d.outcomes == 1.0))
    return events, d.n - events


def load_csv(path, outcome_column: str) -> Dataset:
    """Load a comma-delimited, UTF-8, headered file into a Dataset (a
    leading byte-order mark is skipped).

    All non-outcome columns become predictors in file order. Cells must be
    decimal reals; the outcome column must contain only 0 and 1.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate column names {dupes}")
    if outcome_column not in header:
        raise DataError(f"{path}: no column named {outcome_column!r}")
    y_col = header.index(outcome_column)
    names = [h for j, h in enumerate(header) if j != y_col]

    ys: list[float] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} "
                            f"cells, got {len(row)}")
        parsed = []
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: unparseable value {cell!r} "
                    f"in column {header[j]!r}") from None
            parsed.append(v)
        yv = parsed.pop(y_col)
        if yv not in (0.0, 1.0):
            raise DataError(
                f"{path}:{lineno}: outcome value {yv!r} is not 0 or 1")
        ys.append(yv)
        rows.append(parsed)

    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(ys), np.array(rows), tuple(names))

