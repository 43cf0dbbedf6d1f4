import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootval.data import DataError, Dataset, class_counts, load_csv

from conftest import make_dataset, save_csv


def test_dataset_shape_and_defaults():
    d = Dataset(np.array([1.0, 0.0, 1.0]), np.arange(6.0).reshape(3, 2))
    assert d.n == 3 and d.p == 2
    assert d.names == ("x1", "x2")


def test_dataset_rejects_nonbinary_outcome():
    with pytest.raises(DataError, match="row 1"):
        Dataset(np.array([0.0, 2.0]), np.zeros((2, 1)))


def test_dataset_rejects_nonfinite_predictors():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([0.0, 1.0]), np.array([[1.0], [np.nan]]))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(DataError):
        Dataset(np.array([0.0, 1.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(DataError, match="names"):
        Dataset(np.array([0.0, 1.0]), np.zeros((2, 2)), ("only_one",))


def test_dataset_is_immutable():
    d = Dataset(np.array([1.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        d.outcomes[0] = 0.0
    with pytest.raises(ValueError):
        d.predictors[0, 0] = 1.0


def test_check_fittable():
    ok = Dataset(np.array([1.0, 0.0]), np.zeros((2, 1)))
    ok.check_fittable()
    single = Dataset(np.array([1.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(DataError, match="single outcome class"):
        single.check_fittable()
    short = Dataset(np.array([1.0]), np.zeros((1, 1)))
    with pytest.raises(DataError, match="at least 2"):
        short.check_fittable()


def test_subset_matches_fancy_indexing():
    d = make_dataset(3, n=40, p=2)
    idx = np.array([5, 5, 0, 39, 12])
    s = d.subset(idx)
    assert np.array_equal(s.outcomes, d.outcomes[idx])
    assert np.array_equal(s.predictors, d.predictors[idx])
    assert s.names == d.names


def test_class_counts():
    assert class_counts(
        Dataset(np.array([1.0, 0.0, 1.0]), np.zeros((3, 1)))) == (2, 1)
    d = Dataset(np.zeros(5), np.zeros((5, 1)))
    assert class_counts(d) == (0, 5)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_class_counts_sum_to_n(bits):
    d = Dataset(np.array(bits, dtype=float), np.zeros((len(bits), 1)))
    events, nonevents = class_counts(d)
    assert events + nonevents == d.n


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1,x2\n1,0.5,2\n0,-1,3\n1,0,4\n")
    d = load_csv(path, "y")
    assert d.n == 3 and d.p == 2
    assert d.names == ("x1", "x2")
    assert np.array_equal(d.outcomes, [1.0, 0.0, 1.0])
    assert np.array_equal(d.predictors[:, 1], [2.0, 3.0, 4.0])


def test_load_csv_outcome_column_anywhere(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y,b\n1,0,2\n3,1,4\n")
    d = load_csv(path, "y")
    assert d.names == ("a", "b")
    assert np.array_equal(d.predictors, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet programs save UTF-8 with one; it is not part of the
    # first column's name
    path = tmp_path / "d.csv"
    path.write_bytes("\ufeffy,x1\n1,0.5\n0,2\n".encode("utf-8"))
    d = load_csv(path, "y")
    assert d.names == ("x1",)
    assert np.array_equal(d.outcomes, [1.0, 0.0])


def test_load_csv_bad_outcome_reports_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x\n1,0.5\n2,0.5\n")
    with pytest.raises(DataError, match=":3:"):
        load_csv(path, "y")


def test_load_csv_bad_cell_reports_row_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x\n1,oops\n")
    with pytest.raises(DataError, match=r":2:.*'x'"):
        load_csv(path, "y")


def test_load_csv_missing_file_and_column(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_csv(tmp_path / "nope.csv", "y")
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named 'y'"):
        load_csv(path, "y")


def test_load_csv_duplicate_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x,x\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate"):
        load_csv(path, "y")


def test_load_csv_empty_and_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, "y")
    path.write_text("y,x\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path, "y")


def test_save_then_load_roundtrip(tmp_path):
    d = make_dataset(5, n=25, p=4)
    path = tmp_path / "round.csv"
    save_csv(d, path, outcome_column="outcome")
    back = load_csv(path, "outcome")
    assert np.array_equal(back.outcomes, d.outcomes)
    assert np.array_equal(back.predictors, d.predictors)
    assert back.names == d.names


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_roundtrip_property(seed):
    import tempfile
    d = make_dataset(seed, n=12, p=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.csv"
        save_csv(d, path)
        back = load_csv(path, "y")
    assert np.array_equal(back.outcomes, d.outcomes)
    assert np.array_equal(back.predictors, d.predictors)
