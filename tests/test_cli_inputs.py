"""Property: every command line either runs or is refused with status 2.

`cli.main` is driven with numeric flags drawn from edge sets and with small
CSV files drawn from the shapes that break parsers. Whatever the input, the
exit status is 0 or 2 and no exception escapes. On status 2 the last line
of stderr is the error line, `bootval: error: ...`, and no output file is
written; on status 0 the output exists. argparse's own refusals, of a value
it cannot convert, end in the same line.

Sizes that only scale the work (B, inner_B, replications and the
simulation's sample sizes) are drawn from small values: a huge one asks for
a huge run, which is not a parse fault. Worker counts never exceed 1.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bootval.cli import main

EXAMPLES = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ERROR_LINE = re.compile(r"bootval: error: ")

# Each flag's ordinary values, and its edge values. An example gives at
# most one flag an edge value, so that the rest of the run is reached.
REALS = ["-1", "0", "1", "nan", "inf", "-inf", "1e308", "1e400", "5e-324",
         "1.5", "x", ""]
SIZES = ["-1", "0", "1", "1.5", "nan", "x", ""]
LISTS = ["", ",", " , ", "bogus"]
COMMON = {
    "--B": (["2", "3"], SIZES),
    "--inner-B": (["2", "3"], SIZES),
    "--alpha": (["0.05", "0.5"], REALS),
    "--seed": (["0", "1"], ["-1", str(2**64), str(10**40), "1.5", "x"]),
    "--workers": (["1"], ["-1", "0", "1.5", "x"]),
}
VALIDATE = {
    **COMMON,
    "--estimator": (["ml", "ml", "ridge", "lasso"], ["x"]),
    "--penalty": ([None, None, "0.5"], REALS),
    "--measure": (["c-statistic", "calibration-slope"], ["x"]),
    "--corrections": ([None, "harrell", "0.632,0.632plus"],
                      [*LISTS, "harrell,harrell"]),
    "--ci-methods": ([None, "apparent,location-shift", "delong,two-stage"],
                     [*LISTS, "two-stage:harrell"]),
}
SIMULATE = {
    **COMMON,
    "--replications": (["1", "2"], SIZES),
    "--calibration-n": (["2000"], ["-1", "0", "1", "x"]),
    "--estimand-n": (["1000"], ["-1", "0", "999", "x"]),
    "--scenarios": (["1", "3"], [*LISTS, "0", "25", "-1", "1.5", "1,1"]),
    "--methods": ([None, "apparent", "delong,two-stage:harrell"],
                  [*LISTS, "two-stage", "delong:harrell"]),
}


@st.composite
def flags(draw, table):
    """The command-line arguments of one draw from table, with one flag (or
    none) at an edge value; a flag drawn as None is left out."""
    edge = draw(st.sampled_from([*[None] * len(table), *table]))
    argv = []
    for flag, values in table.items():
        value = draw(st.sampled_from(values[flag == edge]))
        if value is not None:
            argv += [flag, value]
    return argv


def run(argv):
    """(exit status, stderr) of one main(argv) call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            np.errstate(over="ignore", invalid="ignore"):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's refusal
            status = exc.code
    return status, err.getvalue()


def check(status, stderr, outputs):
    assert status in (0, 2), stderr
    assert "Traceback" not in stderr
    if status == 2:
        assert ERROR_LINE.match(stderr.strip().splitlines()[-1]), stderr
        assert not any(path.exists() for path in outputs)
    else:
        assert all(path.exists() for path in outputs)


#: What a CSV may get wrong, one at a time: its shape, its outcome
#: classes, or one cell or one column of its predictors.
CSV_FAULTS = ["empty", "header only", "1 row", "3 rows", "no predictors",
              "only 0", "only 1", "byte-order mark", "duplicate name",
              "short row", "constant", "1e200", "1e308", "5e-324", "abc",
              "inf", "1e400", ""]


@st.composite
def csv_files(draw):
    """The bytes of a 30-row CSV with outcome column y and two predictors,
    with one fault of CSV_FAULTS or none."""
    fault = draw(st.sampled_from([*[None] * len(CSV_FAULTS), *CSV_FAULTS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = {"header only": 0, "1 row": 1, "3 rows": 3}.get(fault, 30)
    p = 0 if fault == "no predictors" else 2
    names = ["y", *(f"x{j + 1}" for j in range(p))]
    rows = [[{"only 0": "0", "only 1": "1"}.get(fault, str(i % 2)),
             *(repr(float(v)) for v in rng.normal(size=p))]
            for i in range(n)]
    col, row = 1 + int(rng.integers(p or 1)), int(rng.integers(n or 1))
    if fault == "duplicate name":
        names[col] = "y"
    elif fault == "short row":
        del rows[row][col]
    elif fault == "constant":
        for r in rows:
            r[col] = "2.5"
    elif fault in ("1e200", "1e308"):
        for r in rows:
            r[col] = repr(float(r[col]) * float(fault))
    elif fault in ("5e-324", "abc", "inf", "1e400", ""):
        rows[row][col] = fault
    text = "\n".join(",".join(r) for r in [names, *rows]) + "\n"
    if fault == "empty":
        text = ""
    elif fault == "byte-order mark":
        text = "\ufeff" + text
    return text.encode("utf-8")


@EXAMPLES
@given(data=csv_files(), argv=flags(VALIDATE))
def test_validate_runs_or_exits_with_status_2(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, out = Path(tmp, "in.csv"), Path(tmp, "report.json")
        csv_path.write_bytes(data)
        check(*run(["validate", "--input", str(csv_path), "--outcome-column",
                    "y", "--output", str(out), *argv]), [out])


@EXAMPLES
@given(argv=flags(SIMULATE))
def test_simulate_runs_or_exits_with_status_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp, "cov")
        check(*run(["simulate", "--output-prefix", str(prefix), *argv]),
              [prefix.with_suffix(".csv"), prefix.with_suffix(".json")])
