import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bootval import cli
from bootval.cli import build_parser, main
from bootval.data import Dataset
from bootval.simulation import _phi_bounds

from conftest import make_dataset, raising, save_csv


@pytest.fixture
def csv_path(tmp_path):
    d = make_dataset(91, n=80, p=2)
    path = tmp_path / "dev.csv"
    save_csv(d, path, outcome_column="y")
    return str(path)


def run_validate(csv_path, out_path, *extra):
    args = ["validate", "--input", csv_path, "--outcome-column", "y",
            "--B", "20", "--seed", "3", "--workers", "1",
            "--output", str(out_path), *extra]
    return main(args)


def test_validate_report_structure(csv_path, tmp_path):
    out = tmp_path / "report.json"
    assert run_validate(csv_path, out) == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 3
    assert report["dataset"] == {"n": 80, "p": 2, "names": ["x1", "x2"]}
    assert set(report["corrections"]) == {"harrell", "0.632", "0.632plus"}
    methods = [row["method"] for row in report["intervals"]]
    assert methods.count("delong") == 1
    assert methods.count("apparent") == 1
    assert methods.count("location-shift") == 3
    assert methods.count("two-stage") == 3
    for row in report["intervals"]:
        assert row["lower"] <= row["upper"]
    assert "rng_scheme" in report and "library_version" in report


def test_validate_same_seed_is_byte_identical(csv_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_validate(csv_path, a, "--ci-methods", "delong,apparent") == 0
    assert run_validate(csv_path, b, "--ci-methods", "delong,apparent") == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_runs_a_repeated_correction_or_ci_method_once(csv_path,
                                                               tmp_path):
    # repeats collapse to their first occurrence, in the report's config too
    a, b = tmp_path / "repeated.json", tmp_path / "once.json"
    assert run_validate(csv_path, a, "--corrections", "harrell,harrell",
                        "--ci-methods", "delong,delong,location-shift") == 0
    assert run_validate(csv_path, b, "--corrections", "harrell",
                        "--ci-methods", "delong,location-shift") == 0
    assert a.read_bytes() == b.read_bytes()
    config = json.loads(a.read_text())["config"]
    assert config["corrections"] == ["harrell"]
    assert config["ci_methods"] == ["delong", "location-shift"]


def test_validate_rejects_bad_config(csv_path, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["validate", "--input", csv_path, "--outcome-column", "y",
                 "--B", "0", "--output", out]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["validate", "--input", csv_path, "--outcome-column", "y",
                 "--measure", "calibration-slope", "--ci-methods", "delong",
                 "--output", out]) == 2
    assert main(["validate", "--input", csv_path, "--outcome-column", "y",
                 "--corrections", "harrel", "--output", out]) == 2
    assert main(["validate", "--input", csv_path, "--outcome-column", "nope",
                 "--output", out]) == 2


def test_validate_rejects_suffixed_ci_method(csv_path, tmp_path, capsys):
    out = tmp_path / "x.json"
    for methods in ("delong,two-stage:harrell", "apparent:harrell"):
        assert run_validate(csv_path, out, "--ci-methods", methods) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


def test_validate_names_the_corrections_option_for_a_suffixed_kind(
        csv_path, tmp_path, capsys):
    # it said "location-shift requires a correction, got 'harrell:harrell'"
    out = tmp_path / "x.json"
    assert run_validate(csv_path, out, "--ci-methods",
                        "location-shift:harrell") == 2
    assert capsys.readouterr().err == (
        "bootval: error: --ci-methods takes interval kinds, got "
        "'location-shift:harrell'; --corrections names the corrections\n")
    assert not out.exists()


def test_validate_calibration_slope_default_ci_methods(csv_path, tmp_path):
    out = tmp_path / "slope.json"
    assert run_validate(csv_path, out, "--measure", "calibration-slope",
                        "--inner-B", "3") == 0
    report = json.loads(out.read_text())
    assert report["config"]["ci_methods"] == [
        "apparent", "location-shift", "two-stage"]
    corrections = ["harrell", "0.632", "0.632plus"]
    assert [(row["method"], row.get("correction"))
            for row in report["intervals"]] == (
        [("apparent", None)]
        + [("location-shift", c) for c in corrections]
        + [("two-stage", c) for c in corrections])


def test_validate_interval_order_is_fixed(csv_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_validate(csv_path, a, "--inner-B", "3") == 0
    assert run_validate(csv_path, b, "--inner-B", "3", "--ci-methods",
                        "two-stage,location-shift,apparent,delong") == 0
    rows_a = json.loads(a.read_text())["intervals"]
    assert json.loads(b.read_text())["intervals"] == rows_a
    assert [row["method"] for row in rows_a] == (
        ["delong", "apparent"] + ["location-shift"] * 3 + ["two-stage"] * 3)


def test_validate_missing_file_is_config_error(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.csv"),
                 "--outcome-column", "y", "--output", "-"]) == 2
    assert "cannot open" in capsys.readouterr().err


def test_validate_calibration_slope_measure(csv_path, tmp_path):
    out = tmp_path / "slope.json"
    assert run_validate(csv_path, out, "--measure", "calibration-slope",
                        "--ci-methods", "apparent,location-shift",
                        "--corrections", "harrell") == 0
    report = json.loads(out.read_text())
    assert report["config"]["measure"] == "calibration-slope"
    assert "harrell" in report["corrections"]


def test_validate_stdout_output(csv_path, capsys):
    assert run_validate(csv_path, "-",
                        "--ci-methods", "delong") == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["config"]["ci_methods"] == ["delong"]
    # progress goes to stderr only
    assert "[bootval]" in captured.err
    assert "[bootval]" not in captured.out


def test_simulate_small_run_and_shape(tmp_path):
    prefix = str(tmp_path / "cov")
    args = ["simulate", "--scenarios", "1", "--methods", "delong,apparent",
            "--replications", "2", "--B", "8", "--seed", "2",
            "--workers", "1", "--calibration-n", "20000",
            "--estimand-n", "2000", "--output-prefix", prefix]
    assert main(args) == 0
    lines = (tmp_path / "cov.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2  # header + scenarios x methods
    payload = json.loads((tmp_path / "cov.json").read_text())
    assert payload["meta"]["scenarios"] == [1]
    assert len(payload["results"]) == 2
    for row in payload["results"]:
        assert 0.0 <= row["coverage"] <= 1.0


def test_simulate_runs_a_repeated_method_or_scenario_once(tmp_path,
                                                         monkeypatch):
    # repeats collapse to their first occurrence, so the reports are those
    # of the list without them
    ran = []
    original = cli.run_scenario

    def recording(spec, methods, *args, **kwargs):
        ran.append((spec.id, list(methods)))
        return original(spec, methods, *args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", recording)
    common = ["--replications", "1", "--B", "4", "--seed", "2",
              "--workers", "1", "--calibration-n", "20000",
              "--estimand-n", "2000"]
    assert main(["simulate", "--scenarios", "1,1",
                 "--methods", "apparent,delong,apparent", *common,
                 "--output-prefix", str(tmp_path / "repeated")]) == 0
    assert main(["simulate", "--scenarios", "1",
                 "--methods", "apparent,delong", *common,
                 "--output-prefix", str(tmp_path / "once")]) == 0
    assert ran == [(1, ["apparent", "delong"])] * 2
    for ext in ("csv", "json"):
        assert ((tmp_path / f"repeated.{ext}").read_bytes()
                == (tmp_path / f"once.{ext}").read_bytes())


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          **kwargs)


def test_simulate_progress_goes_to_stderr_once_per_replication(tmp_path):
    # Two workers, so the lines come from the pool's processes.
    done = run_python(
        "import sys; from bootval.cli import main; sys.exit(main(["
        "'simulate', '--scenarios', '1,5', '--methods', 'delong', "
        "'--replications', '3', '--B', '8', '--workers', '2', "
        "'--calibration-n', '20000', '--estimand-n', '2000', "
        "'--output-prefix', 'cov']))", cwd=tmp_path)
    assert done.stdout == ""
    progress = [line.split(" in ") for line in done.stderr.splitlines()
                if ": replication " in line]
    assert sorted(head for head, _ in progress) == [
        f"[bootval] scenario {s}: replication {i}/3 done"
        for s in (1, 5) for i in (1, 2, 3)]
    assert all(seconds.endswith("s") for _, seconds in progress)


SCIPY_STATS_OR_OPTIMIZE = (
    "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
    "(['scipy', 'stats'], ['scipy', 'optimize'])))")


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    # Importing scipy.stats and scipy.optimize costs about 0.7 s, much of a
    # small validate run.
    done = run_python(
        "import sys, bootval, bootval.cli, bootval.simulation; "
        + SCIPY_STATS_OR_OPTIMIZE)
    assert done.stdout.strip() == "[]"


def test_simulate_loads_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    # The generator's bivariate normal tail and both root searches are
    # local ports, so a whole simulate run needs neither module.
    done = run_python(
        "import sys; from bootval.cli import main; status = main(["
        "'simulate', '--scenarios', '1', '--replications', '1', "
        "'--B', '5', '--inner-B', '5', "
        "'--workers', '1', '--calibration-n', '20000', "
        "'--estimand-n', '5000', '--output-prefix', 'cov']); "
        "status and sys.exit(status); " + SCIPY_STATS_OR_OPTIMIZE,
        cwd=tmp_path)
    assert done.stdout.strip() == "[]"


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    assert main(["simulate", "--scenarios", "99",
                 "--output-prefix", str(tmp_path / "x")]) == 2
    assert "no scenario 99" in capsys.readouterr().err


def test_simulate_reports_a_missing_generator_row(tmp_path, capsys):
    table = SRC / "bootval" / "params" / "default_generator.table"
    lines = table.read_text().splitlines(keepends=True)
    path = tmp_path / "no_sex.table"
    path.write_text("".join(line for line in lines
                            if not line.startswith("SEX,")))
    assert main(["simulate", "--generator-params", str(path),
                 "--output-prefix", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "bootval: error: generator table section [binary_marginals] has "
        "no SEX row\n")


# the largest correlation that the marginals of SEX and DIA allow
SEX_DIA_BOUND = repr(float(_phi_bounds(0.25, 0.15)[1]))


@pytest.mark.parametrize("edits, message", [
    ([("SEX,0.25", "SEX,one quarter")],
     "value 'one quarter' is not a number"),
    ([("60.0,225.0,-9.0", "60.0,225.0")],
     "[continuous_covariance] has rows of unequal length"),
    ([("100.0,60.0,-12.0\n60.0,225.0,-9.0\n-12.0,-9.0,144.0",
       "100.0,60.0\n60.0,225.0")], "symmetric 3 x 3 matrix"),
    ([("1.00,0.05,", f"1.00,{SEX_DIA_BOUND},"),
      ("\n0.05,1.00,", f"\n{SEX_DIA_BOUND},1.00,")],
     "between SEX and DIA has no latent normal correlation"),
    ([("SEX,0.25", "SEX")],
     "[binary_marginals] row 'SEX' is not a key and one value"),
    ([("[age_threshold]\n65\n", "[age_threshold]\n")],
     "[age_threshold] must hold exactly one value"),
])
def test_simulate_rejects_a_malformed_generator_table(tmp_path, capsys,
                                                      edits, message):
    text = (SRC / "bootval" / "params" / "default_generator.table"
            ).read_text()
    for old, new in edits:
        text = text.replace(old, new, 1)
    path = tmp_path / "edited.table"
    path.write_text(text)
    assert main(["simulate", "--scenarios", "1", "--generator-params",
                 str(path), "--replications", "1", "--B", "2",
                 "--calibration-n", "20000", "--estimand-n", "2000",
                 "--output-prefix", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, width", [
    ("coefficients_8_type1", 8), ("coefficients_17_type1", 18)])
def test_simulate_checks_coefficient_rows_before_any_scenario(
        tmp_path, capsys, section, width):
    # A row's length was checked only when a scenario that reads it
    # started: scenario 5 ran to the end before scenario 1 failed.
    table = SRC / "bootval" / "params" / "default_generator.table"
    lines = table.read_text().splitlines(keepends=True)
    row = lines.index(f"[{section}]\n") + 1
    lines[row] = lines[row].rsplit(",", 1)[0] + "\n"  # drop the last value
    path = tmp_path / "short.table"
    path.write_text("".join(lines))
    assert main(["simulate", "--scenarios", "5,1", "--generator-params",
                 str(path), "--replications", "1", "--B", "2",
                 "--calibration-n", "20000", "--estimand-n", "2000",
                 "--workers", "1", "--output-prefix",
                 str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == (f"bootval: error: generator table section [{section}] "
                   f"must hold {width} values, not {width - 1}\n")
    assert "replication" not in err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("calibration_n", ["0", "-5"])
def test_simulate_rejects_a_calibration_sample_without_rows(
        tmp_path, capsys, calibration_n):
    # the mean event probability of an empty sample is NaN, which the root
    # search would meet as an uncaught ValueError
    assert main(["simulate", "--scenarios", "1", "--replications", "1",
                 "--B", "2", "--calibration-n", calibration_n,
                 "--output-prefix", str(tmp_path / "x")]) == 2
    assert ("calibration sample must have >= 1 row"
            in capsys.readouterr().err)


def test_user_input_errors_exit_with_status_2(tmp_path, capsys):
    # Each is parsed where a NumPy or Python ValueError would arise, and
    # reported as the library's own error.
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("y,caf\xe9\n1,2\n0,3\n".encode("latin-1"))
    table = tmp_path / "latin1.table"
    table.write_bytes(b"# caf\xe9\n")
    prefix = str(tmp_path / "x")
    cases = [
        (["simulate", "--scenarios", "1,x", "--output-prefix", prefix],
         "scenario ids must be integers, got '1,x'"),
        (["simulate", "--scenarios", "", "--output-prefix", prefix],
         "no scenario requested"),
        (["simulate", "--scenarios", " , ", "--output-prefix", prefix],
         "no scenario requested"),
        (["validate", "--input", str(latin1), "--outcome-column", "y"],
         "not UTF-8 text"),
        (["simulate", "--generator-params", str(table),
          "--output-prefix", prefix], "cannot read"),
        (["simulate", "--generator-params", str(tmp_path / "none.table"),
          "--output-prefix", prefix], "cannot read"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_validate_rejects_a_negative_seed(csv_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_validate(csv_path, out, "--seed", "-1") == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["simulate", "--seed", "-1",
                 "--output-prefix", str(tmp_path / "x")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("penalty", ["nan", "inf"])
def test_validate_rejects_a_non_finite_penalty(csv_path, tmp_path, capsys,
                                               penalty):
    out = tmp_path / "report.json"
    assert run_validate(csv_path, out, "--estimator", "ridge",
                        "--penalty", penalty) == 2
    assert "penalty must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_a_penalty_for_maximum_likelihood(csv_path,
                                                          tmp_path, capsys):
    # the ML fit has no penalty, so the report must not claim one
    out = tmp_path / "report.json"
    assert run_validate(csv_path, out, "--estimator", "ml",
                        "--penalty", "5") == 2
    assert "--penalty applies to --estimator ridge or lasso only" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--B", "x"],
    ["validate", "--input", "a.csv", "--outcome-column", "y", "--B", "x"],
    ["simulate", "--replications", "1.5"],
    ["simulate", "--bogus"],
    ["bogus"],
    [],
])
def test_parser_refusals_use_the_library_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "bootval: error: ")


def test_validate_rejects_a_fit_with_non_finite_coefficients(tmp_path,
                                                             capsys):
    # a predictor scaled by 1e200 overflows the ML fit's Hessian
    d = make_dataset(93, n=60, p=2)
    x = d.predictors.copy()
    x[:, 1] *= 1e200
    path = tmp_path / "huge.csv"
    save_csv(Dataset(d.outcomes, x), path)
    out = tmp_path / "report.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_validate(str(path), out) == 2
    assert ("ml fit has non-finite coefficients"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("estimator", [["ridge", "--penalty", "1"],
                                       ["lasso"]], ids=["ridge", "lasso"])
def test_validate_rejects_a_predictor_too_large_to_standardize(
        tmp_path, capsys, estimator):
    # the standard deviation of a predictor scaled by 1e200 overflows, so
    # the standardized column would be all zeros and its slope 0
    d = make_dataset(93, n=60, p=2)
    x = d.predictors.copy()
    x[:, 1] *= 1e200
    path = tmp_path / "huge.csv"
    save_csv(Dataset(d.outcomes, x), path)
    out = tmp_path / "report.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_validate(str(path), out, "--estimator", *estimator) == 2
    assert ("predictor 'x2' is too large to standardize"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["ridge", "lasso"])
def test_validate_selects_a_penalty_without_predictors(tmp_path, estimator):
    # the lambda grid starts at the largest slope score, which has to be
    # defined when there is no slope: the fit is then intercept-only
    path = tmp_path / "intercept.csv"
    path.write_text("y\n" + "".join(f"{i % 2}\n" for i in range(30)))
    out = tmp_path / "report.json"
    assert run_validate(str(path), out, "--estimator", estimator, "--B", "4",
                        "--ci-methods", "apparent") == 0
    assert json.loads(out.read_text())["dataset"]["p"] == 0


def test_validate_checks_the_output_before_compute(csv_path, tmp_path,
                                                  capsys, monkeypatch):
    monkeypatch.setattr(cli, "validate", raising(AssertionError))
    before = sorted(tmp_path.iterdir())
    for target in (tmp_path / "none" / "report.json", tmp_path):
        assert run_validate(csv_path, target) == 2
        assert f"cannot write {target}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_checks_the_output_prefix_before_compute(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", raising(AssertionError))
    (tmp_path / "dir.json").mkdir()
    for prefix, target in (("none/x", "none/x.csv"), ("dir", "dir.json")):
        assert main(["simulate",
                     "--output-prefix", str(tmp_path / prefix)]) == 2
        assert (f"cannot write {tmp_path / target}"
                in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["dir.json"]


def test_main_lets_a_numpy_error_propagate(csv_path, monkeypatch):
    # LinAlgError subclasses ValueError; it is a fault, not a user's input
    # error, so it must not become status 2.
    monkeypatch.setattr(cli, "validate", raising(np.linalg.LinAlgError))
    with pytest.raises(np.linalg.LinAlgError):
        run_validate(csv_path, "-")


def test_simulate_has_no_scenario_params_option(tmp_path, capsys):
    # scenarios are named by id; a parameter file could only repeat them
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario-params", str(tmp_path / "s.txt"),
              "--output-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--scenario-params" in capsys.readouterr().err


def test_parser_defaults():
    args = build_parser().parse_args(
        ["simulate", "--output-prefix", "cov"])
    assert args.scenarios == "1,5,17,21"
    assert args.replications == 200 and args.B == 200
    assert args.seed == 1
    args = build_parser().parse_args(
        ["validate", "--input", "x.csv", "--outcome-column", "y"])
    assert args.B == 2000 and args.alpha == 0.05
