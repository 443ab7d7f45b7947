import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cimmino import cli
from cimmino import io as cio

from cimmino.spectral import contraction_factor_2d, error_envelope

from conftest import (
    REPORT_FIELD_ORDER, envelope_csv_text, read_report_json, read_trace_csv, sweep_csv_text,
    write_mm_array, write_mm_vector,
)


@pytest.fixture
def example1_files(tmp_path):
    mat = tmp_path / "a1.mtx"
    rhs = tmp_path / "b1.mtx"
    write_mm_array(mat, [[2.0, 1.0], [1.0, 2.0]])
    write_mm_vector(rhs, [3.0, 3.0])
    return str(mat), str(rhs)


@pytest.fixture
def example2_files(tmp_path):
    mat = tmp_path / "a2.mtx"
    rhs = tmp_path / "b2.mtx"
    write_mm_array(mat, [[1.0, 1.0], [1.0, -1.0]])
    write_mm_vector(rhs, [2.0, 0.0])
    return str(mat), str(rhs)


def _read_csv_columns(path):
    lines = path.read_text(encoding="ascii").strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, data


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_example1_defaults(example1_files, capsys):
    mat, rhs = example1_files
    code = cli.main(["solve", "--matrix", mat, "--rhs", rhs])
    out = capsys.readouterr().out
    assert code == 0
    assert "termination: Converged" in out
    x_line = [line for line in out.splitlines() if line.startswith("x:")][0]
    values = [float(tok) for tok in x_line.split(":", 1)[1].split()]
    assert np.max(np.abs(np.array(values) - 1.0)) <= 1e-8


def test_solve_example2_from_marked_start(example2_files, capsys):
    mat, rhs = example2_files
    code = cli.main(["solve", "--matrix", mat, "--rhs", rhs, "--x0", "3,-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "iterations: 1" in out
    assert "x: 1.0 1.0" in out


@pytest.mark.parametrize("option, value", [("--x0", "-1,2"), ("--solution", "-1,2")])
def test_solve_takes_negative_list_as_separate_argument(example1_files, tmp_path, capsys,
                                                        option, value):
    mat, rhs = example1_files
    trace_path = tmp_path / "trace.csv"
    code = cli.main([
        "solve", "--matrix", mat, "--rhs", rhs, option, value,
        "--trace-out", str(trace_path),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    rows = read_trace_csv(trace_path)
    if option == "--x0":
        # Residual of x0 = (-1, 2) against b = (3, 3): r = (3, 0).
        assert rows[0][1] == 3.0
    else:
        # Error of x0 = 0 against the given solution: ||(-1, 2)|| = sqrt(5).
        assert rows[0][2] == pytest.approx(5.0 ** 0.5, rel=1e-15)


def test_solve_doubled_weights_exits_3(example1_files, capsys):
    mat, rhs = example1_files
    code = cli.main(["solve", "--matrix", mat, "--rhs", rhs, "--weights", "2,2"])
    out = capsys.readouterr().out
    assert code == 3
    assert "termination: Diverged" in out


def test_solve_budget_exhaustion_exits_2(example1_files, capsys):
    mat, rhs = example1_files
    code = cli.main(["solve", "--matrix", mat, "--rhs", rhs, "--max-iter", "3"])
    assert code == 2
    assert "termination: MaxIterations" in capsys.readouterr().out


def test_solve_memory_follows_steps_taken_not_budget(example1_files, capsys):
    # Reserving the history for this budget up front would take 146 TiB;
    # the run needs 104 rows.
    mat, rhs = example1_files
    code = cli.main(["solve", "--matrix", mat, "--rhs", rhs, "--max-iter", "10000000000000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "termination: Converged" in out
    assert "iterations: 103" in out


def test_solve_writes_trace(example1_files, tmp_path, capsys):
    mat, rhs = example1_files
    trace_path = tmp_path / "trace.csv"
    code = cli.main([
        "solve", "--matrix", mat, "--rhs", rhs,
        "--solution", "1,1", "--trace-out", str(trace_path),
    ])
    assert code == 0
    rows = read_trace_csv(trace_path)
    assert rows[0][0] == 0
    assert rows[-1][2] is not None and rows[-1][2] <= 1e-8


def test_solve_missing_file_exits_1(tmp_path, capsys):
    code = cli.main([
        "solve", "--matrix", str(tmp_path / "nope.mtx"), "--rhs", str(tmp_path / "nope2.mtx"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_solve_bad_weights_exit_1(example1_files, capsys):
    mat, rhs = example1_files
    code = cli.main(["solve", "--matrix", mat, "--rhs", rhs, "--weights", "1,nope"])
    assert code == 1
    assert "--weights" in capsys.readouterr().err


def _solve_warning_free(tmp_path, matrix, rhs, *options):
    """Exit code of ``cimmino solve`` on these arrays; it must emit no RuntimeWarning."""
    mat, vec = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_mm_array(mat, matrix)
    write_mm_vector(vec, rhs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["solve", "--matrix", str(mat), "--rhs", str(vec), *options])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


@pytest.mark.parametrize("matrix, rhs, options, message", [
    ([[2e-154, 0.0], [0.0, 1.0]], [1.0, 1.0], ["--weights", "10,1"],
     "row(s) [0]: weight / squared norm overflows binary64"),
    ([[1.0, 0.0], [0.0, 1.0]], [1e200, 1.0], [], "rhs: squared norm overflows binary64"),
    ([[2e-154, 0.0], [0.0, 2e-154]], [1.0, 1.0], ["--weights", "10,10"],
     "row(s) [0, 1]: weight / squared norm overflows binary64"),
], ids=["step-coefficient", "rhs", "step-coefficient-two-rows"])
def test_solve_refuses_overflowing_input(tmp_path, capsys, matrix, rhs, options, message):
    # Before these refusals the first warned and ran NaN iterates to the
    # budget; the second warned and reported Converged at x = 0.
    assert _solve_warning_free(tmp_path, matrix, rhs, *options) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cimmino: error: {message}\n"


def test_solve_diverging_overflow_prints_no_warning(tmp_path, capsys):
    # The residual norm overflows to inf before the iterate norm reaches the
    # 1e150 sentinel; the run still stops Diverged at the same step.
    code = _solve_warning_free(tmp_path, [[2e10, 1e10], [1e10, 2e10]], [3.0, 3.0],
                               "--weights", "2,2")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert "termination: Diverged\niterations: 386\nfinal_residual: inf\n" in captured.out


def test_solve_warns_when_a_kept_step_makes_a_nan(tmp_path, capsys):
    # coef_0 * r_0 overflows and inf * 0 makes the first step NaN; the run
    # carries NaN to the budget and warns once.
    mat, vec = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_mm_array(mat, [[1e-150, 0.0], [0.0, 1.0]])
    write_mm_vector(vec, [1e10, 1.0])
    with pytest.warns(RuntimeWarning) as caught:
        code = cli.main(["solve", "--matrix", str(mat), "--rhs", str(vec), "--max-iter", "40"])
    assert [str(w.message) for w in caught] == [
        "invalid value encountered in solve: the residual is NaN from step 1 on"]
    assert code == 2
    assert capsys.readouterr().out.endswith(
        "termination: MaxIterations\niterations: 40\nfinal_residual: nan\nx: nan nan\n")


def test_a_library_warning_reaches_stderr_as_one_line(tmp_path, capsys):
    # The line names no source file or source line, and main restores the
    # warnings formatter it replaced.
    mat, vec = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_mm_array(mat, [[1e-150, 0.0], [0.0, 1.0]])
    write_mm_vector(vec, [1e10, 1.0])
    result = subprocess.run(
        [sys.executable, "-m", "cimmino", "solve", "--matrix", str(mat), "--rhs", str(vec),
         "--max-iter", "40"], capture_output=True, text=True, env=_child_env())
    assert result.returncode == 2
    assert result.stderr == ("cimmino: warning: invalid value encountered in solve: "
                             "the residual is NaN from step 1 on\n")
    formatwarning = warnings.formatwarning
    assert cli.main(["demo", "example2"]) == 0
    assert warnings.formatwarning is formatwarning


def test_solve_overflowing_error_norms_print_no_warning(tmp_path, capsys):
    # Every error norm against this far-off reference is inf; inf/inf ratios
    # are undefined and written empty, without numpy's "invalid value" warning.
    trace_path = tmp_path / "trace.csv"
    code = _solve_warning_free(tmp_path, [[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0],
                               "--solution=1e200,1e200", "--max-iter", "3",
                               "--trace-out", str(trace_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"trace written to {trace_path}\n"
    rows = trace_path.read_text(encoding="ascii").splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["inf", ""]] * 4


def test_usage_error_exits_1(capsys):
    code = None
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--matrix"])  # missing value
    code = excinfo.value.code
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 1


# The options each command needs, with values that run; a case replaces one.
_REQUIRED = {
    "solve": {"--matrix": "{mat}", "--rhs": "{rhs}"},
    "analyze": {"--matrix": "{mat}"},
    "sweep": {"--theta-grid": "10:170:1", "--weights": "1,1", "--out": "{out}"},
    "envelope": {"--rho": "0.5", "--steps": "3", "--out": "{out}"},
}


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``cli.main`` run, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# Every option that takes a value, with one that starts with a minus sign.
# Seven of them are values that a list of numeric value characters would
# leave argparse to read as unknown options ("expected one argument"):
# "-10:170:1", "-inf:10:1", "-1,1;1,1", "-1_0,2", "-inf,0", "-NaN,1", "-inf".
@pytest.mark.parametrize("command, option, value", [
    ("solve", "--x0", "-1,2"),
    ("solve", "--x0", "-1_0,2"),
    ("solve", "--x0", "-inf,0"),
    ("solve", "--solution", "-1,2"),
    ("solve", "--solution", "-NaN,1"),
    ("solve", "--weights", "-1,1"),
    ("solve", "--tol", "-inf"),
    ("solve", "--tol", "-1e-10"),
    ("solve", "--max-iter", "-1"),
    ("analyze", "--weights", "-1,1"),
    ("sweep", "--theta-grid", "-10:170:1"),
    ("sweep", "--theta-grid", "-inf:10:1"),
    ("sweep", "--weights", "-1,1;1,1"),
    ("envelope", "--rho", "-0.5"),
    ("envelope", "--e0", "-1"),
    ("envelope", "--steps", "-3"),
])
def test_a_negative_value_gives_the_same_outcome_in_either_spelling(
        example1_files, tmp_path, capsys, command, option, value):
    mat, rhs = example1_files
    options = {key: text.format(mat=mat, rhs=rhs, out=tmp_path / "out.csv")
               for key, text in {**_REQUIRED[command], option: value}.items()}

    def spelled(joined):
        argv = [command]
        for key, text in options.items():
            argv += [f"{key}={text}"] if joined and key == option else [key, text]
        return argv

    outcome = _outcome(spelled(False), capsys)
    assert outcome == _outcome(spelled(True), capsys)
    # argparse only split the options: the value met the program's own rule.
    assert "usage:" not in outcome[2]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_example1(example1_files, tmp_path, capsys):
    mat, _ = example1_files
    json_path = tmp_path / "report.json"
    code = cli.main(["analyze", "--matrix", mat, "--json-out", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectral_radius: 0.8" in out
    assert "class: Converges" in out
    assert "tight_frame: false" in out
    assert "theta_deg: " in out
    report = read_report_json(json_path)
    assert report.spectral_radius == pytest.approx(0.8, abs=1e-12)
    assert report.optimal_alpha == pytest.approx(1.0, abs=1e-12)


def test_analyze_example2_tight_frame(example2_files, capsys):
    mat, _ = example2_files
    code = cli.main(["analyze", "--matrix", mat])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectral_radius: 0.0" in out
    assert "tight_frame: true" in out


def test_analyze_singular_matrix_exits_1(tmp_path, capsys):
    mat = tmp_path / "singular.mtx"
    write_mm_array(mat, [[2.0, 1.0], [2.0, 1.0]])
    code = cli.main(["analyze", "--matrix", str(mat)])
    captured = capsys.readouterr()
    assert code == 1
    assert "singular" in captured.err


def _analyze_example1(tmp_path, *options):
    """Exit code of ``cimmino analyze`` on example1; it must emit no RuntimeWarning."""
    mat = tmp_path / "a1.mtx"
    write_mm_array(mat, [[2.0, 1.0], [1.0, 2.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["analyze", "--matrix", str(mat), *options])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def test_analyze_refuses_a_spectrum_past_the_float_range(tmp_path, capsys):
    # B is finite (entries up to 1e308) but its top eigenvalue, 1.8e308, is
    # not.  Before this refusal (B + B^T)/2 overflowed and analyze printed
    # "eigenvalues: nan nan", "class: Diverges" and exited 0.
    code = _analyze_example1(tmp_path, "--weights", "1e308,1e308")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("cimmino: error: eigenvalues [1.9999999999999995e+307, inf] "
                            "of B overflow binary64\n")


def test_analyze_refuses_a_normal_matrix_past_the_float_range(tmp_path, capsys):
    # Before this refusal the matmul warned, and B = inf was refused as
    # "matrix entries must be finite", although the input matrix is finite.
    mat = tmp_path / "a.mtx"
    write_mm_array(mat, [[1.0, 0.0], [1.0, 1e-10]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["analyze", "--matrix", str(mat), "--weights", "1e308,1e308"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "cimmino: error: B = A^T D_w A overflows binary64\n"


def test_analyze_huge_finite_spectrum_still_reports_diverges(tmp_path, capsys):
    code = _analyze_example1(tmp_path, "--weights", "5e307,5e307")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "eigenvalues: 9.999999999999997e+306 9e+307\n" in captured.out
    assert "class: Diverges\n" in captured.out


def test_analyze_three_by_three_has_no_theta_line(tmp_path, capsys):
    mat = tmp_path / "a3.mtx"
    write_mm_array(mat, [[2.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 1.0, 3.0]])
    code = cli.main(["analyze", "--matrix", str(mat)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n: 3" in out
    assert "theta_deg" not in out


def test_analyze_deterministic_stdout(example1_files, capsys):
    mat, _ = example1_files
    cli.main(["analyze", "--matrix", mat])
    first = capsys.readouterr().out
    cli.main(["analyze", "--matrix", mat])
    second = capsys.readouterr().out
    assert first == second


def _rendered(value) -> str:
    """A report JSON value as ``analyze`` prints it."""
    if isinstance(value, list):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


@pytest.mark.parametrize("rows, options", [
    ([[2.0, 1.0], [1.0, 2.0]], []),
    ([[1.0, 0.0], [0.0, 1.0]], []),
    ([[2.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 1.0, 3.0]], []),
], ids=["example1", "identity2", "three"])
def test_analyze_stdout_is_the_json_report_line_by_line(tmp_path, capsys, rows, options):
    mat = tmp_path / "a.mtx"
    json_path = tmp_path / "report.json"
    write_mm_array(mat, rows)
    code = cli.main(["analyze", "--matrix", str(mat), *options, "--json-out", str(json_path)])
    assert code == 0
    with open(json_path, encoding="ascii") as fh:
        doc = json.load(fh)
    expected = []
    for key in REPORT_FIELD_ORDER:
        if key != "theta":
            expected.append(f"{key}: {_rendered(doc[key])}")
        elif len(rows) == 2:
            expected.append(f"theta_deg: {_rendered(math.degrees(doc[key]))}")
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("argv", [
    ["analyze", "--matrix", "{mat}", "--weights", "1e-310,1e-310", "--json-out"],
    ["sweep", "--theta-grid", "10:170:1", "--weights", "1e-310,1e-310", "--out"],
], ids=["analyze", "sweep"])
def test_subnormal_weights_are_refused_before_any_output(example1_files, tmp_path, capsys, argv):
    # Below the normal range, analyze's 2/(l_1 + l_n) would overflow to inf.
    mat, _ = example1_files
    out_path = tmp_path / "out"
    assert cli.main([arg.format(mat=mat) for arg in argv] + [str(out_path)]) == 1
    assert capsys.readouterr() == ("", "cimmino: error: weight(s) [0, 1]: must be finite and "
                                       "positive, and at least 2.2250738585072014e-308\n")
    assert not out_path.exists()


_WEIGHT_MESSAGE = "must be finite and positive, and at least 2.2250738585072014e-308"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--weights", "nan,1"],
     f"weight(s) [0]: {_WEIGHT_MESSAGE}"),
    (["analyze", "--matrix", "{mat}", "--weights", "1,inf"], f"weight(s) [1]: {_WEIGHT_MESSAGE}"),
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--x0=nan,0"],
     "x0 vector entries must be finite"),
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--solution=1,inf"],
     "known_solution vector entries must be finite"),
    # An empty element (doubled, leading or trailing comma) is not a float.
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--weights", "1,,1"],
     "--weights: expected comma-separated reals, got '1,,1'"),
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--solution", "1,,2"],
     "--solution: expected comma-separated reals, got '1,,2'"),
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--x0", ",1"],
     "--x0: expected comma-separated reals, got ',1'"),
    (["analyze", "--matrix", "{mat}", "--weights", "1,1,"],
     "--weights: expected comma-separated reals, got '1,1,'"),
], ids=["solve-weights-nan", "analyze-weights-inf", "solve-x0-nan", "solve-solution-inf",
        "solve-weights-empty-element", "solve-solution-empty-element", "solve-x0-empty-element",
        "analyze-weights-empty-element"])
def test_non_finite_options_are_refused_by_name(example1_files, capsys, argv, message):
    mat, rhs = example1_files
    assert cli.main([arg.format(mat=mat, rhs=rhs) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"cimmino: error: {message}\n")


@pytest.mark.parametrize("argv, name", [
    (["solve", "--matrix", "{mat}", "--rhs", "{rhs}", "--trace-out"], "trace.csv"),
    (["analyze", "--matrix", "{mat}", "--json-out"], "report.json"),
], ids=["solve-trace-out", "analyze-json-out"])
def test_a_failed_write_prints_nothing_on_stdout(example1_files, tmp_path, capsys, argv, name):
    # Output files are written before the first stdout line, so a run that
    # exits 1 has printed no result.
    mat, rhs = example1_files
    out_path = tmp_path / "missing" / name
    assert cli.main([arg.format(mat=mat, rhs=rhs) for arg in argv] + [str(out_path)]) == 1
    assert capsys.readouterr() == (
        "", f"cimmino: error: [Errno 2] No such file or directory: '{out_path}'\n")


@pytest.mark.parametrize("command, option", [
    ("solve", "--weights"), ("solve", "--x0"), ("solve", "--solution"), ("analyze", "--weights"),
], ids=["solve-weights", "solve-x0", "solve-solution", "analyze-weights"])
def test_options_are_refused_before_any_file_is_opened(tmp_path, capsys, command, option):
    absent = str(tmp_path / "absent.mtx")
    rhs = ["--rhs", absent] if command == "solve" else []
    assert cli.main([command, "--matrix", absent, *rhs, option, "1,,1"]) == 1
    err = capsys.readouterr().err
    assert f"{option}: expected comma-separated reals, got '1,,1'" in err
    assert "No such file" not in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_unit_column_matches_unit_pair(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--theta-grid", "10:170:1", "--weights", "1,1", "--out", str(out_path),
    ])
    assert code == 0
    header, data = _read_csv_columns(out_path)
    assert header == ["theta_deg", "unit", "rho_1.0_1.0"]
    assert data.shape == (161, 3)
    assert np.array_equal(data[:, 0], np.arange(10.0, 171.0))
    expected_unit = np.abs(np.cos(np.radians(data[:, 0])))
    assert np.max(np.abs(data[:, 1] - expected_unit)) <= 1e-15
    assert np.max(np.abs(data[:, 2] - data[:, 1])) <= 1e-12


def test_sweep_columns_dominate_unit_curve(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--theta-grid", "10:170:5",
        "--weights", "1.4,1.4;0.5,1.5;0.2,0.2", "--out", str(out_path),
    ])
    assert code == 0
    header, data = _read_csv_columns(out_path)
    assert header[2:] == ["rho_1.4_1.4", "rho_0.5_1.5", "rho_0.2_0.2"]
    for col in range(2, 5):
        assert np.all(data[:, col] >= data[:, 1] - 1e-12)


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    code = cli.main([
        "sweep", "--theta-grid", "170:10:1", "--weights", "1,1",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    code = cli.main([
        "sweep", "--theta-grid", "0:180:1", "--weights", "1,1",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    capsys.readouterr()


def test_sweep_rejects_bad_pairs(tmp_path, capsys):
    code = cli.main([
        "sweep", "--theta-grid", "10:170:1", "--weights", "1,1,1",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    assert "pair" in capsys.readouterr().err


@pytest.mark.parametrize("grid, weights, message", [
    ("10:170:1", "1,1;", "--weights: empty list"),
    ("10:170", "1,1", "--theta-grid: expected start:stop:step degrees, got '10:170'"),
    ("a:170:1", "1,1", "--theta-grid: non-numeric bound in 'a:170:1'"),
    ("10:170:inf", "1,1",
     "--theta-grid: need a finite step > 0 and stop >= start, got '10:170:inf'"),
    ("inf:inf:1", "1,1", "--theta-grid: bounds must be finite, got 'inf:inf:1'"),
    ("10:inf:1", "1,1", "--theta-grid: bounds must be finite, got '10:inf:1'"),
    ("10:170:1", "1,,1", "--weights: expected comma-separated reals, got '1,,1'"),
], ids=["empty-pair", "two-part-grid", "non-numeric-bound", "infinite-step",
        "infinite-bounds", "infinite-stop", "empty-element"])
def test_sweep_refuses_malformed_options(tmp_path, capsys, grid, weights, message):
    out_path = tmp_path / "s.csv"
    argv = ["sweep", "--theta-grid", grid, "--weights", weights, "--out", str(out_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"cimmino: error: {message}\n"
    assert not out_path.exists()


def test_sweep_refuses_an_infinite_start(tmp_path, capsys):
    # The "--opt=value" spelling; the spaced one is among the cases of
    # test_a_negative_value_gives_the_same_outcome_in_either_spelling.
    out_path = tmp_path / "s.csv"
    argv = ["sweep", "--theta-grid=-inf:10:1", "--weights", "1,1", "--out", str(out_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ("cimmino: error: --theta-grid: bounds must be finite, "
                                       "got '-inf:10:1'\n")
    assert not out_path.exists()


@pytest.mark.parametrize("grid, weights", [
    ("10:170:1", "1,1;1.4,1.4;0.5,1.5;0.2,0.2"),
    ("45:45:1", "1,1"),
    ("0.5:179.5:0.25", "0.05,3;1e-300,1e-300;3e153,1"),
    ("1:179:0.04", "1,1;0.5,1.5"),  # 4451 angles: more than one CSV block
], ids=["paper-grid", "one-angle", "fine-grid-extreme-weights", "more-than-a-block"])
def test_sweep_csv_matches_the_cell_by_cell_oracle(tmp_path, capsys, grid, weights):
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--theta-grid", grid, "--weights", weights, "--out", str(out_path)]
    assert cli.main(argv) == 0
    thetas_deg = cli._parse_theta_grid(grid)
    thetas = np.radians(thetas_deg)
    pairs = cli._parse_weight_pairs(weights)
    names = ["unit"] + [f"rho_{cio.format_float(w1)}_{cio.format_float(w2)}" for w1, w2 in pairs]
    columns = [np.abs(np.cos(thetas))]
    columns += [contraction_factor_2d(w1, w2, thetas).rho for w1, w2 in pairs]
    assert out_path.read_bytes() == sweep_csv_text(thetas_deg, names, columns).encode("ascii")


@pytest.mark.parametrize("weights", ["1e300,1", "1e200,1e200"])
def test_sweep_refuses_weights_whose_rate_overflows(tmp_path, capsys, weights):
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--theta-grid", "10:170:80", "--weights", weights, "--out", str(out_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("cimmino: error: ") and err.count("\n") == 1
    assert "the 2x2 rate overflows binary64" in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho, e0, steps", [
    ("0.9,0.5", "1", 12),
    ("10,0.5", "1", 400),
    ("0,0.5", "3", 5),
    ("0.9,1.5", "0", 30),
    ("0.9,1.5", "5e-324", 30),
    ("0.9,1.5", "1e300", 30),
    # --steps + 1 rows: one short of a CSV block, one block, one over, two blocks and one.
    *(("0.999,0.5,1.5", "1", cio.CSV_BLOCK_ROWS + k) for k in (-2, -1, 0, cio.CSV_BLOCK_ROWS)),
], ids=["gap-12", "inf-cells", "rate-0", "e0-0", "e0-subnormal", "e0-1e300",
        "steps-B-2", "steps-B-1", "steps-B", "steps-2B"])
def test_envelope_csv_matches_the_cell_by_cell_oracle(tmp_path, capsys, rho, e0, steps):
    out_path = tmp_path / "env.csv"
    argv = ["envelope", "--rho", rho, "--e0", e0, "--steps", str(steps), "--out", str(out_path)]
    assert cli.main(argv) == 0
    rates = [float(r) for r in rho.split(",")]
    columns = [error_envelope(r, float(e0), steps) for r in rates]
    names = [f"rho_{cio.format_float(r)}" for r in rates]
    assert out_path.read_bytes() == envelope_csv_text(steps, names, columns).encode("ascii")


def test_envelope_halving_values(tmp_path, capsys):
    out_path = tmp_path / "env.csv"
    code = cli.main([
        "envelope", "--rho", "0.5", "--e0", "1", "--steps", "3", "--out", str(out_path),
    ])
    assert code == 0
    header, data = _read_csv_columns(out_path)
    assert header == ["nu", "rho_0.5"]
    assert np.array_equal(data[:, 1], [1.0, 0.5, 0.25, 0.125])


def test_envelope_zero_rate(tmp_path, capsys):
    out_path = tmp_path / "env.csv"
    code = cli.main([
        "envelope", "--rho", "0", "--e0", "3", "--steps", "4", "--out", str(out_path),
    ])
    assert code == 0
    _, data = _read_csv_columns(out_path)
    assert np.array_equal(data[:, 1], [3.0, 0.0, 0.0, 0.0, 0.0])


def test_envelope_gap_note_documents_misquoted_factor(tmp_path, capsys):
    out_path = tmp_path / "env.csv"
    code = cli.main([
        "envelope", "--rho", "0.9,0.5", "--e0", "1", "--steps", "12",
        "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1156.83" in out
    assert "misquoted as ~180" in out
    header, data = _read_csv_columns(out_path)
    ratio = data[-1, 1] / data[-1, 2]
    assert ratio == pytest.approx((0.9 / 0.5) ** 12, rel=1e-12)


def test_envelope_rejects_negative_rate(tmp_path, capsys):
    code = cli.main([
        "envelope", "--rho", "-0.5", "--e0", "1", "--steps", "3",
        "--out", str(tmp_path / "env.csv"),
    ])
    assert code == 1
    capsys.readouterr()


def test_envelope_overflowing_gap_prints_inf(tmp_path, capsys):
    # (0.9/0.01)^1000 overflows a float: the gap reads inf, the run succeeds.
    out_path = tmp_path / "env.csv"
    code = cli.main([
        "envelope", "--rho", "0.9,0.01", "--steps", "1000", "--out", str(out_path),
    ])
    assert code == 0
    assert "(0.9/0.01)^1000 = inf" in capsys.readouterr().out
    assert len(out_path.read_text(encoding="ascii").splitlines()) == 1002


def test_envelope_overflow_prints_a_note_not_a_warning(tmp_path, capsys):
    # 10^nu passes the float range at nu = 309: those cells read inf.
    out_path = tmp_path / "env.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([
            "envelope", "--rho", "10,0.5", "--steps", "400", "--out", str(out_path),
        ])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    note = "note: envelope values past the float range are written as inf: rho=10.0 from nu=309"
    assert note + "\n" in err
    rows = out_path.read_text(encoding="ascii").splitlines()
    assert rows[309] == "308,1e+308,1.9176146348819244e-93"
    assert rows[310].startswith("309,inf,")


def test_envelope_zero_initial_error_stays_zero(tmp_path, capsys):
    out_path = tmp_path / "env.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([
            "envelope", "--rho", "10", "--e0", "0", "--steps", "400", "--out", str(out_path),
        ])
    assert code == 0
    assert "note:" not in capsys.readouterr().err
    rows = out_path.read_text(encoding="ascii").splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"0.0"}


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--theta-grid", "10:170:1", "--weights", "inf,1"], "finite and positive"),
    (["envelope", "--rho", "nan", "--steps", "3"], "rho must be finite"),
    (["envelope", "--rho", "0.5", "--e0", "inf", "--steps", "3"], "initial_error must be finite"),
    (["envelope", "--rho", "0.9,0.5,", "--steps", "3"],
     "--rho: expected comma-separated reals, got '0.9,0.5,'"),
], ids=["sweep-weights-inf", "envelope-rho-nan", "envelope-e0-inf", "envelope-rho-empty-element"])
def test_non_finite_values_are_refused(tmp_path, capsys, argv, message):
    out_path = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out_path)]) == 1
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta-grid", "1:179:1e-12", "--weights", "1,1"],
    ["envelope", "--rho", "0.5", "--steps", "100000000000000"],
], ids=["sweep-theta-grid", "envelope-steps"])
def test_oversized_grids_are_refused_before_allocation(tmp_path, capsys, argv):
    # Counts of 1e14 and more: a run that tried to allocate would fail at once.
    out_path = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out_path)]) == 1
    assert "more than 1000000" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, counts", [
    (["envelope", "--rho", ",".join(["0.5"] * 1001), "--steps", "999"], "1000 rows x 1001 rate(s)"),
    (["sweep", "--theta-grid", "1:179:0.0002", "--weights", "1,1;1,1"],
     "890001 angles x 2 weight pairs"),
], ids=["envelope-rates", "sweep-pairs"])
def test_tables_of_more_than_a_million_values_are_refused(tmp_path, capsys, argv, counts):
    # Each row is in range; each added rate or weight pair adds a column.
    out_path = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert f"more than 1000000 values: {counts}" in err
    assert not out_path.exists()


def test_table_of_exactly_a_million_values_is_written(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    assert cli.main(["envelope", "--rho", "0.5,0.9", "--steps", "499999",
                     "--out", str(out_path)]) == 0
    capsys.readouterr()
    with open(out_path, encoding="ascii") as fh:
        assert fh.readline() == "nu,rho_0.5,rho_0.9\n"
        assert sum(1 for _ in fh) == 500_000


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["example1", "example2", "figure1"])
def test_demo_passes(name, capsys):
    code = cli.main(["demo", name])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_demo_counts_a_failed_check_and_exits_1(monkeypatch, capsys):
    # rhs (3, 4) moves the solution off (1, 1), so only solve_error fails.
    monkeypatch.setattr(cli, "_DEMO_EXAMPLE1", (((2.0, 1.0), (1.0, 2.0)), (3.0, 4.0)))
    code = cli.main(["demo", "example1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line for line in lines if line.endswith("FAIL")] == [lines[-2]]
    assert lines[-2].startswith("  solve_error:")
    assert lines[-1] == "demo example1: 1 check(s) FAILED"


def test_demo_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["demo", "example3"])
    assert excinfo.value.code == 1
    capsys.readouterr()


def _child_env(**extra):
    """Environment for a ``python -m cimmino`` child that imports this source tree."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **extra)


def test_module_entry_point_runs_demo():
    result = subprocess.run(
        [sys.executable, "-m", "cimmino", "demo", "example2"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0
    assert "all checks passed" in result.stdout


def test_benchmark_goldens_pass():
    # The benchmark's golden gate: the README's 2x2 values, each within the
    # ulps it is allowed.  Run here too, so a drifting golden fails the suite.
    script = Path(__file__).parents[1] / "perfbench" / "goldens.py"
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_trace_points_resolve_and_record_each_layer_once(monkeypatch):
    # The benchmark's per-layer metrics come from spans wrapped around these
    # functions; a renamed or bypassed one would silently read 0.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _, _ in tracing.TRACE_POINTS:
        assert tracing._resolve(module, attr) is not None, f"{module}.{attr}"
    import cimmino

    tracer = tracing.Tracer()
    tracer.install()
    try:
        system = cimmino.LinearSystem([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        cimmino.analyze(system)
        cimmino.solve(system)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert Counter(span[0] for span in tracer.spans) == {
        "iteration.validate": 1, "spectral.analyze": 1, "spectral.assemble": 1,
        "linalg.eigen": 1, "iteration.solve": 1,
    }


@pytest.mark.skipif(shutil.which("cimmino") is None, reason="console script not on PATH")
def test_console_script_runs_demo():
    result = subprocess.run(
        ["cimmino", "demo", "example1"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "all checks passed" in result.stdout


def test_cli_outputs_are_deterministic(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        sys.executable, "-m", "cimmino", "sweep",
        "--theta-grid", "10:170:1", "--weights", "1,1;0.2,0.2",
        "--out", str(out),
    ]
    r1 = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    bytes1 = out.read_bytes()
    r2 = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    bytes2 = out.read_bytes()
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert bytes1 == bytes2


def _analyze_json_bytes(matrix_path, out_path, threads, *options):
    result = subprocess.run(
        [sys.executable, "-m", "cimmino", "analyze", "--matrix", str(matrix_path),
         "--json-out", str(out_path), *options],
        capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS=str(threads)),
    )
    assert result.returncode == 0, result.stderr
    return out_path.read_bytes()


def test_analyze_bytes_deterministic_per_blas_thread_count(tmp_path):
    # Contract: identical input and BLAS thread setting give identical
    # bytes.  Across thread counts only the 2x2 is pinned; large-n
    # eigenvalue bits may legitimately differ there.
    small = tmp_path / "example1.mtx"
    write_mm_array(small, [[2.0, 1.0], [1.0, 2.0]])
    large = tmp_path / "n128.mtx"
    write_mm_array(large, np.random.default_rng(128).standard_normal((128, 128)))
    out = tmp_path / "report.json"
    by_threads = {}
    for threads in (1, 2):
        for path in (small, large):
            first = _analyze_json_bytes(path, out, threads)
            second = _analyze_json_bytes(path, out, threads)
            assert first == second, f"{path.name} at {threads} thread(s)"
            by_threads[threads, path.name] = first
    assert by_threads[1, small.name] == by_threads[2, small.name]


# Across thread counts each field of analyze's report keeps a bound, with
# C = 2: eigenvalues and spectral_radius within C n eps max(1, l_n),
# condition_number within C kappa eps and the optimal rescaling within
# C n eps, relative.  On this input (weights 2/n, kappa = 4.4e5) 366 of the
# 400 eigenvalues differ between 1 and 2 threads; over seeds 1-3 as well the
# largest differences were 5.5e-4 n eps, 0.29 kappa eps and 8.1 eps.
_THREAD_BOUND = 2.0


def test_analyze_fields_keep_their_bounds_at_one_and_two_blas_threads(tmp_path):
    n = 400
    write_mm_array(tmp_path / "a.mtx", np.random.default_rng(n).standard_normal((n, n)))
    weights = ",".join(["0.005"] * n)
    one, two = (json.loads(_analyze_json_bytes(tmp_path / "a.mtx", tmp_path / "report.json",
                                               threads, "--weights", weights))
                for threads in (1, 2))
    for key in ("n", "weights", "theta", "class", "tight_frame"):
        assert one[key] == two[key], key
    eps = np.finfo(np.float64).eps
    spread = _THREAD_BOUND * n * eps * max(1.0, one["eigenvalues"][-1])
    assert np.max(np.abs(np.subtract(one["eigenvalues"], two["eigenvalues"]))) <= spread
    assert abs(one["spectral_radius"] - two["spectral_radius"]) <= spread
    kappa = one["condition_number"]
    assert abs(kappa - two["condition_number"]) <= _THREAD_BOUND * kappa * eps * kappa
    for key in ("optimal_alpha", "optimal_scaled_rate"):
        assert abs(one[key] - two[key]) <= _THREAD_BOUND * n * eps * abs(one[key]), key


def test_solve_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    # A 400x400 system at rho = 0.977 runs out of its 300-step budget, and a
    # 1000x1000 one out of 40 steps; their gemv steps and traces must not
    # depend on the BLAS thread count.  At n = 1000 OpenBLAS splits the gemv
    # (on a 2-core VM, 40 steps took ~26 ms at 1 thread and ~14 ms at 2).
    # Each input is written here, once: one built in each child would differ
    # between thread counts through its own gemm.
    for n, spread, budget in ((400, 60.0, "300"), (1000, 150.0, "40")):
        rng = np.random.default_rng(n)
        a = np.eye(n) + rng.standard_normal((n, n)) / spread
        write_mm_array(tmp_path / "a.mtx", a)
        write_mm_vector(tmp_path / "b.mtx", a @ np.ones(n))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"trace-{threads}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "cimmino", "solve", "--matrix", str(tmp_path / "a.mtx"),
                 "--rhs", str(tmp_path / "b.mtx"), "--max-iter", budget, "--trace-out", str(out)],
                capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS=str(threads)),
            )
            assert result.returncode == 2, result.stderr
            runs.append((result.stdout, out.read_bytes()))
        assert runs[0] == runs[1], f"n = {n}"
