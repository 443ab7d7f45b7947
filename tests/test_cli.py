import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cimmino import cli
from cimmino import io as cio

from conftest import write_mm_array, write_mm_vector


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
    rows = cio.read_trace_csv(trace_path)
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
    rows = cio.read_trace_csv(trace_path)
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
    report = cio.read_report_json(json_path)
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


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

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
], ids=["sweep-weights-inf", "envelope-rho-nan", "envelope-e0-inf"])
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


def _analyze_json_bytes(matrix_path, out_path, threads):
    result = subprocess.run(
        [sys.executable, "-m", "cimmino", "analyze", "--matrix", str(matrix_path),
         "--json-out", str(out_path)],
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
