#!/usr/bin/env python3
"""Byte gate: run the standard CLI set at a git ref and in the working tree.

Usage, from anywhere inside a source checkout:

    python3 tools/byte_gate.py REF

REF is checked out in a temporary ``git worktree``.  Each case below runs
as ``python -m cimmino`` from that tree's ``src/`` and from the working
tree's, each in its own empty directory, with BLAS pinned to one thread.
Stdout, stderr, the exit code and every file the run writes are compared
byte for byte.  Inputs are written once, by ``perfbench/inputs.py`` of the
working tree, and shared.
The ``refuse-*`` cases give input that the program must refuse; one that
does not exit 1 on both sides, or that prints on stdout in the working
tree, counts as differing.  The ``help`` cases print each command's
usage text, so an option that is added, removed or renamed shows as a
difference.
The worktree is removed at exit.  Exit status 0 when every case is
identical, 1 when any differs.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402

EXAMPLE1 = ([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])


def write_inputs(d: Path) -> dict:
    """Write the inputs of the standard set; returns name -> path or argument text."""
    paths = {name: str(d / f"{name}.mtx") for name in ("A2", "b2", "A128", "A1000", "b1000")}
    inputs.write_array(paths["A2"], np.array(EXAMPLE1[0]))
    inputs.write_array(paths["b2"], np.array(EXAMPLE1[1])[:, None])
    inputs.write_coordinate(paths["A128"], inputs.analyze_matrix(0, 0))
    a, b, x_star, alpha, _ = inputs.solve_system(0, 0)
    inputs.write_array(paths["A1000"], a)
    inputs.write_array(paths["b1000"], b[:, None])
    paths["alpha_weights"] = ",".join([repr(alpha)] * x_star.size)
    paths["x_star"] = ",".join(map(repr, x_star.tolist()))
    for name, rows in (("A2zero", [[1.0, 0.0], [0.0, 0.0]]), ("A2huge", [[1e160, 0.0], [0.0, 1.0]]),
                       ("A2id", [[1.0, 0.0], [0.0, 1.0]]), ("b2huge", [[1e200], [1.0]]),
                       ("A2nan", [[1e-150, 0.0], [0.0, 1.0]]), ("b2nan", [[1e10], [1.0]])):
        paths[name] = str(d / f"{name}.mtx")
        inputs.write_array(paths[name], np.array(rows))
    # Rows 1 degree apart: rho = cos(1 deg), so a 20000-step run does not converge.
    near = np.array([[1.0, 0.0], [np.cos(np.radians(1.0)), np.sin(np.radians(1.0))]])
    paths["A2near"], paths["b2near"] = str(d / "A2near.mtx"), str(d / "b2near.mtx")
    inputs.write_array(paths["A2near"], near)
    inputs.write_array(paths["b2near"], (near @ np.ones(2))[:, None])
    for name, text in (
            ("bad_header", "%%MatrixMarket matrix table real general\n2 2\n1\n0\n0\n1\n"),
            # example1's b as a coordinate file, its entries out of order.
            ("b2coord", "%%MatrixMarket matrix coordinate real general\n2 1 2\n1 1 3\n2 1 3\n"),
            # example1's matrix as a symmetric array file: the lower triangle.
            ("A2sym", "%%MatrixMarket matrix array real symmetric\n2 2\n2\n1\n2\n")):
        paths[name] = str(d / f"{name}.mtx")
        Path(paths[name]).write_text(text)
    return paths


def cases(p: dict) -> list[tuple[str, list[str]]]:
    """(name, argv) of every case; output paths are relative to the run directory."""
    ex1 = ["--matrix", p["A2"], "--rhs", p["b2"]]
    return [
        ("help", ["--help"]),
        *((f"help-{name}", [name, "--help"])
          for name in ("solve", "analyze", "sweep", "envelope", "demo")),
        *((f"demo-{name}", ["demo", name]) for name in ("example1", "example2", "figure1")),
        ("sweep", ["sweep", "--theta-grid", "10:170:1",
                   "--weights", "1,1;1.4,1.4;0.5,1.5;0.2,0.2", "--out", "sweep.csv"]),
        # 17,801 rows: the table crosses several CSV blocks.
        ("sweep-fine", ["sweep", "--theta-grid", "1:179:0.01",
                        "--weights", "1,1;1.4,1.4;0.5,1.5", "--out", "sweep.csv"]),
        ("envelope-12", ["envelope", "--rho", "0.9,0.5", "--steps", "12", "--out", "env.csv"]),
        ("envelope-inf", ["envelope", "--rho", "10,0.5", "--steps", "400", "--out", "env.csv"]),
        ("envelope-e0", ["envelope", "--rho", "0.9,1.5", "--e0", "1e300", "--steps", "30",
                         "--out", "env.csv"]),
        ("solve-example1", ["solve", *ex1, "--solution", "1,1", "--trace-out", "trace.csv"]),
        # Exits 2 with a 20,001-row trace, across several CSV blocks.
        ("solve-long-trace", ["solve", "--matrix", p["A2near"], "--rhs", p["b2near"],
                              "--max-iter", "20000", "--solution", "1,1",
                              "--trace-out", "trace.csv"]),
        # Exits 2: error[0] = 0, so row 1's ratio cell is empty and row 2's is not.
        ("solve-undefined-ratio", ["solve", *ex1, "--x0=4,-7", "--solution=4,-7", "--max-iter", "3",
                                   "--trace-out", "trace.csv"]),
        ("solve-rhs-coordinate", ["solve", "--matrix", p["A2"], "--rhs", p["b2coord"],
                                  "--solution", "1,1", "--trace-out", "trace.csv"]),
        ("analyze-example1", ["analyze", "--matrix", p["A2"], "--json-out", "report.json"]),
        ("analyze-symmetric-array", ["analyze", "--matrix", p["A2sym"],
                                     "--json-out", "report.json"]),
        # Every value kind of the report: a list, a string, floats and a false boolean.
        ("analyze-weights", ["analyze", "--matrix", p["A2"], "--weights", "2,2",
                             "--json-out", "report.json"]),
        # theta = 90 degrees, a zero rate and a true boolean.
        ("analyze-identity", ["analyze", "--matrix", p["A2id"]]),
        # l_1 + l_n = 2e308 passes the float range; optimal_alpha is 1e-308.
        ("analyze-huge-weights", ["analyze", "--matrix", p["A2id"], "--weights", "1e308,1e308",
                                  "--json-out", "report.json"]),
        ("solve-diverges", ["solve", *ex1, "--weights", "2,2"]),
        # Exits 3; the iterate crosses 1e150 partway through a block, so the
        # trace ends in a cut block.
        ("solve-diverges-trace", ["solve", *ex1, "--weights", "2,2", "--solution", "1,1",
                                  "--trace-out", "trace.csv"]),
        ("solve-budget", ["solve", *ex1, "--max-iter", "5", "--x0=4,-7"]),
        # Exits 2: coef_0 * r_0 overflows, the first step is NaN, and the run warns once.
        ("solve-nan-warning", ["solve", "--matrix", p["A2nan"], "--rhs", p["b2nan"],
                               "--max-iter", "40"]),
        # A value that starts with a minus sign and holds a digit separator.
        ("solve-x0-negative-underscore", ["solve", *ex1, "--x0", "-1_0,2", "--max-iter", "3"]),
        # Exits 2 with an 18-row trace: the budget ends one step into the second block.
        ("solve-budget-edge", ["solve", *ex1, "--max-iter", "17", "--x0=4,-7", "--solution", "1,1",
                               "--trace-out", "trace.csv"]),
        ("analyze-n128", ["analyze", "--matrix", p["A128"], "--json-out", "report.json"]),
        # The "--opt=value" spelling, which perfbench's solve-n1000 workload uses.
        ("solve-n1000", ["solve", "--matrix", p["A1000"], "--rhs", p["b1000"],
                         "--weights=" + p["alpha_weights"], "--solution=" + p["x_star"],
                         "--trace-out", "trace.csv"]),
        ("refuse-zero-row", ["solve", "--matrix", p["A2zero"], "--rhs", p["b2"]]),
        ("refuse-row-overflow", ["analyze", "--matrix", p["A2huge"]]),
        ("refuse-weights", ["solve", *ex1, "--weights", "0,1"]),
        # Non-finite weights get the weight rule's message, not the vector's.
        ("refuse-weights-nan", ["solve", *ex1, "--weights", "nan,1"]),
        # An empty element is not a float.
        ("refuse-weights-empty-element", ["solve", *ex1, "--weights", "1,,1"]),
        ("refuse-x0-nonfinite", ["solve", *ex1, "--x0=nan,0"]),
        # Subnormal weights: 2/(l_1 + l_n) would be inf, which JSON cannot hold.
        ("refuse-weights-subnormal", ["analyze", "--matrix", p["A2"], "--weights", "1e-310,1e-310",
                                      "--json-out", "report.json"]),
        ("refuse-header", ["analyze", "--matrix", p["bad_header"]]),
        # B is finite, its top eigenvalue is not.
        ("refuse-eigen-overflow", ["analyze", "--matrix", p["A2"], "--weights", "1e308,1e308"]),
        # (w1 - w2)**2 passes the float range: the rate is refused.
        ("refuse-sweep-rate", ["sweep", "--theta-grid", "10:170:1", "--weights", "1e300,1",
                               "--out", "sweep.csv"]),
        ("refuse-rhs-overflow", ["solve", "--matrix", p["A2id"], "--rhs", p["b2huge"]]),
        # An infinite step would make the first angle inf * 0.
        ("refuse-theta-grid-inf-step", ["sweep", "--theta-grid", "10:170:inf", "--weights", "1,1",
                                        "--out", "sweep.csv"]),
        # A grid that starts with a minus sign, in the space spelling.
        ("refuse-theta-grid-negative", ["sweep", "--theta-grid", "-10:170:1", "--weights", "1,1",
                                        "--out", "sweep.csv"]),
        ("refuse-theta-grid-inf-bounds", ["sweep", "--theta-grid", "inf:inf:1", "--weights", "1,1",
                                          "--out", "sweep.csv"]),
        # 1000 rows x 1001 rates: each row count is in range, the table is not.
        ("refuse-table", ["envelope", "--rho", ",".join(["0.5"] * 1001), "--steps", "999",
                          "--out", "env.csv"]),
        # An output path in a directory that does not exist: refused after the run.
        ("refuse-trace-out-unwritable", ["solve", *ex1, "--trace-out", "missing/trace.csv"]),
        ("refuse-json-out-unwritable", ["analyze", "--matrix", p["A2"],
                                        "--json-out", "missing/report.json"]),
        # The option is refused before either file is opened.
        ("refuse-option-before-read", ["solve", "--matrix", "absent.mtx", "--rhs", "absent.mtx",
                                       "--weights", "1,,1"]),
    ]


def run(tree: Path, argv: list[str], workdir: Path) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of one case in ``tree``."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "cimmino", *argv], cwd=workdir, env=env,
                          capture_output=True)
    files = {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], "\nusage: byte_gate.py REF", file=sys.stderr)
        return 2
    ref = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="byte-gate-") as tmp:
        tmp = Path(tmp)
        worktree = tmp / "ref"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(worktree), ref], check=True)
        try:
            (tmp / "inputs").mkdir()
            todo = cases(write_inputs(tmp / "inputs"))
            differ = 0
            for name, argv in todo:
                old = run(worktree, argv, tmp / f"{name}-ref")
                new = run(ROOT, argv, tmp / f"{name}-new")
                parts = [what for what, a, b in zip(("exit code", "stdout", "stderr", "files"),
                                                    old, new) if a != b]
                if name.startswith("refuse-") and not old[0] == new[0] == 1:
                    parts.append("exit code (a refusal exits 1)")
                if name.startswith("refuse-") and new[1]:
                    parts.append("stdout (a refusal prints nothing there)")
                differ += bool(parts)
                print(f"{name}: exit {old[0]} -> {new[0]}, "
                      + (f"DIFFERS in {', '.join(parts)}" if parts else "identical"))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(worktree)], check=True)
    print(f"{differ} of {len(todo)} cases differ from {ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
