"""Command-line surface: solve, analyze, sweep, envelope, and built-in demos.

Batch diagnostics only.  Angles are taken in degrees on the command line
and converted to radians internally.  Exit codes: 0 success/converged,
1 usage or input error, 2 iteration budget exhausted, 3 divergence
detected -- never any other value.  Messages go to stderr; data goes to
files or stdout.
"""

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from . import io as cio
from .iteration import (
    DEFAULT_MAX_ITER, DEFAULT_RESIDUAL_TOL, LinearSystem, Termination,
    cimmino_step, solve,
)
from .geometry import internormal_angle
from .spectral import analyze, contraction_factor_2d, error_envelope

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERATIONS = 2
EXIT_DIVERGED = 3

_TERMINATION_EXIT = {
    Termination.CONVERGED: EXIT_OK,
    Termination.MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
    Termination.DIVERGED: EXIT_DIVERGED,
}

# Built-in demo systems (embedded so the demos run with zero setup).
_DEMO_EXAMPLE1 = (((2.0, 1.0), (1.0, 2.0)), (3.0, 3.0))
_DEMO_EXAMPLE2 = (((1.0, 1.0), (1.0, -1.0)), (2.0, 0.0))
# Unit normals at 120 degrees, both planes through the origin.
_DEMO_FIGURE1 = (((1.0, 0.0), (-0.5, math.sqrt(3.0) / 2.0)), (0.0, 0.0))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only a lone negative number as a value; widen that to
        # any token that begins like a negative float ("-1,2", "-10:170:1",
        # "-inf,0"), so each value reaches the rule that parses and refuses it.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits 2 on usage errors by default; 2 is reserved for the
    # iteration budget here, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str, label: str) -> list[float]:
    if not text:
        raise ValueError(f"{label}: empty list")
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{label}: expected comma-separated reals, got {text!r}") from None


def _parse_weight_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        values = _parse_floats(chunk, "--weights")
        if len(values) != 2:
            raise ValueError(f"--weights: each pair needs exactly 2 values, got {chunk!r}")
        pairs.append(tuple(values))
    return pairs


def _parse_theta_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--theta-grid: expected start:stop:step degrees, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--theta-grid: non-numeric bound in {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--theta-grid: bounds must be finite, got {text!r}")
    if not (0.0 < step < math.inf and stop >= start):  # a NaN or an inf step fails too
        raise ValueError(f"--theta-grid: need a finite step > 0 and stop >= start, got {text!r}")
    span = (stop - start) / step + 1e-9
    # Checked before np.arange allocates.
    if not span < cio.MAX_ENTRIES:
        raise ValueError(f"--theta-grid: {text!r} gives more than {cio.MAX_ENTRIES} angles")
    return start + step * np.arange(int(math.floor(span)) + 1)


def _refuse_large_table(rows: int, what: str, columns: int, per: str) -> None:
    # Checked before any column is computed: a table holds rows x columns values.
    if rows * columns > cio.MAX_ENTRIES:
        raise ValueError(f"more than {cio.MAX_ENTRIES} values: {rows} {what} x {columns} {per}")


def _cmd_solve(args) -> int:
    weights = None if args.weights is None else _parse_floats(args.weights, "--weights")
    x0 = None if args.x0 is None else _parse_floats(args.x0, "--x0")
    solution = None if args.solution is None else _parse_floats(args.solution, "--solution")
    trace = solve(
        cio.load_system(args.matrix, args.rhs),
        weights=weights,
        x0=x0,
        residual_tol=args.tol,
        max_iter=args.max_iter,
        known_solution=solution,
    )
    if args.trace_out is not None:
        cio.write_trace_csv(trace, args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    print(f"termination: {trace.terminated.value}")
    print(f"iterations: {trace.iterations}")
    print(f"final_residual: {cio.format_float(trace.residual_norms[-1])}")
    print("x: " + " ".join(map(cio.format_float, trace.final)))
    return _TERMINATION_EXIT[trace.terminated]


def _cmd_analyze(args) -> int:
    weights = None if args.weights is None else _parse_floats(args.weights, "--weights")
    matrix = cio.read_matrix_market(args.matrix)
    report = analyze(LinearSystem(matrix, np.zeros(matrix.shape[0])), weights)
    if args.json_out is not None:
        cio.write_report_json(report, args.json_out)
        print(f"report written to {args.json_out}", file=sys.stderr)
    for key, value in cio.report_document(report).items():
        if key == "theta":
            if value is None:
                continue
            key, value = "theta_deg", math.degrees(value)
        if isinstance(value, list):
            value = " ".join(map(cio.format_float, value))
        print(f"{key}: {json.dumps(value) if isinstance(value, bool) else value}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    thetas_deg = _parse_theta_grid(args.theta_grid)
    pairs = _parse_weight_pairs(args.weights)
    _refuse_large_table(thetas_deg.size, "angles", len(pairs), "weight pairs")
    thetas_rad = np.radians(thetas_deg)
    columns = [thetas_deg, np.abs(np.cos(thetas_rad))]
    names = ["theta_deg", "unit"]
    for w1, w2 in pairs:
        columns.append(contraction_factor_2d(w1, w2, thetas_rad).rho)
        names.append(f"rho_{cio.format_float(w1)}_{cio.format_float(w2)}")
    cio.write_table_csv(names, columns, args.out)
    print(f"sweep: {thetas_deg.size} angles x {len(pairs)} weight pairs -> {args.out}")
    return EXIT_OK


def _cmd_envelope(args) -> int:
    rates = _parse_floats(args.rho, "--rho")
    _refuse_large_table(args.steps + 1, "rows", len(rates), "rate(s)")
    columns = [error_envelope(r, args.e0, args.steps) for r in rates]
    names = [f"rho_{cio.format_float(r)}" for r in rates]
    cio.write_table_csv(["nu", *names], [range(args.steps + 1), *columns], args.out)
    print(f"envelope: {len(rates)} rate(s) over {args.steps} steps -> {args.out}")
    overflows = [
        f"rho={cio.format_float(r)} from nu={np.argmax(np.isinf(col))}"
        for r, col in zip(rates, columns) if np.isinf(col[-1])
    ]
    if overflows:
        print(f"note: envelope values past the float range are written as inf: "
              f"{', '.join(overflows)}", file=sys.stderr)
    if len(rates) >= 2 and args.e0 > 0.0:
        slow, fast = max(rates), min(rates)
        if fast > 0.0:
            with np.errstate(over="ignore"):
                gap = np.float64(slow / fast) ** args.steps
            print(
                f"final-step gap between rho={cio.format_float(slow)} and "
                f"rho={cio.format_float(fast)}: ({cio.format_float(slow)}/"
                f"{cio.format_float(fast)})^{args.steps} = {cio.format_float(gap)}"
            )
            if args.steps == 12 and {slow, fast} == {0.9, 0.5}:
                # This twelve-step 0.9-vs-0.5 gap is sometimes quoted as a
                # factor of about 180; direct evaluation gives ~1156.8, so
                # the smaller figure is wrong.
                print(
                    "note: this gap is occasionally misquoted as ~180; "
                    "direct evaluation of (0.9/0.5)^12 gives "
                    f"{cio.format_float(gap)}"
                )
    return EXIT_OK


# Each demo prints its title and yields its checks as (name, computed, expected, tol).
def _demo_example1():
    system = LinearSystem(*_DEMO_EXAMPLE1)
    print("demo example1: 2x2 system with cos(theta) = 4/5")
    theta = internormal_angle(system.matrix[0], system.matrix[1])
    yield "cos(theta)", math.cos(theta), 0.8, 1e-15
    report = analyze(system)
    yield "eigenvalue_low", report.eigenvalues[0], 0.2, 1e-12
    yield "eigenvalue_high", report.eigenvalues[1], 1.8, 1e-12
    yield "spectral_radius", report.spectral_radius, 0.8, 1e-12
    trace = solve(system, max_iter=200)
    yield "solve_error", float(np.max(np.abs(trace.final - 1.0))), 0.0, 1e-8


def _demo_example2():
    system = LinearSystem(*_DEMO_EXAMPLE2)
    print("demo example2: orthogonal rows, single-step convergence")
    x1 = cimmino_step(system, np.array([3.0, -1.0]), np.ones(2))
    yield "x1[0]", x1[0], 1.0, 1e-14
    yield "x1[1]", x1[1], 1.0, 1e-14
    report = analyze(system)
    yield "spectral_radius", report.spectral_radius, 0.0, 1e-15
    yield "tight_frame", 1.0 if report.tight_frame else 0.0, 1.0, 0.0


def _demo_figure1():
    system = LinearSystem(*_DEMO_FIGURE1)
    print("demo figure1: unit normals at 120 degrees, error halves each step")
    theta = internormal_angle(system.matrix[0], system.matrix[1])
    yield "theta_deg", math.degrees(theta), 120.0, 1e-12
    trace = solve(
        system, x0=np.array([2.0, 0.0]), residual_tol=1e-300, max_iter=2,
        known_solution=np.zeros(2),
    )
    for nu, expected in enumerate((2.0, 1.0, 0.5)):
        yield f"error_norm[{nu}]", float(trace.error_norms[nu]), expected, 1e-12


_DEMOS = {
    "example1": _demo_example1,
    "example2": _demo_example2,
    "figure1": _demo_figure1,
}


def _cmd_demo(args) -> int:
    failures = 0
    for name, computed, expected, tol in _DEMOS[args.name]():
        diff = abs(computed - expected)
        ok = diff <= tol
        failures += not ok
        print(
            f"  {name}: expected {cio.format_float(expected)} "
            f"computed {cio.format_float(computed)} |diff| {diff:.3e} "
            f"tol {tol:.0e} -> {'PASS' if ok else 'FAIL'}"
        )
    if failures:
        print(f"demo {args.name}: {failures} check(s) FAILED")
        return EXIT_ERROR
    print(f"demo {args.name}: all checks passed")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="cimmino", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the reflection iteration on a system from disk")
    p_solve.add_argument("--matrix", required=True, help="Matrix Market file with the n x n matrix")
    p_solve.add_argument("--rhs", required=True,
                         help="Matrix Market n x 1 array or coordinate file with b")
    p_solve.add_argument("--weights", help="comma-separated positive weights (default: all ones)")
    p_solve.add_argument("--x0", help="comma-separated starting point (default: zeros)")
    p_solve.add_argument("--tol", type=float, default=DEFAULT_RESIDUAL_TOL,
                         help="relative residual tolerance (default: %(default)s)")
    p_solve.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                         help="iteration budget (default: %(default)s)")
    p_solve.add_argument("--solution", help="known solution; enables error/ratio columns")
    p_solve.add_argument("--trace-out", help="write the iteration trace CSV here")
    p_solve.set_defaults(handler=_cmd_solve)

    p_an = sub.add_parser("analyze", help="spectral report for a system matrix")
    p_an.add_argument("--matrix", required=True)
    p_an.add_argument("--weights", help="comma-separated positive weights (default: all ones)")
    p_an.add_argument("--json-out", help="write the report as JSON here")
    p_an.set_defaults(handler=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="contraction factor vs angle for 2x2 weight pairs")
    p_sw.add_argument("--theta-grid", required=True, metavar="START:STOP:STEP",
                      help="angle grid in degrees, e.g. 10:170:1")
    p_sw.add_argument("--weights", required=True,
                      help="semicolon-separated pairs, e.g. '1,1;1.4,1.4'")
    p_sw.add_argument("--out", required=True, help="output CSV path")
    p_sw.set_defaults(handler=_cmd_sweep)

    p_env = sub.add_parser("envelope", help="worst-case error envelopes e0 * rho^nu")
    p_env.add_argument("--rho", required=True, help="comma-separated contraction rates")
    p_env.add_argument("--e0", type=float, default=1.0, help="initial error norm (default: 1)")
    p_env.add_argument("--steps", type=int, required=True, help="number of steps")
    p_env.add_argument("--out", required=True, help="output CSV path")
    p_env.set_defaults(handler=_cmd_envelope)

    p_demo = sub.add_parser("demo", help="run a built-in configuration end to end")
    p_demo.add_argument("name", choices=sorted(_DEMOS), help="which demo to run")
    p_demo.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A library warning reaches stderr as one line that names no source file.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"cimmino: warning: {message}\n"
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Covers dimension errors, Matrix Market errors, singular matrices,
        # LAPACK failures (LinAlgError), unreadable/unwritable paths.
        print(f"cimmino: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
