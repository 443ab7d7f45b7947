#!/usr/bin/env python3
"""Benchmark of the cimmino solver: CLI analyze and solve at size, and a
2x2 library loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client; see perfbench/README.md):

    analyze-n128  python -m cimmino analyze on a fresh dense 128x128 matrix
    solve-n1000   python -m cimmino solve on a fresh dense 1000x1000 system
    pairs-2x2     LinearSystem/analyze/solve/write loop in one child process

The program is imported from ``src/`` of the checkout; every child runs
with BLAS pinned to one thread.  Inputs are generated from ``--seed`` into
a scratch directory under ``.perfbench_tmp/`` that is removed at exit.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  Lines before
it that start with ``#`` record the environment, the inputs, the sample
counts and the golden checks.
"""

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads BLAS in this process

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracing import LayerTotals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
PYTHON = sys.executable

SETUP_REPEATS = 15
# A run must end within 180 s; past this, the current child is killed and
# the run fails instead of hanging.
RUN_DEADLINE_S = 170
SOLVE_POOL = 3
ANALYZE_EIG_RTOL = 1e-10
# The residual of the unit-row solve workload contracts by at least rho per
# step, so its step count is at most the prediction; the slack covers the
# rounding in rho and in the 1e-13 row-norm error of the generated matrix.
STEP_SLACK = 2


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv, workdir, name):
    """Run argv to completion; (wall seconds, exit code, peak RSS MB, stdout)."""
    out_path = workdir / f"{name}.out"
    with open(out_path, "wb") as out, open(workdir / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text("ascii")


def measure_setup(workdir, repeats):
    """Wall times of fresh interpreter start plus ``import cimmino``."""
    walls = []
    for _ in range(repeats):
        wall, code, _, _ = run_child([PYTHON, "-c", "import cimmino"], workdir, "setup")
        if code != 0:
            raise RuntimeError(f"import cimmino failed with exit code {code}")
        walls.append(wall)
    return walls


def run_goldens(workdir):
    _, code, _, out = run_child([PYTHON, str(HERE / "goldens.py")], workdir, "goldens")
    return code == 0, json.loads(out) if out.strip() else {}


# ---------------------------------------------------------------------------
# CLI workloads: one request = one `python -m cimmino ...` process.
# ---------------------------------------------------------------------------

def analyze_request(seed, k, workdir):
    """Write request k's input; return (argv tail, checker, input record)."""
    a = inputs.analyze_matrix(seed, k)
    matrix_path = workdir / "A.mtx"
    report_path = workdir / "report.json"
    nbytes = inputs.write_coordinate(matrix_path, a)
    lam = inputs.weighted_normal_eigvals(a, np.ones(a.shape[0]))
    rho = max(abs(1.0 - lam[0]), abs(1.0 - lam[-1]))

    def check(code, stdout):
        try:
            if code != 0:
                return f"exit code {code}"
            if not report_path.is_file():
                return "no report JSON written"
            with open(report_path, encoding="ascii") as fh:
                doc = json.load(fh)
        finally:
            report_path.unlink(missing_ok=True)  # the next pass must write its own
        eig = np.array(doc["eigenvalues"])
        scale = float(np.max(np.abs(lam)))
        if eig.shape != lam.shape or not np.max(np.abs(eig - lam)) <= ANALYZE_EIG_RTOL * scale:
            return "eigenvalues differ from LAPACK eigvalsh"
        if not abs(doc["spectral_radius"] - rho) <= ANALYZE_EIG_RTOL * max(1.0, rho):
            return f"spectral_radius {doc['spectral_radius']!r}, expected {rho!r}"
        if abs(rho - 1.0) > ANALYZE_EIG_RTOL:
            expected = "Converges" if rho < 1.0 else "Diverges"
            if doc["class"] != expected:
                return f"class {doc['class']}, expected {expected}"
        return None

    argv = ["analyze", "--matrix", str(matrix_path), "--json-out", str(report_path)]
    record = {"n": a.shape[0], "format": "coordinate", "matrix_bytes": nbytes,
              "kappa_B": float(lam[-1] / lam[0]), "rho_unit_weights": float(rho)}
    return argv, check, record


class SolveRequests:
    """Solve requests, cycling over SOLVE_POOL systems generated per run.

    Generating and writing one n = 1000 system costs ~1.7 s; a pool keeps
    that out of the run's time budget while requests still vary.
    """

    def __init__(self):
        self.pool = {}

    def __call__(self, seed, k, workdir):
        index = k % SOLVE_POOL
        if index not in self.pool:
            self.pool[index] = solve_system(seed, index, workdir)
        return solve_request(self.pool[index], workdir)


def solve_system(seed, index, workdir):
    """Generate and write system ``index``, with what its checks predict."""
    a, b, x_star, alpha, lam = inputs.solve_system(seed, index)
    matrix_path, rhs_path = workdir / f"A{index}.mtx", workdir / f"b{index}.mtx"
    nbytes = inputs.write_array(matrix_path, a) + inputs.write_array(rhs_path, b[:, None])
    rho = max(abs(1.0 - alpha * lam[0]), abs(1.0 - alpha * lam[-1]))
    b_norm = float(np.linalg.norm(b))
    stop = inputs.SOLVE_TOL * (1.0 + b_norm)
    predicted = math.ceil(math.log(stop / b_norm) / math.log(rho))  # x0 = 0, so r0 = b
    return {
        "matrix_path": matrix_path, "rhs_path": rhs_path, "x_star": x_star,
        "alpha": alpha, "predicted_steps": predicted,
        # Rows are unit norm, so sigma_min(A)^2 is the least eigenvalue of B at unit weights.
        "err_bound": 1.01 * stop / math.sqrt(lam[0]) + 1e-12 * float(np.linalg.norm(x_star)),
        "record": {"n": a.shape[0], "format": "array", "matrix_and_rhs_bytes": nbytes,
                   "kappa_B": float(lam[-1] / lam[0]), "alpha_star": alpha,
                   "predicted_rho": float(rho), "predicted_steps": predicted},
    }


def solve_request(system, workdir):
    x_star, predicted, err_bound = system["x_star"], system["predicted_steps"], system["err_bound"]
    trace_path = workdir / "trace.csv"

    def check(code, stdout):
        try:
            if code != 0:
                return f"exit code {code}"
            if not trace_path.is_file():
                return "no trace CSV written"
            with open(trace_path, encoding="ascii") as fh:
                rows = sum(1 for _ in fh)
        finally:
            trace_path.unlink(missing_ok=True)  # the next pass must write its own
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        if fields.get("termination") != "Converged":
            return f"termination {fields.get('termination')}"
        steps = int(fields["iterations"])
        if steps > predicted + STEP_SLACK:
            return f"{steps} steps, predicted at most {predicted} + {STEP_SLACK}"
        x = np.array([float(tok) for tok in fields["x"].split()])
        err = float(np.linalg.norm(x - x_star))
        if not err <= err_bound:
            return f"||x - x*|| = {err!r} above {err_bound!r}"
        if rows != steps + 2:
            return f"trace CSV has {rows} lines for {steps} steps"
        return None

    # "--opt=value": argparse would take a list starting with "-" for an option.
    argv = ["solve", "--matrix", str(system["matrix_path"]), "--rhs", str(system["rhs_path"]),
            "--weights=" + ",".join([repr(system["alpha"])] * x_star.size),
            "--solution=" + ",".join(map(repr, x_star.tolist())),
            "--trace-out", str(trace_path)]
    return argv, check, system["record"]


def run_cli_workload(make_request, seed, seconds, trace, workdir):
    """Closed loop of CLI requests for ``seconds`` of request wall time.

    With tracing, each input is served twice, untraced and traced, in
    alternating order; only the traced spans feed the layer metrics.
    """
    walls, rss, records, problems = [], [], [], []
    traced_s = untraced_s = 0.0
    layers = LayerTotals()
    busy = 0.0
    k = 0
    while busy < seconds:
        argv, check, record = make_request(seed, k, workdir)
        records.append(record)
        passes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for traced in passes:
            spans_path = workdir / "spans.json"
            if traced:
                spans_path.unlink(missing_ok=True)  # never fold in an earlier request's spans
                cmd = [PYTHON, str(HERE / "traced_cli.py"), str(spans_path)] + argv
            else:
                cmd = [PYTHON, "-m", "cimmino"] + argv
            wall, code, peak, stdout = run_child(cmd, workdir, "request")
            busy += wall
            problem = check(code, stdout)
            if traced:
                traced_s += wall
                if not problem and not spans_path.is_file():
                    problem = "no spans written"
                if not problem:
                    with open(spans_path, encoding="ascii") as fh:
                        dump = json.load(fh)
                    layers.add(dump["spans"], dump["absent"], 1)
            else:
                untraced_s += wall
                walls.append(wall)
                rss.append(peak)
            if problem:
                problems.append(f"request {k}{' (traced)' if traced else ''}: {problem}")
        k += 1
    return {"walls": walls, "rss": rss, "records": records, "problems": problems,
            "attempted": k * len(passes), "layers": layers,
            "overhead": traced_s / untraced_s - 1.0 if trace else None}


def run_pairs_workload(seed, seconds, trace, workdir):
    out = workdir / "pairs.json"
    cmd = [PYTHON, str(HERE / "pairs.py"), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir), "--out", str(out)]
    _, code, peak, _ = run_child(cmd, workdir, "pairs")
    if code != 0:
        raise RuntimeError(f"pairs child failed with exit code {code}: "
                           + (workdir / "pairs.err").read_text("ascii", "replace")[-2000:])
    with open(out, encoding="ascii") as fh:
        res = json.load(fh)
    layers = LayerTotals()
    if trace:
        with open(str(out) + ".spans", encoding="ascii") as fh:
            dump = json.load(fh)
        layers.add(dump["spans"], dump["absent"], res["traced_requests"])
    record = {"n": 2, "theta_deg": list(inputs.PAIR_THETA_DEG),
              "row_scale": list(inputs.PAIR_SCALE),
              "weight_pairs": [list(w) for w in inputs.PAIR_WEIGHTS],
              "median_steps": res["median_steps"]}
    return {"walls": res["latencies_s"], "rss": [peak], "records": [record],
            "problems": res["problems"], "attempted": res["attempted"], "layers": layers,
            "overhead": res["traced_s"] / res["untraced_s"] - 1.0 if trace else None}


WORKLOADS = {
    "analyze-n128": lambda seed, seconds, trace, wd: run_cli_workload(
        analyze_request, seed, seconds, trace, wd),
    "solve-n1000": lambda seed, seconds, trace, wd: run_cli_workload(
        SolveRequests(), seed, seconds, trace, wd),
    "pairs-2x2": run_pairs_workload,
}


def environment():
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    probe = subprocess.run([PYTHON, "-c", "import numba"], env=child_env(),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas, "nproc": os.cpu_count(), "threads": PINNED_THREADS,
            "numba_importable": probe.returncode == 0}


def summarize(res, setup):
    walls_ms = [1e3 * w for w in res["walls"]]
    return {
        "setup_s": (setup, "s"),
        "request_ms_p50": (statistics.median(walls_ms), "ms"),
        "requests_per_s": (len(walls_ms) / (sum(walls_ms) / 1e3), "1/s"),
        "peak_rss_mb": (statistics.median(res["rss"]), "MB"),
    }


def _stop(signum, frame):
    # Unwinds through run_child, which kills and reaps the current child,
    # and through main's cleanup of the scratch directory.
    reason = f"exceeded {RUN_DEADLINE_S} s" if signum == signal.SIGALRM else "terminated"
    raise SystemExit(f"run.py: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "cimmino" / "__init__.py").is_file():
        print(f"run.py: no cimmino sources under {SRC}", file=sys.stderr)
        return 1

    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(RUN_DEADLINE_S)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        print("# env " + json.dumps(environment()))
        golden_ok, goldens = run_goldens(workdir)
        print("# goldens " + json.dumps(goldens))
        # Half the set-up samples before the workload and half after, so the
        # median spans the same stretch of time as the requests.
        setup = [] if args.trace else measure_setup(workdir, SETUP_REPEATS // 2)
        res = WORKLOADS[args.workload](args.seed, args.seconds, args.trace, workdir)
        samples = {"requests": len(res["walls"])}
        if args.trace:
            layer, absent = res["layers"].metrics()
            layer["trace.overhead_frac"] = (res["overhead"], "ratio")
            metrics = layer
            samples["traced_requests"] = res["layers"].requests
            print("# absent " + json.dumps(absent))
        else:
            setup += measure_setup(workdir, SETUP_REPEATS - len(setup))
            samples["setup"] = len(setup)
            metrics = summarize(res, statistics.median(setup))
            if len(res["walls"]) >= 1000:  # ten or more samples beyond the 99th percentile
                p99 = statistics.quantiles(res["walls"], n=100)[98]
                samples["request_ms_p99"] = round(1e3 * p99, 4)
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
        print("# inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                        "why": why[args.workload],
                                        "requests": res["records"][:3]}))
        print("# samples " + json.dumps(samples))
        for problem in res["problems"][:20]:
            print(f"# FAILED {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    failed = len(res["problems"])
    print(json.dumps({
        "correct": golden_ok and failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
