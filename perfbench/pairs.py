"""Closed-loop 2x2 library workload, run as a child of ``run.py``.

Usage:  python perfbench/pairs.py --seed N --seconds S --trace 0|1
                                  --workdir DIR --out RESULT.json

One client serves one seeded 2x2 system at a time through the public
library surface: LinearSystem -> analyze(w) -> solve(w, known_solution=x*)
-> write_report_json + write_trace_csv, into two new files that are
removed after its checks.  Each system's latency covers exactly those
calls; generation, checks and removal happen outside it.  A call that
raises counts as a failed system.  With ``--trace 1`` the systems are served in blocks, each
block untraced and again traced (in alternating order), so the tracing
overhead is measured on the same inputs.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

import cimmino
from cimmino import io as cio

import inputs
from tracing import Tracer

CHUNK = 2048  # systems generated at a time; a multiple of TRACE_BLOCK
TRACE_BLOCK = 16  # systems per untraced/traced block with --trace 1
FILE_CHECK_EVERY = 32  # written files are parsed back for every 32nd system
SPECTRAL_TOL = 1e-12


def serve(system_rows, rhs, x_star, weights, report_path, trace_path):
    system = cimmino.LinearSystem(system_rows, rhs)
    report = cimmino.analyze(system, weights)
    trace = cimmino.solve(system, weights, known_solution=x_star)
    cio.write_report_json(report, report_path)
    cio.write_trace_csv(trace, trace_path)
    return report, trace


def check(k, rows, rhs, x_star, theta, report, trace, report_path, trace_path):
    """Problems with system k's outputs, as a list of messages."""
    w1, w2 = inputs.PAIR_WEIGHTS[k % len(inputs.PAIR_WEIGHTS)]
    problems = []
    closed = cimmino.contraction_factor_2d(w1, w2, theta).rho
    if not abs(report.spectral_radius - closed) <= SPECTRAL_TOL:
        problems.append(f"rho {report.spectral_radius!r} vs closed form {closed!r}")
    if trace.terminated is not cimmino.Termination.CONVERGED:
        problems.append(f"terminated {trace.terminated}")
    # ||x - x*|| <= ||r|| / sigma_min, with ||r|| under the stopping threshold.
    stop = inputs.SOLVE_TOL * (1.0 + float(np.linalg.norm(rhs)))
    sigma_min = float(np.linalg.svd(rows, compute_uv=False)[-1])
    err = float(np.linalg.norm(trace.final - x_star))
    if not err <= 1.01 * stop / sigma_min + 1e-13 * float(np.linalg.norm(x_star)):
        problems.append(f"error {err!r} above the stopping rule's bound")
    if k % FILE_CHECK_EVERY == 0:
        with open(report_path, encoding="ascii") as fh:
            if json.load(fh)["spectral_radius"] != report.spectral_radius:
                problems.append("report JSON disagrees with the report")
        with open(trace_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if len(lines) != trace.iterations + 2:
            problems.append(f"trace CSV has {len(lines)} lines for {trace.iterations} steps")
    return [f"system {k}: {p}" for p in problems]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    latencies = []  # untraced passes only
    traced_s = untraced_s = 0.0
    problems = []
    attempted = 0
    steps = []
    clock = time.perf_counter
    busy = 0.0
    k = 0
    batch = None
    while busy < args.seconds:
        if k % CHUNK == 0:
            batch = inputs.pair_batch(args.seed, k // CHUNK, CHUNK)
        block = range(k, k + (TRACE_BLOCK if tracer else 1))
        # Alternate which pass goes first, so warm caches favour neither.
        if not tracer:
            passes = (False,)
        else:
            passes = (False, True) if k // TRACE_BLOCK % 2 == 0 else (True, False)
        for traced in passes:
            if traced:
                tracer.install()
            for j in block:
                rows, rhs, x_star, theta = (arr[j % CHUNK] for arr in batch)
                w = inputs.PAIR_WEIGHTS[j % len(inputs.PAIR_WEIGHTS)]
                # Every system writes files of its own: overwriting one file
                # would time ext4 truncation, which swings with the host's disk.
                name = f"{'traced' if traced else 'plain'}{j}"
                report_path = os.path.join(args.workdir, name + ".json")
                trace_path = os.path.join(args.workdir, name + ".csv")
                if tracer:
                    tracer.request = attempted
                start = clock()
                try:
                    report, trace = serve(rows, rhs, x_star, w, report_path, trace_path)
                except Exception as exc:  # counted as a failed system, not a crash
                    report = trace = None
                    problems.append(f"system {j}: {type(exc).__name__}: {exc}")
                elapsed = clock() - start
                attempted += 1
                busy += elapsed
                if traced:
                    traced_s += elapsed
                elif trace is not None:
                    untraced_s += elapsed
                    latencies.append(elapsed)
                    steps.append(trace.iterations)
                if trace is not None:
                    problems += check(j, rows, rhs, x_star, theta, report, trace,
                                      report_path, trace_path)
                # Removed outside the timed region, so files do not pile up.
                for path in (report_path, trace_path):
                    if os.path.exists(path):
                        os.unlink(path)
            if traced:
                tracer.uninstall()
        k = block.stop

    result = {
        "attempted": attempted,
        "problems": problems,
        "latencies_s": latencies,
        "median_steps": float(np.median(steps)),
    }
    if tracer:
        result["traced_s"] = traced_s
        result["untraced_s"] = untraced_s
        result["traced_requests"] = attempted - len(latencies)
        tracer.dump(args.out + ".spans")
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
