#!/usr/bin/env python3
"""One-command report: every workload, untraced and traced.

Usage, from the root of a source checkout:

    python3 perfbench/report.py

Runs ``perfbench/run.py`` once per workload with ``--trace 0`` and once
with ``--trace 1``, at seed 0 and for the ``run_seconds`` that
BENCHMARK.json sets.  Prints the end-to-end metrics with one row per
workload (unit in the column header, sample counts at the end of the
row), then the per-layer table of the traced runs, with ``absent`` where
the program no longer has the traced function.  Exits 1 if any run failed
its correctness checks.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 0


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    notes = {}
    for line in lines[:-1]:
        tag, _, body = line.removeprefix("# ").partition(" ")
        if tag in ("samples", "absent"):
            notes[tag] = json.loads(body)
        elif tag == "FAILED":
            print(f"{workload}: FAILED {body}", file=sys.stderr)
    return json.loads(lines[-1]), notes


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    plain = {w: run(w, SEED, seconds, 0) for w in WORKLOADS}
    traced = {w: run(w, SEED, seconds, 1) for w in WORKLOADS}

    names = list(next(iter(plain.values()))[0]["metrics"].items())
    header = (["workload"] + [f"{n} [{m['unit']}]" for n, m in names]
              + ["failed/attempted", "samples"])
    rows = [header]
    for w, (result, notes) in plain.items():
        rows.append([w] + [f"{result['metrics'][n]['value']:.6g}" for n, _ in names]
                    + [f"{result['failed']}/{result['attempted']}",
                       " ".join(f"{k}={v}" for k, v in notes["samples"].items())])
    print("End-to-end (untraced)")
    _table(rows)

    layer_names = list(next(iter(traced.values()))[0]["metrics"].items())
    rows = [["metric [unit]"] + list(WORKLOADS)]
    for n, m in layer_names:
        cells = []
        for w in WORKLOADS:
            result, notes = traced[w]
            absent = n in notes.get("absent", [])
            cells.append("absent" if absent else f"{result['metrics'][n]['value']:.6g}")
        rows.append([f"{n} [{m['unit']}]"] + cells)
    rows.append(["traced requests"] + [str(traced[w][1]["samples"]["traced_requests"])
                                       for w in WORKLOADS])
    print("\nPer layer, per request (traced)")
    _table(rows)

    ok = all(r["correct"] for r, _ in list(plain.values()) + list(traced.values()))
    return 0 if ok else 1


def _table(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


if __name__ == "__main__":
    sys.exit(main())
