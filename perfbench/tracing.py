"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``cimmino`` with
a timing wrapper, in every ``cimmino`` module namespace that binds it (the
package re-exports names and modules import each other's functions by
name, so one binding is not enough).  Spans are held in memory as
``(key, start, end, parent, request, count)`` tuples and written out once,
at the end.  A traced function that a later version of the program no
longer has is reported absent, not as an error.
"""

import importlib
import json
import os
import sys
import time


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _read_count(args, kwargs, result):
    return {"io.read_bytes": _file_bytes(args[0] if args else kwargs["path"])}


def _write_count(args, kwargs, result):
    return {"io.write_bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}


def _solve_count(args, kwargs, result):
    arrays = (result.iterates, result.residual_norms, result.error_norms, result.step_ratios)
    return {
        "iteration.steps": result.iterations,
        "iteration.trace_bytes": sum(a.nbytes for a in arrays if a is not None),
    }


# (module, attribute path, span key, counts taken from the call or None).
# cimmino.kernels is deliberately absent: it is timed through its callers,
# symmetric_eigen and solve.
TRACE_POINTS = (
    ("cimmino.cli", "main", "cli", None),
    ("cimmino.io", "read_matrix_market", "io.read", _read_count),
    ("cimmino.io", "read_rhs_vector", "io.read", _read_count),
    ("cimmino.io", "write_trace_csv", "io.write", _write_count),
    ("cimmino.io", "write_report_json", "io.write", _write_count),
    ("cimmino.iteration", "LinearSystem.__init__", "iteration.validate", None),
    ("cimmino.iteration", "solve", "iteration.solve", _solve_count),
    ("cimmino.spectral", "analyze", "spectral.analyze", None),
    ("cimmino.spectral", "weighted_normal_matrix", "spectral.assemble", None),
    ("cimmino.spectral", "is_tight_frame", "spectral.tight_frame", None),
    ("cimmino.linalg", "symmetric_eigen", "linalg.eigen", None),
)


def _resolve(module_name, attr_path):
    """(owner, attribute name, function), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    names = attr_path.split(".")
    for name in names[:-1]:
        owner = getattr(owner, name, None)
    fn = getattr(owner, names[-1], None)
    return None if fn is None else (owner, names[-1], fn)


class Tracer:
    """Installs the span wrappers and holds the spans they record."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self.absent = []
        self._stack = []
        self._patched = []  # (namespace owner, attribute, original)

    def _wrap(self, key, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent, self.request, None)
            if count is not None:
                spans[idx] = (key, start, end, parent, self.request, count(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every trace point that the installed program still has."""
        points = [(point, _resolve(point[0], point[1])) for point in TRACE_POINTS]
        self.absent = [f"{module}.{attr}" for (module, attr, _, _), found in points
                       if found is None]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cimmino" or name.startswith("cimmino."))]
        for (_, _, key, count), found in points:
            if found is None:
                continue
            owner, name, fn = found
            wrapper = self._wrap(key, fn, count)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


# Per-layer metrics, per request: name -> (unit, span key).  Names ending
# in "_s" sum span self time (the span minus its direct children), "_calls"
# count spans, and the rest sum the counts the trace point took on its
# outermost spans (a read nested in a read counts once).
LAYER_METRICS = {
    "linalg.eigen_s": ("s", "linalg.eigen"),
    "linalg.eigen_calls": ("count", "linalg.eigen"),
    "spectral.assemble_s": ("s", "spectral.assemble"),
    "spectral.assemble_calls": ("count", "spectral.assemble"),
    "spectral.tight_frame_s": ("s", "spectral.tight_frame"),
    "spectral.analyze_self_s": ("s", "spectral.analyze"),
    "iteration.solve_s": ("s", "iteration.solve"),
    "iteration.steps": ("count", "iteration.solve"),
    "iteration.trace_bytes": ("bytes", "iteration.solve"),
    "iteration.validate_s": ("s", "iteration.validate"),
    "io.read_s": ("s", "io.read"),
    "io.read_bytes": ("bytes", "io.read"),
    "io.write_s": ("s", "io.write"),
    "io.write_bytes": ("bytes", "io.write"),
    "cli.self_s": ("s", "cli"),
}


class LayerTotals:
    """Folds span dumps into per-request layer metrics."""

    def __init__(self):
        self.sums = dict.fromkeys(LAYER_METRICS, 0.0)
        self.requests = 0
        self.absent = set()

    def add(self, spans, absent, requests):
        """Fold in the spans recorded while serving ``requests`` requests."""
        self.requests += requests
        self.absent.update(absent)
        self_time = [end - start for _, start, end, _, _, _ in spans]
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for idx, (key, _, _, parent, _, counts) in enumerate(spans):
            for name, (_, metric_key) in LAYER_METRICS.items():
                if metric_key != key:
                    continue
                if name.endswith("_s"):
                    self.sums[name] += self_time[idx]
                elif name.endswith("_calls"):
                    self.sums[name] += 1
                elif counts and (parent < 0 or spans[parent][0] != key):
                    self.sums[name] += counts[name]

    def metrics(self):
        """(name -> (value per request, unit), names whose function is gone)."""
        n = max(self.requests, 1)
        out = {name: (self.sums[name] / n, unit) for name, (unit, _) in LAYER_METRICS.items()}
        steps = self.sums["iteration.steps"]
        out["iteration.step_us"] = (
            1e6 * self.sums["iteration.solve_s"] / steps if steps else 0.0, "us")
        gone_keys = {key for _, _, key, _ in TRACE_POINTS} - {
            key for module, attr, key, _ in TRACE_POINTS
            if f"{module}.{attr}" not in self.absent}
        missing = sorted(name for name, (_, key) in LAYER_METRICS.items() if key in gone_keys)
        if "iteration.solve" in gone_keys:
            missing.append("iteration.step_us")
        return out, missing
