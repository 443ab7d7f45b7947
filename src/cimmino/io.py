"""Deterministic file ingestion and emission.

Readers accept Matrix Market text files (``array`` and ``coordinate``
formats, ``real`` field, ``general`` or ``symmetric`` storage).  Writers
emit a CSV trace table and a JSON spectral report; both render floats as
the shortest decimal string that round-trips to the same binary64 value
(Python ``repr``), use ``\\n`` line endings, and are byte-for-byte
reproducible for identical inputs.
"""

import enum
import json
import math

import numpy as np

from .iteration import IterationTrace, LinearSystem, error_sequence
from .spectral import ConvergenceClass, SpectralReport

# Dense ingestion refuses anything above this many entries.
MAX_ENTRIES = 1_000_000

TRACE_CSV_HEADER = "iter,residual,error,ratio"

REPORT_FIELD_ORDER = (
    "n", "weights", "theta", "eigenvalues", "spectral_radius",
    "condition_number", "class", "optimal_alpha", "optimal_scaled_rate",
    "tight_frame",
)


class MatrixMarketFormat(enum.Enum):
    ARRAY = "array"
    COORDINATE = "coordinate"


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market input.

    ``reason`` is a stable machine-readable code, one per failure mode.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same binary64."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# Matrix Market reading
# ---------------------------------------------------------------------------

def _parse_header(line: str, path) -> tuple[MatrixMarketFormat, str]:
    if not line.startswith("%%MatrixMarket"):
        raise MatrixMarketError("missing-header", f"{path}: first line is not a MatrixMarket header")
    tokens = line.strip().split()
    if len(tokens) != 5:
        raise MatrixMarketError("malformed-header", f"{path}: header needs 5 tokens, got {len(tokens)}")
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix":
        raise MatrixMarketError("malformed-header", f"{path}: unsupported object {obj!r}")
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError("unsupported-format", f"{path}: unsupported format {fmt!r}")
    if field != "real":
        raise MatrixMarketError("field-not-real", f"{path}: field must be 'real', got {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError("unsupported-symmetry", f"{path}: unsupported symmetry {symmetry!r}")
    return MatrixMarketFormat(fmt), symmetry


def _parse_real(token: str, path) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixMarketError("malformed-entry", f"{path}: {token!r} is not a real number") from None
    if not math.isfinite(value):
        raise MatrixMarketError("non-finite", f"{path}: non-finite value {token!r}")
    return value


def _parse_size(tokens: list[str], count: int, path) -> list[int]:
    if len(tokens) != count:
        raise MatrixMarketError(
            "malformed-size", f"{path}: size line needs {count} integers, got {len(tokens)}"
        )
    try:
        sizes = [int(t) for t in tokens]
    except ValueError:
        raise MatrixMarketError("malformed-size", f"{path}: size line is not integral") from None
    if any(s < 0 for s in sizes) or sizes[0] < 1 or sizes[1] < 1:
        raise MatrixMarketError("malformed-size", f"{path}: nonpositive dimensions {sizes}")
    return sizes


def matrix_market_format(path) -> MatrixMarketFormat:
    """Read just the header and report array vs coordinate format."""
    with open(path, "r", encoding="ascii") as fh:
        fmt, _ = _parse_header(fh.readline(), path)
    return fmt


def read_matrix_market(path) -> np.ndarray:
    """Read a dense matrix from a Matrix Market file.

    Array files are stored column-major and are transposed into row-major
    on read.  Coordinate entries not listed default to zero; a repeated
    coordinate is an error, not a sum.  Symmetric storage (lower triangle)
    is expanded.  Files describing more than 10^6 entries are refused.
    """
    # Binary mode: a text-mode reader decodes whole buffered chunks, so a
    # bad byte just past the size line would fail before the budget check.
    with open(path, "rb") as fh:
        fmt, symmetry = _parse_header(fh.readline().decode("ascii"), path)
        size_line = None
        for raw in fh:
            stripped = raw.decode("ascii").strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise MatrixMarketError("missing-size", f"{path}: no size line")
        # Size and budget are checked before the body is read, so an
        # oversized file is refused without being tokenized.
        if fmt is MatrixMarketFormat.ARRAY:
            rows, cols = _parse_size(size_line.split(), 2, path)
        else:
            rows, cols, nnz = _parse_size(size_line.split(), 3, path)
        _check_entry_budget(rows, cols, path)
        body = fh.read().decode("ascii").split()

    if fmt is MatrixMarketFormat.ARRAY:
        return _read_array_body(body, rows, cols, symmetry, path)
    return _read_coordinate_body(body, rows, cols, nnz, symmetry, path)


def _check_entry_budget(rows: int, cols: int, path) -> None:
    if rows * cols > MAX_ENTRIES:
        raise MatrixMarketError(
            "too-large", f"{path}: {rows}x{cols} exceeds the dense limit of {MAX_ENTRIES} entries"
        )


def _read_array_body(tokens, rows, cols, symmetry, path) -> np.ndarray:
    if symmetry == "symmetric":
        if rows != cols:
            raise MatrixMarketError(
                "not-square-symmetric", f"{path}: symmetric array must be square, got {rows}x{cols}"
            )
        expected = rows * (rows + 1) // 2
    else:
        expected = rows * cols
    if len(tokens) != expected:
        raise MatrixMarketError(
            "size-mismatch", f"{path}: expected {expected} values, found {len(tokens)}"
        )
    values = [_parse_real(t, path) for t in tokens]
    out = np.zeros((rows, cols))
    if symmetry == "symmetric":
        # Lower triangle including the diagonal, column by column.
        k = 0
        for j in range(cols):
            for i in range(j, rows):
                out[i, j] = values[k]
                out[j, i] = values[k]
                k += 1
    else:
        out = np.array(values).reshape(cols, rows).T.copy()
    out.setflags(write=False)
    return out


def _read_coordinate_body(tokens, rows, cols, nnz, symmetry, path) -> np.ndarray:
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(
            "not-square-symmetric", f"{path}: symmetric matrix must be square, got {rows}x{cols}"
        )
    if len(tokens) != 3 * nnz:
        raise MatrixMarketError(
            "size-mismatch", f"{path}: expected {nnz} coordinate entries, found {len(tokens) // 3}"
            + ("" if len(tokens) % 3 == 0 else " (ragged entry line)")
        )
    out = np.zeros((rows, cols))
    seen = set()
    for k in range(nnz):
        si, sj, sv = tokens[3 * k], tokens[3 * k + 1], tokens[3 * k + 2]
        try:
            i = int(si)
            j = int(sj)
        except ValueError:
            raise MatrixMarketError(
                "malformed-entry", f"{path}: bad coordinate indices ({si!r}, {sj!r})"
            ) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(
                "index-out-of-range", f"{path}: entry ({i}, {j}) outside {rows}x{cols}"
            )
        if (i, j) in seen:
            raise MatrixMarketError("duplicate-coordinate", f"{path}: duplicate coordinate ({i}, {j})")
        seen.add((i, j))
        value = _parse_real(sv, path)
        if symmetry == "symmetric":
            if i < j:
                raise MatrixMarketError(
                    "symmetric-upper-entry",
                    f"{path}: symmetric storage lists the lower triangle; got ({i}, {j})",
                )
            out[i - 1, j - 1] = value
            out[j - 1, i - 1] = value
        else:
            out[i - 1, j - 1] = value
    out.setflags(write=False)
    return out


def read_rhs_vector(path) -> np.ndarray:
    """Read a right-hand side stored as an n x 1 Matrix Market array file."""
    m = read_matrix_market(path)
    if m.ndim != 2 or m.shape[1] != 1:
        raise ValueError(
            f"{path}: right-hand side must be an n x 1 column vector, got {m.shape[0]}x{m.shape[1]}"
        )
    v = m[:, 0].copy()
    v.setflags(write=False)
    return v


def load_system(matrix_path, rhs_path) -> LinearSystem:
    """Read matrix and right-hand side files into a validated LinearSystem."""
    return LinearSystem(read_matrix_market(matrix_path), read_rhs_vector(rhs_path))


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def write_trace_csv(trace: IterationTrace, path) -> None:
    """Write a trace as ``iter,residual,error,ratio`` rows.

    The error and ratio cells are empty when the trace has no recorded
    solution; the ratio cell is also empty at step 0 and at steps whose
    denominator underflowed.  Rows appear in iteration order and the final
    line is newline-terminated.
    """
    if trace.error_norms is None:
        cells = [("", "")] * trace.residual_norms.size
    else:
        cells = [
            (format_float(err), "" if ratio is None else format_float(ratio))
            for _, err, ratio in error_sequence(trace)
        ]
    lines = [TRACE_CSV_HEADER]
    for nu, (residual, (err, ratio)) in enumerate(zip(trace.residual_norms, cells)):
        lines.append(f"{nu},{format_float(residual)},{err},{ratio}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> list[tuple[int, float, float | None, float | None]]:
    """Parse a trace CSV back into (iter, residual, error, ratio) rows."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 4:
                raise ValueError(f"{path}: expected 4 cells, got {len(cells)}")
            rows.append((
                int(cells[0]),
                float(cells[1]),
                float(cells[2]) if cells[2] else None,
                float(cells[3]) if cells[3] else None,
            ))
    return rows


# ---------------------------------------------------------------------------
# Report JSON
# ---------------------------------------------------------------------------

def report_document(report: SpectralReport) -> dict:
    """Key/value rendering of a report, in the fixed field order."""
    return {
        "n": report.n,
        "weights": [float(w) for w in report.weights],
        "theta": None if report.theta is None else float(report.theta),
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "spectral_radius": float(report.spectral_radius),
        "condition_number": float(report.condition_number),
        "class": report.convergence_class.value,
        "optimal_alpha": float(report.optimal_alpha),
        "optimal_scaled_rate": float(report.optimal_scaled_rate),
        "tight_frame": bool(report.tight_frame),
    }


def write_report_json(report: SpectralReport, path) -> None:
    """Serialize a report with stable field order and round-trip floats."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(report_document(report), fh, indent=2)
        fh.write("\n")


def read_report_json(path) -> SpectralReport:
    """Parse a report written by ``write_report_json``."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    missing = [key for key in REPORT_FIELD_ORDER if key not in doc]
    if missing:
        raise ValueError(f"{path}: report is missing fields {missing}")
    weights = np.array(doc["weights"], dtype=np.float64)
    eigenvalues = np.array(doc["eigenvalues"], dtype=np.float64)
    weights.setflags(write=False)
    eigenvalues.setflags(write=False)
    return SpectralReport(
        n=int(doc["n"]),
        weights=weights,
        theta=None if doc["theta"] is None else float(doc["theta"]),
        eigenvalues=eigenvalues,
        spectral_radius=float(doc["spectral_radius"]),
        condition_number=float(doc["condition_number"]),
        convergence_class=ConvergenceClass(doc["class"]),
        optimal_alpha=float(doc["optimal_alpha"]),
        optimal_scaled_rate=float(doc["optimal_scaled_rate"]),
        tight_frame=bool(doc["tight_frame"]),
    )
