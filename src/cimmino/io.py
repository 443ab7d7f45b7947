"""Deterministic file ingestion and emission.

Readers accept Matrix Market text files (``array`` and ``coordinate``
formats, ``real`` field, ``general`` or ``symmetric`` storage).  Every CSV
(trace, sweep, envelope) gets each column whole from the layer that owns it;
one table writer renders the columns a block of rows at a time, so its
memory beyond them is one block's, and it shares one line writer with the
JSON report writer.  Floats are the shortest decimal string that
round-trips to the same binary64 value (Python ``repr``), lines end in
``\\n``, and the bytes are reproducible for identical inputs.
"""

import dataclasses
import json

import numpy as np

from .iteration import IterationTrace, LinearSystem, _aligned_ratios
from .spectral import SpectralReport

# The most entries a read matrix, or a CLI table, may hold.
MAX_ENTRIES = 1_000_000
# Rows that the CSV writer formats and writes at a time.
CSV_BLOCK_ROWS = 4096

TRACE_CSV_HEADER = "iter,residual,error,ratio"


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

def _ascii(raw: bytes, path) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise MatrixMarketError("not-ascii", f"{path}: line is not ASCII: {raw[:80]!r}") from None


def _parse_header(line: str, path) -> tuple[str, str]:
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
    return fmt, symmetry


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


def read_matrix_market(path) -> np.ndarray:
    """Read a dense matrix from a Matrix Market file.

    Array files are stored column-major and are transposed into row-major
    on read.  Coordinate entries not listed default to zero; a repeated
    coordinate is an error, not a sum.  Symmetric storage (lower triangle)
    is expanded.  Values use Python ``float`` syntax and indices Python
    ``int`` syntax.  Files describing more than 10^6 entries, and coordinate
    files listing more entries than the matrix holds, are refused.
    """
    # Binary mode: the body is split as bytes and never decoded, so a bad
    # byte in it is a malformed entry and cannot fail before the size checks.
    with open(path, "rb") as fh:
        fmt, symmetry = _parse_header(_ascii(fh.readline(), path), path)
        for raw in fh:
            size_line = _ascii(raw, path).split()
            if size_line and not size_line[0].startswith("%"):
                break
        else:
            raise MatrixMarketError("missing-size", f"{path}: no size line")
        # Every size check runs before the body is read, so an oversized
        # file is refused without being tokenized.
        sizes = _parse_size(size_line, 2 if fmt == "array" else 3, path)
        rows, cols = sizes[:2]
        if rows * cols > MAX_ENTRIES:
            raise MatrixMarketError(
                "too-large", f"{path}: {rows}x{cols} exceeds the dense limit of {MAX_ENTRIES} entries"
            )
        symmetric = symmetry == "symmetric"
        if symmetric and rows != cols:
            raise MatrixMarketError(
                "not-square-symmetric", f"{path}: symmetric matrix must be square, got {rows}x{cols}"
            )
        capacity = rows * (rows + 1) // 2 if symmetric else rows * cols
        count = capacity if fmt == "array" else sizes[2]
        if count > capacity:
            raise MatrixMarketError("malformed-size", f"{path}: {count} entries do not fit in "
                                    f"{rows}x{cols} {symmetry} storage")
        expected = count if fmt == "array" else 3 * count
        # At most one token past the declared count: the rest of the body.
        tokens = fh.read().split(maxsplit=expected)

    # Both formats become (i, j, value) arrays, 0-based, in file order.
    if len(tokens) != expected:
        found = len(tokens) if len(tokens) < expected else f"more than {expected}"
        raise MatrixMarketError("size-mismatch", f"{path}: expected {expected} tokens "
                                f"for {count} entries, found {found}")
    value_tokens = tokens
    if fmt == "coordinate":
        value_tokens = tokens[2::3]
        del tokens[2::3]
        i, j = (_convert(tokens, np.int64, path).reshape(-1, 2) - 1).T
    elif symmetric:
        # Lower triangle including the diagonal, column by column.
        j, i = np.triu_indices(rows)
    else:
        j, i = np.divmod(np.arange(count), rows)
    values = _convert(value_tokens, np.float64, path)

    def at(k):
        return f"({i[k] + 1}, {j[k] + 1})"

    if fmt == "coordinate":  # an array file's (i, j) are made above: in range, distinct, lower
        _refuse_first((i < 0) | (i >= rows) | (j < 0) | (j >= cols), "index-out-of-range",
                      lambda k: f"entry {at(k)} outside {rows}x{cols}", path)
        flat = i * cols + j
        _refuse_first(np.bincount(flat, minlength=rows * cols)[flat] > 1, "duplicate-coordinate",
                      lambda k: f"duplicate coordinate {at(k)}", path)
        _refuse_first(symmetric & (i < j), "symmetric-upper-entry",
                      lambda k: f"symmetric storage lists the lower triangle; got {at(k)}", path)
    _refuse_first(~np.isfinite(values), "non-finite",
                  lambda k: f"non-finite value {_shown(value_tokens[k])}", path)

    out = np.zeros((rows, cols))
    out[i, j] = values
    if symmetric:
        out[j, i] = values
    out.setflags(write=False)
    return out


def _shown(token: bytes) -> str:
    return ascii(token.decode("latin-1"))


def _convert(tokens: list[bytes], dtype, path) -> np.ndarray:
    """Body tokens as one array of ``dtype`` (float64 values, int64 indices)."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        # Name the first token that the same scalar conversion refuses.
        for token in tokens:
            try:
                dtype(token)
            except ValueError:
                kind = "a real number" if dtype is np.float64 else "an integer index"
                raise MatrixMarketError(
                    "malformed-entry", f"{path}: {_shown(token)} is not {kind}"
                ) from None
            except OverflowError:
                raise MatrixMarketError(
                    "index-out-of-range", f"{path}: index {_shown(token)} is out of range"
                ) from None
        raise


def _refuse_first(mask: np.ndarray, reason: str, describe, path) -> None:
    """Raise ``reason`` naming the first entry, in file order, that ``mask`` flags."""
    bad = np.flatnonzero(mask)
    if bad.size:
        raise MatrixMarketError(reason, f"{path}: {describe(bad[0])}")


def read_rhs_vector(path) -> np.ndarray:
    """Read an n x 1 Matrix Market file, array or coordinate, as a read-only right-hand side."""
    m = read_matrix_market(path)
    if m.shape[1] != 1:
        raise ValueError(
            f"{path}: right-hand side must be an n x 1 column vector, got {m.shape[0]}x{m.shape[1]}"
        )
    return m[:, 0]


def load_system(matrix_path, rhs_path) -> LinearSystem:
    """Read matrix and right-hand side files into a validated LinearSystem."""
    return LinearSystem(read_matrix_market(matrix_path), read_rhs_vector(rhs_path))


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def write_trace_csv(trace: IterationTrace, path) -> None:
    """Write a trace as ``iter,residual,error,ratio`` rows, in iteration order.
    The error and ratio cells are empty when the trace has no recorded
    solution, and the ratio cell also at step 0 and where its denominator
    underflowed."""
    steps = trace.residual_norms.size
    if trace.error_norms is None:
        errors = ratios = np.broadcast_to("", steps)
    else:
        errors, ratios = trace.error_norms, _BlankNaN(_aligned_ratios(trace.error_norms))
    write_table_csv(TRACE_CSV_HEADER.split(","),
                    [range(steps), trace.residual_norms, errors, ratios], path)


class _BlankNaN:
    """A float column, a slice at a time, with its NaN cells empty."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def __getitem__(self, rows: slice) -> np.ndarray:
        block = self.values[rows]
        return np.where(np.isnan(block), "", block.astype(object))


def write_table_csv(names, columns, path) -> None:
    """Write equal-length columns under the header ``names``, ``CSV_BLOCK_ROWS``
    rows at a time.  A column is anything whose slices ``np.asarray`` takes; a
    cell is the ``str`` of a ``tolist()`` value (the ``repr`` of a float), and
    an empty string stays empty."""
    row = ",".join(["{}"] * len(names)).format

    def blocks():
        yield ",".join(names)
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            yield "\n".join(map(row, *(np.asarray(column[rows]).tolist() for column in columns)))

    _write_lines(path, blocks())


def _write_lines(path, blocks) -> None:
    """The one file writer: each block of lines in turn, as ASCII text, then a newline."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for block in blocks:
            fh.write(block + "\n")


# ---------------------------------------------------------------------------
# Report JSON
# ---------------------------------------------------------------------------

def report_document(report: SpectralReport) -> dict:
    """Key/value rendering of a report, its fields in declaration order: arrays
    become lists, and ``convergence_class`` becomes ``"class"`` with its value."""
    doc = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if field.name == "convergence_class":
            doc["class"] = value.value
        else:
            doc[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def write_report_json(report: SpectralReport, path) -> None:
    """Serialize a report: stable field order, round-trip floats, no inf or NaN."""
    _write_lines(path, [json.dumps(report_document(report), indent=2, allow_nan=False)])
