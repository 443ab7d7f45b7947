import json
import math

import numpy as np
import pytest

from cimmino import IterationTrace, LinearSystem
from cimmino.io import TRACE_CSV_HEADER, format_float
from cimmino.spectral import ConvergenceClass, SpectralReport

REPORT_FIELD_ORDER = (
    "n", "weights", "theta", "eigenvalues", "spectral_radius",
    "condition_number", "class", "optimal_alpha", "optimal_scaled_rate",
    "tight_frame",
)


@pytest.fixture
def example1() -> LinearSystem:
    # cos(theta) = 4/5, eigenvalues of the weighted normal matrix 1/5 and 9/5.
    return LinearSystem([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])


@pytest.fixture
def example2() -> LinearSystem:
    # Orthogonal rows: single-step convergence to (1, 1).
    return LinearSystem([[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0])


@pytest.fixture
def figure1() -> LinearSystem:
    # Unit normals at 120 degrees, both planes through the origin.
    return LinearSystem(
        [[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0]], [0.0, 0.0]
    )


def system_at_angle(theta: float, b=(0.0, 0.0)) -> LinearSystem:
    """2x2 system with unit rows separated by the angle theta."""
    return LinearSystem(
        [[1.0, 0.0], [math.cos(theta), math.sin(theta)]], list(b)
    )


def random_nonsingular_system(rng: np.random.Generator, n: int) -> LinearSystem:
    """Random square system that is comfortably nonsingular."""
    while True:
        a = rng.standard_normal((n, n))
        if abs(np.linalg.det(a)) > 0.1:
            return LinearSystem(a, rng.standard_normal(n))


def write_mm_array(path, matrix) -> None:
    """Write a dense matrix as a Matrix Market array file (column-major)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    rows, cols = matrix.shape
    lines = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
    for j in range(cols):
        for i in range(rows):
            lines.append(repr(float(matrix[i, j])))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_mm_vector(path, values) -> None:
    """Write a vector as an n x 1 Matrix Market array file."""
    v = np.asarray(values, dtype=np.float64)
    write_mm_array(path, v.reshape(-1, 1))


def error_sequence(trace: IterationTrace) -> list[tuple[int, float, float | None]]:
    """Flatten a traced run into (step, error_norm, ratio) rows for export.

    The ratio at row nu is error[nu]/error[nu-1]; it is None at nu = 0,
    wherever the denominator is below 1e-300 or NaN, and where the quotient
    is NaN (inf/inf).  The rule is written out here, apart from the
    program's, so that the trace CSV oracle checks it too.  Requires a trace
    recorded with ``known_solution``.
    """
    if trace.error_norms is None:
        raise ValueError("known solution required: trace has no error norms")
    errors = trace.error_norms.tolist()
    rows = []
    for nu, err in enumerate(errors):
        ratio = err / errors[nu - 1] if nu > 0 and errors[nu - 1] >= 1e-300 else math.nan
        rows.append((nu, err, None if math.isnan(ratio) else ratio))
    return rows


def sweep_csv_text(thetas_deg, names, columns) -> str:
    """The ``sweep`` CSV rendered cell by cell with ``format_float``: the
    byte oracle of ``io.write_table_csv`` on a sweep."""
    lines = ["theta_deg," + ",".join(names)]
    for k in range(thetas_deg.size):
        cells = [format_float(thetas_deg[k])]
        cells += [format_float(col[k]) for col in columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def envelope_csv_text(steps, names, columns) -> str:
    """The ``envelope`` CSV rendered cell by cell with ``format_float``:
    the byte oracle of ``io.write_table_csv`` on an envelope."""
    lines = ["nu," + ",".join(names)]
    for nu in range(steps + 1):
        lines.append(",".join([str(nu)] + [format_float(col[nu]) for col in columns]))
    return "\n".join(lines) + "\n"


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
