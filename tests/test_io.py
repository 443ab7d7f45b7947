import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cimmino import IterationTrace, LinearSystem, Termination, analyze, solve
from cimmino import io as cio

from conftest import (
    REPORT_FIELD_ORDER, error_sequence, read_report_json, read_trace_csv, write_mm_array,
    write_mm_vector,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="ascii")
    return path


# ---------------------------------------------------------------------------
# Matrix Market reading
# ---------------------------------------------------------------------------

def test_read_array_column_major(tmp_path):
    path = _write(
        tmp_path, "a.mtx",
        "%%MatrixMarket matrix array real general\n2 2\n2\n1\n1\n2\n",
    )
    assert np.array_equal(cio.read_matrix_market(path), [[2.0, 1.0], [1.0, 2.0]])


def test_read_array_transposes_nonsymmetric_data(tmp_path):
    path = _write(
        tmp_path, "a.mtx",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
    )
    # Values are listed column by column.
    assert np.array_equal(cio.read_matrix_market(path), [[1.0, 3.0], [2.0, 4.0]])


def test_read_array_rectangular(tmp_path):
    path = _write(
        tmp_path, "a.mtx",
        "%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\n5\n6\n",
    )
    assert np.array_equal(
        cio.read_matrix_market(path), [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
    )


def test_read_array_symmetric_lower_triangle(tmp_path):
    path = _write(
        tmp_path, "s.mtx",
        "%%MatrixMarket matrix array real symmetric\n2 2\n1\n0.8\n1\n",
    )
    assert np.array_equal(cio.read_matrix_market(path), [[1.0, 0.8], [0.8, 1.0]])


def test_read_coordinate_identity(tmp_path):
    path = _write(
        tmp_path, "c.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 1\n",
    )
    assert np.array_equal(cio.read_matrix_market(path), np.eye(2))


def test_read_coordinate_unlisted_entries_are_zero(tmp_path):
    path = _write(
        tmp_path, "c.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 3 1\n2 3 7.5\n",
    )
    expected = np.zeros((2, 3))
    expected[1, 2] = 7.5
    assert np.array_equal(cio.read_matrix_market(path), expected)


def test_read_coordinate_symmetric_expands(tmp_path):
    path = _write(
        tmp_path, "c.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 1 0.8\n2 2 1\n",
    )
    assert np.array_equal(cio.read_matrix_market(path), [[1.0, 0.8], [0.8, 1.0]])


def test_read_skips_comment_lines(tmp_path):
    path = _write(
        tmp_path, "c.mtx",
        "%%MatrixMarket matrix array real general\n% produced by hand\n%\n1 1\n4.25\n",
    )
    assert np.array_equal(cio.read_matrix_market(path), [[4.25]])


# Curated malformed corpus: every fixture is rejected with its own reason,
# and the message names the offending token or entry.
_MALFORMED = {
    "missing-header": ("1 1\n1\n", "header"),
    "malformed-header": ("%%MatrixMarket matrix array real\n1 1\n1\n", "got 4"),
    "unsupported-format": ("%%MatrixMarket matrix dense real general\n1 1\n1\n", "'dense'"),
    "field-not-real": ("%%MatrixMarket matrix array complex general\n1 1\n1 0\n", "'complex'"),
    "unsupported-symmetry": (
        "%%MatrixMarket matrix array real hermitian\n1 1\n1\n", "'hermitian'"
    ),
    "missing-size": ("%%MatrixMarket matrix array real general\n% only comments\n", "size"),
    "malformed-size": ("%%MatrixMarket matrix array real general\n2 x\n1\n1\n", "size"),
    "too-large": ("%%MatrixMarket matrix coordinate real general\n2000 2000 1\n1 1 1\n", "2000x2000"),
    "size-mismatch": ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", "found 3"),
    "malformed-entry": ("%%MatrixMarket matrix array real general\n1 1\nabc\n", "'abc'"),
    "non-finite": ("%%MatrixMarket matrix array real general\n1 1\nNaN\n", "'NaN'"),
    "duplicate-coordinate": (
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n", "(1, 1)"
    ),
    "index-out-of-range": (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n", "(3, 1)"
    ),
    "not-square-symmetric": (
        "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n", "2x3"
    ),
    "symmetric-upper-entry": (
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 5\n", "(1, 2)"
    ),
    "not-ascii": (b"%%MatrixMarket matrix array real g\xe9neral\n1 1\n1\n", "g\\xe9neral"),
}


@pytest.mark.parametrize("reason", sorted(_MALFORMED))
def test_malformed_fixtures_rejected_with_distinct_reasons(tmp_path, reason):
    text, named = _MALFORMED[reason]
    path = _write(tmp_path, "bad.mtx", text)
    with pytest.raises(cio.MatrixMarketError) as excinfo:
        cio.read_matrix_market(path)
    assert excinfo.value.reason == reason
    assert named in str(excinfo.value)


# Further single-fault files, each refused with the reason of the one fault.
_SINGLE_FAULT = {
    "non-ascii-comment": (
        b"%%MatrixMarket matrix array real general\n% caf\xe9\n1 1\n1\n",
        "not-ascii", "caf\\xe9",
    ),
    "non-ascii-size": (
        b"%%MatrixMarket matrix array real general\n1 \xb9\n1\n", "not-ascii", "\\xb9",
    ),
    "non-ascii-body-token": (
        b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff1\n",
        "malformed-entry", "'\\xff1'",
    ),
    "index-past-int64": (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 1\n",
        "index-out-of-range", "99999999999999999999",
    ),
    "index-not-integral": (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.0 1 1\n",
        "malformed-entry", "'1.0'",
    ),
    "coordinate-value-nan": (
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 nan\n",
        "non-finite", "'nan'",
    ),
    "late-duplicate": (
        "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1\n2 1 2\n1 2 3\n2 1 4\n",
        "duplicate-coordinate", "(2, 1)",
    ),
    "nnz-beyond-capacity": (
        "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n",
        "malformed-size", "5 entries",
    ),
    "nnz-beyond-symmetric-capacity": (
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 4\n1 1 1\n",
        "malformed-size", "4 entries",
    ),
    "object-vector": (
        "%%MatrixMarket vector array real general\n2 1\n1\n2\n",
        "malformed-header", "unsupported object 'vector'",
    ),
    "array-size-one-integer": (
        "%%MatrixMarket matrix array real general\n2\n1\n2\n",
        "malformed-size", "needs 2 integers, got 1",
    ),
    "array-size-zero-rows": (
        "%%MatrixMarket matrix array real general\n0 2\n",
        "malformed-size", "nonpositive dimensions [0, 2]",
    ),
    "symmetric-array-value-inf": (
        "%%MatrixMarket matrix array real symmetric\n2 2\n1\ninf\n3\n",
        "non-finite", "'inf'",
    ),
    # Value tokens are refused before any index range: the malformed value wins.
    "coordinate-bad-value-and-index": (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 abc\n",
        "malformed-entry", "'abc'",
    ),
}


@pytest.mark.parametrize("name", sorted(_SINGLE_FAULT))
def test_single_fault_files_rejected(tmp_path, name):
    text, reason, named = _SINGLE_FAULT[name]
    path = _write(tmp_path, "bad.mtx", text)
    with pytest.raises(cio.MatrixMarketError) as excinfo:
        cio.read_matrix_market(path)
    assert excinfo.value.reason == reason
    assert named in str(excinfo.value)


def test_impossible_nnz_refused_before_body_is_read(tmp_path):
    # The body holds a malformed token; the size line alone refuses the file.
    path = _write(
        tmp_path, "big.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 abc\n",
    )
    with pytest.raises(cio.MatrixMarketError) as excinfo:
        cio.read_matrix_market(path)
    assert excinfo.value.reason == "malformed-size"


def test_over_long_body_is_refused_in_memory_near_its_size(tmp_path):
    # The size line declares 2 entries (6 tokens); the body holds ~2 MB of
    # them.  The reader splits off at most one token past the declared count,
    # so the peak is about the body twice over, not one object per token.
    path = _write(tmp_path, "long.mtx", "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 2\n" + "1 1 1.0\n" * 250_000)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(cio.MatrixMarketError) as excinfo:
            cio.read_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size
    assert excinfo.value.reason == "size-mismatch"
    assert str(excinfo.value).endswith("expected 6 tokens for 2 entries, found more than 6")


def test_python_float_syntax_accepted(tmp_path):
    path = _write(
        tmp_path, "a.mtx",
        "%%MatrixMarket matrix array real general\n5 1\n1_0\n-0\n.5\n+2.5E1\n4.9e-324\n",
    )
    got = cio.read_matrix_market(path)[:, 0]
    assert got.tolist() == [10.0, -0.0, 0.5, 25.0, 5e-324]
    assert math.copysign(1.0, got[1]) == -1.0


def test_oversized_file_refused_before_body_is_read(tmp_path):
    # The body is not ASCII; refusing on the size line alone never decodes it.
    path = tmp_path / "big.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n2000 2000\n\xff1\n")
    with pytest.raises(cio.MatrixMarketError) as excinfo:
        cio.read_matrix_market(path)
    assert excinfo.value.reason == "too-large"


def test_field_pattern_also_rejected(tmp_path):
    path = _write(
        tmp_path, "p.mtx",
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
    )
    with pytest.raises(cio.MatrixMarketError) as excinfo:
        cio.read_matrix_market(path)
    assert excinfo.value.reason == "field-not-real"


def test_infinity_literal_rejected(tmp_path):
    path = _write(
        tmp_path, "inf.mtx",
        "%%MatrixMarket matrix array real general\n1 1\nInf\n",
    )
    with pytest.raises(cio.MatrixMarketError) as excinfo:
        cio.read_matrix_market(path)
    assert excinfo.value.reason == "non-finite"


def test_read_rhs_vector(tmp_path):
    path = tmp_path / "b.mtx"
    write_mm_vector(path, [3.0, 3.0])
    assert np.array_equal(cio.read_rhs_vector(path), [3.0, 3.0])


def test_read_rhs_vector_from_a_coordinate_file(tmp_path):
    # Entry (2, 1) is unlisted, so it reads as 0.0 in the dense column.
    path = _write(
        tmp_path, "b.mtx",
        "%%MatrixMarket matrix coordinate real general\n3 1 2\n3 1 -1.5\n1 1 3\n",
    )
    b = cio.read_rhs_vector(path)
    assert b.tolist() == [3.0, 0.0, -1.5]
    assert not b.flags.writeable


def test_read_rhs_rejects_row_vector(tmp_path):
    path = _write(
        tmp_path, "b.mtx",
        "%%MatrixMarket matrix array real general\n1 2\n1\n2\n",
    )
    with pytest.raises(ValueError, match="column vector"):
        cio.read_rhs_vector(path)


def test_load_system_round_trip(tmp_path, example1):
    mat = tmp_path / "a.mtx"
    rhs = tmp_path / "b.mtx"
    write_mm_array(mat, example1.matrix)
    write_mm_vector(rhs, example1.rhs)
    system = cio.load_system(mat, rhs)
    assert np.array_equal(system.matrix, example1.matrix)
    assert np.array_equal(system.rhs, example1.rhs)


def test_load_system_rejects_mismatched_rhs(tmp_path):
    mat = tmp_path / "a.mtx"
    rhs = tmp_path / "b.mtx"
    write_mm_array(mat, np.eye(2))
    write_mm_vector(rhs, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cio.load_system(mat, rhs)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def test_trace_csv_golden_bytes(tmp_path, figure1):
    trace = solve(figure1, x0=[2.0, 0.0], residual_tol=1e-300, max_iter=1,
                  known_solution=[0.0, 0.0])
    path = tmp_path / "trace.csv"
    cio.write_trace_csv(trace, path)
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[0] == "iter,residual,error,ratio"
    cells0 = lines[1].split(",")
    assert cells0[0] == "0"
    assert cells0[2] == "2.0"
    assert cells0[3] == ""
    cells1 = lines[2].split(",")
    assert cells1[0] == "1"
    assert float(cells1[2]) == pytest.approx(1.0, abs=1e-12)
    assert float(cells1[3]) == pytest.approx(0.5, abs=1e-12)
    assert lines[-1] == ""  # final newline


def test_trace_csv_without_solution_leaves_columns_empty(tmp_path, example1):
    trace = solve(example1, max_iter=5)
    path = tmp_path / "trace.csv"
    cio.write_trace_csv(trace, path)
    for line in path.read_text(encoding="ascii").strip().split("\n")[1:]:
        cells = line.split(",")
        assert cells[2] == "" and cells[3] == ""


def test_trace_csv_round_trip_bit_exact(tmp_path, example1):
    trace = solve(example1, known_solution=[1.0, 1.0])
    path = tmp_path / "trace.csv"
    cio.write_trace_csv(trace, path)
    rows = read_trace_csv(path)
    assert len(rows) == trace.iterates.shape[0]
    for nu, residual, error, ratio in rows:
        assert residual == trace.residual_norms[nu]
        assert error == trace.error_norms[nu]
    ratios = [r for _, _, _, r in rows if r is not None]
    assert np.array_equal(np.array(ratios), trace.step_ratios)


def test_trace_csv_deterministic_bytes(tmp_path, example1):
    trace = solve(example1, known_solution=[1.0, 1.0])
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    cio.write_trace_csv(trace, p1)
    cio.write_trace_csv(trace, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_trace_csv_unwritable_path(tmp_path, example1):
    trace = solve(example1, max_iter=2)
    with pytest.raises(OSError):
        cio.write_trace_csv(trace, tmp_path / "missing-dir" / "trace.csv")


def _reference_trace_csv(trace):
    """The trace CSV rendered from error_sequence rows and format_float,
    as the byte oracle for write_trace_csv."""
    if trace.error_norms is None:
        cells = [("", "")] * trace.residual_norms.size
    else:
        cells = [
            (cio.format_float(err), "" if ratio is None else cio.format_float(ratio))
            for _, err, ratio in error_sequence(trace)
        ]
    lines = [cio.TRACE_CSV_HEADER]
    for nu, (residual, (err, ratio)) in enumerate(zip(trace.residual_norms, cells)):
        lines.append(f"{nu},{cio.format_float(residual)},{err},{ratio}")
    return "\n".join(lines) + "\n"


def _trace_from(residuals, errors):
    residuals = np.array(residuals, dtype=np.float64)
    errors = None if errors is None else np.array(errors, dtype=np.float64)
    return IterationTrace(iterates=np.zeros((residuals.size, 2)), residual_norms=residuals,
                          terminated=Termination.MAX_ITERATIONS, error_norms=errors)


_EXAMPLE1 = ([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
_WRITER_TRACES = {
    "with-solution": lambda: solve(LinearSystem(*_EXAMPLE1), known_solution=[1.0, 1.0]),
    "without-solution": lambda: solve(LinearSystem(*_EXAMPLE1), max_iter=7),
    # error[0] == 0, so ratio 1 is undefined.
    "undefined-ratio": lambda: solve(LinearSystem(*_EXAMPLE1), x0=[5.0, 5.0], max_iter=4,
                                     known_solution=[5.0, 5.0]),
    "inf-norms": lambda: solve(LinearSystem(*_EXAMPLE1), weights=[1e200, 1e200],
                               known_solution=[1.0, 1.0]),
    # inf/inf is an undefined ratio too; also NaN, -0.0, subnormals and the floor.
    "edge-values": lambda: _trace_from(
        [math.inf, math.inf, 5e-324, 0.0, math.nan, 1e-300, 0.1 + 0.2, -0.0],
        [math.inf, math.inf, 1e-301, 2.0, 0.0, math.nan, 1e-300, 3e-300]),
    "edge-values-without-solution": lambda: _trace_from([math.inf, math.nan, 5e-324], None),
}


def _block_edge_trace(rows, with_solution):
    """A ``rows``-row trace with NaN, inf, -0.0 and undefined ratios on the
    first CSV block edge B; rows 2B-1 and 2B, when present, give a defined
    ratio across the second edge."""
    edge = cio.CSV_BLOCK_ROWS
    residuals = 0.3 * 0.9993 ** np.arange(rows)
    errors = 0.7 * 0.9991 ** np.arange(rows)
    # Errors 0.0 and -0.0 leave the ratios at B-1 and B undefined; inf/inf at
    # B+1, NaN/inf at B+2 and x/NaN at B+3 are undefined too.
    specials = {edge - 2: (math.nan, 0.0), edge - 1: (math.inf, -0.0),
                edge: (-0.0, math.inf), edge + 1: (5e-324, math.inf), edge + 2: (1.0, math.nan)}
    for row, (residual, error) in specials.items():
        if row < rows:
            residuals[row], errors[row] = residual, error
    return _trace_from(residuals, errors if with_solution else None)


_WRITER_TRACES.update({
    f"block-edge-{rows}-rows{suffix}": functools.partial(_block_edge_trace, rows, solved)
    for rows in (cio.CSV_BLOCK_ROWS - 1, cio.CSV_BLOCK_ROWS, cio.CSV_BLOCK_ROWS + 1,
                 2 * cio.CSV_BLOCK_ROWS + 1)
    for suffix, solved in (("", True), ("-without-solution", False))
})


@pytest.mark.parametrize("case", sorted(_WRITER_TRACES))
def test_trace_csv_matches_the_error_sequence_rendering(tmp_path, case):
    trace = _WRITER_TRACES[case]()
    path = tmp_path / "trace.csv"
    cio.write_trace_csv(trace, path)
    assert path.read_bytes() == _reference_trace_csv(trace).encode("ascii")


# The writers hold one block of rows, a few hundred kB; a writer that holds
# every row, as a whole-file join does, takes tens of MB here.
_WRITER_PEAK_BOUND = 4_000_000


def _memory_case(case):
    rng = np.random.default_rng(17)
    if case == "table-3x200000":
        columns = [np.arange(200_000), rng.random(200_000), rng.random(200_000)]
        return lambda path: cio.write_table_csv(["nu", "a", "b"], columns, path)
    rows = 200_000 if case == "trace-200000" else 1000
    trace = _trace_from(rng.random(rows), rng.random(rows))
    return lambda path: cio.write_trace_csv(trace, path)


@pytest.mark.parametrize("case", ["table-3x200000", "trace-200000", "trace-1000"])
def test_csv_writer_peak_memory_is_one_block(tmp_path, case):
    write = _memory_case(case)
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        write(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    if case == "trace-1000":
        # One block is the whole file here, so the peak shows the text the
        # writer forms: the measurement sees what a whole-file writer holds.
        assert size <= peak < _WRITER_PEAK_BOUND
    else:
        assert peak < _WRITER_PEAK_BOUND < size / 2


@pytest.mark.parametrize("weights", [None, [0.5, 1.5], [5e307, 5e307]])
def test_report_json_matches_json_dump(tmp_path, weights):
    report = analyze(LinearSystem(*_EXAMPLE1), weights)
    path = tmp_path / "report.json"
    cio.write_report_json(report, path)
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="ascii", newline="\n") as fh:
        json.dump(cio.report_document(report), fh, indent=2)
        fh.write("\n")
    assert path.read_bytes() == reference.read_bytes()


def test_report_json_without_theta_matches_json_dump(tmp_path):
    rng = np.random.default_rng(91)
    report = analyze(LinearSystem(rng.standard_normal((4, 4)), rng.standard_normal(4)))
    path = tmp_path / "report.json"
    cio.write_report_json(report, path)
    text = json.dumps(cio.report_document(report), indent=2) + "\n"
    assert path.read_bytes() == text.encode("ascii")


# ---------------------------------------------------------------------------
# report JSON
# ---------------------------------------------------------------------------

def test_report_json_golden_fields(tmp_path, example1):
    report = analyze(example1)
    path = tmp_path / "report.json"
    cio.write_report_json(report, path)
    text = path.read_text(encoding="ascii")
    doc = json.loads(text)
    assert list(doc) == list(REPORT_FIELD_ORDER)
    assert doc["n"] == 2
    assert doc["weights"] == [1.0, 1.0]
    assert doc["spectral_radius"] == report.spectral_radius
    assert "0.8" in text
    assert doc["class"] == "Converges"
    assert doc["tight_frame"] is False
    assert doc["theta"] == pytest.approx(math.acos(0.8), abs=1e-15)


def test_report_json_example2(tmp_path, example2):
    report = analyze(example2)
    path = tmp_path / "report.json"
    cio.write_report_json(report, path)
    doc = json.loads(path.read_text(encoding="ascii"))
    assert doc["tight_frame"] is True
    assert doc["spectral_radius"] == 0.0


def test_report_json_round_trip(tmp_path):
    rng = np.random.default_rng(90)
    a = rng.standard_normal((3, 3))
    system = LinearSystem(a, rng.standard_normal(3))
    report = analyze(system, rng.uniform(0.3, 1.5, size=3))
    path = tmp_path / "report.json"
    cio.write_report_json(report, path)
    back = read_report_json(path)
    assert back.n == report.n
    assert back.theta is None and report.theta is None
    assert np.array_equal(back.weights, report.weights)
    assert np.array_equal(back.eigenvalues, report.eigenvalues)
    assert back.spectral_radius == report.spectral_radius
    assert back.condition_number == report.condition_number
    assert back.convergence_class is report.convergence_class
    assert back.optimal_alpha == report.optimal_alpha
    assert back.optimal_scaled_rate == report.optimal_scaled_rate
    assert back.tight_frame == report.tight_frame


def test_report_json_deterministic_bytes(tmp_path, example1):
    report = analyze(example1)
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    cio.write_report_json(report, p1)
    cio.write_report_json(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("alpha", [math.inf, math.nan], ids=["inf", "nan"])
def test_report_json_refuses_a_non_finite_value_before_opening(tmp_path, example1, alpha):
    # No analyze report holds one; the writer refuses it rather than write
    # Infinity or NaN, which are not JSON.
    report = dataclasses.replace(analyze(example1), optimal_alpha=alpha)
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cio.write_report_json(report, path)
    assert not path.exists()


def test_report_json_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2}', encoding="ascii")
    with pytest.raises(ValueError, match="missing fields"):
        read_report_json(path)


def test_format_float_shortest_round_trip():
    assert cio.format_float(0.8) == "0.8"
    assert cio.format_float(0.1 + 0.2) == "0.30000000000000004"
    assert float(cio.format_float(1.0 / 3.0)) == 1.0 / 3.0
