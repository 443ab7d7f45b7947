"""Property tests (hypothesis): the closed 2x2 form against the eigensolver,
the step-ratio views of a trace against each other and the CSV, spectral
reports through JSON, Matrix Market files read back bit for bit, reflection
as an involution, and the geometric step against the algebraic one."""

import dataclasses
import math
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cimmino import (
    Hyperplane,
    analyze,
    centroid_step,
    cimmino_step,
    contraction_factor_2d,
    masses_to_weights,
    reflect,
    solve,
)
from cimmino import io as cio

from conftest import (
    error_sequence, random_nonsingular_system, read_report_json, read_trace_csv,
    system_at_angle,
)

# Fixed example sequence and no example database: the suite stays
# deterministic and leaves no .hypothesis/ directory behind.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

# Hypothesis also caches the literals it collects from local source under
# its storage directory, ./.hypothesis unless set, and does so while pytest
# collects; this points it at a directory removed when the run ends.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


@DETERMINISTIC
@given(
    w1=st.floats(0.05, 3.0),
    w2=st.floats(0.05, 3.0),
    theta=st.floats(0.01, math.pi - 0.01),
)
def test_closed_form_scalar_and_array_agree_with_eigensolver(w1, w2, theta):
    scalar = contraction_factor_2d(w1, w2, theta).rho
    array = contraction_factor_2d(w1, w2, np.array([theta])).rho
    assert array.shape == (1,)
    assert np.float64(scalar).view(np.uint64) == array.view(np.uint64)[0]
    report = analyze(system_at_angle(theta), [w1, w2])
    assert abs(scalar - report.spectral_radius) <= 1e-12


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    max_iter=st.integers(1, 40),
    start_at_solution=st.booleans(),
)
def test_step_ratio_views_agree_and_csv_round_trips(
        tmp_path_factory, seed, n, max_iter, start_at_solution):
    rng = np.random.default_rng(seed)
    system = random_nonsingular_system(rng, n)
    x0 = rng.standard_normal(n)
    # Taking x0 itself as the "solution" makes error[0] exactly zero, so
    # the ratio at step 1 is undefined.
    solution = x0 if start_at_solution else np.linalg.solve(system.matrix, system.rhs)
    trace = solve(system, weights=np.full(n, 1.0 / n), x0=x0, max_iter=max_iter,
                  known_solution=solution)
    rows = error_sequence(trace)
    defined = [ratio for _, _, ratio in rows if ratio is not None]
    assert np.array_equal(np.array(defined), trace.step_ratios)
    if start_at_solution and trace.iterations > 0:
        assert rows[1][2] is None

    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    cio.write_trace_csv(trace, path)
    read = read_trace_csv(path)
    assert [(nu, res) for nu, res, _, _ in read] == list(enumerate(trace.residual_norms))
    assert [(nu, err, ratio) for nu, _, err, ratio in read] == rows


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    weights=st.lists(st.floats(0.01, 100.0), min_size=6, max_size=6),
)
def test_report_json_round_trips_byte_stably(tmp_path_factory, seed, n, weights):
    system = random_nonsingular_system(np.random.default_rng(seed), n)
    directory = tmp_path_factory.mktemp("report")
    first, second = directory / "first.json", directory / "second.json"
    report = analyze(system, weights[:n])
    cio.write_report_json(report, first)
    read = read_report_json(first)
    cio.write_report_json(read, second)
    assert first.read_bytes() == second.read_bytes()
    for field in dataclasses.fields(report):
        assert np.array_equal(getattr(read, field.name), getattr(report, field.name)), field.name


# Finite binary64 values, with signed zeros, subnormals and the ends of the
# range drawn often.
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrix_market_files(draw):
    """A dense matrix and the text of a Matrix Market file that stores it."""
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    symmetric = draw(st.booleans())
    rows = draw(st.integers(1, 6))
    cols = rows if symmetric else draw(st.integers(1, 6))
    values = draw(st.lists(_FINITE, min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(values, dtype=np.float64).reshape(rows, cols)
    # Stored cells in column-major order; symmetric storage keeps the lower
    # triangle and the upper one mirrors it.
    stored = [(i, j) for j in range(cols) for i in range(j if symmetric else 0, rows)]
    if symmetric:
        for i, j in stored:
            matrix[j, i] = matrix[i, j]
    cells = matrix.tolist()
    header = f"%%MatrixMarket matrix {fmt} real {'symmetric' if symmetric else 'general'}"
    if fmt == "array":
        body = [f"{rows} {cols}"] + [repr(cells[i][j]) for i, j in stored]
    else:
        # Unlisted cells read as +0.0, so only those may be left out.
        listed = [(i, j) for i, j in stored if repr(cells[i][j]) != "0.0"]
        listed = draw(st.permutations(listed))
        body = [f"{rows} {cols} {len(listed)}"]
        body += [f"{i + 1} {j + 1} {cells[i][j]!r}" for i, j in listed]
    return matrix, "\n".join([header] + body) + "\n"


@DETERMINISTIC
@given(case=_matrix_market_files())
def test_matrix_market_files_read_back_bit_exact(tmp_path_factory, case):
    matrix, text = case
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    path.write_text(text, encoding="ascii")
    got = cio.read_matrix_market(path)
    assert got.dtype == np.float64 and got.shape == matrix.shape
    assert not got.flags.writeable
    assert np.array_equal(got.view(np.uint64), matrix.view(np.uint64))


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    normal_exp=st.integers(-100, 100),
    x_exp=st.integers(-100, 100),
    offset=st.floats(-1e6, 1e6),
)
def test_reflection_is_an_involution(seed, n, normal_exp, x_exp, offset):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** normal_exp
    x = rng.standard_normal(n) * 10.0 ** x_exp
    plane = Hyperplane(a, offset)
    back = reflect(reflect(x, plane), plane)
    scale = 1.0 + np.linalg.norm(x) + abs(offset) / np.linalg.norm(a)
    assert np.linalg.norm(back - x) <= 1e-12 * scale


@DETERMINISTIC
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    masses=st.lists(st.floats(0.01, 100.0), min_size=6, max_size=6),
    x_scale=st.floats(1e-3, 1e3),
)
def test_centroid_step_equals_cimmino_step_under_mass_weights(seed, n, masses, x_scale):
    rng = np.random.default_rng(seed)
    system = random_nonsingular_system(rng, n)
    x = rng.standard_normal(n) * x_scale
    m = masses[:n]
    lhs = centroid_step(system, x, m)
    rhs = cimmino_step(system, x, masses_to_weights(m))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))
