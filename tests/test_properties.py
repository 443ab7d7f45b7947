"""Property tests (hypothesis): the closed 2x2 form against the eigensolver,
and the step-ratio views of a trace against each other and the CSV."""

import math
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cimmino import analyze, contraction_factor_2d, error_sequence, solve
from cimmino import io as cio

from conftest import random_nonsingular_system, system_at_angle

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
    read = cio.read_trace_csv(path)
    assert [(nu, res) for nu, res, _, _ in read] == list(enumerate(trace.residual_norms))
    assert [(nu, err, ratio) for nu, _, err, ratio in read] == rows
