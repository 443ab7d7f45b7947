import math

import numpy as np
import pytest

from cimmino import (
    DimensionMismatchError,
    LinearSystem,
    Termination,
    centroid_step,
    cimmino_step,
    error_sequence,
    iteration_matrix,
    masses_to_weights,
    solve,
)

from conftest import random_nonsingular_system, system_at_angle


# ---------------------------------------------------------------------------
# LinearSystem validation
# ---------------------------------------------------------------------------

def test_system_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        LinearSystem(np.ones((2, 3)), [1.0, 2.0])


def test_system_rejects_rhs_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        LinearSystem(np.eye(2), [1.0, 2.0, 3.0])


def test_system_rejects_zero_row():
    with pytest.raises(ValueError, match="zero row"):
        LinearSystem([[1.0, 2.0], [0.0, 0.0]], [1.0, 2.0])


@pytest.mark.parametrize("tiny", [1e-170, 1e-160], ids=["to-zero", "subnormal"])
def test_system_rejects_row_whose_squared_norm_underflows(tiny):
    # The row is not zero, but its squared norm rounds to 0 (1e-340) or to
    # a subnormal (1e-320) whose reciprocal, in the step, overflows.
    with pytest.raises(ValueError, match=r"row\(s\) \[0\]: squared norm under/overflows"):
        LinearSystem([[tiny, 0.0], [0.0, 1.0]], [1.0, 2.0])


def test_system_rejects_row_whose_squared_norm_overflows():
    with pytest.raises(ValueError, match=r"row\(s\) \[1\]: squared norm under/overflows"):
        LinearSystem([[1.0, 0.0], [1e160, 0.0]], [1.0, 2.0])


def test_system_rejects_non_finite():
    with pytest.raises(ValueError):
        LinearSystem([[1.0, float("nan")], [0.0, 1.0]], [1.0, 2.0])


def test_system_hyperplanes_match_rows(example1):
    planes = example1.hyperplanes()
    assert len(planes) == 2
    assert np.array_equal(planes[0].normal, [2.0, 1.0])
    assert planes[1].offset == 3.0


def test_system_is_immutable(example1):
    with pytest.raises(ValueError):
        example1.matrix[0, 0] = 99.0


# ---------------------------------------------------------------------------
# cimmino_step / centroid_step
# ---------------------------------------------------------------------------

def test_step_fixed_point_stays_exact(example1):
    out = cimmino_step(example1, [1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(out, [1.0, 1.0])


def test_step_example2_single_jump(example2):
    out = cimmino_step(example2, [3.0, -1.0], [1.0, 1.0])
    assert np.array_equal(out, [1.0, 1.0])


def test_step_figure1_reaches_distance_one(figure1):
    out = cimmino_step(figure1, [2.0, 0.0], [1.0, 1.0])
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)


def test_step_rejects_mismatched_weights(example1):
    with pytest.raises(DimensionMismatchError):
        cimmino_step(example1, [0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        cimmino_step(example1, [0.0, 0.0], [1.0, -1.0])


def test_centroid_step_example2_reflection_average(example2):
    # Reflections of (3,-1) across the two rows are (3,-1) and (-1,3);
    # their equal-mass centroid is (1,1).
    out = centroid_step(example2, [3.0, -1.0], [1.0, 1.0])
    assert np.max(np.abs(out - [1.0, 1.0])) <= 1e-15


def test_centroid_equals_unit_weight_step_for_equal_masses(example1):
    x = np.array([0.7, -2.3])
    lhs = centroid_step(example1, x, [1.0, 1.0])
    rhs = cimmino_step(example1, x, [1.0, 1.0])
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_centroid_matches_converted_masses_on_random_system():
    rng = np.random.default_rng(42)
    system = random_nonsingular_system(rng, 2)
    x = rng.standard_normal(2)
    lhs = centroid_step(system, x, [3.0, 1.0])
    rhs = cimmino_step(system, x, [1.5, 0.5])
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1.0 + np.max(np.abs(rhs)))


@pytest.mark.parametrize("seed", range(10))
def test_step_equivalence_random_triples(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 6))
    system = random_nonsingular_system(rng, n)
    x = rng.standard_normal(n) * 3.0
    masses = rng.uniform(0.1, 5.0, size=n)
    lhs = centroid_step(system, x, masses)
    rhs = cimmino_step(system, x, masses_to_weights(masses))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


@pytest.mark.parametrize("seed", range(10))
def test_step_fixed_point_random(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 6))
    a = rng.standard_normal((n, n))
    xi = rng.standard_normal(n)
    system = LinearSystem(a, a @ xi)
    w = rng.uniform(0.1, 2.0, size=n)
    out = cimmino_step(system, xi, w)
    assert np.max(np.abs(out - xi)) <= 1e-12 * (1.0 + np.max(np.abs(xi)))


@pytest.mark.parametrize("seed", range(10))
def test_step_error_is_linear_in_iteration_matrix(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(2, 6))
    a = rng.standard_normal((n, n))
    xi = rng.standard_normal(n)
    system = LinearSystem(a, a @ xi)
    w = rng.uniform(0.1, 2.0, size=n)
    x = rng.standard_normal(n) * 2.0
    m = iteration_matrix(system, w)
    stepped = cimmino_step(system, x, w)
    assert np.max(np.abs((stepped - xi) - m @ (x - xi))) <= 1e-11


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_example1_contracts_at_four_fifths(example1):
    trace = solve(example1, known_solution=[1.0, 1.0])
    assert trace.terminated is Termination.CONVERGED
    # Both propagator eigenvalues have magnitude 4/5, so every observed
    # ratio sits at the asymptotic rate already.  Near the stopping
    # threshold the error norms quantize at ulp(1), so the tight check
    # applies while the error is still well above that floor.
    assert trace.step_ratios.size >= 50
    assert np.max(np.abs(trace.step_ratios[:50] - 0.8)) <= 1e-9
    assert np.max(np.abs(trace.step_ratios - 0.8)) <= 1e-5


def test_solve_example1_against_matrix_power_oracle(example1):
    # Oracle: e^(nu) = M^nu e^(0) by repeated multiplication.
    m = iteration_matrix(example1, [1.0, 1.0])
    e = np.array([-1.0, -1.0])
    expected = [np.linalg.norm(e)]
    for _ in range(40):
        e = m @ e
        expected.append(np.linalg.norm(e))
    trace = solve(example1, max_iter=40, residual_tol=1e-300,
                  known_solution=[1.0, 1.0])
    assert trace.terminated is Termination.MAX_ITERATIONS
    assert np.max(np.abs(trace.error_norms - expected)) <= 1e-12
    assert np.all(trace.step_ratios <= 0.8 + 1e-9)


def test_solve_example2_converges_in_one_step(example2):
    rng = np.random.default_rng(8)
    for _ in range(5):
        trace = solve(example2, x0=rng.standard_normal(2) * 5.0)
        assert trace.terminated is Termination.CONVERGED
        assert trace.iterations == 1
        assert np.max(np.abs(trace.final - [1.0, 1.0])) <= 1e-13


def test_solve_figure1_halves_error(figure1):
    trace = solve(figure1, x0=[2.0, 0.0], residual_tol=1e-300, max_iter=3,
                  known_solution=[0.0, 0.0])
    assert np.max(np.abs(trace.error_norms - [2.0, 1.0, 0.5, 0.25])) <= 1e-12


def test_solve_records_consistent_lengths(example1):
    trace = solve(example1, known_solution=[1.0, 1.0])
    assert trace.residual_norms.size == trace.iterates.shape[0]
    assert trace.error_norms.size == trace.iterates.shape[0]
    assert trace.step_ratios.size == trace.error_norms.size - 1


def test_solve_without_solution_has_no_error_columns(example1):
    trace = solve(example1)
    assert trace.error_norms is None
    assert trace.step_ratios is None


def test_solve_starting_at_solution_converges_immediately(example1):
    trace = solve(example1, x0=[1.0, 1.0], known_solution=[1.0, 1.0])
    assert trace.terminated is Termination.CONVERGED
    assert trace.iterations == 0
    assert trace.step_ratios.size == 0


def test_solve_diverges_on_doubled_weights(example1):
    trace = solve(example1, weights=[2.0, 2.0])
    assert trace.terminated is Termination.DIVERGED
    assert np.linalg.norm(trace.final) > 1e150


def test_solve_budget_exhaustion(example1):
    trace = solve(example1, max_iter=3)
    assert trace.terminated is Termination.MAX_ITERATIONS
    assert trace.iterations == 3


def test_solve_validates_arguments(example1):
    with pytest.raises(ValueError):
        solve(example1, residual_tol=0.0)
    with pytest.raises(ValueError):
        solve(example1, residual_tol=-1e-10)
    with pytest.raises(ValueError):
        solve(example1, residual_tol=float("inf"))
    with pytest.raises(ValueError):
        solve(example1, max_iter=0)
    with pytest.raises(DimensionMismatchError):
        solve(example1, x0=[1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        solve(example1, known_solution=[1.0])


def test_solve_zero_rhs_uses_relative_tolerance(figure1):
    # ||b|| = 0: the stopping rule degrades to an absolute tolerance.
    trace = solve(figure1, x0=[2.0, 0.0], residual_tol=1e-12)
    assert trace.terminated is Termination.CONVERGED
    assert np.linalg.norm(trace.final) <= 1e-11


@pytest.mark.parametrize("theta_deg, rate", [(90.0, 0.0), (120.0, 0.5)])
def test_unit_weight_ratios_are_direction_independent(theta_deg, rate):
    # At these angles both propagator eigenvalues share one magnitude, so
    # every starting point contracts at exactly that rate.
    system = system_at_angle(math.radians(theta_deg))
    rng = np.random.default_rng(17)
    for _ in range(10):
        x0 = rng.standard_normal(2) * 4.0
        trace = solve(system, x0=x0, residual_tol=1e-300, max_iter=8,
                      known_solution=[0.0, 0.0])
        for ratio in trace.step_ratios:
            assert abs(ratio - rate) <= 1e-10


# ---------------------------------------------------------------------------
# step ratios and error_sequence
# ---------------------------------------------------------------------------

def test_step_ratios_omit_underflowed_denominators(example1):
    # Starting at the given "solution" makes error[0] exactly zero, so the
    # ratio at step 1 is undefined: omitted here, None in error_sequence.
    trace = solve(example1, x0=[5.0, 5.0], known_solution=[5.0, 5.0], max_iter=3)
    e = trace.error_norms
    assert e[0] == 0.0 and np.all(e[1:] > 0.0)
    assert np.array_equal(trace.step_ratios, [e[2] / e[1], e[3] / e[2]])
    assert [row[2] for row in error_sequence(trace)] == [None, None, e[2] / e[1], e[3] / e[2]]


def test_error_sequence_figure1(figure1):
    trace = solve(figure1, x0=[2.0, 0.0], residual_tol=1e-300, max_iter=2,
                  known_solution=[0.0, 0.0])
    rows = error_sequence(trace)
    assert rows[0][0] == 0 and rows[0][2] is None
    assert rows[0][1] == pytest.approx(2.0, abs=1e-12)
    assert rows[1][1] == pytest.approx(1.0, abs=1e-12)
    assert rows[1][2] == pytest.approx(0.5, abs=1e-12)
    assert rows[2][2] == pytest.approx(0.5, abs=1e-12)


def test_error_sequence_single_row_when_converged_at_start(example1):
    trace = solve(example1, x0=[1.0, 1.0], known_solution=[1.0, 1.0])
    rows = error_sequence(trace)
    assert len(rows) == 1
    assert rows[0] == (0, 0.0, None)


def test_error_sequence_requires_known_solution(example1):
    trace = solve(example1)
    with pytest.raises(ValueError, match="known solution required"):
        error_sequence(trace)
