import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cimmino import (
    DimensionMismatchError,
    Hyperplane,
    LinearSystem,
    Termination,
    analyze,
    centroid_step,
    cimmino_step,
    iteration_matrix,
    masses_to_weights,
    reflect,
    solve,
    weighted_normal_matrix,
)

from conftest import error_sequence, random_nonsingular_system, system_at_angle


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


def test_residual_norm_checks_the_length(example1):
    with pytest.raises(DimensionMismatchError, match="x has length 3, system is 2"):
        example1.residual_norm([1.0, 2.0, 3.0])


def test_residual_norm_overflows_to_inf_without_a_warning(example1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert example1.residual_norm([1e200, 1e200]) == math.inf


def test_system_rejects_rhs_whose_squared_norm_overflows():
    # ||b||_2 scales the stopping threshold; an infinite one passes any start.
    with pytest.raises(ValueError, match=r"rhs: squared norm overflows"):
        LinearSystem(np.eye(2), [1e200, 1.0])


@pytest.mark.parametrize("call", [
    lambda s, w: solve(s, weights=w),
    lambda s, w: cimmino_step(s, [0.0, 0.0], w),
    weighted_normal_matrix,
    analyze,
], ids=["solve", "cimmino_step", "weighted_normal_matrix", "analyze"])
def test_weights_whose_step_coefficient_overflows_are_refused(call):
    # ||a_0||^2 = 4e-308 is normal, but 10 / 4e-308 is not finite.
    system = LinearSystem([[2e-154, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"row\(s\) \[0\]: weight / squared norm overflows"):
        call(system, [10.0, 1.0])


def test_coefficients_are_the_read_only_diagonal_of_d_w(example1):
    for weights, expected in [(None, [0.2, 0.2]), ([2.0, 0.5], [2.0 / 5.0, 0.5 / 5.0])]:
        w, coef = example1.coefficients(weights)
        assert np.array_equal(w, [1.0, 1.0] if weights is None else weights)
        assert np.array_equal(coef, expected)
        assert not w.flags.writeable and not coef.flags.writeable
    with pytest.raises(DimensionMismatchError, match="weights has length 3, system is 2"):
        example1.coefficients([1.0, 1.0, 1.0])


def test_system_rejects_non_finite():
    with pytest.raises(ValueError):
        LinearSystem([[1.0, float("nan")], [0.0, 1.0]], [1.0, 2.0])


@pytest.mark.parametrize("call, name", [
    (lambda s: LinearSystem(s.matrix, [math.nan, 1.0]), "rhs"),
    (lambda s: solve(s, x0=[math.inf, 0.0]), "x0"),
    (lambda s: solve(s, known_solution=[1.0, math.nan]), "known_solution"),
    (lambda s: s.residual_norm([math.nan, 0.0]), "x"),
    (lambda s: cimmino_step(s, [-math.inf, 0.0], None), "iterate"),
    (lambda s: centroid_step(s, [0.0, 0.0], [math.nan, 1.0]), "masses"),
    (lambda s: masses_to_weights([math.inf, 1.0]), "masses"),
], ids=["rhs", "x0", "known_solution", "residual_norm-x", "cimmino_step-iterate",
        "centroid_step-masses", "masses_to_weights"])
def test_a_non_finite_vector_is_refused_by_its_name(example1, call, name):
    with pytest.raises(ValueError) as excinfo:
        call(example1)
    assert str(excinfo.value) == f"{name} vector entries must be finite"


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


def test_centroid_step_refuses_masses_whose_sum_overflows(example1):
    # Before this refusal the step warned three times and returned [nan, nan].
    with pytest.raises(ValueError, match="masses must have a finite sum"):
        centroid_step(example1, [0.0, 0.0], [1e308, 1e308])


def test_centroid_step_normalizes_masses_near_the_float_maximum(example1):
    # The mass-weighted sum overflowed here and gave [inf, inf] with a warning.
    out = centroid_step(example1, [0.0, 0.0], [8e307, 8e307])
    assert np.array_equal(out, centroid_step(example1, [0.0, 0.0], [1.0, 1.0]))
    assert np.max(np.abs(out - [1.8, 1.8])) <= 1e-15


_WEIGHT_MESSAGE = "weight(s) [0]: must be finite and positive, and at least 2.2250738585072014e-308"


@pytest.mark.parametrize("masses, message", [
    ([1e-310, 1.0], _WEIGHT_MESSAGE),
    ([1e-200, 1e200], _WEIGHT_MESSAGE),
    ([-1.0, -1.0], "masses must all be positive"),
], ids=["subnormal-weight", "underflowed-weight", "all-negative"])
def test_masses_are_refused_as_their_weights_are(example1, masses, message):
    # Weights 2e-310 and 0.0 are refused as cimmino_step refuses them.
    # All-negative masses give positive ratios, so their sign is checked first.
    for call in (lambda: masses_to_weights(masses),
                 lambda: centroid_step(example1, [0.0, 0.0], masses)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
    # Subnormal masses whose weights are normal stay accepted.
    assert np.array_equal(masses_to_weights([1e-310, 1e-310]), [1.0, 1.0])
    assert np.array_equal(centroid_step(example1, [0.0, 0.0], [1e-310, 1e-310]),
                          centroid_step(example1, [0.0, 0.0], [1.0, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_centroid_step_is_the_normalized_mass_product_bit_for_bit(n):
    # Reference: the reflections and the masses over their sum, written out.
    rng = np.random.default_rng(5000 + n)
    for scale in (1e-310, 1e-300, 1e-150, 1.0, 1e150, 8e307 / n):
        for _ in range(20):
            system = random_nonsingular_system(rng, n)
            a, b = system.matrix, system.rhs
            x = rng.standard_normal(n) * 3.0
            m = rng.uniform(0.1, 1.0, size=n) * scale
            reflections = x + (2.0 * (b - a @ x) / np.add.reduce(a * a, axis=1))[:, None] * a
            expected = (m / np.add.reduce(m)) @ reflections
            assert np.array_equal(centroid_step(system, x, m).view(np.int64),
                                  expected.view(np.int64))


@pytest.mark.parametrize("step, x, weights", [
    (cimmino_step, [-1e308, 0.0], [1.0, 1.0]),
    (centroid_step, [-1e308, 0.0], [1.0, 1.0]),
    (centroid_step, [8e307, 0.0], [8e307, 8e307]),
], ids=["cimmino-step", "centroid-step", "centroid-step-large-masses"])
def test_step_past_the_float_range_is_refused(example1, step, x, weights):
    # These steps returned [inf, inf] or [-inf, -inf] with numpy overflow warnings.
    with pytest.raises(ValueError, match="step overflows binary64"):
        step(example1, x, weights)


def test_solve_from_past_the_step_range_still_diverges(example1):
    # solve does not refuse the step that cimmino_step refuses; it stops.
    trace = solve(example1, x0=[-1e308, 0.0])
    assert (trace.terminated, trace.iterations) == (Termination.DIVERGED, 0)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("seed", range(3))
def test_centroid_step_is_the_mean_of_the_row_reflections(seed, n):
    rng = np.random.default_rng(3000 + seed)
    system = random_nonsingular_system(rng, n)
    x = rng.standard_normal(n) * 3.0
    masses = rng.uniform(0.1, 5.0, size=n)
    reflections = [
        reflect(x, Hyperplane(system.matrix[i], system.rhs[i])) for i in range(n)
    ]
    expected = sum(m * q for m, q in zip(masses, reflections)) / masses.sum()
    out = centroid_step(system, x, masses)
    assert np.max(np.abs(out - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))


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


# The paper's per-step claim past 2x2: every step shrinks the error by at most
# rho, in ||e||_2 and in the weighted residual ||r||_D = sqrt(sum_i coef_i r_i^2)
# = ||B^(1/2) e||_2, since M_w is symmetric.  A norm at a fraction f of its
# start carries a rounding of about eps / f, so each ratio is checked while
# the norm is above _CONTRACTION_FLOOR of its start, to within
# rho * (1 + _CONTRACTION_SLACK).  Over 720 seeded systems at alpha* weights
# (seeds 0-79, n = 3..11, 3.65 million steps) the worst ratios were
# rho * (1 + 3.6e-7) for ||e||_2 and rho * (1 + 1.7e-6) for ||r||_D; at a
# floor of 1e-10 they reached 3.3e-6 and 2.1e-5.
_CONTRACTION_FLOOR = 1e-9
_CONTRACTION_SLACK = 1e-5


@pytest.mark.parametrize("seed", range(4))
def test_every_step_contracts_by_rho_at_n_from_3_to_11(seed):
    for n in range(3, 12):
        system = random_nonsingular_system(np.random.default_rng([seed, n]), n)
        w = np.full(n, analyze(system).optimal_alpha)
        rho = analyze(system, w).spectral_radius
        trace = solve(system, weights=w, residual_tol=1e-13,
                      known_solution=np.linalg.solve(system.matrix, system.rhs))
        _, coef = system.coefficients(w)
        r = system.rhs - trace.iterates @ system.matrix.T
        for norms in (trace.error_norms, np.sqrt(np.sum(coef * r * r, axis=1))):
            above = norms[:-1] > _CONTRACTION_FLOOR * norms[0]
            bound = rho * (1.0 + _CONTRACTION_SLACK) * norms[:-1][above]
            assert np.all(norms[1:][above] <= bound), n


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


def test_solve_overflowing_norms_warn_nothing_and_decide_as_before(example1):
    # The first step lands near 1.8e200: its residual and error norms are
    # inf, and the iterate norm passes the sentinel.
    trace = solve(example1, weights=[1e200, 1e200], known_solution=[1.0, 1.0])
    assert trace.terminated is Termination.DIVERGED
    assert trace.iterations == 1
    assert trace.residual_norms[-1] == math.inf and trace.error_norms[-1] == math.inf


def test_solve_converges_from_an_overflowed_starting_residual():
    # Rows of norm ~1e152 and |x0| ~ 1.4e3: sum(r*r) ~ 2e310 is inf at the
    # start, yet the run converges; an infinite residual is not divergence.
    scale = 1e152
    system = LinearSystem([[2.0 * scale, scale], [scale, 2.0 * scale]], [3.0 * scale] * 2)
    trace = solve(system, x0=[-1000.0, 1000.0], known_solution=[1.0, 1.0])
    assert trace.residual_norms[0] == math.inf
    assert trace.terminated is Termination.CONVERGED
    assert trace.error_norms[-1] <= 1e-8


def _reference_solve(system, weights=None, x0=None, max_iter=10_000, known_solution=None):
    """The solve loop written out with np.sqrt(np.sum(...)) norms, as the
    bit oracle for the lean loop: (iterates, residual_norms, error_norms,
    termination)."""
    _, coef = system.coefficients(weights)
    a, b = system.matrix, system.rhs
    stop_abs = 1e-10 * (1.0 + float(np.sqrt(np.sum(b * b))))
    x = np.zeros(system.n) if x0 is None else np.array(x0, dtype=np.float64)
    xs, resnorms = [], []
    terminated = None
    with np.errstate(over="ignore"):
        while terminated is None:
            r = b - a @ x
            res = float(np.sqrt(np.sum(r * r)))
            xs.append(x)
            resnorms.append(res)
            if res <= stop_abs:
                terminated = Termination.CONVERGED
            elif np.sqrt(np.sum(x * x)) > 1e150:
                terminated = Termination.DIVERGED
            elif len(xs) > max_iter:
                terminated = Termination.MAX_ITERATIONS
            else:
                x = x + (coef * r) @ a
        iterates = np.array(xs)
        errors = None
        if known_solution is not None:
            diffs = iterates - np.asarray(known_solution, dtype=np.float64)
            errors = np.sqrt(np.sum(diffs * diffs, axis=1))
    return iterates, np.array(resnorms), errors, terminated


def _seeded_run(n):
    rng = np.random.default_rng(1000 + n)
    system = random_nonsingular_system(rng, n)
    solution = np.linalg.solve(system.matrix, system.rhs)
    # Cimmino's equal masses, w_i = 2/n, converge on any nonsingular system.
    return system, dict(weights=np.full(n, 2.0 / n), max_iter=3000, known_solution=solution)


_EXAMPLE1 = ([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])


def _example1_run(**kwargs):
    return LinearSystem(*_EXAMPLE1), dict(known_solution=[1.0, 1.0], **kwargs)


def _converging_at(step):
    # From x* + d (1, -1) the error and the residual both contract by exactly
    # 0.8 per step; d puts the residual half a step above the stopping
    # threshold at `step`.
    stop = 1e-10 * (1.0 + math.sqrt(18.0))
    d = stop / (math.sqrt(2.0) * 0.8 ** (step - 0.5))
    return _example1_run(x0=[1.0 + d, 1.0 - d])


# Runs that stop on either side of solve's blocks of 16 steps, with the step
# count and termination each is built to reach.
_BLOCK_EDGE_STOPS = {
    **{f"max-iter-{m}": (m, Termination.MAX_ITERATIONS) for m in (1, 15, 16, 17, 32, 33)},
    **{f"converges-at-step-{k}": (k, Termination.CONVERGED) for k in (0, 15, 16, 17)},
    # The iterate crosses 1e150 at step 4; the rest of its block overflows.
    "diverges-mid-block-into-overflow": (4, Termination.DIVERGED),
}
_ORACLE_RUNS = {
    **{f"max-iter-{m}": (lambda m=m: _example1_run(max_iter=m, x0=[4.0, -7.0]))
       for m in (1, 15, 16, 17, 32, 33)},
    "converges-at-step-0": lambda: _example1_run(x0=[1.0, 1.0]),
    **{f"converges-at-step-{k}": (lambda k=k: _converging_at(k)) for k in (15, 16, 17)},
    "diverges-mid-block-into-overflow": lambda: _example1_run(weights=[1e40, 1e40]),
    "seeded-n200": lambda: _seeded_run(200),
    "seeded-n2": lambda: _seeded_run(2),
    "seeded-n3": lambda: _seeded_run(3),
    "seeded-n8": lambda: _seeded_run(8),
    "seeded-n50": lambda: _seeded_run(50),
    "diverges-on-doubled-weights": lambda: (
        LinearSystem(*_EXAMPLE1), dict(weights=[2.0, 2.0], known_solution=[1.0, 1.0])),
    "max-iterations": lambda: (
        LinearSystem(*_EXAMPLE1), dict(max_iter=5, x0=[4.0, -7.0], known_solution=[1.0, 1.0])),
    "overflowed-start": lambda: (
        LinearSystem([[2e152, 1e152], [1e152, 2e152]], [3e152, 3e152]),
        dict(x0=[-1000.0, 1000.0], known_solution=[1.0, 1.0])),
    "iterate-crosses-1e150": lambda: (
        LinearSystem([[2e10, 1e10], [1e10, 2e10]], [3.0, 3.0]),
        dict(weights=[2.0, 2.0], known_solution=[1e-10, 1e-10])),
    # ||x0|| is exactly the sentinel (not past it), then one ulp above it.
    "start-on-the-sentinel": lambda: (
        LinearSystem(*_EXAMPLE1), dict(x0=[1e150, 0.0], known_solution=[1.0, 1.0])),
    "start-just-past-the-sentinel": lambda: (
        LinearSystem(*_EXAMPLE1), dict(x0=[np.nextafter(1e150, np.inf), 0.0])),
}


@pytest.mark.parametrize("run", sorted(_ORACLE_RUNS))
def test_solve_matches_the_sum_wrapper_loop_bit_for_bit(run):
    system, kwargs = _ORACLE_RUNS[run]()
    trace = solve(system, **kwargs)
    iterates, residuals, errors, terminated = _reference_solve(system, **kwargs)
    assert trace.terminated is terminated
    if errors is None:
        assert trace.error_norms is None
    for got, want in ((trace.iterates, iterates), (trace.residual_norms, residuals),
                      (trace.error_norms, errors)):
        if want is None:
            continue
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("run", sorted(_BLOCK_EDGE_STOPS))
def test_block_edge_runs_stop_where_named(run):
    system, kwargs = _ORACLE_RUNS[run]()
    trace = solve(system, **kwargs)
    assert (trace.iterations, trace.terminated) == _BLOCK_EDGE_STOPS[run]


def test_solve_drops_the_overflowing_steps_after_a_mid_block_divergence():
    # solve runs the block on to step 16 before it tests the norms; those
    # steps reach inf and then inf - inf = NaN, and must neither warn (a
    # RuntimeWarning fails the suite) nor reach the trace.
    system, kwargs = _ORACLE_RUNS["diverges-mid-block-into-overflow"]()
    trace = solve(system, **kwargs)
    assert trace.iterations == 4 and np.isfinite(trace.iterates).all()
    _, coef = system.coefficients(kwargs["weights"])
    x = trace.final
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(16 - 4):
            x = x + (coef * (system.rhs - system.matrix @ x)) @ system.matrix
    assert np.isnan(x).all()


@pytest.mark.parametrize("max_iter", [1, 16, 17, 40])
def test_solve_warns_once_where_the_step_by_step_loop_makes_a_nan(max_iter):
    # coef_0 * r_0 = 1e310 overflows to inf, and inf * 0 in the product
    # makes iterate 1 NaN.  The step-by-step loop warns there; solve, whose
    # loop runs with invalid-value warnings off, must warn once too, from
    # its caller's line, and keep the same iterates and decision.
    system = LinearSystem([[1e-150, 0.0], [0.0, 1.0]], [1e10, 1.0])
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        iterates, resnorms, _, terminated = _reference_solve(system, max_iter=max_iter)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = solve(system, max_iter=max_iter)
    assert [(str(w.message), w.category, w.filename) for w in caught] == [
        ("invalid value encountered in solve: the residual is NaN from step 1 on",
         RuntimeWarning, __file__)]
    assert trace.terminated is terminated is Termination.MAX_ITERATIONS
    assert trace.iterations == max_iter
    np.testing.assert_array_equal(trace.iterates, iterates)
    np.testing.assert_array_equal(trace.residual_norms, resnorms)


@pytest.mark.parametrize("n", [2, 3, 8, 50])
def test_cimmino_step_is_one_solve_step_bit_for_bit(n):
    rng = np.random.default_rng(4000 + n)
    system = random_nonsingular_system(rng, n)
    x = rng.standard_normal(n) * 3.0
    w = rng.uniform(0.1, 2.0, size=n)
    trace = solve(system, w, x0=x, max_iter=1)
    assert trace.iterations == 1
    assert np.array_equal(cimmino_step(system, x, w).view(np.int64),
                          trace.iterates[1].view(np.int64))


@pytest.mark.parametrize("max_iter, x0, same_as, steps, terminated", [
    (1e4, None, 10_000, 103, Termination.CONVERGED),
    (math.inf, None, 10_000, 103, Termination.CONVERGED),
    (2.5, [4.0, -7.0], 2, 2, Termination.MAX_ITERATIONS),
], ids=["1e4", "inf", "2.5"])
def test_solve_takes_any_real_budget_of_at_least_one(example1, max_iter, x0, same_as,
                                                     steps, terminated):
    # A budget of 2.5 allows the steps whose count does not exceed it.
    trace = solve(example1, x0=x0, max_iter=max_iter)
    assert (trace.iterations, trace.terminated) == (steps, terminated)
    assert np.array_equal(trace.iterates, solve(example1, x0=x0, max_iter=same_as).iterates)


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
    with pytest.raises(ValueError):
        solve(example1, max_iter=float("nan"))
    with pytest.raises(DimensionMismatchError):
        solve(example1, x0=[1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        solve(example1, known_solution=[1.0])


@pytest.mark.parametrize("known_solution", [[1.0, 1.0], None], ids=["solved", "unsolved"])
def test_solve_peak_memory_is_a_small_multiple_of_its_trace(known_solution):
    # Rows 0.2 degrees apart contract by cos(0.2 deg) per step, so 6000
    # steps run out the budget.  Each block of 16 is stacked once; a loop
    # that holds one array object per step until the end takes 7-8x.
    c, s = math.cos(math.radians(0.2)), math.sin(math.radians(0.2))
    system = LinearSystem([[1.0, 0.0], [c, s]], [1.0, c + s])
    tracemalloc.start()
    try:
        trace = solve(system, max_iter=6000, known_solution=known_solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (trace.iterations, trace.terminated) == (6000, Termination.MAX_ITERATIONS)
    returned = sum(v.nbytes for v in (trace.iterates, trace.residual_norms, trace.error_norms)
                   if v is not None)
    assert peak < 4 * returned


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
