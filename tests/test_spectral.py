import math
from fractions import Fraction

import numpy as np
import pytest

from cimmino import (
    ConvergenceClass,
    LinearSystem,
    SingularMatrixError,
    Termination,
    analyze,
    cimmino_step,
    classify_convergence,
    contraction_factor_2d,
    error_envelope,
    internormal_angle,
    is_tight_frame,
    iteration_matrix,
    optimal_scaling,
    optimality_gap,
    projection_matrix,
    solve,
    unit_normal,
    weighted_normal_matrix,
)

from conftest import random_nonsingular_system, system_at_angle


def _orthogonal_matrix(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _scaled_orthogonal_rows_system(rng, n):
    # Rows are orthogonal directions with arbitrary positive lengths, so the
    # unit-weight normal matrix is the identity.
    q = _orthogonal_matrix(rng, n)
    scales = rng.uniform(0.2, 5.0, size=n)
    a = scales[:, None] * q.T  # row i is scales[i] * q[:, i]
    return LinearSystem(a, rng.standard_normal(n))


# ---------------------------------------------------------------------------
# weighted_normal_matrix / iteration_matrix
# ---------------------------------------------------------------------------

def test_normal_matrix_example1_exact(example1):
    b = weighted_normal_matrix(example1)
    assert np.array_equal(b, np.array([[5.0, 4.0], [4.0, 5.0]]) / 5.0)


def test_normal_matrix_example2_is_identity(example2):
    assert np.array_equal(weighted_normal_matrix(example2), np.eye(2))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_normal_matrix_orthonormal_rows_give_identity(n):
    rng = np.random.default_rng(n)
    system = LinearSystem(_orthogonal_matrix(rng, n).T, np.zeros(n))
    b = weighted_normal_matrix(system)
    assert np.max(np.abs(b - np.eye(n))) <= 1e-13


@pytest.mark.parametrize("n", [5, 128])
def test_normal_matrix_is_exactly_symmetric(n):
    # The matrix product alone is not bit-symmetric at these sizes; the
    # mirrored triangle makes it so.
    rng = np.random.default_rng(23)
    system = random_nonsingular_system(rng, n)
    b = weighted_normal_matrix(system, rng.uniform(0.1, 2.0, size=n))
    assert np.array_equal(b, b.T)


@pytest.mark.parametrize("n", [5, 128])
def test_normal_matrix_matches_sum_of_weighted_projections(n):
    # Reference: the definition sum_i w_i P_i, one rank-one term per row.
    # The matrix product sums in another order, so the two agree to
    # rounding: each entry is a sum of n terms bounded by w_i.
    rng = np.random.default_rng(29)
    system = random_nonsingular_system(rng, n)
    w = rng.uniform(0.1, 2.0, size=n)
    reference = sum(w[i] * projection_matrix(unit_normal(system.matrix[i])) for i in range(n))
    b = weighted_normal_matrix(system, w)
    assert np.max(np.abs(b - reference)) <= 4.0 * n * np.finfo(np.float64).eps * np.sum(w)


def test_iteration_matrix_complements_normal_matrix(example1):
    m = iteration_matrix(example1)
    b = weighted_normal_matrix(example1)
    assert np.array_equal(m, np.eye(2) - b)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", [analyze, weighted_normal_matrix, iteration_matrix,
                                   is_tight_frame])
def test_normal_matrix_past_the_float_range_is_refused(entry):
    # B_00 = 1e308 + 1e308 / (1 + 1e-20) overflows; is_tight_frame answered
    # False on the inf matrix.
    system = LinearSystem([[1.0, 0.0], [1.0, 1e-10]], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^B = A\^T D_w A overflows binary64$"):
        entry(system, [1e308, 1e308])


def test_normal_matrix_whose_partial_sums_overflow_both_ways_is_refused():
    # B_01 sums +5e306 over the first half of the rows and -5e306 over the
    # second; a blocked BLAS product can add +inf to -inf and warn of an
    # invalid value rather than an overflow.  Either way B is refused.
    n = 1024
    a = np.zeros((n, n))
    a[:, 0] = 1.0
    a[:, 1] = np.repeat([1.0, -1.0], n // 2)
    with pytest.raises(ValueError, match=r"^B = A\^T D_w A overflows binary64$"):
        weighted_normal_matrix(LinearSystem(a, np.ones(n)), np.full(n, 1e307))


def test_analyze_example1(example1):
    report = analyze(example1)
    assert abs(report.eigenvalues[0] - 0.2) <= 1e-12
    assert abs(report.eigenvalues[1] - 1.8) <= 1e-12
    assert abs(report.spectral_radius - 0.8) <= 1e-12
    assert abs(report.condition_number - 9.0) <= 1e-10
    assert report.convergence_class is ConvergenceClass.CONVERGES
    assert abs(report.optimal_alpha - 1.0) <= 1e-12
    assert abs(report.optimal_scaled_rate - 0.8) <= 1e-12
    assert not report.tight_frame
    assert math.cos(report.theta) == pytest.approx(0.8, abs=1e-15)


def test_optimal_alpha_is_finite_where_the_eigenvalue_sum_passes_the_float_range():
    # l_1 + l_n = 2e308 overflowed to inf, and 2/inf gave optimal_alpha 0.0.
    report = analyze(LinearSystem(np.eye(2), [1.0, 1.0]), [1e308, 1e308])
    assert report.optimal_alpha == 1e-308


@pytest.mark.parametrize("seed", range(3))
def test_optimal_alpha_keeps_the_bits_of_two_over_the_eigenvalue_sum(seed):
    rng = np.random.default_rng(6100 + seed)
    sides = set()
    for _ in range(200):
        n = int(rng.integers(2, 6))
        system = random_nonsingular_system(rng, n)
        w = rng.uniform(0.2, 1.2, size=n) * 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            report = analyze(system, w)
        except SingularMatrixError:
            continue
        lam_min, lam_max = float(report.eigenvalues[0]), float(report.eigenvalues[-1])
        assert report.optimal_alpha == 2.0 / (lam_min + lam_max)
        sides.add(lam_max > 1.0)
    assert sides == {False, True}


def test_analyze_example2(example2):
    report = analyze(example2)
    assert report.spectral_radius == 0.0
    assert report.tight_frame
    assert report.convergence_class is ConvergenceClass.CONVERGES
    assert report.optimal_scaled_rate <= 1e-12


def test_analyze_doubled_weights_diverge(example1):
    report = analyze(example1, [2.0, 2.0])
    assert abs(report.eigenvalues[0] - 0.4) <= 1e-12
    assert abs(report.eigenvalues[1] - 3.6) <= 1e-12
    assert abs(report.spectral_radius - 2.6) <= 1e-12
    assert report.convergence_class is ConvergenceClass.DIVERGES


def test_analyze_rejects_singular_matrix():
    system = LinearSystem([[2.0, 1.0], [2.0, 1.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrixError, match="singular"):
        analyze(system)


def test_analyze_singular_error_carries_eigenvalue_estimates():
    system = LinearSystem([[1.0, 2.0], [2.0, 4.0]], [0.0, 0.0])
    with pytest.raises(SingularMatrixError) as excinfo:
        analyze(system)
    assert excinfo.value.lambda_max > 0.0
    assert excinfo.value.lambda_min <= 1e-14 * excinfo.value.lambda_max


def test_analyze_theta_only_for_two_by_two():
    rng = np.random.default_rng(31)
    report = analyze(random_nonsingular_system(rng, 3))
    assert report.theta is None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_example1_converges(example1):
    assert classify_convergence(example1) is ConvergenceClass.CONVERGES


def test_classify_doubled_weights_diverges(example1):
    assert classify_convergence(example1, [2.0, 2.0]) is ConvergenceClass.DIVERGES


def test_classify_boundary_scaling_stalls(example1):
    alpha = 2.0 / 1.8
    cls = classify_convergence(example1, [alpha, alpha])
    assert cls is ConvergenceClass.STALLS


# ---------------------------------------------------------------------------
# closed 2x2 form
# ---------------------------------------------------------------------------

def test_closed_form_orthogonal_unit_weights_vanishes():
    spectrum = contraction_factor_2d(1.0, 1.0, math.pi / 2.0)
    assert abs(spectrum.rho) <= 1e-15


def test_closed_form_120_degrees_is_half():
    spectrum = contraction_factor_2d(1.0, 1.0, 2.0 * math.pi / 3.0)
    assert abs(spectrum.rho - 0.5) <= 1e-12


def test_closed_form_near_parallel_equal_weights_diverges():
    spectrum = contraction_factor_2d(1.4, 1.4, 0.1)
    assert spectrum.rho == pytest.approx(0.4 + 1.4 * math.cos(0.1), abs=1e-12)
    assert spectrum.rho > 1.0


def test_closed_form_small_equal_weights_rate_09():
    spectrum = contraction_factor_2d(0.2, 0.2, 2.0 * math.pi / 3.0)
    assert spectrum.rho == pytest.approx(0.9, abs=1e-12)


def test_closed_form_rejects_endpoint_angles():
    for theta in (0.0, 1e-13, math.pi, math.pi - 1e-13, -0.3, 4.0, float("nan"),
                  np.array([1.0, math.pi])):
        with pytest.raises(ValueError, match="parallel normals"):
            contraction_factor_2d(1.0, 1.0, theta)


@pytest.mark.parametrize("w1, w2", [(1e300, 1.0), (1e200, 1e200)])
def test_closed_form_refuses_a_rate_it_cannot_form(w1, w2):
    # (w1 - w2)**2 overflows to inf on the first pair, and
    # 4 w1 w2 cos^2 (numpy gives inf) on the second, whose rate is finite.
    for theta in (1.0, np.radians([10.0, 90.0, 170.0])):
        with pytest.raises(ValueError, match=r"the 2x2 rate overflows binary64"):
            contraction_factor_2d(w1, w2, theta)
    with pytest.raises(ValueError, match=r"the 2x2 rate overflows binary64"):
        optimality_gap(w1, w2, 1.0)


def test_closed_form_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        contraction_factor_2d(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        contraction_factor_2d(1.0, -0.5, 1.0)


_TINY = np.finfo(np.float64).tiny
# Every weight path on a 2x2 system: the closed form and the paths through B.
_WEIGHT_PATHS = {
    "closed-form": lambda s, w: contraction_factor_2d(*w, internormal_angle(*s.matrix)),
    "analyze": analyze,
    "solve": lambda s, w: solve(s, weights=w, max_iter=10),
    "cimmino_step": lambda s, w: cimmino_step(s, [0.0, 0.0], w),
    "weighted_normal_matrix": weighted_normal_matrix,
    "iteration_matrix": iteration_matrix,
    "is_tight_frame": is_tight_frame,
}


@pytest.mark.parametrize("weights", [(0.0, 1.0), (-1.0, 1.0), (1e-310, 1.0), (_TINY / 2, 1.0),
                                     (math.nan, 1.0), (math.inf, 1.0)],
                         ids=["zero", "negative", "subnormal", "half-tiny", "nan", "inf"])
def test_closed_form_and_eigen_paths_refuse_the_same_weights(example1, weights):
    messages = set()
    for call in _WEIGHT_PATHS.values():
        with pytest.raises(ValueError) as excinfo:
            call(example1, weights)
        messages.add(str(excinfo.value))
    assert messages == {
        "weight(s) [0]: must be finite and positive, and at least 2.2250738585072014e-308"}


@pytest.mark.parametrize("weights, indices", [
    ((1.0, -math.inf), [1]), ((math.nan, math.inf), [0, 1]), ((math.inf, 1.0, 1.0), [0]),
], ids=["minus-inf-second", "both-non-finite", "non-finite-and-too-long"])
def test_every_weight_path_names_the_non_finite_weights(example1, weights, indices):
    # The weight rule judges the entries before the length is checked.
    for name, call in _WEIGHT_PATHS.items():
        if name == "closed-form" and len(weights) != 2:
            continue
        with pytest.raises(ValueError) as excinfo:
            call(example1, weights)
        assert str(excinfo.value) == (f"weight(s) {indices}: must be finite and positive, "
                                      "and at least 2.2250738585072014e-308")


def test_closed_form_and_eigen_paths_accept_the_smallest_normal_weights(example1):
    weights = (_TINY, _TINY)
    for call in _WEIGHT_PATHS.values():
        call(example1, weights)
    report = analyze(example1, weights)
    # l_n >= mean(w) >= tiny, so 2/(l_1 + l_n) <= 2/tiny is finite.
    assert np.isfinite(report.eigenvalues).all()
    for value in (report.spectral_radius, report.condition_number,
                  report.optimal_alpha, report.optimal_scaled_rate):
        assert math.isfinite(value)
    assert report.spectral_radius == _WEIGHT_PATHS["closed-form"](example1, weights).rho


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_matches_eigensolver_and_identities(seed):
    rng = np.random.default_rng(4000 + seed)
    for _ in range(50):
        w1, w2 = rng.uniform(0.05, 2.0, size=2)
        theta = rng.uniform(math.radians(10.0), math.radians(170.0))
        spectrum = contraction_factor_2d(w1, w2, theta)
        report = analyze(system_at_angle(theta), [w1, w2])
        assert abs(spectrum.rho - report.spectral_radius) <= 1e-10
        # Trace and determinant identities of the weighted normal matrix.
        trace_sum = spectrum.eig_low + spectrum.eig_high
        det_prod = spectrum.eig_low * spectrum.eig_high
        det_expected = w1 * w2 * math.sin(theta) ** 2
        assert abs(trace_sum - (w1 + w2)) <= 1e-12 * (w1 + w2)
        assert abs(det_prod - det_expected) <= 1e-12 * det_expected
        # The spread dominates both the weight gap and the cosine term.
        assert spectrum.spread >= abs(w1 - w2) - 1e-15
        assert spectrum.spread >= 2.0 * math.sqrt(w1 * w2) * abs(math.cos(theta)) - 1e-15


def test_closed_form_named_intermediates():
    s = contraction_factor_2d(1.5, 0.5, math.pi / 3.0)
    assert s.mean_weight == 1.0
    assert s.half_diff == 0.5
    assert s.eig_low == pytest.approx(s.mean_weight - s.spread / 2.0, abs=1e-15)
    assert s.eig_high == pytest.approx(s.mean_weight + s.spread / 2.0, abs=1e-15)
    assert s.rho == pytest.approx(abs(1.0 - s.mean_weight) + s.spread / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# optimality of unit weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta_deg", [15.0, 45.0, 60.0, 90.0, 120.0, 165.0])
def test_gap_zero_at_unit_weights(theta_deg):
    assert abs(optimality_gap(1.0, 1.0, math.radians(theta_deg))) <= 1e-15


def test_gap_penalizes_uniform_inflation():
    gap = optimality_gap(1.4, 1.4, 2.0 * math.pi / 3.0)
    assert gap == pytest.approx(0.6, abs=1e-12)


def test_gap_penalizes_imbalance_at_right_angle():
    gap = optimality_gap(0.5, 1.5, math.pi / 2.0)
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_gap_nonnegative_on_grid():
    weights = 0.05 * np.arange(1, 41)
    for theta_deg in (15.0, 45.0, 60.0, 90.0, 120.0, 165.0):
        theta = math.radians(theta_deg)
        for w1 in weights:
            for w2 in weights:
                gap = optimality_gap(float(w1), float(w2), theta)
                assert gap >= -1e-14
                if gap <= 1e-12:
                    assert w1 == 1.0 and w2 == 1.0


def test_unit_rate_monotone_toward_parallelism():
    thetas = np.radians(np.arange(1.0, 180.0, 1.0))
    rates = contraction_factor_2d(1.0, 1.0, thetas).rho
    mid = np.searchsorted(thetas, math.pi / 2.0)
    assert np.all(np.diff(rates[: mid + 1]) <= 1e-15)
    assert np.all(np.diff(rates[mid:]) >= -1e-15)


# ---------------------------------------------------------------------------
# optimal scaling
# ---------------------------------------------------------------------------

def test_optimal_scaling_example1_already_optimal(example1):
    alpha, rate = optimal_scaling(example1)
    assert abs(alpha - 1.0) <= 1e-12
    assert abs(rate - 0.8) <= 1e-12


def test_optimal_scaling_tight_frame_inverse_eigenvalue():
    rng = np.random.default_rng(55)
    system = _scaled_orthogonal_rows_system(rng, 3)
    # Doubling the weights doubles every eigenvalue, so the best scaling
    # is 1/2 and the optimal rate stays 0.
    alpha, rate = optimal_scaling(system, [2.0, 2.0, 2.0])
    assert alpha == pytest.approx(0.5, abs=1e-12)
    assert rate <= 1e-12


def test_optimal_scaling_matches_brute_force_grid():
    rng = np.random.default_rng(60)
    system = random_nonsingular_system(rng, 3)
    w = rng.uniform(0.2, 2.0, size=3)
    report = analyze(system, w)
    alpha, rate = optimal_scaling(system, w)
    lam_min, lam_max = report.eigenvalues[0], report.eigenvalues[-1]
    alphas = np.geomspace(alpha / 100.0, alpha * 100.0, 100_000)
    grid = np.maximum(np.abs(1.0 - alphas * lam_min), np.abs(1.0 - alphas * lam_max))
    assert abs(rate - grid.min()) <= 1e-4 * (1.0 + rate)
    assert rate <= grid.min() + 1e-12


def test_scaled_weights_attain_the_optimal_rate():
    rng = np.random.default_rng(61)
    for n in (2, 3, 4, 5):
        system = random_nonsingular_system(rng, n)
        w = rng.uniform(0.2, 2.0, size=n)
        alpha, rate = optimal_scaling(system, w)
        rescaled = analyze(system, alpha * w)
        assert abs(rescaled.spectral_radius - rate) <= 1e-10


def test_report_invariants_on_random_systems():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        system = random_nonsingular_system(rng, n)
        report = analyze(system, rng.uniform(0.2, 2.0, size=n))
        lam = report.eigenvalues
        assert lam[0] > 0.0
        assert report.spectral_radius == max(abs(1.0 - lam[0]), abs(1.0 - lam[-1]))
        assert 0.0 <= report.optimal_scaled_rate < 1.0
        if report.tight_frame:
            assert report.optimal_scaled_rate <= 1e-12


# ---------------------------------------------------------------------------
# tight frames
# ---------------------------------------------------------------------------

def test_tight_frame_example2(example2):
    assert is_tight_frame(example2, [1.0, 1.0], 1e-12)


def test_tight_frame_example1_is_not(example1):
    assert not is_tight_frame(example1, [1.0, 1.0], 1e-12)


def test_tight_frame_orthogonal_rows_any_scaling():
    rng = np.random.default_rng(70)
    system = _scaled_orthogonal_rows_system(rng, 3)
    assert is_tight_frame(system, [1.0, 1.0, 1.0], 1e-12)


def test_tight_frame_implies_single_step_convergence():
    rng = np.random.default_rng(71)
    system = _scaled_orthogonal_rows_system(rng, 4)
    norm_b = np.linalg.norm(system.rhs)
    for _ in range(20):
        x0 = rng.standard_normal(4) * 5.0
        x1 = cimmino_step(system, x0, np.ones(4))
        assert system.residual_norm(x1) <= 1e-10 * (1.0 + norm_b)


# ---------------------------------------------------------------------------
# error envelope
# ---------------------------------------------------------------------------

def test_envelope_halving():
    assert np.array_equal(error_envelope(0.5, 1.0, 3), [1.0, 0.5, 0.25, 0.125])


def test_envelope_zero_rate():
    assert np.array_equal(error_envelope(0.0, 7.0, 4), [7.0, 0.0, 0.0, 0.0, 0.0])


def test_envelope_gap_after_twelve_steps():
    # Direct evaluation: (0.9/0.5)^12 = 1156.83...; a figure of ~180
    # sometimes quoted for this gap is off by more than a factor of six.
    slow = error_envelope(0.9, 1.0, 12)
    fast = error_envelope(0.5, 1.0, 12)
    ratio = slow[-1] / fast[-1]
    assert ratio == pytest.approx((0.9 / 0.5) ** 12, rel=1e-12)
    assert ratio == pytest.approx(1156.8313814261763, rel=1e-12)


def test_envelope_rejects_negative_inputs():
    with pytest.raises(ValueError):
        error_envelope(-0.1, 1.0, 3)
    with pytest.raises(ValueError):
        error_envelope(0.5, -1.0, 3)
    with pytest.raises(ValueError):
        error_envelope(0.5, 1.0, -1)


@pytest.mark.parametrize("steps", [2.7, -0.5, math.nan, math.inf])
def test_envelope_refuses_steps_that_are_not_integers(steps):
    # 2.7 gave 3 values and -0.5 gave 1; NaN and inf failed in int().
    with pytest.raises(ValueError) as excinfo:
        error_envelope(0.5, 1.0, steps)
    assert str(excinfo.value) == f"steps must be a nonnegative integer, got {steps}"


def test_envelope_takes_integral_float_steps_and_refuses_negative_ones():
    assert np.array_equal(error_envelope(0.5, 1.0, 3.0), [1.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError) as excinfo:
        error_envelope(0.5, 1.0, -1)
    assert str(excinfo.value) == "steps must be nonnegative, got -1"


def test_envelope_dominates_observed_errors():
    rng = np.random.default_rng(80)
    for _ in range(10):
        system = random_nonsingular_system(rng, 3)
        w = rng.uniform(0.2, 1.2, size=3)
        try:
            report = analyze(system, w)
        except SingularMatrixError:
            continue
        if report.convergence_class is not ConvergenceClass.CONVERGES:
            continue
        xi = np.linalg.solve(system.matrix, system.rhs)
        trace = solve(system, weights=w, max_iter=60, residual_tol=1e-300,
                      known_solution=xi)
        assert trace.terminated is Termination.MAX_ITERATIONS
        bound = error_envelope(report.spectral_radius, trace.error_norms[0], 60)
        # Observed errors saturate at the rounding floor of ||x - xi||, so
        # dominance is asserted with that absolute allowance.
        floor = 64.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(xi))
        assert np.all(trace.error_norms <= bound * (1.0 + 1e-9) + floor)


@pytest.mark.parametrize("seed", range(4))
def test_analyze_theta_keeps_the_bits_of_internormal_angle(seed):
    # analyze reads theta from the rows LinearSystem checked; it must be the
    # angle internormal_angle gives for the same rows, bit for bit.
    rng = np.random.default_rng(900 + seed)
    for _ in range(500):
        rows = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-75.0, 75.0, size=(2, 1))
        system = LinearSystem(rows, rng.standard_normal(2))
        theta = analyze(system).theta
        assert np.float64(theta).view(np.uint64) == np.float64(
            internormal_angle(*system.matrix)).view(np.uint64)


# ---------------------------------------------------------------------------
# accuracy against exact arithmetic (n = 2)
# ---------------------------------------------------------------------------

def _exact_sqrt(x: Fraction) -> Fraction:
    """sqrt(x) to better than 2^-150 relative: isqrt of a scaled integer."""
    num = x.numerator * x.denominator
    bits = max(0, (300 - num.bit_length()) // 2 + 1)
    return Fraction(math.isqrt(num << (2 * bits)), x.denominator << bits)


def _exact_spectrum(a: np.ndarray, w: np.ndarray) -> tuple[Fraction, Fraction]:
    """(l_1, l_2) of B = sum_i w_i a_i a_i^T / ||a_i||^2, from the binary64
    inputs in exact rational arithmetic."""
    rows = [[Fraction(v) for v in row] for row in a.tolist()]
    coef = [Fraction(wi) / (r[0] * r[0] + r[1] * r[1]) for wi, r in zip(w.tolist(), rows)]
    b11 = sum(c * r[0] * r[0] for c, r in zip(coef, rows))
    b22 = sum(c * r[1] * r[1] for c, r in zip(coef, rows))
    b12 = sum(c * r[0] * r[1] for c, r in zip(coef, rows))
    trace, det = b11 + b22, b11 * b22 - b12 * b12
    root = _exact_sqrt((b11 - b22) ** 2 + 4 * b12 * b12)
    return 2 * det / (trace + root), (trace + root) / 2


# Each field's error bound, in units of eps: absolute in eps * l_2 for the
# eigenvalues and in eps * max(1, l_2) for rho, relative for alpha*, and
# relative in kappa * eps for kappa.  The largest errors measured over 3000
# systems drawn as below (seeds 0-4 of each weight kind) were 1.69, 1.69,
# 2.0 and 2.05; the bounds leave about a quarter on top.
_EXACT_BOUNDS = {"eigenvalues": 2.0, "spectral_radius": 2.0, "optimal_alpha": 2.5,
                 "condition_number": 2.5}


@pytest.mark.parametrize("weights", ["unit", "random"])
def test_analyze_matches_exact_arithmetic_at_n2(weights):
    # 300 systems: unit-length directions at an angle in (0.05, pi - 0.05),
    # each row scaled by 10^U(-3, 3), at unit weights or weights in [0.1, 1.9].
    rng = np.random.default_rng(0 if weights == "unit" else 1)
    eps = 2.0 ** -52
    worst = dict.fromkeys(_EXACT_BOUNDS, 0.0)
    for _ in range(300):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.05, math.pi - 0.05)
        a = np.array([[math.cos(phi), math.sin(phi)],
                      [math.cos(phi + theta), math.sin(phi + theta)]])
        a *= 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 1))
        w = np.ones(2) if weights == "unit" else rng.uniform(0.1, 1.9, size=2)
        report = analyze(LinearSystem(a, [0.0, 0.0]), w)
        lo, hi = _exact_spectrum(a, w)
        errors = {
            "eigenvalues": max(abs(Fraction(float(got)) - want)
                               for got, want in zip(report.eigenvalues, (lo, hi))) / hi,
            "spectral_radius": abs(Fraction(report.spectral_radius)
                                   - max(abs(1 - lo), abs(1 - hi))) / max(1, hi),
            "optimal_alpha": abs(Fraction(report.optimal_alpha) * (lo + hi) / 2 - 1),
            "condition_number": abs(Fraction(report.condition_number) * lo / hi - 1) * lo / hi,
        }
        for field, error in errors.items():
            worst[field] = max(worst[field], float(error) / eps)
    assert all(worst[field] <= bound for field, bound in _EXACT_BOUNDS.items()), worst


# ---------------------------------------------------------------------------
# accuracy against exact arithmetic (n >= 3)
# ---------------------------------------------------------------------------

# Each field's error bound at n = 3, 5 and 8, in the units of _EXACT_BOUNDS.
# The largest errors measured over 12,000 systems per n drawn as below, half
# at unit weights, were 7.77, 7.49, 8.29 and 3.21; the bounds leave about a
# fifth on top.
_EXACT_BOUNDS_N3 = {"eigenvalues": 10.0, "spectral_radius": 10.0, "optimal_alpha": 10.0,
                    "condition_number": 4.0}


@pytest.mark.parametrize("n", [3, 5, 8])
def test_analyze_matches_exact_arithmetic_at_n3_and_above(n):
    # 40 systems: standard normal rows, each scaled by 10^U(-3, 3), at weights
    # in [0.1, 1.9].  The reference is B = A^T D_w A formed from the binary64
    # rows and weights, and its eigenvalues, at 50 digits.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng([n, 0])
    eps = 2.0 ** -52
    worst = dict.fromkeys(_EXACT_BOUNDS_N3, 0.0)
    with mpmath.workdps(50):
        for _ in range(40):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
            w = rng.uniform(0.1, 1.9, size=n)
            report = analyze(LinearSystem(a, np.zeros(n)), w)
            rows = mpmath.matrix(a.tolist())
            coef = [mpmath.mpf(wi) / mpmath.fsum(v * v for v in row)
                    for wi, row in zip(w.tolist(), a.tolist())]
            lam = sorted(mpmath.eigsy(rows.T * mpmath.diag(coef) * rows, eigvals_only=True))
            lo, hi = lam[0], lam[-1]
            errors = {
                "eigenvalues": max(abs(float(got) - want)
                                   for got, want in zip(report.eigenvalues, lam)) / hi,
                "spectral_radius": abs(report.spectral_radius
                                       - max(abs(1 - lo), abs(1 - hi))) / max(1, hi),
                "optimal_alpha": abs(report.optimal_alpha * (lo + hi) / 2 - 1),
                "condition_number": abs(report.condition_number * lo / hi - 1) * lo / hi,
            }
            for field, error in errors.items():
                worst[field] = max(worst[field], float(error) / eps)
    assert all(worst[field] <= bound for field, bound in _EXACT_BOUNDS_N3.items()), worst
