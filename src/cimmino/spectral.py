"""Exact spectral diagnostics for the weighted reflection iteration.

The error propagates through M = I - B where B = A^T D_w A and
D_w = diag(w_i / ||a_i||^2).  B is symmetric positive definite for a
nonsingular system, so with its eigenvalues 0 < l_1 <= ... <= l_n:

* the exact per-step contraction factor is rho = max(|1 - l_1|, |1 - l_n|);
* the iteration converges for every start iff l_n < 2;
* within the scaling family {alpha * w} the best rate is
  (kappa - 1)/(kappa + 1) at alpha = 2/(l_1 + l_n), kappa = l_n/l_1.

For 2x2 systems rho has a closed form in (w1, w2) and the inter-normal
angle theta alone, minimized over all positive weight pairs at
w1 = w2 = 1 with minimum |cos theta|.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import internormal_angle
from .iteration import LinearSystem, as_weights, unit_weights
from .linalg import symmetric_eigen

# lambda_1 <= SINGULARITY_RATIO * lambda_n is treated as a singular matrix.
SINGULARITY_RATIO = 1e-14
# |rho - 1| inside this band is classified as stalling.
STALL_BAND = 1e-14
# Endpoint guard for the closed 2x2 form: theta this close to 0 or pi
# means parallel normals, hence a singular matrix.
THETA_ENDPOINT_TOL = 1e-12
DEFAULT_TIGHT_FRAME_TOL = 1e-12


class SingularMatrixError(ValueError):
    """The coefficient matrix is numerically singular."""

    def __init__(self, lambda_min: float, lambda_max: float):
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        super().__init__(
            "numerically singular matrix: weighted normal matrix has "
            f"eigenvalue range [{lambda_min:.6e}, {lambda_max:.6e}]"
        )


class ConvergenceClass(enum.Enum):
    CONVERGES = "Converges"
    STALLS = "Stalls"
    DIVERGES = "Diverges"


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Full diagnostic for one (system, weights) pair.

    ``theta`` is the inter-normal angle in radians for n = 2, else None.
    ``optimal_alpha`` and ``optimal_scaled_rate`` describe the best scalar
    rescaling of the given weights; they are reported unconditionally.
    """

    n: int
    weights: np.ndarray
    theta: float | None
    eigenvalues: np.ndarray
    spectral_radius: float
    condition_number: float
    convergence_class: ConvergenceClass
    optimal_alpha: float
    optimal_scaled_rate: float
    tight_frame: bool


@dataclass(frozen=True, eq=False)
class TwoByTwoSpectrum:
    """Named intermediates of the closed 2x2 contraction formula.

    ``spread`` is the eigenvalue gap of the weighted normal matrix,
    sqrt((w1 - w2)^2 + 4 w1 w2 cos^2 theta); its eigenvalues are
    mean_weight -/+ spread/2 and the contraction factor is
    |1 - mean_weight| + spread/2.  The angle-dependent fields are floats
    for one angle and arrays for an array of angles.
    """

    theta: float | np.ndarray
    w1: float
    w2: float
    mean_weight: float
    half_diff: float
    spread: float | np.ndarray
    eig_low: float | np.ndarray
    eig_high: float | np.ndarray
    rho: float | np.ndarray


def weighted_normal_matrix(system: LinearSystem, weights=None) -> np.ndarray:
    """B = A^T D_w A = sum_i w_i P_i, assembled by one matrix product.

    The upper triangle is mirrored into the lower one, so the result is
    exactly symmetric (the product alone is not, to the last bit).
    """
    w = unit_weights(system.n) if weights is None else as_weights(weights, system.n)
    a = system.matrix
    b = a.T @ ((w / system.row_norms_sq)[:, None] * a)
    np.copyto(b, b.T, where=np.tri(system.n, k=-1, dtype=bool))
    b.setflags(write=False)
    return b


def iteration_matrix(system: LinearSystem, weights=None) -> np.ndarray:
    """M = I - A^T D_w A: the linear map applied to the error each step."""
    m = np.eye(system.n) - weighted_normal_matrix(system, weights)
    m.setflags(write=False)
    return m


def _classify(rho: float) -> ConvergenceClass:
    if abs(rho - 1.0) <= STALL_BAND:
        return ConvergenceClass.STALLS
    if rho < 1.0:
        return ConvergenceClass.CONVERGES
    return ConvergenceClass.DIVERGES


def analyze(system: LinearSystem, weights=None,
            tight_frame_tol: float = DEFAULT_TIGHT_FRAME_TOL) -> SpectralReport:
    """Exact spectral report: eigenvalues of B, contraction factor, class,
    condition number, and the optimal scalar rescaling of the weights.

    Raises ``SingularMatrixError`` when lambda_1 <= 1e-14 * lambda_n, which
    flags a numerically singular coefficient matrix.
    """
    w = unit_weights(system.n) if weights is None else as_weights(weights, system.n)
    b = weighted_normal_matrix(system, w)
    lam = symmetric_eigen(b)
    lam_min = float(lam[0])
    lam_max = float(lam[-1])
    if lam_min <= SINGULARITY_RATIO * lam_max:
        raise SingularMatrixError(lam_min, lam_max)
    rho = max(abs(1.0 - lam_min), abs(1.0 - lam_max))
    kappa = lam_max / lam_min
    theta = None
    if system.n == 2:
        theta = internormal_angle(system.matrix[0], system.matrix[1])
    return SpectralReport(
        n=system.n,
        weights=w,
        theta=theta,
        eigenvalues=lam,
        spectral_radius=rho,
        condition_number=kappa,
        convergence_class=_classify(rho),
        optimal_alpha=2.0 / (lam_min + lam_max),
        optimal_scaled_rate=(kappa - 1.0) / (kappa + 1.0),
        tight_frame=_is_identity(b, tight_frame_tol),
    )


def classify_convergence(system: LinearSystem, weights=None) -> ConvergenceClass:
    """Converges iff all eigenvalues of B lie in (0, 2); the boundary
    rho = 1 (within 1e-14) is reported as Stalls, anything beyond as
    Diverges."""
    return analyze(system, weights).convergence_class


def optimal_scaling(system: LinearSystem, weights=None) -> tuple[float, float]:
    """Best scalar rescaling of the given weights.

    Returns ``(alpha_star, rate)`` with alpha_star = 2/(l_1 + l_n) and
    rate = (kappa - 1)/(kappa + 1); rescaling the weights by alpha_star
    attains that contraction factor.
    """
    report = analyze(system, weights)
    return report.optimal_alpha, report.optimal_scaled_rate


def is_tight_frame(system: LinearSystem, weights=None,
                   tol: float = DEFAULT_TIGHT_FRAME_TOL) -> bool:
    """True when sum_i w_i P_i = I (within ``tol``, max-norm), in which case
    the iteration reaches the exact solution in a single step."""
    return _is_identity(weighted_normal_matrix(system, weights), tol)


def _is_identity(b: np.ndarray, tol: float) -> bool:
    return float(np.max(np.abs(b - np.eye(b.shape[0])))) <= tol


def contraction_factor_2d(w1: float, w2: float, theta) -> TwoByTwoSpectrum:
    """Closed-form contraction factor for n = 2 from (w1, w2, theta) alone.

    rho = |1 - (w1 + w2)/2| + sqrt((w1 - w2)^2 + 4 w1 w2 cos^2 theta) / 2.
    ``theta`` is one angle or an array of angles; for an array, the fields
    that depend on it (theta, spread, eig_low, eig_high, rho) are arrays of
    its shape.  Each angle must lie strictly inside (0, pi): the endpoints
    describe parallel normals and hence a singular matrix.
    """
    w1 = float(w1)
    w2 = float(w2)
    if not (math.isfinite(w1) and w1 > 0.0) or not (math.isfinite(w2) and w2 > 0.0):
        raise ValueError(f"weights must be finite and positive, got ({w1}, {w2})")
    theta = np.asarray(theta, dtype=np.float64)
    # NaN compares false, so it fails this test as well.
    inside = (theta >= THETA_ENDPOINT_TOL) & (theta <= math.pi - THETA_ENDPOINT_TOL)
    if not np.all(inside):
        bad = float(theta[~inside][0])
        raise ValueError(
            f"parallel normals: singular matrix (theta = {bad!r} is outside "
            f"({THETA_ENDPOINT_TOL}, pi - {THETA_ENDPOINT_TOL}))"
        )
    mean = 0.5 * (w1 + w2)
    half_diff = 0.5 * (w1 - w2)
    cos = np.cos(theta)
    spread = np.sqrt((w1 - w2) ** 2 + 4.0 * w1 * w2 * cos * cos)
    if theta.ndim == 0:
        theta = float(theta)
        spread = float(spread)
    return TwoByTwoSpectrum(
        theta=theta,
        w1=w1,
        w2=w2,
        mean_weight=mean,
        half_diff=half_diff,
        spread=spread,
        eig_low=mean - 0.5 * spread,
        eig_high=mean + 0.5 * spread,
        rho=abs(1.0 - mean) + 0.5 * spread,
    )


def optimality_gap(w1: float, w2: float, theta: float) -> float:
    """rho(w1, w2, theta) - |cos theta|: how far a weight pair sits above
    the best achievable 2x2 contraction factor.

    Nonnegative for every positive pair; zero exactly at w1 = w2 = 1.
    """
    spectrum = contraction_factor_2d(w1, w2, theta)
    return spectrum.rho - abs(math.cos(theta))


def error_envelope(rho: float, initial_error: float, steps: int) -> np.ndarray:
    """Worst-case error envelope initial_error * rho**nu for nu = 0..steps.

    The envelope is attained asymptotically when the starting error has a
    component along a dominant eigenvector of the iteration matrix.  Values
    past the float range are ``inf``, without a warning; a zero initial
    error gives zeros at every step.
    """
    rho = float(rho)
    initial_error = float(initial_error)
    steps = int(steps)
    if not (math.isfinite(rho) and rho >= 0.0):
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")
    if not (math.isfinite(initial_error) and initial_error >= 0.0):
        raise ValueError(f"initial_error must be finite and nonnegative, got {initial_error}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if initial_error == 0.0:
        return np.zeros(steps + 1)
    with np.errstate(over="ignore"):
        return initial_error * rho ** np.arange(steps + 1, dtype=np.float64)
