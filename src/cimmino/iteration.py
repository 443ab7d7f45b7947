"""Simultaneous reflection iteration for square systems A x = b.

One step reflects the current iterate across every row hyperplane and moves
to the mass-weighted centroid of the reflections; algebraically that is

    x_next = x + sum_i w_i (b_i - <a_i, x>) / ||a_i||^2 * a_i,

with the centroid masses m_i related to the weights by w_i = 2 m_i / sum(m).
Both forms are provided, plus a trace-recording driver.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Hyperplane, reflect
from .linalg import DimensionMismatchError, as_matrix, as_vector

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
# Iterate-norm threshold that flags divergence before floats overflow.
DIVERGENCE_SENTINEL = 1e150
# Error norms below this cannot safely divide a step ratio.
RATIO_DENOMINATOR_FLOOR = 1e-300


class Termination(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    DIVERGED = "Diverged"


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Square system A x = b with no zero rows, each squared row norm a
    normal (neither underflowed nor infinite) binary64 number.

    Nonsingularity is not checked at construction; the spectral layer
    detects it when a rate is requested.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_norms_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = as_matrix(self.matrix)
        b = as_vector(self.rhs)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
        if b.size != a.shape[0]:
            raise DimensionMismatchError(
                f"rhs has length {b.size} but matrix has {a.shape[0]} rows"
            )
        zero = ~np.any(a, axis=1)
        if np.any(zero):
            raise ValueError(f"zero row(s) in matrix: {np.nonzero(zero)[0].tolist()}")
        with np.errstate(over="ignore"):
            rn2 = np.sum(a * a, axis=1)
        # The step divides by ||a_i||^2: it must be a normal, finite float.
        out_of_range = ~((rn2 >= np.finfo(np.float64).tiny) & (rn2 < np.inf))
        if np.any(out_of_range):
            rows = np.nonzero(out_of_range)[0].tolist()
            raise ValueError(f"row(s) {rows}: squared norm under/overflows binary64")
        rn2.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "row_norms_sq", rn2)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """The row hyperplanes {x : <a_i, x> = b_i}."""
        return tuple(
            Hyperplane(self.matrix[i], float(self.rhs[i])) for i in range(self.n)
        )

    def residual_norm(self, x) -> float:
        r = self.rhs - self.matrix @ as_vector(x)
        return float(np.sqrt(np.sum(r * r)))


def unit_weights(n: int) -> np.ndarray:
    """The standard weight choice w_i = 1."""
    w = np.ones(n)
    w.setflags(write=False)
    return w


def as_weights(values, n: int) -> np.ndarray:
    """Validate a weight vector: length n, strictly positive, finite."""
    w = as_vector(values)
    if w.size != n:
        raise DimensionMismatchError(f"expected {n} weights, got {w.size}")
    if np.any(w <= 0.0):
        raise ValueError("weights must all be positive")
    return w


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Recorded run of the iteration.

    ``iterates`` has one row per recorded x^(nu) (including x^(0)),
    ``residual_norms`` the matching ||b - A x||_2.  When the true solution
    was supplied, ``error_norms`` holds ||x^(nu) - solution||_2.
    """

    iterates: np.ndarray
    residual_norms: np.ndarray
    terminated: Termination
    error_norms: np.ndarray | None = None

    @property
    def step_ratios(self) -> np.ndarray | None:
        """The defined quotients error[nu+1]/error[nu], in order.

        A ratio whose denominator is below 1e-300 is undefined and omitted;
        ``error_sequence`` keeps the step alignment instead.  None when the
        trace has no error norms.
        """
        if self.error_norms is None:
            return None
        ratios = _aligned_ratios(self.error_norms)
        return ratios[~np.isnan(ratios)]

    @property
    def iterations(self) -> int:
        """Number of steps actually taken (recorded iterates minus one)."""
        return self.iterates.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def cimmino_step(system: LinearSystem, x, weights) -> np.ndarray:
    """One weighted simultaneous-reflection step in algebraic form.

    Returns x + sum_i w_i (b_i - <a_i, x>) / ||a_i||^2 * a_i, the row sum
    taken as one vector-matrix product.
    """
    x = as_vector(x)
    if x.size != system.n:
        raise DimensionMismatchError(f"iterate has length {x.size}, system is {system.n}")
    w = as_weights(weights, system.n)
    a = system.matrix
    coef = w / system.row_norms_sq
    return _step(a, x, coef, system.rhs - a @ x)


def _step(a, x, coef, r) -> np.ndarray:
    # The one step formula, shared by cimmino_step and the solve loop.
    return x + (coef * r) @ a


def centroid_step(system: LinearSystem, x, masses) -> np.ndarray:
    """One step in geometric form: mass-weighted centroid of the reflections.

    Equals ``cimmino_step`` with weights ``masses_to_weights(masses)``.
    """
    x = as_vector(x)
    if x.size != system.n:
        raise DimensionMismatchError(f"iterate has length {x.size}, system is {system.n}")
    m = as_vector(masses)
    if m.size != system.n:
        raise DimensionMismatchError(f"expected {system.n} masses, got {m.size}")
    if np.any(m <= 0.0):
        raise ValueError("masses must all be positive")
    reflections = np.empty((system.n, system.n))
    for i, plane in enumerate(system.hyperplanes()):
        reflections[i] = reflect(x, plane)
    return np.add.reduce(m[:, None] * reflections, axis=0) / float(np.sum(m))


def solve(system: LinearSystem, weights=None, x0=None,
          residual_tol: float = DEFAULT_RESIDUAL_TOL,
          max_iter: int = DEFAULT_MAX_ITER,
          known_solution=None) -> IterationTrace:
    """Iterate until the residual test passes, the budget runs out, or the
    iterate norm crosses the divergence sentinel.

    Stopping rule: ||b - A x||_2 <= residual_tol * (1 + ||b||_2), a relative
    form that stays meaningful when b = 0.  Divergence is declared when
    ||x||_2 > 1e150, so runs with spectral radius above 1 terminate instead
    of overflowing.

    Parameters
    ----------
    system : LinearSystem
    weights : array_like, optional
        Positive weights, default all ones.
    x0 : array_like, optional
        Starting point, default zero vector.
    residual_tol : float
        Relative residual tolerance, finite and > 0.
    max_iter : int
        Iteration budget, >= 1.
    known_solution : array_like, optional
        When given, per-iterate error norms and step ratios are recorded.

    Returns
    -------
    IterationTrace
    """
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise ValueError(f"residual_tol must be finite and positive, got {residual_tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = system.n
    w = unit_weights(n) if weights is None else as_weights(weights, n)
    x0 = np.zeros(n) if x0 is None else as_vector(x0)
    if x0.size != n:
        raise DimensionMismatchError(f"x0 has length {x0.size}, system is {n}")
    solution = None
    if known_solution is not None:
        solution = as_vector(known_solution)
        if solution.size != n:
            raise DimensionMismatchError(
                f"known_solution has length {solution.size}, system is {n}"
            )

    a = system.matrix
    b = system.rhs
    coef = w / system.row_norms_sq
    stop_abs = residual_tol * (1.0 + float(np.sqrt(np.sum(b * b))))
    xs, resnorms = [], []
    x = x0
    terminated = None
    while terminated is None:
        r = b - a @ x
        res = float(np.sqrt(np.sum(r * r)))
        xs.append(x)
        resnorms.append(res)
        if res <= stop_abs:
            terminated = Termination.CONVERGED
        elif np.sqrt(np.sum(x * x)) > DIVERGENCE_SENTINEL:
            terminated = Termination.DIVERGED
        elif len(xs) > max_iter:
            terminated = Termination.MAX_ITERATIONS
        else:
            x = _step(a, x, coef, r)
    iterates = np.array(xs)
    residual_norms = np.array(resnorms)
    iterates.setflags(write=False)
    residual_norms.setflags(write=False)

    error_norms = None
    if solution is not None:
        diffs = iterates - solution
        error_norms = np.sqrt(np.sum(diffs * diffs, axis=1))
        error_norms.setflags(write=False)

    return IterationTrace(
        iterates=iterates,
        residual_norms=residual_norms,
        terminated=terminated,
        error_norms=error_norms,
    )


def _aligned_ratios(error_norms: np.ndarray) -> np.ndarray:
    """error[nu]/error[nu-1] at index nu, NaN at nu = 0 and wherever the
    denominator is below RATIO_DENOMINATOR_FLOOR."""
    ratios = np.full(error_norms.size, np.nan)
    prev = error_norms[:-1]
    np.divide(error_norms[1:], prev, out=ratios[1:], where=prev >= RATIO_DENOMINATOR_FLOOR)
    return ratios


def error_sequence(trace: IterationTrace) -> list[tuple[int, float, float | None]]:
    """Flatten a traced run into (step, error_norm, ratio) rows for export.

    The ratio at row nu is error[nu]/error[nu-1]; it is None at nu = 0 and
    wherever the denominator underflowed.  Requires a trace recorded with
    ``known_solution``.
    """
    if trace.error_norms is None:
        raise ValueError("known solution required: trace has no error norms")
    ratios = _aligned_ratios(trace.error_norms)
    return [
        (nu, float(err), None if math.isnan(ratio) else float(ratio))
        for nu, (err, ratio) in enumerate(zip(trace.error_norms, ratios))
    ]
