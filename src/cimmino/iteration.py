"""Simultaneous reflection iteration for square systems A x = b.

One step reflects the current iterate across every row hyperplane and moves
to the mass-weighted centroid of the reflections; algebraically that is

    x_next = x + sum_i w_i (b_i - <a_i, x>) / ||a_i||^2 * a_i,

with the centroid masses m_i related to the weights by w_i = 2 m_i / sum(m).
Both forms are provided, plus a trace-recording driver.
"""

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import _row_norms_sq, masses_to_weights
from .linalg import (_WEIGHT_FAULT, DimensionMismatchError, _checked, _finite, _normal, _sq_norms,
                     as_matrix)

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
# Steps taken between two tests of the stopping rules in solve.
_CHECK_BLOCK = 16
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
    """Square system A x = b with no zero rows, each ||a_i||^2 a normal
    (neither underflowed nor infinite) binary64 number, and ||b||^2 finite.

    Nonsingularity is not checked at construction; the spectral layer
    detects it when a rate is requested.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_norms_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = as_matrix(self.matrix)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
        b = _sized(self.rhs, a.shape[0], "rhs")
        rn2 = _row_norms_sq(a)
        _finite(lambda: _sq_norms(b), "rhs: squared norm")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "row_norms_sq", rn2)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def residual_norm(self, x) -> float:
        """||b - A x||_2, ``inf`` when it overflows binary64."""
        with np.errstate(over="ignore"):
            r = self.rhs - self.matrix @ _sized(x, self.n, "x")
        return math.sqrt(_sq_norms(r))

    def coefficients(self, weights=None) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (w, w_i / ||a_i||^2): the weights, all ones by default,
        and the diagonal of D_w in B = A^T D_w A.  Refuses weights that are
        not n values in [tiny, inf) and rows whose coefficient overflows.
        """
        w = (np.ones(self.n) if weights is None
             else _sized(_normal(weights, _WEIGHT_FAULT), self.n, "weights"))
        coef = _finite(lambda: w / self.row_norms_sq, "row(s) {}: weight / squared norm")
        w.setflags(write=False)
        coef.setflags(write=False)
        return w, coef


def _sized(values, n: int, label: str) -> np.ndarray:
    """``values`` as a finite vector of length n, refused under the name ``label``."""
    v = _checked(values, 1, f"{label} vector")
    if v.size != n:
        raise DimensionMismatchError(f"{label} has length {v.size}, system is {n}")
    return v


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
        the trace CSV keeps the step alignment instead.  None when the
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
    taken as one vector-matrix product.  A step past the float range is
    refused.
    """
    x = _sized(x, system.n, "iterate")
    _, coef = system.coefficients(weights)
    a = system.matrix
    return _finite(lambda: _step(a, x, coef, system.rhs - a.dot(x)), "step")


def _step(a, x, coef, r) -> np.ndarray:
    # The one step formula, shared by cimmino_step and the solve loop.  The
    # ndarray method skips np.dot's __array_function__ dispatch, same gemv.
    return x + (coef * r).dot(a)


def centroid_step(system: LinearSystem, x, masses) -> np.ndarray:
    """One step in geometric form: mass-weighted centroid of the reflections.

    Row i of the reflections is x + 2 (b_i - <a_i, x>) / ||a_i||^2 * a_i,
    the mirror image of x across {<a_i, x> = b_i}.  ``masses_to_weights``
    refuses and normalizes the masses, so masses near the float maximum
    stay finite.  Equals ``cimmino_step`` at those weights, but refuses a
    reflection past the float range, even where that step is finite.
    """
    x = _sized(x, system.n, "iterate")
    w = masses_to_weights(_sized(masses, system.n, "masses"))
    a = system.matrix
    return _finite(lambda: (0.5 * w) @ (
        x + (2.0 * (system.rhs - a @ x) / system.row_norms_sq)[:, None] * a), "step")


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
        Iteration budget, >= 1: at most floor(max_iter) steps are taken.  A
        float is accepted, ``math.inf`` sets no budget, and NaN is refused.
    known_solution : array_like, optional
        When given, per-iterate error norms and step ratios are recorded.

    Returns
    -------
    IterationTrace
    """
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise ValueError(f"residual_tol must be finite and positive, got {residual_tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = system.n
    _, coef = system.coefficients(weights)
    x0 = np.zeros(n) if x0 is None else _sized(x0, n, "x0")
    solution = None if known_solution is None else _sized(known_solution, n, "known_solution")

    a = system.matrix
    b = system.rhs
    stop_abs = residual_tol * (1.0 + math.sqrt(_sq_norms(b)))
    blocks = []
    x = x0
    terminated = None
    # Steps run in blocks of _CHECK_BLOCK, fewer where the budget ends.  Each
    # block's iterates are stacked once; the residual and divergence tests run
    # on its stacked norms, and the steps after the first stop or past the
    # budget are cut off.  A diverging run's norms may overflow to inf, and a
    # cut step past the crossing to inf - inf: values, not faults.  A NaN
    # made by a kept step is warned of below.
    with np.errstate(over="ignore", invalid="ignore"):
        while terminated is None:
            done = len(blocks) * _CHECK_BLOCK
            m = int(min(_CHECK_BLOCK, max_iter - done + 1))
            xs, rs = [], []
            for _ in range(m):
                r = b - a.dot(x)
                xs.append(x)
                rs.append(r)
                x = _step(a, x, coef, r)
            xs = np.array(xs)
            res = np.sqrt(_sq_norms(np.array(rs)))
            converged = res <= stop_abs
            stops = converged | (np.sqrt(_sq_norms(xs)) > DIVERGENCE_SENTINEL)
            k = int(stops.argmax())
            if stops[k]:
                terminated = Termination.CONVERGED if converged[k] else Termination.DIVERGED
                xs, res = xs[:k + 1], res[:k + 1]
            elif done + m > max_iter:
                terminated = Termination.MAX_ITERATIONS
            blocks.append((xs, res))
        iterates, residual_norms = map(np.concatenate, zip(*blocks))
        del blocks
        error_norms = None if solution is None else np.sqrt(_sq_norms(iterates - solution))
    for array in (iterates, residual_norms, error_norms):
        if array is not None:
            array.setflags(write=False)
    # A NaN in a kept iterate or residual reaches every later residual, so
    # the last one shows whether a kept step made one.
    if math.isnan(residual_norms[-1]):
        first = int(np.isnan(residual_norms).argmax())
        warnings.warn(f"invalid value encountered in solve: the residual is NaN "
                      f"from step {first} on", RuntimeWarning, stacklevel=2)
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
    # inf/inf (overflowed error norms) is NaN, an undefined ratio like the rest.
    with np.errstate(invalid="ignore"):
        np.divide(error_norms[1:], prev, out=ratios[1:], where=prev >= RATIO_DENOMINATOR_FLOOR)
    return ratios
