"""Hyperplanes, reflections, rank-one projections, and the inter-normal angle.

A row a_i of the system matrix together with the right-hand side entry b_i
defines the affine hyperplane {x : <a_i, x> = b_i}.  Everything here is a
pure function on immutable values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (_WEIGHT_FAULT, DimensionMismatchError, _checked, _finite, _normal, _sq_norms,
                     as_vector)

UNIT_NORM_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Affine hyperplane {x : <normal, x> = offset}.

    The normal is stored as given (no pre-normalization) so that weighting
    by 1/||a||^2 downstream uses the raw row exactly.  The normal obeys the
    row rule of ``LinearSystem``: ||normal||^2 is a normal, finite binary64.
    """

    normal: np.ndarray
    offset: float
    norm_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        a, rn2 = _rows(self.normal)
        offset = float(self.offset)
        if not np.isfinite(offset):
            raise ValueError("hyperplane offset must be finite")
        object.__setattr__(self, "normal", a[0])
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "norm_sq", float(rn2[0]))


def _row_norms_sq(a: np.ndarray) -> np.ndarray:
    """Read-only squared norms of the rows of the 2-D array ``a``, sqrt-free
    so that integer data stays exact: the one row rule.  Refuses a zero row,
    and a row whose squared norm is not a normal, finite binary64 number (the
    step divides by it), naming the rows by index.
    """
    zero = ~a.any(axis=1)
    if zero.any():
        raise ValueError(f"zero row(s) {zero.nonzero()[0].tolist()}: degenerate hyperplane row")
    rn2 = _normal(_sq_norms(a), "row(s) {}: squared norm under/overflows binary64")
    rn2.setflags(write=False)
    return rn2


def _rows(*rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows, each ``as_vector``, as one read-only stack, and their
    squared norms under the row rule; a refusal names a row by its position.
    """
    vectors = [as_vector(r) for r in rows]
    sizes = [v.size for v in vectors]
    if len(set(sizes)) > 1:
        raise DimensionMismatchError(f"rows have lengths {' and '.join(map(str, sizes))}")
    a = np.stack(vectors)
    a.setflags(write=False)
    return a, _row_norms_sq(a)


def _angle(a: np.ndarray, rn2: np.ndarray) -> float:
    """Angle between rows 0 and 1 of ``a``, whose squared norms are ``rn2``,
    from the unit-normal cosine clamped to [-1, 1]."""
    cos = float(np.dot(a[0] / math.sqrt(rn2[0]), a[1] / math.sqrt(rn2[1])))
    return float(np.arccos(min(1.0, max(-1.0, cos))))


@dataclass(frozen=True, eq=False)
class UnitNormal:
    """Direction vector with unit Euclidean norm (within 1e-14)."""

    direction: np.ndarray

    def __post_init__(self):
        direction = as_vector(self.direction)
        norm = math.sqrt(_sq_norms(direction))  # an overflowing norm is inf, refused below
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction norm {norm!r} is not 1 within {UNIT_NORM_TOL}")
        object.__setattr__(self, "direction", direction)


def unit_normal(a) -> UnitNormal:
    """Normalize a row to unit length.

    Raises on a row that ``LinearSystem`` refuses, such as the zero vector.
    """
    a, rn2 = _rows(a)
    return UnitNormal(a[0] / math.sqrt(rn2[0]))


def projection_matrix(u: UnitNormal) -> np.ndarray:
    """Rank-one orthogonal projection u u^T onto the unit direction ``u``.

    The result is symmetric, idempotent, and has unit trace.
    """
    d = u.direction
    p = np.outer(d, d)
    p.setflags(write=False)
    return p


def reflect(x, plane: Hyperplane) -> np.ndarray:
    """Mirror image of ``x`` across ``plane``.

    Q = x + 2 (b - <a, x>) / ||a||^2 * a.  Reflecting twice returns x, and
    the distance to every point on the plane (in particular a solution
    lying on it) is preserved.  An image past the float range is refused.
    """
    x = as_vector(x)
    a = plane.normal
    if x.size != a.size:
        raise DimensionMismatchError(f"point has dimension {x.size}, hyperplane {a.size}")
    return _finite(lambda: x + (2.0 * (plane.offset - float(np.dot(a, x))) / plane.norm_sq) * a,
                   "mirror image")


def internormal_angle(a1, a2) -> float:
    """Angle in (0, pi) between two row directions, from the unit-normal cosine.

    The cosine is clamped to [-1, 1] before arccos so nearly parallel rows
    round to 0 or pi instead of NaN.  Those endpoint values describe a
    singular system; spectral consumers reject them.  Rows of different
    lengths, or that ``LinearSystem`` refuses, are refused.
    """
    return _angle(*_rows(a1, a2))


def masses_to_weights(masses) -> np.ndarray:
    """Convert centroid masses m_i > 0 into iteration weights w_i = 2 m_i / sum(m).

    The weights sum to 2; equal masses at n = 2 recover the unit weights.
    Refuses a nonpositive mass, masses whose sum overflows, and masses whose
    weights the weight rule refuses (``[1e-310, 1]`` names weight [0]).
    """
    m = _checked(masses, 1, "masses vector")
    # Before the ratio, which is positive when every mass is negative.
    if (m <= 0.0).any():
        raise ValueError("masses must all be positive")
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(m))
    if total == math.inf:
        raise ValueError("masses must have a finite sum")
    # Dividing first keeps a mass near the float maximum finite.
    w = _normal(2.0 * (m / total), _WEIGHT_FAULT)
    w.setflags(write=False)
    return w
