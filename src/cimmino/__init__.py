"""Weighted simultaneous-reflection solver for square linear systems.

The iteration reflects the current point across every row hyperplane of
A x = b at once and moves to a weighted centroid of the reflections.  The
package pairs that solver with an exact spectral diagnostic layer: the
per-step contraction factor, a closed form for 2x2 systems in the
inter-normal angle, the optimality of unit weights, and the best scalar
weight rescaling at any size.
"""

from .geometry import (
    Hyperplane,
    UnitNormal,
    internormal_angle,
    masses_to_weights,
    projection_matrix,
    reflect,
    unit_normal,
)
from .iteration import (
    IterationTrace,
    LinearSystem,
    Termination,
    centroid_step,
    cimmino_step,
    solve,
)
from .linalg import (
    DimensionMismatchError,
    symmetric_eigen,
)
from .spectral import (
    ConvergenceClass,
    SingularMatrixError,
    SpectralReport,
    TwoByTwoSpectrum,
    analyze,
    classify_convergence,
    contraction_factor_2d,
    error_envelope,
    is_tight_frame,
    iteration_matrix,
    optimal_scaling,
    optimality_gap,
    weighted_normal_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceClass",
    "DimensionMismatchError",
    "Hyperplane",
    "IterationTrace",
    "LinearSystem",
    "SingularMatrixError",
    "SpectralReport",
    "Termination",
    "TwoByTwoSpectrum",
    "UnitNormal",
    "analyze",
    "centroid_step",
    "cimmino_step",
    "classify_convergence",
    "contraction_factor_2d",
    "error_envelope",
    "internormal_angle",
    "is_tight_frame",
    "iteration_matrix",
    "masses_to_weights",
    "optimal_scaling",
    "optimality_gap",
    "projection_matrix",
    "reflect",
    "solve",
    "symmetric_eigen",
    "unit_normal",
    "weighted_normal_matrix",
]
