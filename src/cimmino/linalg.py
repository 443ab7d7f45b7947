"""Minimal dense linear algebra: validated vectors/matrices and the
eigenvalues of a symmetric matrix through LAPACK."""

import numpy as np

# Relative asymmetry admitted before the eigensolver rejects its input.
ASYMMETRY_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


def as_vector(values) -> np.ndarray:
    """Validate and freeze a 1-D float64 vector (finite entries, length >= 1)."""
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    v.setflags(write=False)
    return v


def as_matrix(values) -> np.ndarray:
    """Validate and freeze a 2-D float64 matrix (finite entries, >= 1x1)."""
    m = np.array(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def symmetric_eigen(b) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by LAPACK (``np.linalg.eigvalsh``).

    The input must be symmetric to within ``1e-12 * (1 + max|B|)`` per
    entry; it is then symmetrized as (B + B^T)/2 so rounding drift cannot
    leak complex eigenvalues.

    Determinism contract: identical input under an identical BLAS thread
    setting gives bit-identical output.  Across thread counts the bits may
    differ at large n, because the threaded BLAS calls inside LAPACK split
    their sums by thread; every 2x2 comes out the same at any thread count.

    Parameters
    ----------
    b : array_like
        Square symmetric matrix.

    Returns
    -------
    numpy.ndarray
        The eigenvalues ascending (ties adjacent), read-only.

    Raises
    ------
    numpy.linalg.LinAlgError
        When LAPACK fails to converge (a ``ValueError`` subclass).
    """
    b = as_matrix(b)
    n, m = b.shape
    if n != m:
        raise DimensionMismatchError(f"eigenvalues need a square matrix, got {n}x{m}")
    scale = 1.0 + float(np.max(np.abs(b)))
    asym = float(np.max(np.abs(b - b.T)))
    if asym > ASYMMETRY_TOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max |B_ij - B_ji| = {asym:.3e} "
            f"exceeds {ASYMMETRY_TOL * scale:.3e}"
        )
    eigenvalues = np.linalg.eigvalsh((b + b.T) / 2.0)
    eigenvalues.setflags(write=False)
    return eigenvalues
