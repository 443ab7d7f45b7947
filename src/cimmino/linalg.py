"""Minimal dense linear algebra: validated vectors/matrices and the
eigenvalues of a symmetric matrix through LAPACK."""

import numpy as np

# Relative asymmetry admitted before the eigensolver rejects its input.
ASYMMETRY_TOL = 1e-12
# Smallest normal binary64: a value below it has lost precision.
_TINY = np.finfo(np.float64).tiny
# The refusal of every weight path: steps, masses and the 2x2 closed form.
_WEIGHT_FAULT = f"weight(s) {{}}: must be finite and positive, and at least {float(_TINY)!r}"


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


def _checked(values, ndim: int, kind: str) -> np.ndarray:
    """Validate and freeze a finite float64 array with ``ndim`` nonzero dimensions."""
    a = np.array(values, dtype=np.float64)
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"expected a {ndim}-D {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{kind} entries must be finite")
    a.setflags(write=False)
    return a


def _finite(form, what: str):
    """``form()``, formed without numpy's overflow and invalid warnings, when every
    entry is finite; else "<what> overflows binary64", a ``{}`` in ``what`` naming them."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = form()
    fault = ~np.isfinite(values)
    if fault.any():
        raise ValueError(f"{what.format(np.flatnonzero(fault).tolist())} overflows binary64")
    return values


def _sq_norms(values):
    """Squared norms along the last axis, ``inf`` past binary64 without a
    warning.  A row of a stack gets the bits of that row alone."""
    with np.errstate(over="ignore"):
        return np.add.reduce(values * values, axis=-1)


def _normal(values, fault: str) -> np.ndarray:
    """``values`` as float64 when every entry lies in [tiny, inf), NaN failing too:
    the one range rule for row norms and weights.  Else ``fault`` names the indices."""
    values = np.asarray(values, dtype=np.float64)
    out_of_range = ~((values >= _TINY) & (values < np.inf))
    if out_of_range.any():
        raise ValueError(fault.format(np.flatnonzero(out_of_range).tolist()))
    return values


def as_vector(values) -> np.ndarray:
    """Validate and freeze a 1-D float64 vector (finite entries, length >= 1)."""
    return _checked(values, 1, "vector")


def as_matrix(values) -> np.ndarray:
    """Validate and freeze a 2-D float64 matrix (finite entries, >= 1x1)."""
    return _checked(values, 2, "matrix")


def symmetric_eigen(b) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by LAPACK (``np.linalg.eigvalsh``).

    The input must be symmetric to within ``1e-12 * (1 + max|B|)`` per
    entry.  LAPACK reads only the lower triangle, so the input is averaged
    as B/2 + B^T/2 first: an asymmetry within that tolerance then counts
    from both triangles.  That is (B + B^T)/2 bit for bit while the halves
    stay normal, so an exactly symmetric B passes unchanged, and it cannot
    overflow near the float maximum.

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
    ValueError
        When an eigenvalue passes binary64.
    numpy.linalg.LinAlgError
        When LAPACK fails to converge (a ``ValueError`` subclass).
    """
    b = as_matrix(b)
    n, m = b.shape
    if n != m:
        raise DimensionMismatchError(f"eigenvalues need a square matrix, got {n}x{m}")
    scale = 1.0 + float(np.abs(b).max())
    half = b / 2.0
    # Twice the halves' difference is B - B^T bit for bit while the halves are
    # normal, and inf where B - B^T overflows, which the check refuses.
    asym = 2.0 * float(np.abs(half - half.T).max())
    if asym > ASYMMETRY_TOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max |B_ij - B_ji| = {asym:.3e} "
            f"exceeds {ASYMMETRY_TOL * scale:.3e}"
        )
    eigenvalues = np.linalg.eigvalsh(half + half.T)
    if not np.isfinite(eigenvalues).all():
        raise ValueError(f"eigenvalues {eigenvalues.tolist()} of B overflow binary64")
    eigenvalues.setflags(write=False)
    return eigenvalues
