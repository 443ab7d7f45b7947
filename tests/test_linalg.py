import warnings
from collections import Counter

import numpy as np
import pytest

from cimmino import DimensionMismatchError, symmetric_eigen
from cimmino.linalg import as_matrix, as_vector


# ---------------------------------------------------------------------------
# Independent oracle: eigenvalues as sign-change bisection roots of the
# cofactor-expanded characteristic polynomial.  Never touches LAPACK.
# ---------------------------------------------------------------------------

def _char_poly_3x3(b, lam):
    m = b - lam * np.eye(3)
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _bisection_eigenvalues_3x3(b, samples=20_000):
    radii = np.sum(np.abs(b), axis=1) - np.abs(np.diag(b))
    lo = float(np.min(np.diag(b) - radii)) - 1.0
    hi = float(np.max(np.diag(b) + radii)) + 1.0
    xs = np.linspace(lo, hi, samples)
    vals = np.array([_char_poly_3x3(b, x) for x in xs])
    roots = []
    for k in range(samples - 1):
        if vals[k] == 0.0:
            roots.append(xs[k])
            continue
        if vals[k] * vals[k + 1] < 0.0:
            a_, b_ = xs[k], xs[k + 1]
            fa = vals[k]
            for _ in range(200):
                mid = 0.5 * (a_ + b_)
                fm = _char_poly_3x3(b, mid)
                if fm == 0.0:
                    a_ = b_ = mid
                    break
                if (fa < 0.0) != (fm < 0.0):
                    b_ = mid
                else:
                    a_, fa = mid, fm
            roots.append(0.5 * (a_ + b_))
    return np.array(roots)


# ---------------------------------------------------------------------------
# as_vector / as_matrix
# ---------------------------------------------------------------------------

def test_vectors_must_be_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_matrix([[1.0, float("inf")], [0.0, 1.0]])


@pytest.mark.parametrize("convert, values, message", [
    (as_vector, [[1.0]], "expected a 1-D vector, got shape (1, 1)"),
    (as_vector, [], "expected a 1-D vector, got shape (0,)"),
    (as_matrix, [1.0, 2.0], "expected a 2-D matrix, got shape (2,)"),
    (as_matrix, [[]], "expected a 2-D matrix, got shape (1, 0)"),
], ids=["vector-2d", "vector-empty", "matrix-1d", "matrix-empty"])
def test_shapes_are_checked(convert, values, message):
    with pytest.raises(ValueError) as excinfo:
        convert(values)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# symmetric_eigen
# ---------------------------------------------------------------------------

def test_eigen_diagonal_matrix_untouched():
    lam = symmetric_eigen(np.diag([2.0, 3.0]))
    assert np.array_equal(lam, [2.0, 3.0])
    assert not lam.flags.writeable


def test_eigen_symmetrization_does_not_overflow_near_the_float_maximum():
    # (B + B^T)/2 overflowed here ("overflow encountered in add") and gave NaN.
    lam = symmetric_eigen(np.diag([1e308, 1.5e308]))
    assert np.array_equal(lam, [1e308, 1.5e308])


def test_eigen_example1_normal_matrix():
    b = np.array([[5.0, 4.0], [4.0, 5.0]]) / 5.0
    lam = symmetric_eigen(b)
    assert lam[0] == pytest.approx(0.2, abs=1e-12)
    assert lam[1] == pytest.approx(1.8, abs=1e-12)


def test_eigen_matches_characteristic_polynomial_bisection():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 3))
    b = (m + m.T) / 2.0
    expected = _bisection_eigenvalues_3x3(b)
    lam = symmetric_eigen(b)
    assert expected.size == 3
    assert np.max(np.abs(lam - np.sort(expected))) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigen_reconstruction_and_orthogonality(n, seed):
    # B = Q diag(l) Q^T with Q orthogonal fixes the trace and the Frobenius
    # norm: sum(l) = tr B and sum(l^2) = ||B||_F^2.  These are the checks
    # of that reconstruction that the eigenvalues alone can carry.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-2, 3)
    b = (m + m.T) / 2.0
    lam = symmetric_eigen(b)
    scale = 1.0 + float(np.max(np.abs(b)))
    assert lam.shape == (n,)
    assert abs(np.sum(lam) - np.trace(b)) <= 1e-10 * scale
    assert abs(np.sum(lam * lam) - np.sum(b * b)) <= 1e-10 * scale * scale
    assert np.all(np.diff(lam) >= 0.0)


def test_eigen_two_by_two_matches_quadratic_formula():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.standard_normal((2, 2))
        b = (m + m.T) / 2.0
        tr = b[0, 0] + b[1, 1]
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        disc = np.sqrt(tr * tr - 4.0 * det)
        expected = np.sort([(tr - disc) / 2.0, (tr + disc) / 2.0])
        assert np.max(np.abs(symmetric_eigen(b) - expected)) <= 1e-12


def test_eigen_repeated_eigenvalues_sorted_adjacent():
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    b = np.eye(3) + np.outer(u, u)  # eigenvalues 1, 1, 2
    lam = symmetric_eigen(b)
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert lam[1] == pytest.approx(1.0, abs=1e-12)
    assert lam[2] == pytest.approx(2.0, abs=1e-12)


def test_eigen_zero_matrix():
    assert np.array_equal(symmetric_eigen(np.zeros((3, 3))), np.zeros(3))


def test_eigen_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        symmetric_eigen(np.ones((2, 3)))


def test_eigen_rejects_asymmetric():
    b = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigen(b)


def test_eigen_refuses_asymmetry_that_overflows_without_a_warning():
    # B - B^T overflowed here ("overflow encountered in subtract") before
    # the refusal; the suite turns that warning into an error.
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigen([[1.0, 1e308], [-1e308, 1.0]])


def test_eigen_refuses_a_spectrum_past_the_float_range_without_a_warning():
    # The matrix is finite, its top eigenvalue 3.4e308 is not; it came back
    # as [0.0, inf] without a word.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            symmetric_eigen([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
    assert str(excinfo.value) == "eigenvalues [0.0, inf] of B overflow binary64"


def _eigen_oracle(b):
    """eigvalsh of B/2 + B^T/2, or the refusal expected: "not symmetric" where
    max|B - B^T| > 1e-12 * (1 + max|B|), "overflow" past binary64."""
    with np.errstate(over="ignore"):
        asym = float(np.abs(b - b.T).max())
    if asym > 1e-12 * (1.0 + float(np.abs(b).max())):
        return "not symmetric"
    eigenvalues = np.linalg.eigvalsh(b / 2.0 + b.T / 2.0)
    return eigenvalues if np.isfinite(eigenvalues).all() else "overflow"


@pytest.mark.parametrize("seed", range(3))
def test_eigen_is_eigvalsh_of_the_halves_and_refuses_exactly_past_the_tolerance(seed):
    rng = np.random.default_rng(7100 + seed)
    # B - B^T overflows; entries near 1e307 just past and within the tolerance;
    # a finite B with an eigenvalue past binary64.
    matrices = [np.array([[1e307, 1.7e308], [-1.7e308, 1e307]]),
                np.array([[1e307, 1e307], [1e307 + 1.1e295, 1e307]]),
                np.array([[1e307, 1e307], [1e307 + 0.9e295, 1e307]]),
                np.full((2, 2), 1.7e308)]
    for _ in range(600):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-300.0, 307.0)
        kind = rng.integers(3)
        if kind == 0:
            b = m + m.T
        elif kind == 1:
            # Asymmetry on both sides of the tolerance.
            b = m + m.T + m * 10.0 ** rng.uniform(-14.0, -10.0)
        else:
            b = m
        matrices.append(b)
    outcomes = Counter()
    for b in matrices:
        expected = _eigen_oracle(b)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                symmetric_eigen(b)
            outcomes[expected] += 1
        else:
            assert symmetric_eigen(b).tobytes() == expected.tobytes()
            outcomes["equal"] += 1
    assert outcomes["equal"] > 300 and outcomes["not symmetric"] > 100 and outcomes["overflow"] == 1


def test_eigen_accepts_roundoff_asymmetry():
    b = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    assert symmetric_eigen(b).size == 2


def test_eigen_deterministic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    b = (m + m.T) / 2.0
    assert np.array_equal(symmetric_eigen(b), symmetric_eigen(b.copy()))
