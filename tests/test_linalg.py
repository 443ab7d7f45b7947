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


# ---------------------------------------------------------------------------
# symmetric_eigen
# ---------------------------------------------------------------------------

def test_eigen_diagonal_matrix_untouched():
    lam = symmetric_eigen(np.diag([2.0, 3.0]))
    assert np.array_equal(lam, [2.0, 3.0])
    assert not lam.flags.writeable


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


def test_eigen_accepts_roundoff_asymmetry():
    b = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    assert symmetric_eigen(b).size == 2


def test_eigen_deterministic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    b = (m + m.T) / 2.0
    assert np.array_equal(symmetric_eigen(b), symmetric_eigen(b.copy()))
