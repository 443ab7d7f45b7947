"""Seeded input generators and Matrix Market writers for the benchmark.

Every input is a pure function of ``(seed, request index)``, so the same
seed gives byte-identical files.  The writers are the benchmark's own: the
program under test only ever sees the files they produce.
"""

import math

import numpy as np

ANALYZE_N = 128
SOLVE_N = 1000
SOLVE_KAPPA_B = 100.0
SOLVE_TOL = 1e-10  # the CLI's default --tol, restated so the checks can use it

PAIR_WEIGHTS = ((1.0, 1.0), (0.5, 1.5), (0.2, 0.2), (1.2, 0.8))
PAIR_THETA_DEG = (30.0, 150.0)
PAIR_SCALE = (0.5, 2.0)


def rng_for(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent stream per (seed, request, workload)."""
    return np.random.default_rng([seed, stream, index])


# Both writers render floats with repr, the shortest decimal that reads back
# as the same binary64, so the program sees exactly the generated matrix.

def write_coordinate(path, m: np.ndarray) -> int:
    """Dense matrix as Matrix Market ``coordinate real general``; returns bytes."""
    rows, cols = m.shape
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{rows} {cols} {rows * cols}",
    ]
    for i in range(rows):
        row = m[i].tolist()
        lines.extend(f"{i + 1} {j + 1} {row[j]!r}" for j in range(cols))
    return _write(path, lines)


def write_array(path, m: np.ndarray) -> int:
    """Matrix Market ``array real general`` (column-major); returns bytes."""
    rows, cols = m.shape
    lines = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
    lines.extend(map(repr, m.T.ravel().tolist()))
    return _write(path, lines)


def _write(path, lines) -> int:
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return len(text)


def weighted_normal_eigvals(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reference eigenvalues of B = A^T diag(w_i / ||a_i||^2) A by LAPACK."""
    d = weights / np.einsum("ij,ij->i", a, a)
    return np.linalg.eigvalsh(a.T @ (d[:, None] * a))


def analyze_matrix(seed: int, index: int) -> np.ndarray:
    """Dense standard-normal 128 x 128 matrix, distinct per request."""
    return rng_for(seed, index, 1).standard_normal((ANALYZE_N, ANALYZE_N))


def _unit_row_matrix(rng: np.random.Generator, sigma_sq: np.ndarray):
    """Dense matrix with unit-norm rows and singular values sqrt(sigma_sq).

    Needs sum(sigma_sq) == n.  Starts from C = Q diag(sigma_sq) Q^T and
    applies Bendel-Mickey plane rotations Q <- G Q until diag(C) == 1; the
    rotations keep the spectrum, so A = Q diag(sigma) V^T has A A^T = C.
    Returns ``(A, V)``: the columns of V are the eigenvectors of A^T A.
    """
    n = sigma_sq.size
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    diag = np.einsum("ij,ij,j->i", q, q, sigma_sq)
    for _ in range(n - 1):
        low = np.flatnonzero(diag < 1.0)
        high = np.flatnonzero(diag > 1.0)
        if low.size == 0 or high.size == 0:
            break
        i, j = int(low[0]), int(high[0])
        cij = float(np.dot(q[i] * sigma_sq, q[j]))
        cii, cjj = diag[i] - 1.0, diag[j] - 1.0
        # tan of the smaller angle that makes the rotated C_ii equal 1: the
        # root of cii + 2 t cij + t^2 cjj = 0, in the form without cancellation.
        t = -cii / (cij + math.copysign(math.sqrt(cij * cij - cii * cjj), cij))
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = c * t
        qi, qj = q[i].copy(), q[j].copy()
        q[i] = c * qi + s * qj
        q[j] = -s * qi + c * qj
        diag[i] = 1.0
        diag[j] = cii + cjj + 1.0
    return (q * np.sqrt(sigma_sq)) @ v.T, v


def solve_system(seed: int, index: int):
    """Dense n = 1000 system whose weighted normal matrix has kappa(B) = 100.

    The eigenvalues of A A^T are spaced evenly over [l, 100 l] with trace n,
    and the rows have unit norm, so B = alpha A^T A for uniform weights.
    The solution has a component of length 1 and random sign along every
    eigenvector of B, so every seed converges along the same error history
    (the step count does not vary with the seed; only the data does).
    Returns ``(A, b, x_star, alpha_star, eigvals)`` where the eigenvalues
    are those of B at unit weights, from LAPACK on the matrix as written.
    """
    rng = rng_for(seed, index, 2)
    sigma_sq = np.linspace(1.0, SOLVE_KAPPA_B, SOLVE_N)
    sigma_sq *= SOLVE_N / float(np.sum(sigma_sq))
    a, v = _unit_row_matrix(rng, sigma_sq)
    x_star = v @ rng.choice([-1.0, 1.0], SOLVE_N)
    b = a @ x_star
    lam = weighted_normal_eigvals(a, np.ones(SOLVE_N))
    alpha = 2.0 / (float(lam[0]) + float(lam[-1]))
    return a, b, x_star, alpha, lam


def pair_batch(seed: int, chunk: int, count: int):
    """Chunk ``chunk`` of seeded 2x2 systems: unit rows theta apart, scaled.

    Returns ``(matrices, rhs, solutions, thetas)`` as stacked arrays of
    ``count`` systems.  The weight pair of system k is ``PAIR_WEIGHTS[k % 4]``.
    """
    rng = rng_for(seed, chunk, 3)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    theta = np.radians(rng.uniform(*PAIR_THETA_DEG, count))
    scale = rng.uniform(*PAIR_SCALE, (count, 2))
    rows = np.empty((count, 2, 2))
    rows[:, 0, 0] = np.cos(phi)
    rows[:, 0, 1] = np.sin(phi)
    rows[:, 1, 0] = np.cos(phi + theta)
    rows[:, 1, 1] = np.sin(phi + theta)
    rows *= scale[:, :, None]
    x_star = rng.standard_normal((count, 2))
    rhs = np.einsum("kij,kj->ki", rows, x_star)
    return rows, rhs, x_star, theta
