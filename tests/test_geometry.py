import math
import re
import warnings

import numpy as np
import pytest

from cimmino import (
    DimensionMismatchError,
    Hyperplane,
    LinearSystem,
    UnitNormal,
    internormal_angle,
    masses_to_weights,
    projection_matrix,
    reflect,
    unit_normal,
)


def test_unit_normal_axis():
    assert np.array_equal(unit_normal([2.0, 0.0]).direction, [1.0, 0.0])


def test_unit_normal_row_of_norm_sqrt5():
    u = unit_normal([2.0, 1.0]).direction
    s5 = math.sqrt(5.0)
    assert np.max(np.abs(u - [2.0 / s5, 1.0 / s5])) <= 1e-15


def test_unit_normal_diagonal():
    u = unit_normal([1.0, -1.0]).direction
    s2 = math.sqrt(2.0)
    assert np.max(np.abs(u - [1.0 / s2, -1.0 / s2])) <= 1e-15


def test_unit_normal_rejects_zero_vector():
    with pytest.raises(ValueError, match="degenerate hyperplane row"):
        unit_normal([0.0, 0.0])


def test_projection_matrix_axis():
    p = projection_matrix(unit_normal([1.0, 0.0]))
    assert np.array_equal(p, [[1.0, 0.0], [0.0, 0.0]])


def test_projection_matrix_row_2_1():
    p = projection_matrix(unit_normal([2.0, 1.0]))
    expected = np.array([[4.0, 2.0], [2.0, 1.0]]) / 5.0
    assert np.max(np.abs(p - expected)) <= 1e-15


def test_projection_matrix_diagonal_direction():
    p = projection_matrix(unit_normal([1.0, 1.0]))
    expected = np.array([[1.0, 1.0], [1.0, 1.0]]) / 2.0
    assert np.max(np.abs(p - expected)) <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_projection_matrix_idempotent_unit_trace(seed):
    rng = np.random.default_rng(seed)
    p = projection_matrix(unit_normal(rng.standard_normal(rng.integers(2, 6))))
    assert np.max(np.abs(p @ p - p)) <= 1e-13
    assert np.trace(p) == pytest.approx(1.0, abs=1e-13)
    assert np.array_equal(p, p.T)


def test_reflect_fixed_point_on_plane():
    plane = Hyperplane([1.0, 1.0], 2.0)
    assert np.array_equal(reflect([3.0, -1.0], plane), [3.0, -1.0])


def test_reflect_across_diagonal_plane():
    plane = Hyperplane([1.0, -1.0], 0.0)
    assert np.array_equal(reflect([3.0, -1.0], plane), [-1.0, 3.0])


def test_reflect_preserves_distance_to_shared_solution():
    # Both planes pass through the origin; reflections of (2, 0) stay on the
    # circle of radius 2 around it.
    planes = [
        Hyperplane([1.0, 0.0], 0.0),
        Hyperplane([-0.5, math.sqrt(3.0) / 2.0], 0.0),
    ]
    x = np.array([2.0, 0.0])
    for plane in planes:
        q = reflect(x, plane)
        assert np.linalg.norm(q) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_reflect_involution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    plane = Hyperplane(rng.standard_normal(n), float(rng.standard_normal()))
    x = rng.standard_normal(n) * 3.0
    assert np.max(np.abs(reflect(reflect(x, plane), plane) - x)) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_reflect_isometry_to_points_on_plane(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 6))
    a = rng.standard_normal(n)
    offset = float(rng.standard_normal())
    plane = Hyperplane(a, offset)
    x = rng.standard_normal(n) * 2.0
    q = reflect(x, plane)
    for _ in range(5):
        # Random point on the plane: foot of the normal plus a tangent part.
        tangent = rng.standard_normal(n)
        tangent -= a * (np.dot(a, tangent) / np.dot(a, a))
        p = a * (offset / np.dot(a, a)) + tangent
        assert np.dot(a, p) == pytest.approx(offset, abs=1e-12)
        assert np.linalg.norm(q - p) == pytest.approx(
            np.linalg.norm(x - p), abs=1e-12
        )


def test_reflect_dimension_mismatch():
    with pytest.raises(ValueError):
        reflect([1.0, 2.0, 3.0], Hyperplane([1.0, 0.0], 0.0))


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError, match="degenerate"):
        Hyperplane([0.0, 0.0], 1.0)


@pytest.mark.parametrize("normal", [[1e-200, 0.0], [1e200, 1e200]])
def test_hyperplane_refuses_rows_that_linear_system_refuses(normal):
    # reflect divided by zero on the first and overflowed on the second.
    with pytest.raises(ValueError, match="squared norm under/overflows binary64"):
        Hyperplane(normal, 1.0)


@pytest.mark.parametrize("offset", [math.inf, math.nan])
def test_hyperplane_refuses_a_non_finite_offset(offset):
    with pytest.raises(ValueError, match="hyperplane offset must be finite"):
        Hyperplane([1.0, 0.0], offset)


def test_internormal_angle_orthogonal():
    assert internormal_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
        math.pi / 2.0, abs=1e-15
    )


def test_internormal_angle_cos_four_fifths():
    theta = internormal_angle([2.0, 1.0], [1.0, 2.0])
    assert math.cos(theta) == pytest.approx(0.8, abs=1e-15)
    assert theta == pytest.approx(math.acos(0.8), abs=1e-15)


def test_internormal_angle_120_degrees():
    theta = internormal_angle([1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0])
    assert theta == pytest.approx(2.0 * math.pi / 3.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_internormal_angle_scale_invariant(seed):
    rng = np.random.default_rng(200 + seed)
    a1 = rng.standard_normal(3)
    a2 = rng.standard_normal(3)
    alpha, beta = rng.uniform(0.01, 100.0, size=2)
    assert internormal_angle(alpha * a1, beta * a2) == pytest.approx(
        internormal_angle(a1, a2), abs=1e-13
    )


def test_internormal_angle_parallel_rows_near_endpoints():
    # Aligned axis rows give the endpoint exactly; generic parallel rows
    # land within arccos conditioning (~sqrt(eps)) of it, never NaN.
    assert internormal_angle([1.0, 0.0], [2.0, 0.0]) == 0.0
    assert internormal_angle([0.0, 1.0], [0.0, -3.0]) == pytest.approx(math.pi, abs=0.0)
    t0 = internormal_angle([1.0, 2.0], [2.0, 4.0])
    t1 = internormal_angle([1.0, 2.0], [-2.0, -4.0])
    assert math.isfinite(t0) and math.isfinite(t1)
    assert t0 == pytest.approx(0.0, abs=1e-7)
    assert t1 == pytest.approx(math.pi, abs=1e-7)


def test_internormal_angle_zero_vector():
    with pytest.raises(ValueError):
        internormal_angle([0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("a1, a2", [
    ([1e200, 0.0], [1e200, 1e200]),
    ([1.0, 0.0], [1e200, 1e200]),
    ([1e-200, 0.0], [1.0, 0.0]),
], ids=["both-overflow", "second-overflows", "underflows"])
def test_internormal_angle_refuses_rows_that_linear_system_refuses(a1, a2):
    # Normalized by an overflowed norm, the first pair (pi/4 apart) reads pi/2;
    # the third's squared norm is 0, so it is not a zero row either.
    with pytest.raises(ValueError, match="squared norm under/overflows binary64"):
        internormal_angle(a1, a2)


@pytest.mark.parametrize("make", [unit_normal, UnitNormal])
def test_overflowing_row_is_refused_without_a_warning(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            make([1e200, 0.0])


@pytest.mark.parametrize("call", [
    lambda: internormal_angle([1.0, 0.0], [1.0, 1.0, 0.0]),
    lambda: internormal_angle([1.0, 1.0, 0.0], [1.0, 0.0]),
    lambda: reflect([1.0, 2.0, 3.0], Hyperplane([1.0, 0.0], 0.0)),
], ids=["angle-2-3", "angle-3-2", "reflect"])
def test_length_mismatch_is_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatchError):
        call()


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", range(4))
def test_row_helper_keeps_the_bits_of_the_norm_formulas(seed):
    # References: the norms written out, as np.sqrt(np.sum(a * a)) for
    # unit_normal and math.sqrt(np.add.reduce(a * a)) for the angle.
    rng = np.random.default_rng(700 + seed)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        a1, a2 = (rng.standard_normal(n) * 10.0 ** rng.uniform(-150.0, 150.0) for _ in range(2))
        u1 = a1 / float(np.sqrt(np.sum(a1 * a1)))
        assert np.array_equal(_bits(unit_normal(a1).direction), _bits(u1))
        n1 = math.sqrt(np.add.reduce(a1 * a1))
        n2 = math.sqrt(np.add.reduce(a2 * a2))
        cos = float(np.dot(a1 / n1, a2 / n2))
        angle = float(np.arccos(min(1.0, max(-1.0, cos))))
        assert _bits(internormal_angle(a1, a2)) == _bits(angle)


def test_masses_to_weights_equal_pair_gives_unit_weights():
    assert np.array_equal(masses_to_weights([1.0, 1.0]), [1.0, 1.0])


def test_masses_to_weights_3_to_1():
    assert np.array_equal(masses_to_weights([3.0, 1.0]), [1.5, 0.5])


def test_masses_to_weights_three_equal():
    w = masses_to_weights([1.0, 1.0, 1.0])
    assert np.max(np.abs(w - 2.0 / 3.0)) <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_masses_to_weights_sum_to_two(seed):
    rng = np.random.default_rng(300 + seed)
    m = rng.uniform(0.1, 10.0, size=int(rng.integers(2, 7)))
    assert float(np.sum(masses_to_weights(m))) == pytest.approx(2.0, abs=1e-14)


def test_masses_to_weights_rejects_nonpositive():
    with pytest.raises(ValueError):
        masses_to_weights([1.0, 0.0])
    with pytest.raises(ValueError):
        masses_to_weights([1.0, -2.0])
    with pytest.raises(ValueError, match="finite sum"):
        masses_to_weights([1e308, 1e308])


@pytest.mark.parametrize("seed", range(3))
def test_masses_to_weights_keeps_the_bits_of_the_halved_sum(seed):
    # Reference: m / (0.5 * sum(m)), exact wherever the half-sum is normal.
    rng = np.random.default_rng(800 + seed)
    checked = 0
    for _ in range(600):
        n = int(rng.integers(1, 9))
        m = rng.uniform(0.1, 1.0, size=n) * 10.0 ** rng.uniform(-310.0, 307.0)
        half = 0.5 * np.add.reduce(m)
        if half < np.finfo(np.float64).tiny:
            continue
        assert np.array_equal(_bits(masses_to_weights(m)), _bits(m / half))
        checked += 1
    assert checked > 500


@pytest.mark.parametrize("a1, a2, row", [
    ([1.0, 0.0], [1e200, 1e200], 1),
    ([1e200, 1e200], [1.0, 0.0], 0),
    ([1.0, 0.0], [1e-200, 0.0], 1),
], ids=["second-overflows", "first-overflows", "second-underflows"])
def test_internormal_angle_names_the_row_out_of_range(a1, a2, row):
    with pytest.raises(ValueError, match=re.escape(f"row(s) [{row}]: squared norm")):
        internormal_angle(a1, a2)


@pytest.mark.parametrize("a1, a2, row", [
    ([0.0, 0.0], [1.0, 0.0], 0),
    ([1.0, 0.0], [0.0, 0.0], 1),
], ids=["first", "second"])
def test_internormal_angle_names_the_zero_row(a1, a2, row):
    with pytest.raises(ValueError, match=re.escape(f"zero row(s) [{row}]")):
        internormal_angle(a1, a2)


def test_zero_row_refusal_is_one_message():
    messages = []
    for make in (lambda: LinearSystem([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
                 lambda: Hyperplane([0.0, 0.0], 0.0),
                 lambda: unit_normal([0.0, 0.0]),
                 lambda: internormal_angle([0.0, 0.0], [1.0, 0.0])):
        with pytest.raises(ValueError) as err:
            make()
        messages.append(str(err.value))
    assert messages[0] == "zero row(s) [1]: degenerate hyperplane row"
    assert {re.sub(r"\[\d+\]", "[i]", m) for m in messages} == {
        "zero row(s) [i]: degenerate hyperplane row"}


@pytest.mark.parametrize("x, normal, offset", [
    ([-1e308, 0.0], [1.0, 0.0], 1e308),
    ([1.5e308, -1.5e308], [1.0, 1.0], 5e307),  # coefficient 5e307, image [inf, -1e308]
], ids=["coefficient-overflows", "image-overflows"])
def test_reflect_refuses_an_image_past_the_float_range(x, normal, offset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mirror image overflows binary64"):
            reflect(x, Hyperplane(normal, offset))


@pytest.mark.parametrize("normal", [[1.0, 2.0], np.array([3.0, -1.0, 0.5])])
def test_hyperplane_normal_is_read_only(normal):
    assert not Hyperplane(normal, 1.0).normal.flags.writeable
