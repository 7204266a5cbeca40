import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import (
    DegenerateTriangle,
    NotUnitVector,
    OrientedPlane,
    SphericalDirection,
    angle_between,
    plane_from_normal_offset,
    plane_from_triangle,
)
from planecode import PlaneSet
from planecode.geometry import (
    TWO_PI,
    angle_rows,
    snapped_triplet,
    spherical_angles,
    spherical_from_unit_vector,
    unit_vector_from_spherical,
)

from test_plane_batch_oracle import oracle_spherical_angles

HALF = math.pi / 2.0

# axis direction -> expected (nu, phi), all representable exactly enough
AXIS_TABLE = [
    ((0.0, 0.0, 1.0), 0.0, 0.0),
    ((0.0, 0.0, -1.0), math.pi, 0.0),
    ((1.0, 0.0, 0.0), HALF, 0.0),
    ((0.0, 1.0, 0.0), HALF, HALF),
    ((-1.0, 0.0, 0.0), HALF, math.pi),
    ((0.0, -1.0, 0.0), HALF, 3.0 * HALF),
]


@pytest.mark.parametrize("w,nu,phi", AXIS_TABLE)
def test_axis_directions_map_to_exact_angles(w, nu, phi):
    d = spherical_from_unit_vector(np.array(w))
    assert d.nu == pytest.approx(nu, abs=1e-15)
    assert d.phi == pytest.approx(phi, abs=1e-15)


def test_poles_get_azimuth_zero():
    for z in (1.0, -1.0):
        d = spherical_from_unit_vector(np.array([0.0, 0.0, z]))
        assert d.phi == 0.0


def test_non_unit_vector_rejected():
    with pytest.raises(NotUnitVector):
        spherical_from_unit_vector(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(NotUnitVector):
        spherical_from_unit_vector(np.zeros(3))


def test_a_nan_direction_is_not_a_unit_vector():
    with pytest.raises(NotUnitVector, match="^vector norm nan, expected 1$") as one:
        spherical_angles([math.nan, 0.0, 0.0])
    assert one.value.row == 0
    with pytest.raises(NotUnitVector, match="^vector norm nan, expected 1$") as rows:
        PlaneSet.from_normals([[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0]], [1.0, 1.0])
    assert rows.value.row == 1
    w = np.array([[0.0, 0.0, 1.0], [0.0, math.nan, 1.0], [2.0, 0.0, 0.0]])
    with pytest.raises(NotUnitVector) as first:
        angle_rows(w)
    assert first.value.row == 1


def test_finite_unit_rows_keep_their_angles_bit_for_bit():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(2000, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w[::7, :2] = 0.0  # poles, and rows that keep a zero component
    w[::7, 2] = np.sign(w[::7, 2])
    w[3::11, 1] = -0.0
    w[3::11] /= np.linalg.norm(w[3::11], axis=1, keepdims=True)
    got = angle_rows(w)
    want = np.array([oracle_spherical_angles(row) for row in w])
    assert got.tobytes() == want.tobytes()


def test_direction_range_validation():
    with pytest.raises(ValueError):
        SphericalDirection(-0.1, 0.0)
    with pytest.raises(ValueError):
        SphericalDirection(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        SphericalDirection(1.0, TWO_PI)
    with pytest.raises(ValueError):
        SphericalDirection(1.0, -1e-9)


def test_plane_requires_finite_offset():
    d = SphericalDirection(HALF, 0.0)
    with pytest.raises(ValueError):
        OrientedPlane(d, float("nan"))
    with pytest.raises(ValueError):
        OrientedPlane(d, float("inf"))


@st.composite
def unit_vectors(draw):
    v = np.array(
        [
            draw(st.floats(-1, 1, allow_nan=False)),
            draw(st.floats(-1, 1, allow_nan=False)),
            draw(st.floats(-1, 1, allow_nan=False)),
        ]
    )
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0])
        n = 1.0
    return v / n


@given(unit_vectors())
@settings(deadline=None, max_examples=300)
def test_spherical_round_trip(w):
    """Vector -> angles -> vector, with the chart's honest error bounds.

    acos conditioning blows up at the poles: for w_z within float
    epsilon of +-1 the polar angle absorbs an error of order
    sqrt(eps) ~ 1.5e-8, and nothing downstream can recover it.  Away
    from the poles the round trip is tight.
    """
    d = spherical_from_unit_vector(w)
    assert 0.0 <= d.nu <= math.pi
    assert 0.0 <= d.phi < TWO_PI
    back = unit_vector_from_spherical(d)
    assert np.abs(back - w).max() < 5e-8
    if abs(w[2]) < 0.99:
        assert np.abs(back - w).max() < 1e-12


@given(unit_vectors(), st.floats(-100, 100))
@settings(deadline=None, max_examples=100)
def test_negation_is_an_involution(w, h):
    p = OrientedPlane(spherical_from_unit_vector(w), h)
    q = p.negated().negated()
    assert np.abs(q.normal - p.normal).max() < 1e-12
    assert q.h == pytest.approx(p.h, abs=1e-12)


def test_signed_distance_batches():
    p = plane_from_normal_offset((0, 0, 2.0), 6.0)
    pts = np.array([[0, 0, 3.0], [1, 5, 3.0], [0, 0, 7.0]])
    d = p.signed_distance(pts)
    assert np.allclose(d, [0.0, 0.0, 4.0])
    assert p.signed_distance((0, 0, 0)) == -3.0


def test_plane_from_triangle_orientation_and_offset():
    """Counterclockwise from above gives the +z normal; h is the height."""
    p = plane_from_triangle((0, 0, 5.0), (2, 0, 5.0), (0, 3, 5.0))
    assert np.allclose(p.normal, [0, 0, 1])
    assert p.h == 5.0
    # swapping two corners flips the orientation
    q = plane_from_triangle((0, 0, 5.0), (0, 3, 5.0), (2, 0, 5.0))
    assert np.allclose(q.normal, [0, 0, -1])
    assert q.h == -5.0


def test_degenerate_triangles_rejected():
    with pytest.raises(DegenerateTriangle):
        plane_from_triangle((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(DegenerateTriangle):
        plane_from_triangle((0, 0, 0), (0, 0, 0), (1, 0, 0))


def test_plane_from_normal_offset_rescales_offset_with_normal():
    a = plane_from_normal_offset((2.0, 0, 0), 8.0)
    b = plane_from_normal_offset((1.0, 0, 0), 4.0)
    assert a.direction == b.direction
    assert a.h == b.h == 4.0
    with pytest.raises(ValueError):
        plane_from_normal_offset((0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        plane_from_normal_offset((np.inf, 0, 0), 1.0)


def test_angle_between_is_stable_at_the_ends():
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    for a in (0.0, 1e-9, 1e-5, 1.0, math.pi - 1e-9, math.pi):
        v = math.cos(a) * u + math.sin(a) * w
        assert angle_between(u, v) == pytest.approx(a, abs=1e-12)
    # lengths do not matter
    assert angle_between(3 * u, 5 * w) == pytest.approx(HALF)


def test_snapped_triplet_zeroes_rounding_dust():
    noisy = np.array([1.0, 3e-17, -8e-18])
    nu, phi, h = snapped_triplet(noisy, -4.9e-24, scale=1.0)
    assert nu == HALF
    assert phi == 0.0
    assert h == 0.0
    # a real component is far above the snap threshold and survives
    nu, phi, h = snapped_triplet(np.array([1.0, 1e-6, 0.0]), 2.0)
    normal = unit_vector_from_spherical(SphericalDirection(nu, phi))
    assert normal[1] == pytest.approx(1e-6, rel=1e-9)
    assert h == 2.0


def test_snapped_triplet_offset_threshold_scales():
    # at scale 1e6 an offset of 1e-8 counts as dust, at scale 1 it does not
    assert snapped_triplet(np.array([0, 0, 1.0]), 1e-8, scale=1e6)[2] == 0.0
    assert snapped_triplet(np.array([0, 0, 1.0]), 1e-8, scale=1.0)[2] == 1e-8
