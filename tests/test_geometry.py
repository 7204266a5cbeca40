import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import DegenerateTriangle, NotUnitVector, PlaneSet, angle_between
from planecode.geometry import (
    TWO_PI,
    angle_rows,
    check_triplets,
    cross,
    snapped_triplets,
    triangle_planes,
)

from test_plane_batch_oracle import oracle_angles

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
    got_nu, got_phi = angle_rows(np.array([w]))[0]
    assert got_nu == pytest.approx(nu, abs=1e-15)
    assert got_phi == pytest.approx(phi, abs=1e-15)


def test_poles_get_azimuth_zero():
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert angle_rows(poles)[:, 1].tolist() == [0.0, 0.0]


def test_non_unit_vector_rejected():
    with pytest.raises(NotUnitVector):
        angle_rows(np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(NotUnitVector):
        angle_rows(np.zeros((1, 3)))


def test_a_nan_direction_is_not_a_unit_vector():
    with pytest.raises(NotUnitVector, match="^vector norm nan, expected 1$") as one:
        angle_rows(np.array([[math.nan, 0.0, 0.0]]))
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
    want = np.array([oracle_angles(row) for row in w])
    assert got.tobytes() == want.tobytes()


def test_direction_range_validation():
    for nu, phi in ((-0.1, 0.0), (math.pi + 0.1, 0.0), (1.0, TWO_PI), (1.0, -1e-9)):
        with pytest.raises(ValueError):
            check_triplets([(nu, phi, 0.0)])
    check_triplets([(0.0, 0.0, 0.0), (math.pi, np.nextafter(TWO_PI, 0.0), 0.0)])


def test_plane_requires_finite_offset():
    for h in (float("nan"), float("inf")):
        with pytest.raises(ValueError) as err:
            check_triplets([(HALF, 0.0, 1.0), (HALF, 0.0, h)])
        assert err.value.row == 1


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
    code = PlaneSet.from_normals([w], [0.0])
    nu, phi, _ = code[0]
    assert 0.0 <= nu <= math.pi
    assert 0.0 <= phi < TWO_PI
    back = code.normals()[0]
    assert np.abs(back - w).max() < 5e-8
    if abs(w[2]) < 0.99:
        assert np.abs(back - w).max() < 1e-12


@given(unit_vectors(), st.floats(-100, 100))
@settings(deadline=None, max_examples=100)
def test_negation_is_an_involution(w, h):
    p = PlaneSet.from_normals([w], [h])
    q = p.negated().negated()
    assert np.abs(q.normals() - p.normals()).max() < 1e-12
    assert q.offsets()[0] == pytest.approx(h, abs=1e-12)


def test_triangle_planes_orientation_and_offset():
    """Counterclockwise from above gives the +z normal; h is the height."""
    # the second triangle swaps two corners, which flips the orientation
    normals, offsets = triangle_planes(
        [(0, 0, 5.0), (0, 0, 5.0)], [(2, 0, 5.0), (0, 3, 5.0)], [(0, 3, 5.0), (2, 0, 5.0)]
    )
    assert np.allclose(normals, [[0, 0, 1], [0, 0, -1]])
    assert offsets.tolist() == [5.0, -5.0]


def test_degenerate_triangles_rejected():
    with pytest.raises(DegenerateTriangle):
        triangle_planes((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(DegenerateTriangle):
        triangle_planes((0, 0, 0), (0, 0, 0), (1, 0, 0))


def test_angle_between_is_stable_at_the_ends():
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    for a in (0.0, 1e-9, 1e-5, 1.0, math.pi - 1e-9, math.pi):
        v = math.cos(a) * u + math.sin(a) * w
        assert angle_between(u, v) == pytest.approx(a, abs=1e-12)
    # lengths do not matter
    assert angle_between(3 * u, 5 * w) == pytest.approx(HALF)


def test_snapped_triplets_zero_rounding_dust():
    noisy = [1.0, 3e-17, -8e-18]
    # a real component is far above the snap threshold and survives
    real = [1.0, 1e-6, 0.0]
    rows = snapped_triplets([noisy, real], [-4.9e-24, 2.0], scale=1.0)
    assert rows[0].tolist() == [HALF, 0.0, 0.0]
    normal = PlaneSet(rows).normals()[1]
    assert normal[1] == pytest.approx(1e-6, rel=1e-9)
    assert rows[1, 2] == 2.0


def test_snapped_triplets_offset_threshold_scales():
    # at scale 1e6 an offset of 1e-8 counts as dust, at scale 1 it does not
    assert snapped_triplets([[0, 0, 1.0]], [1e-8], scale=1e6)[0, 2] == 0.0
    assert snapped_triplets([[0, 0, 1.0]], [1e-8], scale=1.0)[0, 2] == 1e-8


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(width=64), min_size=6, max_size=6),
    st.integers(0, 3),
)
def test_cross_rounds_as_np_cross(values, rows):
    a = np.array(values[:3])
    b = np.array(values[3:])
    with np.errstate(all="ignore"):
        if rows:
            # rows of signed, scaled copies against one vector and against rows
            a = np.stack([a * (-2.0) ** k for k in range(rows)])
            for other in (b, np.stack([b[::-1] if k % 2 else b for k in range(rows)])):
                assert cross(a, other).tobytes() == np.cross(a, other).tobytes()
        got, want = cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
