import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from planecode import (
    EmptyRegion,
    NotARotation,
    NotClosed,
    NotConvex,
    PlaneSet,
    TriangleMesh,
    UnboundedRegion,
    check_rotation,
    decode_convex,
    encode_convex,
    rotate_planes,
    translate_planes,
)
from planecode import shapes
from conftest import quaternion_rotation, seeded_hulls

DEG = 180.0 / math.pi
AXES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]

CUBE_TABLE = [
    (0.0, 0.0, 1.0),
    (90.0, 0.0, 1.0),
    (90.0, 90.0, 1.0),
    (90.0, 180.0, 0.0),
    (90.0, 270.0, 0.0),
    (180.0, 0.0, 0.0),
]


def degree_rows(code):
    return [(round(nu * DEG, 9), round(phi * DEG, 9), h) for nu, phi, h in code]


def box_code(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    return PlaneSet.from_normals(AXES, [hi[0], -lo[0], hi[1], -lo[1], hi[2], -lo[2]])


def test_cube_code_matches_the_degree_table(cube_mesh):
    code = encode_convex(cube_mesh)
    assert len(code) == 6
    assert degree_rows(code) == CUBE_TABLE


def test_planeset_helpers(cube_mesh):
    code = encode_convex(cube_mesh)
    assert code.triplets().shape == (6, 3)
    assert np.allclose(np.linalg.norm(code.normals(), axis=1), 1.0)
    shuffled = PlaneSet([code[3], code[0], code[5], code[1], code[4], code[2]])
    assert degree_rows(shuffled.sorted_canonical()) == CUBE_TABLE
    assert PlaneSet([]).normals().shape == (0, 3)


def test_decode_cube_recovers_the_unit_corners(cube_mesh):
    poly = decode_convex(encode_convex(cube_mesh))
    corners = np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
    )
    assert poly.vertices.shape == (8, 3)
    gap = np.abs(corners[:, None, :] - poly.vertices[None, :, :]).max(axis=2)
    assert gap.min(axis=1).max() < 1e-9
    assert gap.min(axis=0).max() < 1e-9
    assert len(poly.faces) == 6
    assert poly.redundant_planes == []
    assert all(len(ring) == 4 for ring in poly.faces)


def test_decoded_rings_wind_counterclockwise(cube_mesh):
    poly = decode_convex(encode_convex(cube_mesh))
    for ring, idx in zip(poly.faces, poly.face_planes):
        pts = poly.vertices[np.asarray(ring)]
        n = np.cross(pts[1] - pts[0], pts[2] - pts[1])
        assert n @ poly.planes.normals()[idx] > 0
        assert ring[0] == min(ring)


def test_decoded_mesh_is_watertight(cube_mesh):
    mesh = decode_convex(encode_convex(cube_mesh)).to_mesh()
    assert mesh.is_closed
    assert mesh.is_consistently_oriented
    assert mesh.volume() == pytest.approx(1.0, abs=1e-12)


def test_redundant_planes_are_reported_not_fatal():
    planes = list(box_code()) + list(PlaneSet.from_normals([(1, 0, 0)], [50.0]))
    poly = decode_convex(PlaneSet(planes))
    assert poly.redundant_planes == [6]
    assert len(poly.faces) == 6


def test_decode_against_scipy_hull_volume():
    for mesh in seeded_hulls(11, 5, lo=10, hi=40):
        poly = decode_convex(encode_convex(mesh))
        hull = ConvexHull(mesh.vertices)
        assert poly.to_mesh().volume() == pytest.approx(hull.volume, rel=1e-9)
        d = np.abs(mesh.vertices[:, None, :] - poly.vertices[None, :, :]).max(axis=2)
        assert d.min(axis=1).max() < 1e-9


def test_decode_needs_at_least_four_planes():
    with pytest.raises(UnboundedRegion):
        decode_convex(PlaneSet(list(box_code())[:3]))


def test_decode_rejects_unbounded_slab():
    planes = PlaneSet.from_normals(
        [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0)], [1.0, 0.0, 1.0, 0.0]
    )
    with pytest.raises(UnboundedRegion):
        decode_convex(planes)


def test_decode_rejects_empty_region():
    planes = list(box_code()) + list(PlaneSet.from_normals([(-1, 0, 0)], [-5.0]))
    with pytest.raises(EmptyRegion):
        decode_convex(PlaneSet(planes))


def test_encode_requires_a_closed_mesh():
    with pytest.raises(NotClosed):
        encode_convex(shapes.open_box())


def test_encode_rejects_concave_input_with_a_witness(staircase_mesh):
    with pytest.raises(NotConvex) as err:
        encode_convex(staircase_mesh)
    v = err.value.vertex_index
    t = err.value.triangle_index
    assert v is not None and t is not None
    corners = staircase_mesh.vertices[staircase_mesh.triangles[t]]
    n = np.cross(corners[1] - corners[0], corners[2] - corners[1])
    n = n / np.linalg.norm(n)
    dist = staircase_mesh.vertices[v] @ n - n @ corners[0]
    assert dist > 0


def test_coplanar_triangles_merge_into_one_plane(cube_mesh):
    assert len(encode_convex(cube_mesh)) == 6
    assert len(encode_convex(shapes.tetrahedron())) == 4


def test_translate_shifts_offsets_by_the_normal_component(cube_mesh):
    code = encode_convex(cube_mesh)
    a = np.array([2.0, -3.0, 0.5])
    moved = translate_planes(code, a)
    for (nu, phi, h), q, w in zip(code, moved, code.normals()):
        assert q[:2] == (nu, phi)
        assert q[2] == pytest.approx(h + w @ a, abs=1e-12)


@given(
    st.tuples(
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    )
)
@settings(deadline=None, max_examples=60)
def test_translate_back_is_identity(a):
    code = encode_convex(shapes.cube())
    there = translate_planes(code, a)
    back = translate_planes(there, tuple(-x for x in a))
    assert np.abs(back.triplets() - code.triplets()).max() < 1e-10


def test_rotate_quarter_turn_permutes_a_centered_cube(cube_mesh):
    """A quarter turn about z maps the centered cube's plane set to itself."""
    code = translate_planes(encode_convex(cube_mesh), (-0.5, -0.5, -0.5))
    r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    spun = rotate_planes(code, r).sorted_canonical()
    a = spun.triplets()
    b = code.sorted_canonical().triplets()
    assert np.abs(a - b).max() < 1e-12


def test_rotation_validation():
    with pytest.raises(NotARotation):
        check_rotation(np.eye(2))
    with pytest.raises(NotARotation):
        check_rotation(2.0 * np.eye(3))
    with pytest.raises(NotARotation):
        check_rotation(np.diag([1.0, 1.0, -1.0]))
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(NotARotation):
        check_rotation(bad)
    r = quaternion_rotation(np.random.default_rng(0))
    assert np.array_equal(check_rotation(r), r)


def test_rotated_code_still_decodes(cube_mesh):
    code = encode_convex(cube_mesh)
    r = quaternion_rotation(np.random.default_rng(8))
    poly = decode_convex(rotate_planes(code, r))
    assert len(poly.vertices) == 8
    assert poly.to_mesh().volume() == pytest.approx(1.0, rel=1e-9)


TWO_SIDED_TRIANGLE = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 1]])


@pytest.mark.parametrize(
    "mesh, planes",
    [(TWO_SIDED_TRIANGLE, 2), (TriangleMesh(np.eye(3), np.zeros((0, 3), dtype=int)), 0)],
    ids=["two-sided triangle", "no triangles"],
)
def test_closed_meshes_without_volume_are_unbounded(mesh, planes):
    # both are closed and pass the convexity test; their codes would
    # fail in decode_convex with the same error
    assert mesh.is_closed
    with pytest.raises(UnboundedRegion, match="^%d half-space" % planes):
        encode_convex(mesh)


@st.composite
def circle_polygons(draw):
    """A convex polygon on a unit circle in a random plane: (corners, rotation).

    Its 3 to 12 corners sit at increasing angles at least 0.1 rad apart,
    the wrap-around gap included.
    """
    n = draw(st.integers(3, 12))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    gaps = 0.1 + (2.0 * math.pi - 0.1 * n) * weights / weights.sum()
    angles = np.cumsum(gaps) - gaps[0]
    rotation = quaternion_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return np.column_stack([np.cos(angles), np.sin(angles)]), rotation


def fan(ring, flip=False):
    """Triangles fanning a ring of vertex indices from its first."""
    tris = [(ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]
    return [t[::-1] for t in tris] if flip else tris


@given(circle_polygons())
@settings(deadline=None, max_examples=40)
def test_a_flat_polygon_fanned_on_both_sides_is_unbounded(polygon):
    xy, rotation = polygon
    n = len(xy)
    points = np.column_stack([xy, np.zeros(n)]) @ rotation.T
    # the back fans from the next corner, so no diagonal is shared
    mesh = TriangleMesh(points, fan(range(n)) + fan([*range(1, n), 0], flip=True))
    assert mesh.is_closed
    with pytest.raises(UnboundedRegion, match="^2 half-space"):
        encode_convex(mesh)


@given(circle_polygons(), st.floats(1e-3, 10.0))
@settings(deadline=None, max_examples=40)
def test_the_same_polygon_extruded_round_trips(polygon, height):
    xy, rotation = polygon
    n = len(xy)
    prism = np.vstack([np.column_stack([xy, np.zeros(n)]), np.column_stack([xy, np.full(n, height)])])
    sides = []
    for i in range(n):
        j = (i + 1) % n
        sides += [(i, j, n + j), (i, n + j, n + i)]
    mesh = TriangleMesh(prism @ rotation.T, fan(range(n), flip=True) + fan(range(n, 2 * n)) + sides)
    assert mesh.is_closed and mesh.is_consistently_oriented
    x, y = xy.T
    area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    code = encode_convex(mesh)
    assert len(code) == n + 2
    assert decode_convex(code).to_mesh().volume() == pytest.approx(area * height, rel=1e-6)
