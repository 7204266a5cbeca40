import numpy as np
import pytest

from planecode import TriangleMesh
from planecode import shapes


def test_cube_topology_flags(cube_mesh):
    assert cube_mesh.is_closed
    assert cube_mesh.is_edge_manifold
    assert cube_mesh.is_consistently_oriented
    assert cube_mesh.boundary_edges() == []
    assert all(len(nb) == 3 for nb in cube_mesh.neighbors)


def test_cube_measures(cube_mesh):
    assert cube_mesh.surface_area() == pytest.approx(6.0, abs=1e-12)
    assert cube_mesh.volume() == pytest.approx(1.0, abs=1e-12)
    assert cube_mesh.bbox_diagonal() == pytest.approx(np.sqrt(3.0))


def test_open_box_boundary():
    m = shapes.open_box()
    assert not m.is_closed
    assert m.is_edge_manifold
    border = m.boundary_edges()
    assert len(border) == 4
    # the rim edges chain into one directed loop around the opening
    succ = dict(border)
    start = border[0][0]
    seen = [start]
    at = succ[start]
    while at != start:
        seen.append(at)
        at = succ[at]
    assert sorted(seen) == [4, 5, 6, 7]


def test_flipped_triangle_breaks_orientation(cube_mesh):
    tris = cube_mesh.triangles.copy()
    tris[0] = tris[0][::-1]
    m = TriangleMesh(cube_mesh.vertices, tris)
    assert not m.is_consistently_oriented


def test_duplicated_triangle_breaks_manifoldness(cube_mesh):
    tris = np.vstack([cube_mesh.triangles, cube_mesh.triangles[:1]])
    m = TriangleMesh(cube_mesh.vertices, tris)
    assert not m.is_edge_manifold


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), [(0, 1, 3)])
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), [(0, -1, 2)])


def test_empty_mesh_measures():
    m = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert m.surface_area() == 0.0
    assert m.volume() == 0.0
    assert m.bbox_diagonal() == 0.0


def test_transforms_keep_topology(cube_mesh):
    moved = cube_mesh.translated((3.0, -1.0, 2.0))
    assert np.array_equal(moved.triangles, cube_mesh.triangles)
    assert moved.volume() == pytest.approx(1.0, abs=1e-12)
    r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    spun = cube_mesh.rotated(r)
    assert spun.volume() == pytest.approx(1.0, abs=1e-12)
    assert spun.surface_area() == pytest.approx(6.0, abs=1e-12)


def test_planes_are_built_once_and_read_only():
    from planecode.geometry import triangle_planes

    m = shapes.notched_box()
    normals, offsets = m.planes
    assert m.planes[0] is normals and m.planes[1] is offsets
    want_n, want_h = triangle_planes(*m.triangle_corners())
    assert normals.tobytes() == want_n.tobytes()
    assert offsets.tobytes() == want_h.tobytes()
    with pytest.raises(ValueError):
        normals[0, 0] = 1.0


def sliver_tetrahedron():
    """A closed tetrahedron whose face (0, 2, 1) has three collinear corners."""
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.5, 1.0, 1.0)]
    return TriangleMesh(verts, [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)])


def test_a_degenerate_triangle_raises_at_every_planes_read():
    from planecode import encode_convex, segment_mesh
    from planecode.errors import DegenerateTriangle, NotClosed

    m = sliver_tetrahedron()
    assert m.is_closed and m.is_consistently_oriented
    for call in (lambda: m.planes, lambda: encode_convex(m), lambda: segment_mesh(m)):
        with pytest.raises(DegenerateTriangle):
            call()
    # the closedness check still comes first
    with pytest.raises(NotClosed):
        encode_convex(TriangleMesh(m.vertices, m.triangles[:3]))
