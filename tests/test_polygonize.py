"""Polygon faces, boundary cutting planes, and the segmented codec."""

import numpy as np
import pytest

from planecode import (
    BoundaryNotCuttable,
    EmptyRegion,
    NonSimpleBoundary,
    PartCode,
    PartUndecodable,
    PlaneSet,
    SegmentedCode,
    TriangleMesh,
    WeldMismatch,
    boundary_planes_for_part,
    decode_segmented,
    encode_convex,
    encode_segmented,
    polygonize_part,
    segment_mesh,
    shapes,
)
from planecode.cli import main
from planecode.mesh_io import write_obj
from planecode.polygonize import _pencil_plane
from planecode.segmentation import MeshPart, PartKind

EPS = 1e-12

CUBE_FACE_TRIPLETS = np.array(
    sorted(
        [
            (np.pi / 2, 0.0, 1.0),
            (np.pi / 2, np.pi / 2, 1.0),
            (np.pi / 2, np.pi, 0.0),
            (np.pi / 2, 3 * np.pi / 2, 0.0),
            (0.0, 0.0, 1.0),
            (np.pi, 0.0, 0.0),
        ]
    )
)


def face_triplets(faces):
    return np.array(sorted(f.plane for f in faces))


def signed_distances(planes, points):
    """(points, planes) array of omega . p - h."""
    return points @ planes.normals().T - planes.offsets()


def annulus_mesh():
    """A flat square sheet with a square hole: one coplanar patch, two rims."""
    outer = [(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0)]
    inner = [(1, 1, 0), (2, 1, 0), (2, 2, 0), (1, 2, 0)]
    tris = [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
            (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)]
    return TriangleMesh(np.array(outer + inner, dtype=float), np.array(tris))


def test_cube_part_polygonizes_to_six_quads(cube_mesh):
    (part,) = segment_mesh(cube_mesh)
    faces = polygonize_part(cube_mesh, part)
    assert len(faces) == 6
    assert sorted(len(f.boundary) for f in faces) == [4] * 6
    assert sorted(len(f.triangles) for f in faces) == [2] * 6
    covered = sorted(t for f in faces for t in f.triangles)
    assert covered == list(range(12))
    assert np.abs(face_triplets(faces) - CUBE_FACE_TRIPLETS).max() < EPS


def test_face_rings_are_ccw_and_start_at_the_smallest_index(cube_mesh):
    parts = segment_mesh(cube_mesh)
    for part in parts:
        for face in polygonize_part(cube_mesh, part):
            ring = cube_mesh.vertices[np.array(face.boundary)]
            nrm = np.zeros(3)
            for k in range(len(ring)):
                nrm += np.cross(ring[k], ring[(k + 1) % len(ring)])
            assert float(nrm @ PlaneSet([face.plane]).normals()[0]) > 0.0
            assert face.boundary[0] == min(face.boundary)


def test_open_box_keeps_five_faces_and_gets_one_cap_plane():
    mesh = shapes.open_box()
    (part,) = segment_mesh(mesh)
    faces = polygonize_part(mesh, part)
    assert len(faces) == 5
    caps = boundary_planes_for_part(mesh, part)
    assert len(caps) == 1
    ((nu, phi, h),) = caps
    assert abs(nu) < EPS
    assert abs(phi) < EPS
    assert abs(h - 1.0) < EPS


def test_a_closed_part_gets_an_empty_plane_set(cube_mesh):
    (part,) = segment_mesh(cube_mesh)
    cuts = boundary_planes_for_part(cube_mesh, part)
    assert isinstance(cuts, PlaneSet)
    assert cuts.triplets().shape == cuts.normals().shape == (0, 3)
    assert list(cuts) == []


def test_l_prism_parts_get_one_diagonal_cut_each():
    mesh = shapes.l_prism()
    parts = segment_mesh(mesh)
    assert len(parts) == 2
    cuts = []
    for part in parts:
        assert len(polygonize_part(mesh, part)) == 5
        planes = boundary_planes_for_part(mesh, part)
        assert len(planes) == 1
        cuts.append(planes)
        verts = mesh.vertices[np.unique(mesh.triangles[np.array(part.triangles)])]
        assert signed_distances(planes, verts).max() <= 1e-9
    got = np.array(sorted(c[0] for c in cuts))
    want = np.array([(np.pi / 4, np.pi, 0.0), (3 * np.pi / 4, 0.0, 0.0)])
    assert np.abs(got - want).max() < EPS
    # the two cuts slice the same chord from opposite sides, so each one
    # rejects at least one vertex of the other part
    other = [1, 0]
    for k, cut in enumerate(cuts):
        part = parts[other[k]]
        verts = mesh.vertices[np.unique(mesh.triangles[np.array(part.triangles)])]
        assert signed_distances(cut, verts).max() > 0.1


def test_staircase_parts_carry_four_cut_planes_each(staircase_mesh):
    parts = segment_mesh(staircase_mesh)
    assert [p.kind for p in parts] == [PartKind.PSEUDO_CONVEX, PartKind.PSEUDO_CONCAVE]
    assert [len(polygonize_part(staircase_mesh, p)) for p in parts] == [9, 5]
    assert [len(boundary_planes_for_part(staircase_mesh, p)) for p in parts] == [4, 4]


@pytest.mark.parametrize("name", ["open_box", "l_prism", "notched_box", "two_notch_box"])
def test_boundary_planes_keep_their_part_in_the_negative_half_space(name):
    mesh = getattr(shapes, name)()
    eps = 1e-7 * mesh.bbox_diagonal()
    for part in segment_mesh(mesh):
        verts = mesh.vertices[np.unique(mesh.triangles[np.array(part.triangles)])]
        planes = boundary_planes_for_part(mesh, part)
        assert (signed_distances(planes, verts) <= eps).all()


def test_flat_patch_with_a_hole_is_rejected():
    mesh = annulus_mesh()
    part = MeshPart(PartKind.PSEUDO_CONVEX, list(range(8)))
    with pytest.raises(NonSimpleBoundary, match="2 boundary loops"):
        polygonize_part(mesh, part)


def test_surrounded_boundary_edge_has_no_cutting_plane():
    p0 = np.array([0.0, 0.0, 0.0])
    p1 = np.array([1.0, 0.0, 0.0])
    crowd = np.array([[0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1],
                      [0.5, 0, -1], p0, p1])
    with pytest.raises(BoundaryNotCuttable):
        _pencil_plane(p0, p1, crowd, 2.0)


def test_segmented_code_orders_face_planes_canonically(staircase_mesh):
    code = encode_segmented(staircase_mesh)
    assert len(code) == 2
    for part in code:
        rows = [tuple(r) for r in part.face_planes.triplets()]
        assert rows == sorted(rows)
        assert len(part.boundary_planes) == 4


@pytest.mark.parametrize("name", ["tetrahedron", "l_prism", "notched_box", "two_notch_box"])
def test_decode_rebuilds_closed_solids(name):
    mesh = getattr(shapes, name)()
    back = decode_segmented(encode_segmented(mesh))
    assert back.is_closed
    assert back.is_consistently_oriented
    assert abs(back.volume() - mesh.volume()) <= 1e-9 * abs(mesh.volume())
    assert abs(back.surface_area() - mesh.surface_area()) <= 1e-9 * mesh.surface_area()


def test_decoding_an_empty_code_is_an_error():
    with pytest.raises(EmptyRegion):
        decode_segmented(SegmentedCode([]))


def test_a_part_whose_only_face_plane_is_redundant_leaves_no_faces(cube_mesh):
    # the plane z = 10 lies outside the cube its cutting planes bound
    part = PartCode(PartKind.PSEUDO_CONVEX, PlaneSet([(0.0, 0.0, 10.0)]), encode_convex(cube_mesh))
    with pytest.raises(EmptyRegion, match="^no faces survived decoding$"):
        decode_segmented(SegmentedCode([part]))


def test_underdetermined_part_reports_its_index(cube_mesh):
    whole = encode_segmented(cube_mesh).parts[0]
    bad = PartCode(whole.kind, PlaneSet(list(whole.face_planes)[:2]), PlaneSet([]))
    with pytest.raises(PartUndecodable, match="part 0") as err:
        decode_segmented(SegmentedCode([bad]))
    assert err.value.part_index == 0


def test_duplicated_parts_collide_in_the_weld(cube_mesh):
    part = encode_segmented(cube_mesh).parts[0]
    with pytest.raises(WeldMismatch):
        decode_segmented(SegmentedCode([part, part]))


def test_polygonize_is_stable_across_a_decode_round_trip(cube_mesh):
    first = polygonize_part(cube_mesh, segment_mesh(cube_mesh)[0])
    back = decode_segmented(encode_segmented(cube_mesh))
    again = polygonize_part(back, segment_mesh(back)[0])
    assert np.abs(face_triplets(first) - face_triplets(again)).max() < EPS


def caps_first_star_prism(k=4, outer=1.0, inner=0.45, height=0.6):
    """Extruded k-pointed star, cap fans from the centre listed before the sides."""
    t = np.pi * np.arange(2 * k) / k
    r = np.where(np.arange(2 * k) % 2 == 0, outer, inner)
    ring = np.column_stack([r * np.cos(t), r * np.sin(t)])
    m = len(ring)
    verts = [(x, y, 0.0) for x, y in ring] + [(x, y, height) for x, y in ring]
    verts += [(0.0, 0.0, 0.0), (0.0, 0.0, height)]
    bottom, top = 2 * m, 2 * m + 1
    tris = []
    for i in range(m):
        j = (i + 1) % m
        tris += [(top, m + i, m + j), (bottom, j, i)]
    for i in range(m):
        j = (i + 1) % m
        tris += [(i, j, m + j), (i, m + j, m + i)]
    return TriangleMesh(np.array(verts), tris)


def test_encoding_refuses_a_part_its_decoder_would_reject(tmp_path):
    star = caps_first_star_prism()
    assert star.is_closed and star.is_consistently_oriented
    with pytest.raises(PartUndecodable, match="part 0") as err:
        encode_segmented(star)
    assert err.value.part_index == 0

    mesh_path = tmp_path / "star.obj"
    mesh_path.write_text(write_obj(star))
    out = tmp_path / "star.plnc"
    assert main(["encode", str(mesh_path), str(out)]) == 3
    assert not out.exists()
