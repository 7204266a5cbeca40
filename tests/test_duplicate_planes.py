"""A plane code that repeats a face plane exactly still decodes to a solid.

Qhull sees an exact duplicate once, so both copies carry the same ring
(``simplify`` merges duplicates through that), and the surface must
still list that face once, for a convex code and for a part of a
segmented one alike.
"""

import pathlib

import numpy as np

from planecode import (
    PartCode,
    PlaneSet,
    SegmentedCode,
    decode_convex,
    decode_segmented,
    encode_convex,
    encode_segmented,
    load_mesh,
    shapes,
    write_code,
)
from planecode.cli import main


def cube_code_with_a_repeat(cube_mesh):
    base = list(encode_convex(cube_mesh))
    return PlaneSet(base + [base[0]])


def test_repeated_plane_decodes_to_a_closed_manifold_cube(cube_mesh):
    poly = decode_convex(cube_code_with_a_repeat(cube_mesh))
    assert len(poly.faces) == 7
    mesh = poly.to_mesh()
    assert len(mesh.triangles) == 12
    assert mesh.is_closed and mesh.is_edge_manifold and mesh.is_consistently_oriented
    assert np.isclose(mesh.volume(), 1.0, rtol=1e-12)


def test_cli_decodes_a_repeated_plane_to_a_closed_mesh(capsys, tmp_path, cube_mesh):
    code_path = tmp_path / "dup.plnc"
    mesh_path = tmp_path / "dup.obj"
    code_path.write_bytes(write_code(cube_code_with_a_repeat(cube_mesh)))
    assert main(["decode", str(code_path), str(mesh_path)]) == 0
    assert "12 triangles" in capsys.readouterr().out
    back = load_mesh(pathlib.Path(mesh_path).read_bytes(), "obj")
    assert back.is_closed and back.is_edge_manifold
    assert abs(back.volume() - 1.0) < 1e-6


def notched_box_code_with_a_repeat():
    """encode_segmented(notched_box) with part 0's first face plane repeated."""
    code = encode_segmented(shapes.notched_box())
    part = code.parts[0]
    faces = PlaneSet(
        np.vstack([part.face_planes.triplets(), part.face_planes.triplets()[:1]])
    )
    return SegmentedCode(
        [PartCode(part.kind, faces, part.boundary_planes)] + code.parts[1:]
    )


def test_repeated_part_plane_decodes_to_the_same_closed_solid():
    solid = shapes.notched_box()
    mesh = decode_segmented(notched_box_code_with_a_repeat())
    assert mesh.is_closed and mesh.is_edge_manifold and mesh.is_consistently_oriented
    assert np.isclose(mesh.volume(), solid.volume(), rtol=1e-9)


def test_cli_decodes_a_repeated_part_plane_to_a_closed_mesh(capsys, tmp_path):
    code_path = tmp_path / "dup_seg.plnc"
    mesh_path = tmp_path / "dup_seg.obj"
    code_path.write_bytes(write_code(notched_box_code_with_a_repeat()))
    assert main(["decode", str(code_path), str(mesh_path)]) == 0
    capsys.readouterr()
    back = load_mesh(pathlib.Path(mesh_path).read_bytes(), "obj")
    assert back.is_closed and back.is_edge_manifold
    assert np.isclose(back.volume(), shapes.notched_box().volume(), rtol=1e-6)
