"""A plane code that repeats a face plane exactly still decodes to a solid.

Qhull sees an exact duplicate once, so both copies carry the same ring
(``simplify`` merges duplicates through that), and the surface must
still list that face once.
"""

import pathlib

import numpy as np

from planecode import PlaneSet, decode_convex, encode_convex, load_mesh, write_code
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
