"""Mesh file edge cases: the binary STL writer against the per-record
packer it replaced, and non-finite coordinates in every reader."""

import struct
import warnings

import numpy as np
import pytest

from planecode import ParseError, load_mesh, write_stl_binary
from planecode import shapes
from planecode.cli import main
from planecode.mesh import TriangleMesh
from planecode.mesh_io import _facet_normals, write_stl_ascii

from conftest import SNAN

_STL_RECORD = struct.Struct("<12fH")


def reference_write_stl_binary(mesh, header=b""):
    head = (header or b"planecode mesh")[:80].ljust(80, b"\x00")
    parts = [head, struct.pack("<I", len(mesh.triangles))]
    p1, p2, p3 = mesh.triangle_corners()
    normals = _facet_normals(p1, p2, p3)
    for t in range(len(mesh.triangles)):
        rec = _STL_RECORD.pack(
            *normals[t].astype(np.float32),
            *p1[t].astype(np.float32),
            *p2[t].astype(np.float32),
            *p3[t].astype(np.float32),
            0,
        )
        parts.append(rec)
    return b"".join(parts)


def _meshes():
    degenerate = TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[0, 1, 2]]
    )
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    hull = shapes.random_hull_mesh(np.random.default_rng(5), 40)
    return [shapes.cube(), shapes.notched_box(), hull, degenerate, empty]


@pytest.mark.parametrize("header", [b"", b"solid tricky", b"h" * 100])
def test_binary_stl_bytes_match_the_record_packer(header):
    for mesh in _meshes():
        assert write_stl_binary(mesh, header) == reference_write_stl_binary(mesh, header)


OBJ_NAN = "v 0 0 0\nv 1 0 0\nv 0 nan 0\nf 1 2 3\n"
STL_INF = (
    "solid a\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\n"
    "vertex 1 0 0\nvertex 0 1 -inf\nendloop\nendfacet\nendsolid a\n"
)


def _binary_with(mesh, facet, slot, value):
    """Binary STL of ``mesh`` with one float of one facet replaced;
    slot 0-2 is the normal, 3-11 the corners."""
    data = bytearray(write_stl_binary(mesh))
    struct.pack_into("<f", data, 84 + 50 * facet + 4 * slot, value)
    return bytes(data)


def test_non_finite_coordinates_are_parse_errors_naming_the_line_or_facet():
    with pytest.raises(ParseError, match="line 3: non-finite"):
        load_mesh(OBJ_NAN, "obj")
    with pytest.raises(ParseError, match="line 6: non-finite"):
        load_mesh(STL_INF, "stl-ascii")
    with pytest.raises(ParseError, match="facet 7 has a non-finite"):
        load_mesh(_binary_with(shapes.cube(), 7, 5, float("nan")), "stl-binary")
    with pytest.raises(ParseError, match="facet 0 has a non-finite"):
        load_mesh(_binary_with(shapes.cube(), 0, 11, float("inf")), "stl-binary")


def test_binary_stl_facet_normals_stay_ignored():
    cube = shapes.cube()
    back = load_mesh(_binary_with(cube, 3, 1, float("nan")), "stl-binary")
    assert back.vertices.tolist() == load_mesh(write_stl_binary(cube), "stl").vertices.tolist()
    ascii_nan = write_stl_ascii(cube).replace("facet normal", "facet normal nan", 1)
    assert len(load_mesh(ascii_nan, "stl-ascii").triangles) == 12


@pytest.mark.parametrize(
    "name, payload",
    [
        ("nan.obj", OBJ_NAN.encode()),
        ("inf.stl", STL_INF.encode()),
        ("nan.stl", _binary_with(shapes.cube(), 2, 4, float("nan"))),
    ],
    ids=["obj", "stl-ascii", "stl-binary"],
)
def test_cli_rejects_non_finite_coordinates_with_exit_2(capsys, tmp_path, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    rc = main(["encode", str(path), str(tmp_path / "o.plnc")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("ParseError")
    assert "non-finite" in err


def test_a_signalling_nan_corner_is_a_parse_error_without_a_warning():
    data = bytearray(write_stl_binary(shapes.cube()))
    data[84 + 50 * 4 + 4 * 7: 84 + 50 * 4 + 4 * 8] = SNAN  # facet 4, second corner y
    payload = bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for fmt in ("stl", "stl-binary"):
            with pytest.raises(ParseError, match="facet 4 has a non-finite"):
                load_mesh(payload, fmt)
    assert [str(w.message) for w in caught] == []


def test_stl_text_passed_as_str_is_sniffed_as_ascii():
    text = write_stl_ascii(shapes.cube())
    got = load_mesh(text, "stl")
    want = load_mesh(text, "stl-ascii")
    assert got.vertices.tolist() == want.vertices.tolist()
    assert got.triangles.tolist() == want.triangles.tolist()
    with pytest.raises(ParseError, match="line 6: non-finite"):
        load_mesh(STL_INF, "stl")


def test_bytes_shorter_than_the_binary_header_are_a_parse_error():
    with pytest.raises(ParseError, match="binary STL shorter than its 84-byte header"):
        load_mesh(b"abc", "stl")


def test_ascii_stl_skips_blank_lines_and_refuses_a_short_vertex():
    text = write_stl_ascii(shapes.cube())
    spaced = "\n\n".join(text.splitlines()) + "\n"
    got, want = load_mesh(spaced, "stl-ascii"), load_mesh(text, "stl-ascii")
    assert got.vertices.tolist() == want.vertices.tolist()
    assert got.triangles.tolist() == want.triangles.tolist()
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == "vertex")
    lines[at] = "vertex 0 1"
    with pytest.raises(ParseError, match="line %d: vertex needs 3 coordinates" % (at + 1)):
        load_mesh("\n".join(lines), "stl-ascii")
