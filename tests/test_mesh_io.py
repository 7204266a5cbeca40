import numpy as np
import pytest

from planecode import (
    ParseError,
    UnsupportedFeature,
    StorageReport,
    encode_convex,
    encode_segmented,
    load_mesh,
    storage_report,
    write_obj,
    write_stl_ascii,
    write_stl_binary,
)
from planecode.mesh import TriangleMesh
from planecode.mesh_io import count_coplanar_patches, total_plane_count
from planecode import shapes

OBJ_SAMPLE = """\
# a single square, mixed face syntax
v 0 0 0
v 1.5 0 0
v 1.5 1 0
vn 0 0 1
vt 0 0
v 0 1 0
f 1/1/1 2//1 3
f 1 3 -1
"""


def test_obj_parses_mixed_face_tokens():
    m = load_mesh(OBJ_SAMPLE.encode(), "obj")
    assert len(m.vertices) == 4
    assert np.allclose(m.vertices[1], [1.5, 0, 0])
    assert [tuple(t) for t in m.triangles] == [(0, 1, 2), (0, 2, 3)]


def test_obj_polygon_faces_fan_triangulate():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv -1 0.5 0\nf 1 2 3 4 5\n"
    m = load_mesh(text, "obj")
    assert [tuple(t) for t in m.triangles] == [(0, 1, 2), (0, 2, 3), (0, 3, 4)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("v 0 0\n", "line 1"),
        ("v a b c\n", "line 1"),
        ("v 0 0 0\nf 1 2\n", "line 2"),
        ("v 0 0 0\nf 1 1 9\n", "line 2"),
        ("v 0 0 0\nf 1 1 0\n", "index 0"),
        ("v 0 0 0\nf 1 x 1\n", "bad face index"),
        ("vn 0 0 1\n", "no vertices"),
    ],
)
def test_obj_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        load_mesh(text, "obj")
    assert fragment in str(err.value)


def test_obj_unsupported_elements_are_loud():
    with pytest.raises(UnsupportedFeature):
        load_mesh("v 0 0 0\nv 1 0 0\nl 1 2\n", "obj")
    with pytest.raises(UnsupportedFeature):
        load_mesh("cstype bezier\n", "obj")


def test_obj_ignores_groups_and_materials():
    text = "g lid\nusemtl steel\ns off\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    m = load_mesh(text, "obj")
    assert len(m.triangles) == 1


def test_obj_write_read_is_exact():
    rng = np.random.default_rng(3)
    m = shapes.random_hull_mesh(rng, 20)
    back = load_mesh(write_obj(m, comment="round trip"), "obj")
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.triangles, m.triangles)


def reference_write_obj(mesh, comment=None):
    """The row-by-row OBJ formatter write_obj must match byte for byte."""
    lines = []
    if comment:
        lines.append("# %s" % comment)
    for v in mesh.vertices:
        lines.append("v %r %r %r" % (float(v[0]), float(v[1]), float(v[2])))
    for t in mesh.triangles:
        lines.append("f %d %d %d" % (t[0] + 1, t[1] + 1, t[2] + 1))
    return "\n".join(lines) + "\n"


def test_obj_text_matches_the_row_by_row_formatter():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(5)
    sphere = rng.normal(size=(64, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    hull = TriangleMesh(sphere, ConvexHull(sphere).simplices)
    assert len(hull.triangles) == 124
    signed_zeros = TriangleMesh(
        [[-0.0, 0.0, 1e-300], [1.0, -0.0, -2.5], [0.1, 1 / 3, -0.0]], [[0, 1, 2]]
    )
    for mesh in (hull, signed_zeros, shapes.cube()):
        for comment in (None, "", "made by planecode"):
            assert write_obj(mesh, comment) == reference_write_obj(mesh, comment)
    assert "v -0.0 0.0 1e-300\n" in write_obj(signed_zeros)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        load_mesh(b"", "ply")


def test_stl_binary_round_trip(cube_mesh):
    data = write_stl_binary(cube_mesh, header=b"lid")
    assert len(data) == 84 + 50 * 12
    back = load_mesh(data, "stl")
    assert len(back.vertices) == 8
    assert len(back.triangles) == 12
    assert back.is_closed
    assert back.volume() == pytest.approx(1.0, abs=1e-12)


def test_stl_ascii_round_trip(cube_mesh):
    text = write_stl_ascii(cube_mesh, name="box")
    assert text.startswith("solid box")
    back = load_mesh(text.encode(), "stl")
    assert len(back.vertices) == 8
    assert len(back.triangles) == 12


def test_stl_sniffing_prefers_byte_exact_binary():
    """A binary file whose header begins with 'solid' still parses as binary."""
    cube = shapes.cube()
    data = write_stl_binary(cube, header=b"solid tricky")
    back = load_mesh(data, "stl")
    assert len(back.triangles) == 12


@pytest.mark.parametrize(
    "text",
    [
        "solid a\nvertex 0 0 0\nendsolid a\n",
        "solid a\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nendloop\nendsolid\n",
        "solid a\nouter loop\nvertex 0 0 zz\nendloop\nendsolid\n",
        "solid a\nwat 1 2 3\nendsolid\n",
        "solid a\nendsolid a\n",
    ],
)
def test_stl_ascii_errors(text):
    with pytest.raises(ParseError):
        load_mesh(text, "stl-ascii")


def test_stl_binary_errors():
    with pytest.raises(ParseError):
        load_mesh(b"\x00" * 40, "stl-binary")
    bad = write_stl_binary(shapes.cube())[:-10]
    with pytest.raises(ParseError):
        load_mesh(bad, "stl-binary")


def test_storage_report_triangle_accounting(cube_mesh):
    code = encode_convex(cube_mesh)
    rep = storage_report(cube_mesh, code)
    assert rep.plane_count == 6
    assert rep.plane_bytes == 72
    assert rep.indexed_bytes == 12 * 8 + 12 * 12
    assert rep.ratio == 240 / 72
    assert rep.quad_count is None
    keys = [k for k, _ in rep.as_pairs()]
    assert keys == [
        "plane_count", "vertex_count", "triangle_count",
        "plane_bytes", "indexed_bytes", "ratio",
    ]


def test_storage_report_quad_accounting(cube_mesh):
    rep = storage_report(cube_mesh, encode_convex(cube_mesh), quad_accounting=True)
    assert rep.quad_count == 6
    assert rep.indexed_bytes == 12 * 8 + 48 * 6
    assert ("quad_count", 6) in rep.as_pairs()


def test_total_plane_count_for_both_code_kinds(staircase_mesh):
    assert total_plane_count(encode_convex(shapes.cube())) == 6
    seg = encode_segmented(staircase_mesh)
    assert total_plane_count(seg) == 22


def test_coplanar_patch_counts(corpus_meshes):
    # the l_prism cap pieces are coplanar across the chord and merge,
    # so its 10 quads make only 8 patches
    expected = {
        "cube": 6,
        "tetrahedron": 4,
        "open_box": 5,
        "l_prism": 8,
        "notched_box": 14,
        "two_notch_box": 22,
    }
    for name, mesh in corpus_meshes.items():
        assert count_coplanar_patches(mesh) == expected[name], name


def test_patch_count_uses_the_encoders_slack():
    # a 0.01 cube far from the origin whose top face is bent by 1e-10:
    # encode_convex splits that face, so the patch count must split it too
    cube = shapes.cube()
    vertices = cube.vertices * 0.01 + np.array([3.0, -3.0, 0.0])
    vertices[5, 2] -= 1e-10
    mesh = TriangleMesh(vertices, cube.triangles)
    assert count_coplanar_patches(mesh) == len(encode_convex(mesh)) == 7


def test_report_math_is_plain_arithmetic():
    rep = StorageReport(22, 16, 28, quad_count=14)
    assert rep.plane_bytes == 264
    assert rep.indexed_bytes == 12 * 16 + 48 * 14
    assert rep.ratio == pytest.approx(864 / 264)
