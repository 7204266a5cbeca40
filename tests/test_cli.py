"""The planecode command line, driven in process through main()."""

import pathlib
import warnings

import numpy as np
import pytest

from planecode import (
    PlaneSet,
    SegmentedCode,
    TriangleMesh,
    decode_convex,
    encode_convex,
    load_mesh,
    read_code,
    shapes,
    write_code,
    write_obj,
    write_stl_binary,
)
from planecode.cli import main

from conftest import SNAN, thin_notched_box


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def cube_obj(tmp_path, cube_mesh):
    path = tmp_path / "cube.obj"
    path.write_text(write_obj(cube_mesh))
    return str(path)


@pytest.fixture
def staircase_obj(tmp_path, staircase_mesh):
    path = tmp_path / "staircase.obj"
    path.write_text(write_obj(staircase_mesh))
    return str(path)


def test_encode_reports_a_convex_cube(capsys, tmp_path, cube_obj, cube_mesh):
    out_path = tmp_path / "cube.plnc"
    rc, out, _ = run(capsys, "encode", cube_obj, str(out_path))
    assert rc == 0
    assert "convex code: 6 planes, 72 payload bytes" in out
    assert out_path.read_bytes() == write_code(encode_convex(cube_mesh).sorted_canonical())


def test_encode_degrees_prints_the_plane_table(capsys, tmp_path, cube_obj):
    rc, out, _ = run(capsys, "encode", cube_obj, str(tmp_path / "c.plnc"), "--degrees")
    assert rc == 0
    assert "nu (deg)" in out
    rows = [line for line in out.splitlines() if "90.000000" in line]
    assert len(rows) >= 4


def test_decode_writes_a_closed_mesh_back(capsys, tmp_path, cube_obj):
    code_path = str(tmp_path / "c.plnc")
    mesh_path = str(tmp_path / "back.obj")
    run(capsys, "encode", cube_obj, code_path)
    rc, out, _ = run(capsys, "decode", code_path, mesh_path)
    assert rc == 0
    assert "decoded 8 vertices, 12 triangles -> %s" % mesh_path in out
    back = load_mesh(pathlib.Path(mesh_path).read_bytes(), "obj")
    assert back.is_closed
    # the code file stores float32 angles, so the corners move by ~5e-8
    assert abs(back.volume() - 1.0) < 1e-6


def test_decode_can_emit_binary_stl(capsys, tmp_path, cube_obj):
    code_path = str(tmp_path / "c.plnc")
    stl_path = tmp_path / "back.stl"
    run(capsys, "encode", cube_obj, code_path)
    rc, _, _ = run(capsys, "decode", code_path, str(stl_path))
    assert rc == 0
    assert stl_path.stat().st_size == 84 + 50 * 12


def test_encode_decode_encode_is_byte_identical(capsys, tmp_path, cube_obj):
    c1 = tmp_path / "c1.plnc"
    c2 = tmp_path / "c2.plnc"
    back = tmp_path / "back.obj"
    run(capsys, "encode", cube_obj, str(c1))
    run(capsys, "decode", str(c1), str(back))
    rc, _, _ = run(capsys, "encode", str(back), str(c2))
    assert rc == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_encode_falls_back_to_segmentation(capsys, tmp_path, staircase_obj):
    rc, out, _ = run(capsys, "encode", staircase_obj, str(tmp_path / "s.plnc"))
    assert rc == 0
    assert "segmented code: 2 parts, 22 planes, 264 payload bytes" in out


def test_segment_prints_the_part_table(capsys, staircase_obj):
    rc, out, _ = run(capsys, "segment", staircase_obj)
    assert rc == 0
    lines = out.splitlines()
    assert "part 0: pseudo-convex, 18 triangles, 9 face planes, 4 boundary planes" in lines
    assert "part 1: pseudo-concave, 10 triangles, 5 face planes, 4 boundary planes" in lines
    assert "total: 2 parts, 22 planes" in lines


def test_segment_degrees_prints_each_parts_face_planes(capsys, staircase_obj):
    rc, out, _ = run(capsys, "segment", staircase_obj, "--degrees")
    assert rc == 0
    lines = out.splitlines()
    head = ["nu", "(deg)", "phi", "(deg)", "h"]
    assert [i for i, line in enumerate(lines) if line.split() == head] == [1, 12]
    assert lines[0].startswith("part 0: ") and lines[11].startswith("part 1: ")
    rows = lines[2:11] + lines[13:18]
    assert len(rows) == 9 + 5
    assert all(len(row.split()) == 3 for row in rows)
    assert lines[18:] == ["total: 2 parts, 22 planes"]


def test_simplify_merges_prism_sides(capsys, tmp_path):
    code_path = tmp_path / "prism.plnc"
    out_path = tmp_path / "merged.plnc"
    code_path.write_bytes(write_code(shapes.ngon_prism_code(32)))
    rc, out, _ = run(capsys, "simplify", str(code_path), str(out_path), "--tau", "15")
    assert rc == 0
    assert "planes: 34 -> 18" in out
    assert len(read_code(out_path.read_bytes())) == 18


def test_a_negative_delta_exits_2_with_one_line(capsys, tmp_path, cube_obj):
    c1 = tmp_path / "c.plnc"
    run(capsys, "encode", cube_obj, str(c1))
    got = run(capsys, "simplify", str(c1), str(tmp_path / "o.plnc"), "--delta", "-1")
    assert got == (2, "", "ValueError: delta must be >= 0, got -1.0\n")
    assert not (tmp_path / "o.plnc").exists()


def test_simplify_without_options_copies_the_code(capsys, tmp_path, cube_obj):
    c1 = tmp_path / "c1.plnc"
    c2 = tmp_path / "c2.plnc"
    run(capsys, "encode", cube_obj, str(c1))
    rc, out, _ = run(capsys, "simplify", str(c1), str(c2))
    assert rc == 0
    assert "planes: 6 -> 6" in out
    assert c2.read_bytes() == c1.read_bytes()


def test_stats_accounts_quads_when_asked(capsys, tmp_path, staircase_obj):
    code_path = str(tmp_path / "s.plnc")
    run(capsys, "encode", staircase_obj, code_path)
    rc, out, _ = run(capsys, "stats", staircase_obj, code_path)
    assert rc == 0
    assert "3.2727" not in out
    rc, out, _ = run(
        capsys, "stats", staircase_obj, code_path, "--quad-accounting", "--machine"
    )
    assert rc == 0
    assert "plane_bytes=264" in out
    assert "indexed_bytes=864" in out
    assert "quad_count=14" in out


@pytest.mark.parametrize("empty", [PlaneSet([]), SegmentedCode([])], ids=["convex", "segmented"])
def test_stats_of_a_code_without_planes_reports_an_infinite_ratio(capsys, tmp_path, cube_obj, empty):
    code_path = tmp_path / "empty.plnc"
    code_path.write_bytes(write_code(empty))
    rc, out, _ = run(capsys, "stats", cube_obj, str(code_path))
    assert rc == 0
    assert "plane_bytes     0" in out
    assert out.splitlines()[-1].split() == ["ratio", "inf"]
    rc, out, _ = run(capsys, "stats", cube_obj, str(code_path), "--machine")
    assert rc == 0
    assert "plane_bytes=0" in out
    assert "ratio=inf" in out.splitlines()


def test_missing_input_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, "encode", str(tmp_path / "nope.obj"), str(tmp_path / "o.plnc"))
    assert rc == 2
    assert "OSError" in err


def test_unknown_extension_exits_2(capsys, tmp_path):
    path = tmp_path / "mesh.xyz"
    path.write_text("not a mesh")
    rc, _, err = run(capsys, "encode", str(path), str(tmp_path / "o.plnc"))
    assert rc == 2
    assert "ParseError" in err


def test_bad_mesh_syntax_exits_2(capsys, tmp_path):
    path = tmp_path / "short.obj"
    path.write_text("v 1 2\n")
    rc, _, err = run(capsys, "encode", str(path), str(tmp_path / "o.plnc"))
    assert rc == 2
    assert "line 1" in err


def test_unbounded_code_exits_3(capsys, tmp_path, cube_mesh):
    slab = encode_convex(cube_mesh)
    code_path = tmp_path / "slab.plnc"
    from planecode import PlaneSet

    code_path.write_bytes(write_code(PlaneSet(list(slab)[:3])))
    rc, _, err = run(capsys, "decode", str(code_path), str(tmp_path / "o.obj"))
    assert rc == 3
    assert "UnboundedRegion" in err


@pytest.mark.parametrize(
    "obj",
    ["v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 3 2\n", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"],
    ids=["two-sided triangle", "no faces"],
)
def test_encoding_a_mesh_without_volume_exits_3_and_writes_nothing(capsys, tmp_path, obj):
    mesh_path = tmp_path / "flat.obj"
    mesh_path.write_text(obj)
    code_path = tmp_path / "flat.plnc"
    rc, out, err = run(capsys, "encode", str(mesh_path), str(code_path))
    assert (rc, out) == (3, "")
    assert err.startswith("UnboundedRegion: ")
    assert not code_path.exists()


@pytest.mark.parametrize(
    "scale, rc, err",
    [
        # corners that overflow every triangle's squared cross norm
        (1e300, 3, "DegenerateTriangle: triangle 0: squared cross norm inf outside (1e-12, inf)"),
        # plane offsets that no float32 record holds
        (1e39, 4, "AngleOutOfRange: plane record 0 holds (nu=0.0, phi=0.0, h=inf)"),
    ],
)
def test_a_huge_mesh_exits_with_one_line(capsys, tmp_path, cube_mesh, scale, rc, err):
    """Encode refuses it in one stderr line, with no numpy warning, and writes nothing."""
    mesh_path = tmp_path / "huge.obj"
    mesh_path.write_text(write_obj(TriangleMesh(cube_mesh.vertices * scale, cube_mesh.triangles)))
    code_path = tmp_path / "huge.plnc"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run(capsys, "encode", str(mesh_path), str(code_path))
    assert [str(w.message) for w in caught] == []
    assert got == (rc, "", err + "\n")
    assert not code_path.exists()


def test_a_qhull_report_exits_with_one_line(capsys, tmp_path):
    """Qhull's report is cut to its first line in the EmptyRegion text."""
    # the cube with its top face below its bottom is empty; a negative
    # --eps lets its Chebyshev centre through, and Qhull refuses to
    # intersect from that point with a report of ten lines
    cube = encode_convex(shapes.cube())
    top = cube.normals()[:, 2] == 1.0
    code = PlaneSet.from_normals(cube.normals(), np.where(top, -1e-3, cube.offsets()))
    code_path = tmp_path / "inverted.plnc"
    code_path.write_bytes(write_code(code))
    rc, out, err = run(
        capsys, "decode", str(code_path), str(tmp_path / "o.obj"), "--eps", "-1"
    )
    assert (rc, out) == (3, "")
    assert err.startswith("EmptyRegion: half-space intersection failed: QH6023 ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_a_1e15_by_1e12_box_round_trips(capsys, tmp_path, cube_mesh):
    # a flat box at this scale refuses the least-squares centre, and the
    # lifted hull of its planes lost its precision before the decode
    # worked in unit scale
    scale = np.array([1e15, 1e15, 1e12])
    code = encode_convex(TriangleMesh(cube_mesh.vertices * scale, cube_mesh.triangles))
    code_path = tmp_path / "box15.plnc"
    code_path.write_bytes(write_code(code))
    out_path = tmp_path / "o.obj"
    rc, _, err = run(capsys, "decode", str(code_path), str(out_path))
    assert (rc, err) == (0, "")
    back = load_mesh(out_path.read_text(), "obj")
    assert back.is_closed
    # float32 angles move a 1000:1 box by 7.5e-5 of its volume at any scale
    assert back.volume() == pytest.approx(1e42, rel=1e-4)


def test_a_cube_scaled_by_1e15_round_trips(capsys, tmp_path, cube_mesh):
    mesh = TriangleMesh(cube_mesh.vertices * 1e15, cube_mesh.triangles)
    code = read_code(write_code(encode_convex(mesh)))
    assert decode_convex(code).to_mesh().volume() == pytest.approx(1e45, rel=1e-7)
    code_path = tmp_path / "c15.plnc"
    code_path.write_bytes(write_code(code))
    out_path = tmp_path / "c15.obj"
    rc, _, err = run(capsys, "decode", str(code_path), str(out_path))
    assert (rc, err) == (0, "")
    back = load_mesh(out_path.read_text(), "obj")
    assert back.is_closed
    assert back.volume() == pytest.approx(1e45, rel=1e-7)


def test_junk_code_exits_4(capsys, tmp_path, cube_obj):
    rc, _, err = run(capsys, "decode", cube_obj, str(tmp_path / "o.obj"))
    assert rc == 4
    assert "BadMagic" in err


def run_quietly(capsys, *argv):
    """``run``, asserting that no warning was emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return got


def test_a_signalling_nan_record_exits_4_with_one_line(capsys, tmp_path, cube_mesh):
    data = bytearray(write_code(encode_convex(cube_mesh)))
    data[10 + 12 * 2 + 8: 10 + 12 * 2 + 12] = SNAN  # record 2's offset
    code_path = tmp_path / "snan.plnc"
    code_path.write_bytes(bytes(data))
    rc, out, err = run_quietly(capsys, "decode", str(code_path), str(tmp_path / "o.obj"))
    assert (rc, out) == (4, "")
    assert err.startswith("AngleOutOfRange: plane record 2 holds (") and err.endswith("h=nan)\n")
    assert err.count("\n") == 1


def test_a_signalling_nan_corner_exits_2_with_one_line(capsys, tmp_path, cube_mesh):
    data = bytearray(write_stl_binary(cube_mesh))
    data[84 + 50 * 4 + 12 + 4 * 5: 84 + 50 * 4 + 12 + 4 * 6] = SNAN  # facet 4, second corner
    mesh_path = tmp_path / "snan.stl"
    mesh_path.write_bytes(bytes(data))
    got = run_quietly(capsys, "encode", str(mesh_path), str(tmp_path / "o.plnc"))
    assert got == (2, "", "ParseError: facet 4 has a non-finite vertex coordinate\n")
    assert not (tmp_path / "o.plnc").exists()


def test_the_parser_is_built_once_per_process():
    import planecode.cli

    assert planecode.cli.build_parser() is planecode.cli.build_parser()


def test_successive_calls_do_not_leak_arguments(capsys, monkeypatch):
    import planecode.cli

    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    for name in ("encode", "decode"):
        monkeypatch.setitem(planecode.cli._COMMANDS, name, record)
    assert main(["encode", "a.obj", "a.plnc", "--eps", "1e-6"]) == 0
    assert main(["encode", "b.obj", "b.plnc"]) == 0
    assert main(["decode", "b.plnc", "b.stl", "--format", "stl"]) == 0
    assert main(["decode", "c.plnc", "c.obj"]) == 0
    assert seen == [
        {"command": "encode", "mesh": "a.obj", "out": "a.plnc", "eps": 1e-6, "degrees": False},
        {"command": "encode", "mesh": "b.obj", "out": "b.plnc", "eps": None, "degrees": False},
        {"command": "decode", "code": "b.plnc", "out": "b.stl", "format": "stl", "eps": None},
        {"command": "decode", "code": "c.plnc", "out": "c.obj", "format": None, "eps": None},
    ]


def uncached_exit(capsys, argv):
    """Exit code, stdout and stderr of a parser built afresh for this call."""
    import planecode.cli

    with pytest.raises(SystemExit) as exc:
        planecode.cli.build_parser.__wrapped__().parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["encode"],
    ["decode", "a.plnc", "b.obj", "--format", "ply"],
    ["simplify", "a.plnc", "b.plnc", "--tau", "wide"],
    ["frobnicate"],
    [],
])
def test_bad_arguments_exit_2_with_the_usage_of_a_fresh_parser(capsys, argv):
    expected = uncached_exit(capsys, argv)
    assert expected[0] == 2 and "usage: planecode" in expected[2]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == expected


@pytest.mark.parametrize("argv", [["--help"], ["encode", "--help"], ["stats", "--help"]])
def test_help_matches_a_fresh_parser(capsys, argv):
    expected = uncached_exit(capsys, argv)
    assert expected[0] == 0 and expected[1].startswith("usage: planecode")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == expected


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["encode", "segment"])
def test_a_nan_infinite_or_negative_encode_slack_exits_2(capsys, tmp_path, command, eps):
    mesh_path = tmp_path / "l.obj"
    mesh_path.write_text(write_obj(shapes.l_prism()))
    out_path = tmp_path / "l.plnc"
    argv = [command, str(mesh_path)] + ([str(out_path)] if command == "encode" else [])
    rc, out, err = run(capsys, *argv, "--eps=" + eps)
    assert (rc, out) == (2, "")
    assert err == "ValueError: eps must be finite and >= 0, got %r\n" % float(eps)
    assert not out_path.exists()


@pytest.mark.parametrize("mesh", ["cube", "l_prism"])
@pytest.mark.parametrize(
    "command,extra",
    [
        pytest.param("decode", [], id="decode"),
        # simplify decodes only when a pass runs; with none, eps is still read
        pytest.param("simplify", ["--delta", "0.5"], id="simplify"),
        pytest.param("simplify", ["--delta", "0", "--tau", "0"], id="simplify-no-pass"),
    ],
)
def test_a_nan_decode_radius_exits_2(capsys, tmp_path, command, extra, mesh):
    mesh_path = tmp_path / "m.obj"
    mesh_path.write_text(write_obj(getattr(shapes, mesh)()))
    code_path = tmp_path / "m.plnc"
    assert run(capsys, "encode", str(mesh_path), str(code_path))[0] == 0
    out_path = tmp_path / ("o.obj" if command == "decode" else "o.plnc")
    rc, out, err = run(capsys, command, str(code_path), str(out_path), "--eps=nan", *extra)
    assert (rc, out, err) == (2, "", "ValueError: eps must not be NaN\n")
    assert not out_path.exists()


def test_a_thin_solid_encodes_at_a_large_slack_and_decodes(capsys, tmp_path):
    mesh_path = tmp_path / "thin.obj"
    mesh_path.write_text(write_obj(thin_notched_box()))
    code_path = tmp_path / "thin.plnc"
    rc, out, err = run(capsys, "encode", str(mesh_path), str(code_path), "--eps", "1e-3")
    assert (rc, err) == (0, "")
    assert out.startswith("segmented code: 2 parts, ")
    out_path = tmp_path / "o.obj"
    rc, _, err = run(capsys, "decode", str(code_path), str(out_path))
    assert (rc, err) == (0, "")
    assert load_mesh(out_path.read_text(), "obj").is_closed
