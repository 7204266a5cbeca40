"""Lossy passes: small-face dropping and near-parallel merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import (
    EmptyRegion,
    OverSimplified,
    PartCode,
    PartUndecodable,
    PlaneSet,
    SegmentedCode,
    SimplifyParams,
    decode_convex,
    decode_segmented,
    encode_convex,
    encode_segmented,
    read_code,
    shapes,
    simplify_code,
    write_code,
)
from planecode.cli import main
from planecode.simplify import _face_adjacency

CUBE_TRIPLETS = np.array(
    sorted(
        [
            (0.0, 0.0, 1.0),
            (np.pi / 2, 0.0, 1.0),
            (np.pi / 2, np.pi / 2, 1.0),
            (np.pi / 2, np.pi, 0.0),
            (np.pi / 2, 3 * np.pi / 2, 0.0),
            (np.pi, 0.0, 0.0),
        ]
    )
)


# a redundant plane beyond the unit cube's +x face
FAR_X_PLANE = PlaneSet.from_normals([(1, 0, 0)], [2.0])


def sorted_triplets(planes):
    return np.array(sorted(tuple(r) for r in planes.sorted_canonical().triplets()))


def thin_hex_prism():
    """Hexagonal cross-section 0.01 wide but 2 long: tiny caps, big sides."""
    apothem = 0.01 * np.cos(np.pi / 6)
    a = 2 * np.pi * np.arange(6) / 6
    sides = np.column_stack([np.cos(a), np.sin(a), np.zeros(6)])
    normals = np.vstack([sides, [(0, 0, 1), (0, 0, -1)]])
    return PlaneSet.from_normals(normals, [apothem] * 6 + [1.0, 1.0])


@pytest.mark.parametrize("delta,tau", [(-1.0, 0.0), (0.0, -0.1), (0.0, np.pi / 2), (0.0, 4.0)])
def test_params_reject_out_of_range_values(delta, tau):
    with pytest.raises(ValueError):
        SimplifyParams(delta=delta, tau=tau)


def test_params_default_to_the_identity():
    p = SimplifyParams()
    assert p.delta == 0.0 and p.tau == 0.0
    SimplifyParams(delta=5.0, tau=np.pi / 2 - 1e-9)


def test_zero_delta_keeps_every_plane_even_redundant_ones(cube_mesh):
    code = PlaneSet.concatenate([encode_convex(cube_mesh), FAR_X_PLANE])
    out = simplify_code(code, SimplifyParams(delta=0.0))
    assert list(out) == list(code)


def test_tiny_delta_discards_only_the_faceless_plane(cube_mesh):
    code = PlaneSet.concatenate([encode_convex(cube_mesh), FAR_X_PLANE])
    out = simplify_code(code, SimplifyParams(delta=1e-9))
    assert len(out) == 6
    assert np.abs(sorted_triplets(out) - CUBE_TRIPLETS).max() < 1e-12


def test_delta_below_the_smallest_face_area_changes_nothing():
    code = shapes.chamfered_cube_code()
    out = simplify_code(code, SimplifyParams(delta=1e-5))
    assert np.abs(sorted_triplets(out) - sorted_triplets(code)).max() == 0.0


def test_moderate_delta_drops_exactly_the_chamfer_plane():
    out = simplify_code(shapes.chamfered_cube_code(), SimplifyParams(delta=0.05))
    assert len(out) == 6
    assert np.abs(sorted_triplets(out) - CUBE_TRIPLETS).max() < 1e-12


def test_overshooting_delta_is_rejected(cube_mesh):
    with pytest.raises(OverSimplified, match="0 plane"):
        simplify_code(encode_convex(cube_mesh), SimplifyParams(delta=1e9))


def test_dropping_the_caps_of_a_thin_prism_is_rejected():
    # the six side planes that survive cannot bound a volume on their own
    with pytest.raises(OverSimplified, match="do not bound a solid"):
        simplify_code(thin_hex_prism(), SimplifyParams(delta=1e-3))


def test_duplicate_planes_merge_to_the_shared_plane(cube_mesh):
    base = encode_convex(cube_mesh)
    doubled = PlaneSet(list(base) + [list(base)[0]])
    out = simplify_code(doubled, SimplifyParams(tau=np.radians(1)))
    assert len(out) == 6
    assert np.abs(sorted_triplets(out) - sorted_triplets(base)).max() == 0.0


def test_near_parallel_prism_sides_merge_in_pairs():
    code = shapes.ngon_prism_code(32)
    out = simplify_code(code, SimplifyParams(tau=np.radians(15.0)))
    assert len(out) == 18
    nu = sorted_triplets(out)[:, 0]
    assert np.count_nonzero(nu < 1e-9) == 1
    assert np.count_nonzero(nu > np.pi - 1e-9) == 1
    v_in = decode_convex(code).to_mesh().volume()
    v_out = decode_convex(out).to_mesh().volume()
    assert abs(v_out - v_in) / v_in < 1e-3


def test_cube_face_adjacency_is_the_twelve_edges(cube_mesh):
    poly = decode_convex(encode_convex(cube_mesh))
    pairs = _face_adjacency(poly)
    assert len(pairs) == 12
    normals = poly.planes.normals()
    for a, b in pairs:
        assert abs(normals[a] @ normals[b]) < 1e-12


def test_default_params_return_the_input_object(cube_mesh):
    code = encode_convex(cube_mesh)
    assert simplify_code(code, SimplifyParams()) is code


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1e-6, max_value=np.radians(5.0)))
def test_small_tau_never_merges_perpendicular_cube_faces(tau):
    code = encode_convex(shapes.cube())
    out = simplify_code(code, SimplifyParams(tau=tau))
    assert len(out) == 6


def test_segmented_simplify_keeps_structure_and_volume(staircase_mesh):
    code = encode_segmented(staircase_mesh)
    out = simplify_code(code, SimplifyParams(delta=1e-9))
    assert [len(p.face_planes) for p in out.parts] == [9, 5]
    assert [len(p.boundary_planes) for p in out.parts] == [4, 4]
    back = decode_segmented(out)
    assert abs(back.volume() - staircase_mesh.volume()) <= 1e-9 * staircase_mesh.volume()


def test_segmented_overshoot_names_the_part(staircase_mesh):
    code = encode_segmented(staircase_mesh)
    with pytest.raises(OverSimplified, match="part 0"):
        simplify_code(code, SimplifyParams(delta=1e9))


def test_simplifying_an_undecodable_part_is_reported(staircase_mesh):
    whole = encode_segmented(staircase_mesh).parts[0]
    bad = PartCode(whole.kind, PlaneSet(list(whole.face_planes)[:3]), whole.boundary_planes)
    with pytest.raises(PartUndecodable, match="part 0 undecodable"):
        simplify_code(SegmentedCode([bad]), SimplifyParams(delta=1e-9))


def thin_slab():
    """2e-3 x 2e-3 x 4e-10 box: decodable only with an eps below 2e-10.

    The sides are short so the caps stay thin after float32 storage,
    which tilts their normals by up to 1.5e-7 rad.
    """
    return PlaneSet.from_normals(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [1e-3] * 4 + [2e-10] * 2,
    )


def test_every_simplify_decode_honours_the_callers_eps():
    code = thin_slab()
    with pytest.raises(EmptyRegion):
        decode_convex(code)
    decode_convex(code, eps=1e-12)
    for params in (SimplifyParams(tau=np.radians(5)), SimplifyParams(delta=1e-15, tau=np.radians(5))):
        out = simplify_code(code, params, eps=1e-12)
        assert sorted_triplets(out).tobytes() == sorted_triplets(code).tobytes()
    assert simplify_code(code, SimplifyParams(tau=np.radians(5)), eps=1e-12) is code
    with pytest.raises(EmptyRegion):
        simplify_code(code, SimplifyParams(tau=np.radians(5)))


def test_cli_simplify_honours_eps(capsys, tmp_path):
    src, dst = tmp_path / "slab.plnc", tmp_path / "out.plnc"
    src.write_bytes(write_code(thin_slab()))
    assert main(["simplify", str(src), str(dst), "--eps", "1e-12", "--tau", "5"]) == 0
    assert "planes: 6 -> 6" in capsys.readouterr().out
    # float32 angles tilt the caps, so the stored slab is a thin wedge
    back = decode_convex(read_code(dst.read_bytes()), eps=1e-12).to_mesh()
    assert back.is_closed and back.is_edge_manifold
    assert main(["simplify", str(src), str(dst), "--tau", "5"]) == 3
    assert "EmptyRegion" in capsys.readouterr().err


# The 8-plane hull of six sphere points (``083_hull_p6`` of the seed-22
# ``code_ops`` benchmark corpus) as stored: at delta 1e-3 and tau 20 deg
# the merge pass folds it to 3 planes, which bound no volume.
HULL_P6 = bytes.fromhex(
    "504c4e43010008000000febb983d797b7840d645563ddd98b13e1a679640700100be"
    "4dac0a3fcc21964084464dbe48ba353f98a89b4036cb1abede431d4065fc7b3f629e"
    "043fc18b1d40b15d7c3f38c0033fbe5d274068ade93ffb8e9e3e7b652940e9c7e03f"
    "19ff9a3e"
)


def test_a_merge_that_leaves_three_planes_is_rejected():
    code = read_code(HULL_P6)
    assert len(code) == 8
    with pytest.raises(OverSimplified, match="only 3 plane"):
        simplify_code(code, SimplifyParams(delta=1e-3, tau=np.radians(20)))


def test_cli_simplify_refuses_a_merge_to_three_planes(capsys, tmp_path):
    src, dst = tmp_path / "h6.plnc", tmp_path / "out.plnc"
    src.write_bytes(HULL_P6)
    argv = ["simplify", str(src), str(dst), "--delta", "0.001", "--tau", "20"]
    assert main(argv) == 3
    assert "OverSimplified: only 3 plane(s) would remain" in capsys.readouterr().err
    assert not dst.exists()
