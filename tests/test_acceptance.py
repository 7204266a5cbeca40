"""End-to-end guarantees pinned at fixed tolerances.

Each test locks one externally visible behavior of the package: the
golden cube code and its storage ledger, convex round-trips, commuting
rigid motions, segmentation soundness, the staircase accounting story,
measure-preserving segmented round-trips, lossy-pass thresholds, and
byte-format robustness under hostile input.
"""

import struct
import time

import numpy as np
import pytest

from planecode import (
    CodeFormatError,
    PartCode,
    PlaneSet,
    SegmentedCode,
    boundary_planes_for_part,
    decode_convex,
    decode_segmented,
    encode_convex,
    encode_segmented,
    polygonize_part,
    read_code,
    rotate_planes,
    segment_mesh,
    shapes,
    simplify_code,
    SimplifyParams,
    storage_report,
    translate_planes,
    write_code,
)
from planecode.geometry import triangle_planes
from planecode.mesh_io import count_coplanar_patches
from planecode.segmentation import PartKind

from conftest import quaternion_rotation, seeded_hulls

GOLDEN_CUBE_DEGREES = [
    (90.0, 0.0, 1.0),
    (90.0, 90.0, 1.0),
    (90.0, 180.0, 0.0),
    (90.0, 270.0, 0.0),
    (0.0, 0.0, 1.0),
    (180.0, 0.0, 0.0),
]


def canonical_triplets(code):
    return np.array(sorted(tuple(r) for r in code.sorted_canonical().triplets()))


def hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def corpus_for_soundness():
    meshes = [
        ("cube", shapes.cube()),
        ("tetrahedron", shapes.tetrahedron()),
        ("staircase", shapes.notched_box()),
        ("l_prism", shapes.l_prism()),
        ("two_notch", shapes.two_notch_box()),
    ]
    meshes += [("hull_%d" % i, m) for i, m in enumerate(seeded_hulls(7, 5))]
    return meshes


def test_cube_encodes_to_the_six_golden_planes_quickly(cube_mesh):
    start = time.perf_counter()
    code = encode_convex(cube_mesh)
    assert len(code) == 6
    got = canonical_triplets(code)
    want = np.array(
        sorted((np.radians(nu), np.radians(phi), h) for nu, phi, h in GOLDEN_CUBE_DEGREES)
    )
    assert np.abs(got - want).max() < 1e-6
    report = storage_report(cube_mesh, code)
    assert report.plane_bytes == 72
    assert report.indexed_bytes == 240
    assert report.ratio == 10.0 / 3.0
    assert time.perf_counter() - start < 1.0


def test_one_hundred_random_hulls_round_trip():
    start = time.perf_counter()
    for mesh in seeded_hulls(42, 100):
        diag = mesh.bbox_diagonal()
        code = encode_convex(mesh)
        poly = decode_convex(code)
        assert hausdorff(poly.vertices, mesh.vertices) <= 1e-6 * diag
        # every stored plane carries a decoded face, and re-coding the
        # decoded surface reproduces the plane set byte for byte
        assert sorted(poly.face_planes) == list(range(len(code)))
        assert poly.redundant_planes == []
        again = encode_convex(poly.to_mesh())
        assert write_code(again.sorted_canonical()) == write_code(code.sorted_canonical())
    assert time.perf_counter() - start < 30.0


def test_coding_commutes_with_translation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        mesh = shapes.random_hull_mesh(rng, int(rng.integers(8, 65)))
        a = rng.uniform(-10.0, 10.0, 3)
        direct = encode_convex(mesh.translated(a))
        moved = translate_planes(encode_convex(mesh), a)
        assert np.abs(canonical_triplets(direct) - canonical_triplets(moved)).max() <= 1e-9


def test_coding_commutes_with_rotation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        mesh = shapes.random_hull_mesh(rng, int(rng.integers(8, 65)))
        r = quaternion_rotation(rng)
        direct = encode_convex(mesh.rotated(r))
        moved = rotate_planes(encode_convex(mesh), r)
        assert np.abs(canonical_triplets(direct) - canonical_triplets(moved)).max() <= 1e-9


def _pairwise_kind_holds(mesh, part, eps):
    """Check the part label against every triangle pair, no shortcuts."""
    corners = mesh.vertices[mesh.triangles[part.triangles]]
    normals, offsets = triangle_planes(corners[:, 0], corners[:, 1], corners[:, 2])
    # d[i, j, c]: corner c of triangle j against the plane of triangle i
    d = np.einsum("ik,jck->ijc", normals, corners) - offsets[:, None, None]
    if part.kind is PartKind.PSEUDO_CONVEX:
        return bool((d <= eps).all())
    return bool((d >= -eps).all())


def test_every_part_passes_the_brute_force_pair_check():
    corpus = corpus_for_soundness()
    assert len(corpus) >= 10
    for name, mesh in corpus:
        eps = 1e-7 * mesh.bbox_diagonal()
        parts = segment_mesh(mesh)
        covered = sorted(t for p in parts for t in p.triangles)
        assert covered == list(range(len(mesh.triangles))), name
        for part in parts:
            assert _pairwise_kind_holds(mesh, part, eps), name


def test_convex_solids_segment_to_a_single_part():
    convex = [shapes.cube(), shapes.tetrahedron()] + seeded_hulls(7, 5)
    for mesh in convex:
        parts = segment_mesh(mesh)
        assert len(parts) == 1
        assert parts[0].kind is PartKind.PSEUDO_CONVEX


def test_staircase_accounting_beats_the_quad_mesh(staircase_mesh):
    assert len(staircase_mesh.vertices) == 16
    assert count_coplanar_patches(staircase_mesh) == 14
    parts = segment_mesh(staircase_mesh)
    assert [len(polygonize_part(staircase_mesh, p)) for p in parts] == [9, 5]
    assert [len(boundary_planes_for_part(staircase_mesh, p)) for p in parts] == [4, 4]
    code = encode_segmented(staircase_mesh)
    report = storage_report(staircase_mesh, code, quad_accounting=True)
    assert report.plane_bytes == 264
    assert report.indexed_bytes == 864
    assert report.ratio > 3.0


def test_segmented_round_trip_preserves_area_and_volume():
    for name, mesh in corpus_for_soundness():
        back = decode_segmented(encode_segmented(mesh))
        area, volume = mesh.surface_area(), mesh.volume()
        assert abs(back.surface_area() - area) <= 1e-6 * area, name
        assert abs(back.volume() - volume) <= 1e-6 * abs(volume), name


def test_lossy_passes_hold_their_thresholds():
    chamfered = shapes.chamfered_cube_code()
    same = simplify_code(chamfered, SimplifyParams(delta=1e-4))
    assert np.abs(canonical_triplets(same) - canonical_triplets(chamfered)).max() == 0.0

    stripped = simplify_code(chamfered, SimplifyParams(delta=0.05))
    cube_set = canonical_triplets(encode_convex(shapes.cube()))
    assert np.abs(canonical_triplets(stripped) - cube_set).max() < 1e-12

    prism = shapes.ngon_prism_code(32)
    merged = simplify_code(prism, SimplifyParams(tau=np.radians(15.0)))
    sides = lambda code: sum(1 for nu, _, _ in code if 1e-9 < nu < np.pi - 1e-9)
    assert sides(merged) < sides(prism)
    v_in = decode_convex(prism).to_mesh().volume()
    v_out = decode_convex(merged).to_mesh().volume()
    assert abs(v_out - v_in) <= 0.05 * v_in


def _random_code(rng):
    def planes(n):
        out = []
        for _ in range(n):
            nu = float(rng.uniform(0.0, np.pi))
            phi = float(rng.uniform(0.0, 2 * np.pi))
            if rng.random() < 0.1:
                nu = float(rng.choice([0.0, np.pi]))
            if rng.random() < 0.1:
                phi = float(np.nextafter(2 * np.pi, 0.0))
            out.append((nu, phi, float(rng.normal() * 10.0)))
        return PlaneSet(out)

    if rng.random() < 0.3:
        parts = [
            PartCode(
                PartKind.PSEUDO_CONVEX if rng.random() < 0.5 else PartKind.PSEUDO_CONCAVE,
                planes(int(rng.integers(0, 12))),
                planes(int(rng.integers(0, 5))),
            )
            for _ in range(int(rng.integers(0, 4)))
        ]
        return SegmentedCode(parts)
    return planes(int(rng.integers(0, 40)))


def test_one_hundred_random_codes_store_bit_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        blob = write_code(_random_code(rng))
        assert write_code(read_code(blob)) == blob


def test_ten_thousand_byte_strings_never_crash_the_reader():
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(10_000):
        n = int(rng.integers(0, 300))
        blob = rng.bytes(n)
        if k % 2:
            blob = b"PLNC" + bytes((1, k % 7)) + blob
        start = time.perf_counter()
        try:
            read_code(blob)
        except CodeFormatError:
            pass
        worst = max(worst, time.perf_counter() - start)
    assert worst < 1.0
