"""Batched face planes against the per-row code they replaced.

The oracles below are the earlier ``spherical_angles``,
``snapped_triplet``, ``patch_planes`` (one patch at a time),
``PlaneSet.from_normals`` (one row at a time) and ``rotate_planes``,
kept verbatim.  The library now builds every angle row through
``geometry.angle_rows`` and ``geometry.snapped_triplets`` and sums
patches of one size together; every float64 triplet must equal the
oracle's bit for bit, signed zeros included, and a normal that is not
unit length must raise the same NotUnitVector text.
"""

import math

import numpy as np
import pytest

from planecode import (
    PlaneSet,
    encode_convex,
    polygonize_part,
    rotate_planes,
    segment_mesh,
    shapes,
)
from planecode.convex import EPS_CONVEX_REL, check_rotation, coplanar_patches, patch_planes
from planecode.errors import NotUnitVector
from planecode.geometry import (
    EPS_UNIT,
    SNAP_AXIS,
    TWO_PI,
    snapped_triplet,
    snapped_triplets,
    spherical_angles,
)

from conftest import quaternion_rotation
from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl


def oracle_spherical_angles(w):
    w = np.asarray(w, dtype=float)
    n = math.sqrt(float(w @ w))
    if abs(n - 1.0) > EPS_UNIT:
        raise NotUnitVector("vector norm %.17g, expected 1" % n)
    nu = math.acos(min(1.0, max(-1.0, float(w[2]))))
    if w[0] == 0.0 and w[1] == 0.0:
        return nu, 0.0
    phi = math.atan2(float(w[1]), float(w[0])) % TWO_PI
    if phi >= TWO_PI:
        # a tiny negative atan2 result rounds up to exactly 2*pi
        phi = 0.0
    return nu, phi


def oracle_snapped_triplet(direction, h, scale=1.0):
    d = np.asarray(direction, dtype=float).copy()
    d[np.abs(d) < SNAP_AXIS] = 0.0
    d /= math.sqrt(float(d @ d))
    h = float(h)
    if abs(h) < SNAP_AXIS * scale:
        h = 0.0
    return oracle_spherical_angles(d) + (h,)


def oracle_patch_planes(mesh, patches, scale):
    p1, p2, p3 = mesh.triangle_corners()
    cross = np.cross(p2 - p1, p3 - p2)
    centers = (p1 + p2 + p3) / 3.0
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    out = []
    for patch in patches:
        g = np.asarray(patch)
        direction = cross[g].sum(axis=0)
        direction /= np.linalg.norm(direction)
        centroid = (centers[g] * areas[g, None]).sum(axis=0) / areas[g].sum()
        out.append(oracle_snapped_triplet(direction, float(direction @ centroid), scale=scale))
    return PlaneSet.from_triplets(out)


def oracle_from_normals(normals, offsets):
    rows = [
        oracle_spherical_angles(w) + (float(h),)
        for w, h in zip(np.asarray(normals, dtype=float), offsets)
    ]
    return PlaneSet.from_triplets(rows)


def oracle_rotate_planes(code, r):
    w = code.normals() @ check_rotation(r).T
    w[np.abs(w) < SNAP_AXIS] = 0.0
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return oracle_from_normals(w, code.offsets())


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


QUARTER_TURN = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def moved(mesh):
    return type(mesh)(mesh.vertices @ QUARTER_TURN.T + [0.3, -1.7, 2.25], mesh.triangles)


def cube_cuts():
    for g in (1, 3, 8, 10, 12, 17):
        mesh = grid_cut(shapes.cube(), g)
        yield "cube_g%d" % g, mesh
        yield "cube_g%d_moved" % g, moved(mesh)
        yield "cube_g%d_f32" % g, via_float32_stl(mesh)


def hulls(count=40):
    rng = np.random.default_rng(2024)
    for k in range(count):
        n = int(rng.integers(8, 401))
        mesh = shapes.random_hull_mesh(rng, n)
        yield "hull%d_p%d" % (k, n), mesh
        yield "hull%d_p%d_f32" % (k, n), via_float32_stl(mesh)


def convex_meshes():
    yield "cube", shapes.cube()
    yield "tetrahedron", shapes.tetrahedron()
    yield from cube_cuts()
    yield from hulls()


def whole_mesh_patches(mesh):
    diag = mesh.bbox_diagonal()
    normals, offsets = mesh.planes
    patches = coplanar_patches(mesh, normals, offsets, EPS_CONVEX_REL * diag)
    return patches, max(1.0, diag)


def test_patch_planes_match_the_oracle_on_convex_meshes():
    largest = 0
    for name, mesh in convex_meshes():
        patches, scale = whole_mesh_patches(mesh)
        largest = max(largest, max(map(len, patches)))
        got = patch_planes(mesh, patches, scale).triplets()
        assert same_bits(got, oracle_patch_planes(mesh, patches, scale).triplets()), name
        # encode_convex is these rows in canonical order
        assert same_bits(encode_convex(mesh).triplets(),
                         PlaneSet.from_triplets(got).sorted_canonical().triplets()), name
    # past numpy's 8- and 128-element pairwise-sum blocks
    assert largest > 128


@pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
@pytest.mark.parametrize("g", [1, 2, 3])
def test_part_planes_match_the_oracle(name, g):
    mesh = grid_cut(GRID_FIXTURES[name](), g)
    diag = mesh.bbox_diagonal()
    normals, offsets = mesh.planes
    for part in segment_mesh(mesh):
        patches = coplanar_patches(
            mesh, normals, offsets, EPS_CONVEX_REL * diag, members=part.triangles
        )
        got = patch_planes(mesh, patches, max(1.0, diag)).triplets()
        want = oracle_patch_planes(mesh, patches, max(1.0, diag)).triplets()
        assert same_bits(got, want)
        faces = polygonize_part(mesh, part)
        rows = [(f.plane.direction.nu, f.plane.direction.phi, f.plane.h) for f in faces]
        assert same_bits(rows, want)


def test_no_patches_give_no_planes():
    mesh = shapes.cube()
    assert len(patch_planes(mesh, [], 1.0)) == 0
    assert snapped_triplets(np.zeros((0, 3)), []).shape == (0, 3)


def noisy_directions(rng, n):
    """Random, axis-aligned and dusty directions of assorted lengths."""
    d = rng.standard_normal((n, 3)) * rng.uniform(1e-3, 1e3, (n, 1))
    axes = np.eye(3)[rng.integers(0, 3, n // 2)] * rng.choice([-1.0, 1.0], (n // 2, 1))
    dust = rng.uniform(-3e-12, 3e-12, (n // 2, 3))
    d[: n // 2] = axes * rng.uniform(0.5, 2.0, (n // 2, 1)) + dust
    d[rng.random(n) < 0.1, 2] = -0.0
    return d


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e9])
def test_snapped_triplets_match_the_one_row_oracle(scale):
    rng = np.random.default_rng(11)
    d = noisy_directions(rng, 2000)
    h = rng.standard_normal(2000) * rng.choice([1e-14, 1e-10, 1.0, 1e4], 2000)
    h[::7] = -0.0
    want = [oracle_snapped_triplet(di, hi, scale) for di, hi in zip(d, h)]
    got = snapped_triplets(d, h, scale)
    assert same_bits(got, want)
    for di, hi, row in zip(d[:50], h[:50], want):
        one = snapped_triplet(di, hi, scale)
        assert all(type(x) is float for x in one)
        assert same_bits(one, row)


def test_spherical_angles_match_the_oracle():
    rng = np.random.default_rng(5)
    w = noisy_directions(rng, 500)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    for row in w:
        assert same_bits(spherical_angles(row), oracle_spherical_angles(row))


def test_from_normals_matches_the_per_row_oracle():
    rng = np.random.default_rng(3)
    for k in range(12):
        code = encode_convex(shapes.random_hull_mesh(rng, int(rng.integers(8, 200))))
        r = quaternion_rotation(rng)
        assert same_bits(rotate_planes(code, r).triplets(),
                         oracle_rotate_planes(code, r).triplets())
        assert same_bits(rotate_planes(code, QUARTER_TURN).triplets(),
                         oracle_rotate_planes(code, QUARTER_TURN).triplets())
        assert same_bits(code.negated().triplets(),
                         oracle_from_normals(-code.normals(), -code.offsets()).triplets())


@pytest.mark.parametrize("row", [1, 5, 9])
@pytest.mark.parametrize("stretch", [2.0, 1.0 + 2e-9, 1.0 - 5e-9, 0.0])
def test_a_non_unit_normal_raises_the_oracle_text(row, stretch):
    rng = np.random.default_rng(row)
    w = rng.standard_normal((10, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w[row] *= stretch
    w[row + 1:] *= 3.0  # later bad rows must not be the one reported
    with pytest.raises(NotUnitVector) as want:
        oracle_from_normals(w, np.ones(10))
    with pytest.raises(NotUnitVector) as got:
        PlaneSet.from_normals(w, np.ones(10))
    assert str(got.value) == str(want.value)
    with pytest.raises(NotUnitVector) as one:
        spherical_angles(w[row])
    assert str(one.value) == str(want.value)
