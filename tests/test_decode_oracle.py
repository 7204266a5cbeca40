"""decode_convex against the brute-force decoder it replaced.

The oracle solves every plane triple, keeps the intersection points
feasible for all half-spaces, merges near-duplicates with the grid weld
(cluster means) and takes each plane's ring from the vertices within a
small distance of it.  It costs O(n^4) and lives here only as the
reference: on inputs whose vertices it resolves cleanly both decoders
must agree on face planes, redundant planes and ring vertex sets, with
vertices within 1e-9 of the bounding-box diagonal, and bit for bit
where every vertex has exactly three planes.
"""

import itertools

import numpy as np
import pytest

from planecode import EmptyRegion, PlaneSet, decode_convex, encode_convex
from planecode import shapes
from planecode.convex import ConvexPolyhedron

from conftest import seeded_hulls

COND_LIMIT = 1e8
SNAP_REL = 1e-7
FEAS_REL = 1e-9

_NEIGHBOR_CELLS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
]


def weld(points, cell, radius):
    """Cluster points lying within ``radius`` of a cluster's first point.

    Grid buckets of size ``cell`` with a 27-cell neighborhood check, in
    point order.  Returns each point's cluster label (clusters numbered
    in first-appearance order) and the index of each cluster's first
    point.
    """
    buckets = {}
    firsts = []
    labels = np.empty(len(points), dtype=np.int64)
    cells = np.floor(points / cell).tolist()
    for k, p in enumerate(points):
        x, y, z = (int(v) for v in cells[k])
        hit = -1
        for dx, dy, dz in _NEIGHBOR_CELLS:
            j = buckets.get((x + dx, y + dy, z + dz), -1)
            if j >= 0 and np.linalg.norm(p - points[firsts[j]]) <= radius:
                hit = j
                break
        if hit < 0:
            hit = len(firsts)
            buckets[(x, y, z)] = hit
            firsts.append(k)
        labels[k] = hit
    return labels, np.asarray(firsts, dtype=np.int64)


def brute_force_decode(code):
    """The C(n, 3) triple-scan decoder, kept as the reference."""
    n = len(code)
    normals = code.normals()
    offsets = code.offsets()
    feas = FEAS_REL * max(1.0, float(np.abs(offsets).max()))
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    a = normals[triples]
    b = offsets[triples]
    cond = np.linalg.cond(a)
    ok = np.isfinite(cond) & (cond < COND_LIMIT)
    pts = np.linalg.solve(a[ok], b[ok][:, :, None])[:, :, 0]
    pts = pts[np.isfinite(pts).all(axis=1)]
    candidates = pts[((pts @ normals.T - offsets) <= feas).all(axis=1)]

    diag = float(np.linalg.norm(candidates.max(axis=0) - candidates.min(axis=0)))
    cell = SNAP_REL * diag if diag > 0 else 1e-12
    labels, firsts = weld(candidates, cell, 2.0 * cell)
    sums = candidates[firsts]
    later = np.ones(len(candidates), dtype=bool)
    later[firsts] = False
    np.add.at(sums, labels[later], candidates[later])
    verts = sums / np.bincount(labels)[:, None]
    verts = verts[np.lexsort((verts[:, 2], verts[:, 1], verts[:, 0]))]

    eps_face = max(feas, 3.0 * cell)
    dist = verts @ normals.T - offsets
    faces, face_planes, redundant = [], [], []
    for i in range(n):
        incident = np.where(np.abs(dist[:, i]) <= eps_face)[0]
        if len(incident) < 3:
            redundant.append(i)
            continue
        w = normals[i]
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(w)))] = 1.0
        u = axis - (axis @ w) * w
        u /= np.linalg.norm(u)
        v = np.cross(w, u)
        rel = verts[incident] - verts[incident].mean(axis=0)
        ring = incident[np.argsort(np.arctan2(rel @ v, rel @ u))]
        faces.append([int(x) for x in np.roll(ring, -int(np.argmin(ring)))])
        face_planes.append(i)
    return ConvexPolyhedron(verts, faces, face_planes, code, redundant)


def box_code():
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return list(PlaneSet.from_normals(axes, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))


def assert_matches_oracle(code, bitwise=False):
    got = decode_convex(code)
    want = brute_force_decode(code)
    assert got.face_planes == want.face_planes
    assert got.redundant_planes == want.redundant_planes
    assert got.vertices.shape == want.vertices.shape
    diag = float(np.linalg.norm(np.ptp(want.vertices, axis=0)))
    gap = np.linalg.norm(got.vertices[:, None, :] - want.vertices[None, :, :], axis=2)
    match = gap.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(want.vertices)))
    assert gap[np.arange(len(match)), match].max() <= 1e-9 * diag
    for ring, ref in zip(got.faces, want.faces):
        assert sorted(match[ring].tolist()) == sorted(ref)
    if bitwise:
        assert np.array_equal(got.vertices, want.vertices)
        assert got.faces == want.faces


@pytest.mark.parametrize("seed", range(4))
def test_seeded_hulls_match_the_oracle(seed):
    for hull in seeded_hulls(100 + seed, 3, lo=8, hi=40):
        assert_matches_oracle(encode_convex(hull))


@pytest.mark.parametrize("k", range(3, 29))
def test_ngon_prisms_match_the_oracle_bit_for_bit(k):
    assert_matches_oracle(shapes.ngon_prism_code(k), bitwise=True)


def test_cube_matches_the_oracle_bit_for_bit(cube_mesh):
    assert_matches_oracle(encode_convex(cube_mesh), bitwise=True)


@pytest.mark.parametrize("t", [0.03, 0.3, 1.0, 1.5])
def test_chamfered_cubes_match_the_oracle(t):
    assert_matches_oracle(shapes.chamfered_cube_code(t))


def test_box_with_a_redundant_plane_matches_the_oracle():
    code = PlaneSet(box_code() + list(PlaneSet.from_normals([(1, 0, 0)], [50.0])))
    assert_matches_oracle(code, bitwise=True)
    assert decode_convex(code).redundant_planes == [6]


def test_cube_with_a_duplicated_plane_matches_the_oracle(cube_mesh):
    base = list(encode_convex(cube_mesh))
    code = PlaneSet(base + [base[0]])
    assert_matches_oracle(code, bitwise=True)
    poly = decode_convex(code)
    assert poly.face_planes == list(range(7))
    assert poly.faces[6] == poly.faces[0]


def test_zero_thickness_slab_is_empty():
    planes = box_code()
    planes[4] = PlaneSet.from_normals([(0, 0, 1)], [0.0])[0]
    with pytest.raises(EmptyRegion):
        decode_convex(PlaneSet(planes))
