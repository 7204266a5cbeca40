"""One-batch face measures and sorted-edge adjacency against the code they replaced.

``oracle_face_measurements`` is the earlier ``simplify._face_measurements``,
which batched the rings one length at a time, and ``oracle_face_adjacency``
the dict of ring edges that ``simplify._face_adjacency`` once was, both
kept verbatim.  The library now measures every ring of 3 to 9 vertices
in one padded batch and pairs the planes of equal sorted edge keys.
Areas and centroids must equal the oracle's bit for bit, and the plane
pairs exactly, on prisms whose caps fall on both sides of the 9-vertex
bound, chamfered cubes, float32-stored hulls of up to 400 points, a cube
with repeated planes, segmented part decodes, hand-built rings and the
empty solid.
"""

import types

import numpy as np
from hypothesis import given, settings, strategies as st

from planecode import (
    PlaneSet,
    decode_convex,
    encode_convex,
    encode_segmented,
    read_code,
    rotate_planes,
    shapes,
    write_code,
)
from planecode.convex import ConvexPolyhedron
from planecode.geometry import cross
from planecode.polygonize import decode_part
from planecode.simplify import SHORT_RING, _face_adjacency, _face_measurements

from conftest import quaternion_rotation


def oracle_face_measurements(poly, n_planes):
    """Per-plane decoded face area and area centroid; zeros when faceless.

    Each ring is fanned from its first vertex.  Rings of one length are
    measured together, as one (rings, triangles) batch whose per-ring
    sums run in the same order as a single ring's would.  The cross
    products come from ``cross``, which rounds as ``np.cross`` does.  A
    ring with no area (fewer than three vertices, or collinear) gets
    area zero and the mean of its vertices.
    """
    areas = np.zeros(n_planes)
    centroids = np.zeros((n_planes, 3))
    sizes = np.fromiter(map(len, poly.faces), dtype=np.int64, count=len(poly.faces))
    owner = np.asarray(poly.face_planes, dtype=np.int64)
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        pts = poly.vertices[np.array([poly.faces[r] for r in rows.tolist()])]
        if k >= 3:
            v0 = pts[:, :1]
            tri = 0.5 * np.linalg.norm(cross(pts[:, 1:-1] - v0, pts[:, 2:] - v0), axis=2)
            total = tri.sum(axis=1)
            centers = (v0 + pts[:, 1:-1] + pts[:, 2:]) / 3.0
            spans = total > 0.0
            areas[owner[rows[spans]]] = total[spans]
            centroids[owner[rows[spans]]] = (
                (centers[spans] * tri[spans, :, None]).sum(axis=1)
                / total[spans, None]
            )
            rows, pts = rows[~spans], pts[~spans]
        for r, ring_pts in zip(rows.tolist(), pts):
            centroids[owner[r]] = ring_pts.mean(axis=0)
    return areas, centroids


def oracle_face_adjacency(poly):
    """Sorted plane-index pairs whose decoded faces share an edge."""
    owners = {}
    for ring, idx in zip(poly.faces, poly.face_planes):
        for k in range(len(ring)):
            a, b = ring[k], ring[(k + 1) % len(ring)]
            edge = (a, b) if a < b else (b, a)
            owners.setdefault(edge, []).append(idx)
    pairs = set()
    for members in owners.values():
        for x in members:
            for y in members:
                if x < y:
                    pairs.add((x, y))
    return sorted(pairs)


def assert_matches_the_oracle(poly, n_planes):
    got = _face_measurements(poly, n_planes)
    want = oracle_face_measurements(poly, n_planes)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [a.shape for a in got] == [a.shape for a in want]
    assert _face_adjacency(poly) == oracle_face_adjacency(poly)


def test_prisms_on_both_sides_of_the_short_ring_bound():
    rng = np.random.default_rng(3)
    sizes = set()
    for n in range(3, 61):
        code = shapes.ngon_prism_code(n)
        for c in (code, rotate_planes(code, quaternion_rotation(rng))):
            poly = decode_convex(c)
            sizes.update(map(len, poly.faces))
            assert_matches_the_oracle(poly, len(c))
    assert min(sizes) < SHORT_RING < max(sizes) and SHORT_RING in sizes


def test_chamfered_cubes():
    for t in np.linspace(0.02, 0.45, 12):
        code = shapes.chamfered_cube_code(float(t))
        assert_matches_the_oracle(decode_convex(code), len(code))


def test_float32_stored_hulls_of_up_to_400_points():
    rng = np.random.default_rng(29)
    for n in (6, 9, 14, 30, 64, 120, 250, 400):
        hull = shapes.random_hull_mesh(rng, n).rotated(quaternion_rotation(rng))
        code = read_code(write_code(encode_convex(hull)))
        assert_matches_the_oracle(decode_convex(code), len(code))


def test_a_cube_with_repeated_planes(cube_mesh):
    code = encode_convex(cube_mesh)
    for rows in ([5], [0, 0], [1, 4, 4], [2, 2, 2, 3]):
        repeated = PlaneSet(np.concatenate([code.triplets(), code.triplets()[rows]]))
        poly = decode_convex(repeated)
        assert_matches_the_oracle(poly, len(repeated))
        # each copy shares its plane's ring, so the two are adjacent
        assert all((row, 6 + k) in _face_adjacency(poly) for k, row in enumerate(rows))


def test_segmented_part_decodes():
    for make in (shapes.notched_box, shapes.l_prism, shapes.two_notch_box):
        for i, part in enumerate(encode_segmented(make()).parts):
            n = len(part.face_planes) + len(part.boundary_planes)
            assert_matches_the_oracle(decode_part(part, i), n)


def test_hand_built_rings_of_every_length():
    """Random rings of 1 to 14 vertices, flat and collinear ones, signed zeros."""
    rng = np.random.default_rng(41)
    for _ in range(60):
        verts = rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-3, 3)
        verts[5:20] = verts[5] + np.outer(np.arange(15), [1.0, -2.0, 0.5])
        verts[20:24] = -0.0
        verts[24:28, 2] = -0.0
        rings = [rng.choice(40, size=int(rng.integers(1, 15)), replace=False).tolist()
                 for _ in range(10)]
        rings += [list(range(5, 5 + int(rng.integers(3, 15)))), [20, 21, 22], [24, 25, 26, 27]]
        owner = rng.permutation(len(rings) + 3)[: len(rings)].tolist()
        poly = ConvexPolyhedron(verts, rings, owner, None, [])
        assert_matches_the_oracle(poly, len(rings) + 3)


def test_the_empty_solid():
    empty = types.SimpleNamespace(faces=[], face_planes=[])
    for n in (0, 4):
        got, want = _face_measurements(empty, n), oracle_face_measurements(empty, n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert _face_adjacency(empty) == [] == oracle_face_adjacency(empty)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(5, 90),
    stored=st.booleans(),
)
def test_random_hulls(seed, n_points, stored):
    rng = np.random.default_rng(seed)
    hull = shapes.random_hull_mesh(rng, n_points).rotated(quaternion_rotation(rng))
    code = encode_convex(hull)
    if stored:
        code = read_code(write_code(code))
    assert_matches_the_oracle(decode_convex(code), len(code))
