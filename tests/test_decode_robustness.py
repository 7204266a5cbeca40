"""decode_convex stays fast at thousands of planes and closed far from the origin.

A stored code of a few tens of kilobytes must not stall the decoder:
the hull of 1024 points on the unit sphere has 2044 face planes, which
a scan of every plane triple would meet as 1.4e9 triples.  A hull moved
far from the origin keeps its planes' offsets to float64 rounding only,
so vertices where several planes meet split into vertices closer
together than their coordinates can tell apart; the face rings must
still close up.
"""

import time

import numpy as np
from scipy.spatial import ConvexHull

from planecode import (
    TriangleMesh,
    decode_convex,
    encode_convex,
    read_code,
    translate_planes,
    write_code,
)

from conftest import seeded_hulls


def sphere_hull(rng, n_points):
    pts = rng.standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    hull = ConvexHull(pts)
    tris = []
    for (a, b, c), eq in zip(hull.simplices, hull.equations):
        if np.cross(pts[b] - pts[a], pts[c] - pts[b]) @ eq[:3] < 0:
            b, c = c, b
        tris.append((a, b, c))
    return TriangleMesh(pts, tris)


def test_a_2044_plane_code_decodes_closed_within_five_seconds():
    code = read_code(write_code(encode_convex(sphere_hull(np.random.default_rng(7), 1024))))
    assert len(code) == 2044
    t0 = time.perf_counter()
    mesh = decode_convex(code).to_mesh()
    elapsed = time.perf_counter() - t0
    assert mesh.is_closed and mesh.is_edge_manifold
    assert elapsed < 5.0


def test_hulls_far_from_the_origin_decode_closed():
    for shift in (1e3, 1e5):
        for hull in seeded_hulls(3, 3):
            code = translate_planes(encode_convex(hull), (shift, -shift / 2, shift / 3))
            mesh = decode_convex(code).to_mesh()
            assert mesh.is_closed and mesh.is_edge_manifold, shift
            assert mesh.is_consistently_oriented, shift
