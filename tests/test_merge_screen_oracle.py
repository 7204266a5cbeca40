"""Screened merges and written-out ring measures against the code they replaced.

``oracle_merge_with_metrics`` and ``oracle_face_measurements`` below are
the earlier ``simplify._merge_with_metrics`` and
``simplify._face_measurements``, kept verbatim.  The library now screens
each merge angle in Python floats, deciding with numpy only near tau,
folds the centroid sums after the loop and writes the fan cross products
out; every merged triplet, area and centroid must equal the oracle's bit
for bit.  The inputs are decoded hulls, prisms, chamfered cubes and
segmented parts, clusters that grow over several merges, and hinge
pairs whose angle lies within 1e-12 rad of tau.
"""

import math
from collections import Counter

import numpy as np
import pytest

from planecode import (
    PlaneSet,
    SimplifyParams,
    decode_convex,
    encode_convex,
    encode_segmented,
    rotate_planes,
    shapes,
)
from planecode.geometry import angle_between
from planecode.polygonize import decode_part
from planecode.simplify import _face_adjacency, _face_measurements, _merge_with_metrics

from conftest import quaternion_rotation
from test_plane_batch_oracle import oracle_snapped_row


def oracle_merge_with_metrics(planes, areas, centroids, adjacency, params):
    """Union adjacent planes whose directions differ by less than tau.

    Clusters are replaced by one plane: the normalized area-weighted
    direction sum, offset so the plane passes through the cluster's
    area centroid.  A cluster's direction evolves as it grows, so each
    union is judged against the merged direction, not the seeds'.
    ``areas`` and ``centroids`` are the measured faces of ``planes``.
    """
    n = len(planes)
    normals = planes.normals()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dir_sum = normals * np.asarray(areas)[:, None]
    cen_sum = np.asarray(centroids) * np.asarray(areas)[:, None]
    area_sum = np.asarray(areas, dtype=float).copy()
    merged_any = False
    for i, j in sorted(adjacency):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        na, nb = np.linalg.norm(dir_sum[ri]), np.linalg.norm(dir_sum[rj])
        if na == 0.0 or nb == 0.0:
            continue
        if angle_between(dir_sum[ri] / na, dir_sum[rj] / nb) < params.tau:
            parent[rj] = ri
            dir_sum[ri] += dir_sum[rj]
            cen_sum[ri] += cen_sum[rj]
            area_sum[ri] += area_sum[rj]
            merged_any = True
    if not merged_any:
        return planes
    scale = max(1.0, float(np.abs(np.asarray(centroids)).max(initial=0.0)))
    roots = [find(i) for i in range(n)]
    size = Counter(roots)
    rows = []
    emitted = set()
    for i, root in enumerate(roots):
        if root in emitted:
            continue
        emitted.add(root)
        if size[root] == 1:
            rows.append(planes.triplets()[i])
            continue
        direction = dir_sum[root] / np.linalg.norm(dir_sum[root])
        centroid = cen_sum[root] / area_sum[root]
        h = float(direction @ centroid)
        rows.append(oracle_snapped_row(direction, h, scale=scale))
    return PlaneSet(rows)


def oracle_face_measurements(poly, n_planes):
    """Per-plane decoded face area and area centroid; zeros when faceless.

    Each ring is fanned from its first vertex.  Rings of one length are
    measured together, as one (rings, triangles) batch whose per-ring
    sums run in the same order as a single ring's would.  A ring with
    no area (fewer than three vertices, or collinear) gets area zero
    and the mean of its vertices.
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
            tri = 0.5 * np.linalg.norm(
                np.cross(pts[:, 1:-1] - v0, pts[:, 2:] - v0), axis=2
            )
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


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def decoded_polys():
    """(code, decoded solid) pairs: hulls, prisms, chamfers, segmented parts."""
    rng = np.random.default_rng(17)
    codes = [shapes.ngon_prism_code(n) for n in (3, 5, 12, 28, 40)]
    codes += [shapes.chamfered_cube_code(t) for t in (0.02, 0.1, 0.4)]
    codes += [encode_convex(shapes.random_hull_mesh(rng, n)) for n in (8, 12, 30, 64, 150)]
    codes += [rotate_planes(c, quaternion_rotation(rng)) for c in list(codes)]
    for code in codes:
        yield code, decode_convex(code)
    for make in (shapes.notched_box, shapes.l_prism, shapes.two_notch_box):
        for i, part in enumerate(encode_segmented(make()).parts):
            planes = PlaneSet(np.vstack(
                [part.face_planes.triplets(), part.boundary_planes.triplets()]))
            yield planes, decode_part(part, i)


def test_face_measurements_match_the_oracle():
    for code, poly in decoded_polys():
        areas, centroids = _face_measurements(poly, len(code))
        want_areas, want_centroids = oracle_face_measurements(poly, len(code))
        assert same_bits(areas, want_areas)
        assert same_bits(centroids, want_centroids)


def test_face_measurements_of_flat_rings_match_the_oracle():
    class Poly:
        vertices = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 1, 0]])
        faces = [[0, 1, 2], [0, 1, 2, 3], [0, 1], [0, 1, 4], [1, 2, 3, 0]]
        face_planes = [0, 1, 2, 4, 5]

    for got, want in zip(_face_measurements(Poly, 6), oracle_face_measurements(Poly, 6)):
        assert same_bits(got, want)


@pytest.mark.parametrize("degrees", [5.0, 12.0, 20.0, 35.0, 60.0, 89.0])
def test_merges_of_decoded_solids_match_the_oracle(degrees):
    params = SimplifyParams(tau=math.radians(degrees))
    grew = 0
    for code, poly in decoded_polys():
        areas, centroids = _face_measurements(poly, len(code))
        adjacency = _face_adjacency(poly)
        got = _merge_with_metrics(code, areas, centroids, adjacency, params)
        want = oracle_merge_with_metrics(code, areas, centroids, adjacency, params)
        assert (got is code) == (want is code)
        assert same_bits(got.triplets(), want.triplets())
        grew += len(code) - len(want) > 1
    if degrees >= 20.0:
        assert grew  # some clusters take in more than two planes


def hinge(normals, areas):
    """Planes, areas, centroids and a chain adjacency for unit ``normals``."""
    normals = np.asarray(normals, dtype=float)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    planes = PlaneSet.from_normals(normals, np.arange(1.0, len(normals) + 1.0))
    centroids = normals * np.arange(1.0, len(normals) + 1.0)[:, None]
    adjacency = [(i, i + 1) for i in range(len(normals) - 1)]
    return planes, np.asarray(areas, dtype=float), centroids, adjacency


def oracle_angle(a, b):
    return angle_between(a / np.linalg.norm(a), b / np.linalg.norm(b))


def taus_around(angle):
    return [
        angle,
        np.nextafter(angle, 0.0),
        np.nextafter(angle, 1.0),
        angle - 1e-12,
        angle + 1e-12,
        angle - 5e-13,
        angle + 5e-13,
    ]


def assert_same_merges(planes, areas, centroids, adjacency, tau):
    params = SimplifyParams(tau=float(tau))
    got = _merge_with_metrics(planes, areas, centroids, adjacency, params)
    want = oracle_merge_with_metrics(planes, areas, centroids, adjacency, params)
    assert (got is planes) == (want is planes)
    assert same_bits(got.triplets(), want.triplets())
    return len(want)


@pytest.mark.parametrize("degrees", [0.5, 7.0, 33.3, 80.0])
@pytest.mark.parametrize("areas", [(1.0, 1.0), (0.37, 2.9), (1e-6, 1e5)])
def test_hinge_pairs_at_tau_match_the_oracle(degrees, areas):
    t = math.radians(degrees)
    planes, areas, centroids, adjacency = hinge(
        [[1.0, 0.0, 0.2], [math.cos(t), math.sin(t), 0.2]], areas
    )
    d = planes.normals() * areas[:, None]
    angle = oracle_angle(d[0], d[1])
    counts = {assert_same_merges(planes, areas, centroids, adjacency, tau)
              for tau in taus_around(angle)}
    assert counts == {1, 2}  # the boundary of the decision is crossed


@pytest.mark.parametrize("degrees", [4.0, 15.0, 41.0])
def test_a_growing_cluster_at_tau_matches_the_oracle(degrees):
    # planes 0 and 1 merge first; the pair (1, 2) is then judged against
    # the merged direction, whose angle to plane 2 is put at tau
    t = math.radians(degrees)
    planes, areas, centroids, adjacency = hinge(
        [[1.0, 0.0, 0.0], [1.0, 0.01, 0.003], [math.cos(t), math.sin(t), -0.1]],
        [2.0, 0.7, 1.3],
    )
    d = planes.normals() * areas[:, None]
    angle = oracle_angle(d[0] + d[1], d[2])
    assert oracle_angle(d[0], d[1]) < angle - 1e-3
    counts = {assert_same_merges(planes, areas, centroids, adjacency, tau)
              for tau in taus_around(angle)}
    assert counts == {1, 2}


@pytest.mark.parametrize("areas", [
    (0.0, 1.0, 1.0),
    (1e-160, 1.0, 1.0),
    (3e150, 3e150, 1.0),
    (1e-170, 1e-170, 1e-170),
])
def test_zero_tiny_and_huge_sums_match_the_oracle(areas):
    planes, areas, centroids, adjacency = hinge(
        [[1.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.0, 0.2, 0.05]], areas
    )
    for degrees in (1.0, 10.0, 30.0):
        assert_same_merges(planes, areas, centroids, adjacency, math.radians(degrees))
