"""Lossy plane-code simplification: small faces out, near-parallel merged.

Both heuristics measure the decoded solid, never the coded bytes.  The
area pass is single-sweep against the original decode, so removals do
not cascade.  The merge pass unions adjacent planes greedily; a cluster
is represented by its evolving area-weighted direction sum, which stops
long chains of slightly-tilted planes from collapsing into one.

Each distinct plane set is decoded once, always with the caller's
``eps``: the decode of the input serves the area pass, and the merge
pass reuses it when the area pass drops nothing, or else the decode
that checks the kept planes still bound a solid.
"""

from collections import Counter

import numpy as np

from .convex import PlaneSet, decode_convex
from .errors import GeometryError, OverSimplified, PartUndecodable
from .geometry import angle_between, snapped_triplet
from .polygonize import PartCode, SegmentedCode, decode_part

HALF_PI = np.pi / 2.0


class SimplifyParams:
    """delta: minimum face area to keep; tau: merge angle in radians."""

    def __init__(self, delta=0.0, tau=0.0):
        if not (delta >= 0.0):
            raise ValueError("delta must be >= 0, got %r" % (delta,))
        if not (0.0 <= tau < HALF_PI):
            raise ValueError("tau must lie in [0, pi/2), got %r" % (tau,))
        self.delta = float(delta)
        self.tau = float(tau)


def _face_measurements(poly, n_planes):
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


def _face_adjacency(poly):
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


def _drop_small(code, areas, params, eps):
    """Planes whose measured face area is at least delta, and their decode.

    Planes with no face at all (redundant half-spaces) count as area
    zero, so any positive delta discards them.  The decode is None when
    every plane is kept, since it would repeat the decode the areas
    came from.
    """
    out = code[areas >= params.delta]
    if len(out) < 4:
        raise OverSimplified(
            "only %d plane(s) would remain" % len(out)
        )
    if len(out) == len(code):
        return out, None
    try:
        return out, decode_convex(out, eps=eps)
    except GeometryError as exc:
        raise OverSimplified("remaining planes do not bound a solid: %s" % exc)


def simplify_code(code, params, eps=None):
    """Both passes, for a convex or a segmented code.

    The area pass keeps the planes whose decoded face area is at least
    ``params.delta``; a redundant plane has area zero, so delta = 0
    keeps every plane.  The merge pass then unions adjacent planes
    whose directions differ by less than ``params.tau`` (skipped at
    tau = 0).  Segmented codes are simplified part by part on their
    face planes; boundary cutting planes are never dropped or merged.
    """
    if isinstance(code, SegmentedCode):
        return SegmentedCode(
            [_simplify_part(p, i, params, eps) for i, p in enumerate(code.parts)]
        )
    if params.delta <= 0.0 and params.tau <= 0.0:
        return code
    poly = decode_convex(code, eps=eps)
    areas, centroids = _face_measurements(poly, len(code))
    out = code
    if params.delta > 0.0:
        out, kept = _drop_small(code, areas, params, eps)
        if kept is not None:
            poly = kept
            areas, centroids = _face_measurements(poly, len(out))
    if params.tau > 0.0:
        out = _merge_with_metrics(out, areas, centroids, _face_adjacency(poly), params)
    return out


def _simplify_part(part, index, params, eps):
    faces = part.face_planes
    boundary = part.boundary_planes

    def part_poly(face_planes):
        return decode_part(PartCode(part.kind, face_planes, boundary), index, eps=eps)

    if params.delta <= 0.0 and (params.tau <= 0.0 or not len(faces)):
        return PartCode(part.kind, faces, boundary)
    poly = part_poly(faces)
    areas, centroids = _face_measurements(poly, len(faces) + len(boundary))
    if params.delta > 0.0:
        kept = faces[areas[: len(faces)] >= params.delta]
        if not len(kept):
            raise OverSimplified("part %d would lose every face plane" % index)
        if len(kept) < len(faces):
            try:
                poly = part_poly(kept)
            except PartUndecodable:
                raise OverSimplified(
                    "part %d no longer bounds a solid after area pass" % index
                )
            areas, centroids = _face_measurements(poly, len(kept) + len(boundary))
        faces = kept

    if params.tau > 0.0:
        n_face = len(faces)
        adjacency = [
            (i, j) for i, j in _face_adjacency(poly) if i < n_face and j < n_face
        ]
        faces = _merge_with_metrics(
            faces, areas[:n_face], centroids[:n_face], adjacency, params
        )
    return PartCode(part.kind, faces, boundary)


def _merge_with_metrics(planes, areas, centroids, adjacency, params):
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
        rows.append(snapped_triplet(direction, h, scale=scale))
    return PlaneSet.from_triplets(rows)
