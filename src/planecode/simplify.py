"""Lossy plane-code simplification: small faces out, near-parallel merged.

Both heuristics measure the decoded solid, never the coded bytes.  The
area pass is single-sweep against the original decode, so removals do
not cascade.  The merge pass unions adjacent planes greedily; a cluster
is represented by its evolving area-weighted direction sum, which stops
long chains of slightly-tilted planes from collapsing into one.
"""

import numpy as np

from .convex import PlaneSet, decode_convex
from .errors import GeometryError, OverSimplified, PartUndecodable
from .geometry import angle_between, snapped_plane
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


def _ring_metrics(pts):
    """(area, area centroid) of a planar convex ring."""
    if len(pts) < 3:
        return 0.0, pts.mean(axis=0)
    v0 = pts[0]
    cross = np.cross(pts[1:-1] - v0, pts[2:] - v0)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = float(areas.sum())
    if total <= 0.0:
        return 0.0, pts.mean(axis=0)
    centers = (v0 + pts[1:-1] + pts[2:]) / 3.0
    return total, (centers * areas[:, None]).sum(axis=0) / total


def _face_measurements(poly, n_planes):
    """Per-plane decoded face area and centroid; zeros when faceless."""
    areas = np.zeros(n_planes)
    centroids = np.zeros((n_planes, 3))
    for ring, idx in zip(poly.faces, poly.face_planes):
        a, c = _ring_metrics(poly.vertices[np.asarray(ring)])
        areas[idx] = a
        centroids[idx] = c
    return areas, centroids


def face_adjacency(poly):
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


def drop_small_faces(code, params, eps=None):
    """Planes whose decoded face area is at least delta, in input order.

    Planes with no face at all (redundant half-spaces) count as area
    zero, so any positive delta discards them while delta = 0 is the
    exact identity.
    """
    poly = decode_convex(code, eps=eps)
    areas, _ = _face_measurements(poly, len(code))
    out = code[areas >= params.delta]
    if len(out) < 4:
        raise OverSimplified(
            "only %d plane(s) would remain" % len(out)
        )
    try:
        decode_convex(out, eps=eps)
    except GeometryError as exc:
        raise OverSimplified("remaining planes do not bound a solid: %s" % exc)
    return out


def merge_near_parallel(code, adjacency, params):
    """Union adjacent planes whose directions differ by less than tau.

    Clusters are replaced by one plane: the normalized area-weighted
    direction sum, offset so the plane passes through the cluster's
    area centroid.  A cluster's direction evolves as it grows, so each
    union is judged against the merged direction, not the seeds'.
    """
    if params.tau <= 0.0 or not len(code):
        return code
    poly = decode_convex(code)
    areas, centroids = _face_measurements(poly, len(code))
    return _merge_with_metrics(code, areas, centroids, adjacency, params)


def simplify_code(code, params, eps=None):
    """Both passes, for a convex or a segmented code.

    Segmented codes are simplified part by part on their face planes;
    boundary cutting planes are never dropped or merged.
    """
    if isinstance(code, SegmentedCode):
        return SegmentedCode(
            [_simplify_part(p, i, params, eps) for i, p in enumerate(code.parts)]
        )
    out = code
    if params.delta > 0.0:
        out = drop_small_faces(out, params, eps=eps)
    if params.tau > 0.0:
        poly = decode_convex(out, eps=eps)
        out = merge_near_parallel(out, face_adjacency(poly), params)
    return out


def _simplify_part(part, index, params, eps):
    faces = part.face_planes
    boundary = part.boundary_planes

    def part_poly(face_planes):
        return decode_part(PartCode(part.kind, face_planes, boundary), index, eps=eps)

    if params.delta > 0.0:
        poly = part_poly(faces)
        areas, _ = _face_measurements(poly, len(faces) + len(boundary))
        kept = faces[areas[: len(faces)] >= params.delta]
        if not len(kept):
            raise OverSimplified("part %d would lose every face plane" % index)
        try:
            part_poly(kept)
        except PartUndecodable:
            raise OverSimplified(
                "part %d no longer bounds a solid after area pass" % index
            )
        faces = kept

    if params.tau > 0.0 and len(faces):
        poly = part_poly(faces)
        n_face = len(faces)
        adjacency = [
            (i, j) for i, j in face_adjacency(poly) if i < n_face and j < n_face
        ]
        areas, centroids = _face_measurements(poly, n_face + len(boundary))
        faces = _merge_with_metrics(
            faces, areas[:n_face], centroids[:n_face], adjacency, params
        )
    return PartCode(part.kind, faces, boundary)


def _merge_with_metrics(planes, areas, centroids, adjacency, params):
    """merge_near_parallel core against externally supplied metrics."""
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
    out = []
    emitted = set()
    for i in range(n):
        root = find(i)
        if root in emitted:
            continue
        emitted.add(root)
        size = sum(1 for k in range(n) if find(k) == root)
        if size == 1:
            out.append(planes[i])
            continue
        direction = dir_sum[root] / np.linalg.norm(dir_sum[root])
        centroid = cen_sum[root] / area_sum[root]
        out.append(
            snapped_plane(direction, float(direction @ centroid), scale=scale)
        )
    return PlaneSet(out)
