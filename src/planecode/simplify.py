"""Lossy plane-code simplification: small faces out, near-parallel merged.

A convex code is simplified as a part with no cutting planes, so one
routine serves both code kinds: the passes touch only face planes, and
either pass raises OverSimplified when it would leave fewer than 4
planes in all, or no face plane.

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

import math

import numpy as np

from .convex import PlaneSet, decode_convex
from .errors import GeometryError, OverSimplified
from .geometry import angle_between, cross, row_dots, snapped_triplets
from .mesh import EdgeTable
from .polygonize import PartCode, SegmentedCode, decode_part

HALF_PI = np.pi / 2.0
SCREEN_MARGIN = 1e-9  # radians: screened angles this close to tau are recomputed
SCREEN_RANGE = (1e-150, 1e150)  # sum norms that square without under- or overflow


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


def _face_adjacency(poly):
    """Sorted plane-index pairs whose faces share an edge, duplicate planes included."""
    planes = np.take(poly.face_planes, EdgeTable(poly.faces).pairs(every=True))
    return sorted({(min(p), max(p)) for p in zip(*planes.tolist()) if p[0] != p[1]})


def simplify_code(code, params, eps=None):
    """Both passes, for a convex or a segmented code.

    A convex code is simplified as one part with no cutting planes;
    each part of a segmented code is simplified on its face planes, and
    its boundary cutting planes are never dropped or merged.  The area
    pass keeps the face planes whose decoded face area is at least
    ``params.delta``; a redundant plane has area zero, so delta = 0
    keeps every plane.  The merge pass then unions adjacent face planes
    whose directions differ by less than ``params.tau`` (skipped at
    tau = 0).  Either pass raises OverSimplified when it would leave
    fewer than 4 planes in all, or no face plane; a part's message
    starts "part <index>: ".
    """
    if not isinstance(code, SegmentedCode):
        return _simplify_faces(
            code, 0, lambda planes: decode_convex(planes, eps=eps), "", params
        )
    parts = []
    for i, part in enumerate(code.parts):
        cuts = part.boundary_planes
        faces = _simplify_faces(
            part.face_planes,
            len(cuts),
            lambda planes: decode_part(PartCode(part.kind, planes, cuts), i, eps=eps),
            "part %d: " % i,
            params,
        )
        parts.append(PartCode(part.kind, faces, cuts))
    return SegmentedCode(parts)


def _simplify_faces(faces, n_cuts, decode, prefix, params):
    """Both passes over ``faces``, closed by ``n_cuts`` cutting planes.

    ``decode(faces)`` decodes them with the cutting planes, whose face
    rings come last; it runs again only when the area pass drops a
    plane.  OverSimplified messages start with ``prefix``.
    """
    if params.delta <= 0.0 and params.tau <= 0.0:
        return faces
    poly = decode(faces)
    areas, centroids = _face_measurements(poly, len(faces) + n_cuts)
    if params.delta > 0.0:
        kept = faces[areas[: len(faces)] >= params.delta]
        _check_remaining(kept, n_cuts, prefix)
        if len(kept) < len(faces):
            try:
                poly = decode(kept)
            except GeometryError as exc:
                raise OverSimplified(
                    prefix + "remaining planes do not bound a solid: %s" % exc
                )
            areas, centroids = _face_measurements(poly, len(kept) + n_cuts)
        faces = kept
    if params.tau > 0.0:
        n_face = len(faces)
        adjacency = [
            (i, j) for i, j in _face_adjacency(poly) if i < n_face and j < n_face
        ]
        faces = _merge_with_metrics(
            faces, areas[:n_face], centroids[:n_face], adjacency, params
        )
        _check_remaining(faces, n_cuts, prefix)
    return faces


def _check_remaining(faces, n_cuts, prefix):
    """OverSimplified unless 4 planes in all and one face plane remain."""
    if len(faces) + n_cuts < 4:
        raise OverSimplified(
            prefix + "only %d plane(s) would remain" % (len(faces) + n_cuts)
        )
    if not len(faces):
        raise OverSimplified(prefix + "no face plane would remain")


def _merge_with_metrics(planes, areas, centroids, adjacency, params):
    """Union adjacent planes whose directions differ by less than tau.

    Clusters are replaced by one plane: the normalized area-weighted
    direction sum, offset so the plane passes through the cluster's
    area centroid.  A cluster's direction evolves as it grows, so each
    union is judged against the merged direction, not the seeds'.
    ``areas`` and ``centroids`` are the measured faces of ``planes``.

    Direction sums are kept as Python float rows, added by the same
    IEEE additions as numpy rows.  Each pair's angle is screened in
    ``math``; only when it lies within SCREEN_MARGIN of tau, or a sum is
    too small or too large to square safely, is the pair decided by
    ``_exact_angle``, numpy's norm and ``angle_between``.  Centroid and
    area sums are folded after the loop, in merge order, and the merged
    planes come from one ``snapped_triplets`` call.
    """
    n = len(planes)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    areas = np.asarray(areas, dtype=float)
    dir_sum = (planes.normals() * areas[:, None]).tolist()
    tau = params.tau
    merges = []
    for i, j in sorted(adjacency):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        angle = _screen_angle(dir_sum[ri], dir_sum[rj])
        if angle is None or abs(angle - tau) <= SCREEN_MARGIN:
            angle = _exact_angle(dir_sum[ri], dir_sum[rj])
            if angle is None:
                continue
        if angle < tau:
            parent[rj] = ri
            dir_sum[ri] = [a + b for a, b in zip(dir_sum[ri], dir_sum[rj])]
            merges.append((ri, rj))
    if not merges:
        return planes
    cen_sum = np.asarray(centroids) * areas[:, None]
    area_sum = areas.copy()
    for ri, rj in merges:
        cen_sum[ri] += cen_sum[rj]
        area_sum[ri] += area_sum[rj]
    roots = np.array([find(i) for i in range(n)])
    _, first = np.unique(roots, return_index=True)
    first.sort()
    merged = np.bincount(roots, minlength=n)[roots[first]] > 1
    ids = roots[first[merged]]
    direction = np.array([dir_sum[r] for r in ids.tolist()])
    direction /= np.sqrt(row_dots(direction, direction))[:, None]
    centroid = cen_sum[ids] / area_sum[ids, None]
    scale = max(1.0, float(np.abs(np.asarray(centroids)).max(initial=0.0)))
    rows = planes.triplets()[first]
    rows[merged] = snapped_triplets(direction, row_dots(direction, centroid), scale=scale)
    return PlaneSet(rows)


def _screen_angle(a, b):
    """Angle between two direction sums in Python floats, or None.

    Rounds differently from ``_exact_angle`` by far less than
    SCREEN_MARGIN.  None when a norm lies outside SCREEN_RANGE.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    na = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    nb = math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    lo, hi = SCREEN_RANGE
    if not (lo < na < hi and lo < nb < hi):
        return None
    a0, a1, a2 = a0 / na, a1 / na, a2 / na
    b0, b1, b2 = b0 / nb, b1 / nb, b2 / nb
    c0 = a1 * b2 - a2 * b1
    c1 = a2 * b0 - a0 * b2
    c2 = a0 * b1 - a1 * b0
    return math.atan2(math.sqrt(c0 * c0 + c1 * c1 + c2 * c2), a0 * b0 + a1 * b1 + a2 * b2)


def _exact_angle(a, b):
    """Angle between two direction sums as numpy rounds it; None when one is zero."""
    a, b = np.array(a), np.array(b)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return None
    return angle_between(a / na, b / nb)
