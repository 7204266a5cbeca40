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

Each decoded solid is measured in one pass over its face rings.  Every
ring is fanned from its first vertex; the rings of 3 to SHORT_RING
vertices go through one padded batch, and only longer rings are batched
by length, so the areas and centroids round as a ring measured alone
would.  Two face planes are adjacent when their rings share an edge,
read off one sort of the rings' edge keys.

Each distinct plane set is decoded once, always with the caller's
``eps``: the decode of the input serves the area pass, and the merge
pass reuses it when the area pass drops nothing, or else the decode
that checks the kept planes still bound a solid.
"""

import itertools
import math

import numpy as np

from .convex import PlaneSet, decode_convex
from .errors import GeometryError, OverSimplified
from .geometry import angle_between, cross, row_dots, snapped_triplets
from .polygonize import PartCode, SegmentedCode, decode_part

HALF_PI = np.pi / 2.0
SCREEN_MARGIN = 1e-9  # radians: screened angles this close to tau are recomputed
SCREEN_RANGE = (1e-150, 1e150)  # sum norms that square without under- or overflow
SHORT_RING = 9  # longest ring of the padded batch: numpy sums its 7 fan terms in order


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

    Each ring is fanned from its first vertex, and its area is the sum
    of its fan triangles' areas, its centroid their area-weighted
    centres over that sum.  Rings of 3 to SHORT_RING vertices are
    measured in one batch, each padded with its first vertex to the
    longest of them: a padded slot is a zero-area triangle whose
    weighted centre is set to -0.0, and numpy sums the at most 7 terms
    of a row in order, so every sum rounds as the ring's own would.
    Longer rings, whose sums numpy adds pairwise, are batched one length
    at a time.
    The cross products come from ``cross``, which rounds as ``np.cross``
    does.  A ring with no area (fewer than three vertices, or collinear)
    gets area zero and the mean of its vertices.
    """
    areas = np.zeros(n_planes)
    centroids = np.zeros((n_planes, 3))
    faces = poly.faces
    sizes = np.fromiter(map(len, faces), dtype=np.int64, count=len(faces))
    owner = np.asarray(poly.face_planes, dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(faces), dtype=np.int64, count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    batches = []
    rows = np.flatnonzero((sizes >= 3) & (sizes <= SHORT_RING))
    if len(rows):
        cols = np.arange(sizes[rows].max())
        real = cols < sizes[rows, None]  # slots past a ring's end take its first vertex
        batches.append((rows, flat[starts[rows, None] + cols * real], ~real[:, 2:]))
    for k in sorted(set(sizes[sizes > SHORT_RING].tolist())):
        rows = np.flatnonzero(sizes == k)
        batches.append((rows, flat[starts[rows, None] + np.arange(k)], None))
    no_area = np.flatnonzero(sizes < 3).tolist()
    for rows, ring_idx, pad in batches:
        pts = poly.vertices[ring_idx]
        v0 = pts[:, :1]
        spokes = pts[:, 1:] - v0
        c = cross(spokes[:, :-1], spokes[:, 1:])
        tri = 0.5 * np.sqrt((c * c).sum(axis=2))  # as np.linalg.norm sums it
        weighted = (v0 + pts[:, 1:-1] + pts[:, 2:]) / 3.0 * tri[:, :, None]
        if pad is not None:
            weighted[pad] = -0.0  # x + -0.0 == x for every x
        total = tri.sum(axis=1)
        spans = total > 0.0
        at = owner[rows[spans]]
        areas[at] = total[spans]
        centroids[at] = weighted[spans].sum(axis=1) / total[spans, None]
        no_area += rows[~spans].tolist()
    for r in no_area:
        centroids[owner[r]] = poly.vertices[faces[r]].mean(axis=0)
    return areas, centroids


def _face_adjacency(poly):
    """Sorted plane-index pairs whose faces share an edge, duplicate planes included.

    The rings must be non-empty.  Every ring edge gets one integer key,
    its smaller vertex index times one more than the largest index, plus
    its larger.  One sort puts the edges of a key side by side, and any
    two of them pair their rings' planes.  A repeated plane shares its
    copy's ring, so three or more edges of one key are paired at offsets
    1, 2, ... in turn.  The cost grows with the number of ring edges, not
    with planes times vertices.
    """
    faces = poly.faces
    sizes = np.fromiter(map(len, faces), dtype=np.int64, count=len(faces))
    a = np.fromiter(itertools.chain.from_iterable(faces), dtype=np.int64, count=int(sizes.sum()))
    ends = np.cumsum(sizes)
    after = np.arange(1, len(a) + 1)
    after[ends - 1] = ends - sizes  # each ring's last edge closes it
    b = a[after]
    key = np.minimum(a, b) * (int(a.max(initial=0)) + 1) + np.maximum(a, b)
    order = np.argsort(key)
    key = key[order]
    owner = np.repeat(np.asarray(poly.face_planes, dtype=np.int64), sizes)[order]
    n = int(owner.max(initial=0)) + 1
    pairs = [owner[:0]]
    for d in range(1, len(key)):
        same = np.flatnonzero(key[d:] == key[:-d])
        if not len(same):
            break
        i, j = owner[same], owner[same + d]
        pairs.append((np.minimum(i, j) * n + np.maximum(i, j))[i != j])
    i, j = np.divmod(np.unique(np.concatenate(pairs)), n)
    return list(zip(i.tolist(), j.tolist()))


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
    starts "part <index>: ".  A NaN ``eps`` raises ValueError, also
    when no pass runs.
    """
    if eps is not None and math.isnan(eps):
        raise ValueError("eps must not be NaN")
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
