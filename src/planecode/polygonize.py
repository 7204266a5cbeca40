"""Polygon faces per part, boundary cutting planes, segmented codec.

Each mesh part is coded as two plane groups: its polygonized face
planes, and extra "cutting" planes that close the part's open boundary
so the convex decoder can rebuild it.  Decoding a pseudo-concave part
negates its face planes (the two part kinds are dual under negation),
decodes with the convex machinery, and flips the windings back;
``decode_part`` is the one place that does this, for decoding and for
simplification alike.  The cutting planes are stored already oriented
so the part's own vertices sit in their closed negative half-spaces;
they are used as stored for both part kinds.

Face polygons come from the coplanar-patch flood and patch planes in
``convex`` run on one part's triangles; decoded part surfaces are
joined with the same grid weld the convex decoder uses.
"""

import math

import numpy as np

from .convex import (
    EPS_CONVEX_REL,
    PlaneSet,
    coplanar_patches,
    decode_convex,
    patch_planes,
    weld,
)
from .errors import (
    BoundaryNotCuttable,
    EmptyRegion,
    GeometryError,
    NonSimpleBoundary,
    PartUndecodable,
    WeldMismatch,
)
from .geometry import TWO_PI, snapped_plane, triangle_planes
from .mesh import TriangleMesh
from .segmentation import PartKind, segment_mesh

EPS_FIT_REL = 1e-9    # planarity: smallest singular value per unit of largest
EPS_LINE_REL = 1e-9   # collinearity of consecutive boundary edges
WELD_REL = 1e-6       # vertex weld cell per unit of decoded bbox diagonal


class PolygonFace:
    """A maximal coplanar patch: its plane and outer vertex ring.

    The ring is counterclockwise seen from the plane's positive side
    and starts at its smallest vertex index.
    """

    def __init__(self, plane, boundary, triangles):
        self.plane = plane
        self.boundary = boundary
        self.triangles = triangles

    def __repr__(self):
        return "PolygonFace(%d-gon, %d triangles)" % (
            len(self.boundary),
            len(self.triangles),
        )


class PartCode:
    def __init__(self, kind, face_planes, boundary_planes):
        self.kind = kind
        self.face_planes = face_planes
        self.boundary_planes = boundary_planes

    def __repr__(self):
        return "PartCode(%s, %d faces + %d boundary)" % (
            self.kind.value,
            len(self.face_planes),
            len(self.boundary_planes),
        )


class SegmentedCode:
    """Ordered list of PartCodes for one segmented mesh."""

    def __init__(self, parts):
        self.parts = list(parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return "SegmentedCode(%d parts)" % len(self.parts)


def polygonize_part(mesh, part, eps=None):
    """Merge edge-adjacent coplanar triangles of a part into polygons.

    Raises NonSimpleBoundary when a merged patch is not a disk (its
    boundary is more than one loop, or pinches at a vertex).
    """
    diag = mesh.bbox_diagonal()
    if eps is None:
        eps = EPS_CONVEX_REL * diag
    normals, offsets = triangle_planes(*mesh.triangle_corners())
    patches = coplanar_patches(mesh, normals, offsets, eps, members=part.triangles)
    planes = patch_planes(mesh, patches, max(1.0, diag))
    return [
        PolygonFace(plane, _patch_ring(mesh, patch), patch)
        for plane, patch in zip(planes, patches)
    ]


def _border_edges(mesh, triangles):
    """Directed edges of ``triangles`` whose reverse none of them walks."""
    walked = set()
    for t in triangles:
        a, b, c = (int(v) for v in mesh.triangles[t])
        walked.update([(a, b), (b, c), (c, a)])
    return [e for e in walked if (e[1], e[0]) not in walked]


def _patch_ring(mesh, patch):
    loops = _chain_loops(_border_edges(mesh, patch))
    if len(loops) != 1:
        raise NonSimpleBoundary(
            "coplanar patch has %d boundary loops, expected 1" % len(loops)
        )
    loop = loops[0]
    start = loop.index(min(loop))
    return loop[start:] + loop[:start]


def _chain_loops(edges):
    """Directed edges -> vertex loops; raises on branch or dead end."""
    succ = {}
    for a, b in edges:
        if a in succ:
            raise NonSimpleBoundary("boundary pinches at vertex %d" % a)
        succ[a] = b
    loops = []
    visited = set()
    for a, _ in sorted(edges):
        if a in visited:
            continue
        loop = [a]
        visited.add(a)
        cur = succ[a]
        while cur != a:
            if cur in visited or cur not in succ:
                raise NonSimpleBoundary("boundary walk does not close")
            loop.append(cur)
            visited.add(cur)
            cur = succ[cur]
        loops.append(loop)
    return loops


def boundary_planes_for_part(mesh, part, eps=None):
    """Cutting planes that close a part's open boundary.

    Boundary edges are chained into loops and fused into straight
    sides.  A loop whose corners are coplanar yields one plane; other
    loops get one plane per planar run of three or more sides, and one
    plane per remaining single side chosen from the side's pencil of
    planes.  Every returned plane keeps all of the part's vertices in
    its closed negative half-space.
    """
    diag = mesh.bbox_diagonal()
    if eps is None:
        eps = EPS_CONVEX_REL * diag
    border = _border_edges(mesh, part.triangles)
    if not border:
        return PlaneSet([])
    part_verts = mesh.vertices[np.unique(mesh.triangles[part.triangles])]
    planes = []
    for loop in _chain_loops(border):
        corners = _fuse_collinear(mesh.vertices[np.asarray(loop)])
        normal, centroid, sv = _fit_svd(corners)
        if sv[2] <= EPS_FIT_REL * max(sv[0], 1.0):
            planes.append(
                _oriented_cut(
                    normal,
                    float(normal @ centroid),
                    part_verts,
                    eps,
                    scale=max(1.0, diag),
                )
            )
        else:
            planes.extend(_cut_warped_loop(corners, part_verts, eps, diag))
    return PlaneSet(planes)


def _fuse_collinear(points):
    m = len(points)
    keep = []
    for i in range(m):
        d1 = points[i] - points[i - 1]
        d2 = points[(i + 1) % m] - points[i]
        lim = EPS_LINE_REL * np.linalg.norm(d1) * np.linalg.norm(d2)
        if np.linalg.norm(np.cross(d1, d2)) > lim:
            keep.append(i)
    if len(keep) < 3:
        raise BoundaryNotCuttable("boundary loop collapses to a line")
    return points[keep]


def _fit_svd(points):
    centroid = points.mean(axis=0)
    _, sv, vt = np.linalg.svd(points - centroid)
    sv = np.concatenate([sv, np.zeros(3 - len(sv))]) if len(sv) < 3 else sv
    return vt[2], centroid, sv


def _oriented_cut(normal, h, part_verts, eps, scale=1.0):
    d = part_verts @ normal - h
    if (d <= eps).all():
        return snapped_plane(normal, h, scale=scale)
    if (d >= -eps).all():
        return snapped_plane(-normal, -h, scale=scale)
    raise BoundaryNotCuttable("rim plane does not separate the part")


def _cut_warped_loop(corners, part_verts, eps, diag):
    """One plane per planar side-run (>= 3 sides), else per single side."""
    m = len(corners)
    assigned = [False] * m
    run_planes = {}
    while True:
        best = None
        for s in range(m):
            if assigned[s]:
                continue
            length = 2
            while length < m and not assigned[(s + length - 1) % m]:
                idx = [(s + k) % m for k in range(length + 2)]
                _, _, sv = _fit_svd(corners[idx])
                if sv[2] > EPS_FIT_REL * max(sv[0], 1.0):
                    break
                length += 1
            # length = longest planar stretch starting at s
            while length >= 3:
                idx = [(s + k) % m for k in range(length + 1)]
                normal, centroid, _ = _fit_svd(corners[idx])
                try:
                    plane = _oriented_cut(
                        normal,
                        float(normal @ centroid),
                        part_verts,
                        eps,
                        scale=max(1.0, diag),
                    )
                except BoundaryNotCuttable:
                    length -= 1
                    continue
                if best is None or length > best[0]:
                    best = (length, s, plane)
                break
        if best is None:
            break
        length, s, plane = best
        for k in range(length):
            assigned[(s + k) % m] = True
        run_planes[s] = plane
    out = []
    for s in range(m):
        if s in run_planes:
            out.append(run_planes[s])
        elif not assigned[s]:
            out.append(
                _pencil_plane(corners[s], corners[(s + 1) % m], part_verts, diag)
            )
    return out


def _pencil_plane(p0, p1, part_verts, diag):
    """Separating plane through the segment p0-p1.

    Any plane containing the segment's line has normal
    cos(t) u + sin(t) v in the basis (u, v) orthogonal to the line.
    Each part vertex off the line forbids the open half-circle of
    normals that would put it strictly outside; the midpoint of the
    widest surviving arc is the most robust choice.
    """
    d = p1 - p0
    d = d / np.linalg.norm(d)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(d)))] = 1.0
    u = axis - (axis @ d) * d
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    rel = part_verts - p0
    a = rel @ u
    b = rel @ v
    keep = np.hypot(a, b) > 1e-9 * max(1.0, diag)
    centers = np.arctan2(b[keep], a[keep])
    arcs = _free_arcs(centers)
    if not arcs:
        raise BoundaryNotCuttable("no separating plane through boundary edge")
    start, width = min(arcs, key=lambda g: (-g[1], g[0]))
    theta = (start + width / 2.0) % TWO_PI
    normal = math.cos(theta) * u + math.sin(theta) * v
    return snapped_plane(normal, float(normal @ p0), scale=max(1.0, diag))


def _free_arcs(centers):
    """Arcs of the circle not covered by any (c - pi/2, c + pi/2)."""
    if len(centers) == 0:
        return [(0.0, TWO_PI)]
    spans = []
    for c in centers:
        s = (c - math.pi / 2.0) % TWO_PI
        e = (c + math.pi / 2.0) % TWO_PI
        if s <= e:
            spans.append((s, e))
        else:
            spans.append((s, TWO_PI))
            spans.append((0.0, e))
    spans.sort()
    merged = [list(spans[0])]
    for s, e in spans[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    arcs = []
    for k in range(len(merged)):
        end = merged[k][1]
        nxt = merged[(k + 1) % len(merged)][0]
        if k == len(merged) - 1:
            nxt += TWO_PI
        width = nxt - end
        if width > 1e-9:
            arcs.append((end % TWO_PI, width))
    return arcs


def encode_segmented(mesh, eps=None):
    """Segment, polygonize, and cut: the full plane-group encoding."""
    parts = segment_mesh(mesh, eps=eps)
    coded = []
    for part in parts:
        faces = polygonize_part(mesh, part, eps=eps)
        face_planes = PlaneSet([f.plane for f in faces]).sorted_canonical()
        boundary = boundary_planes_for_part(mesh, part, eps=eps)
        coded.append(PartCode(part.kind, face_planes, boundary))
    return SegmentedCode(coded)


def decode_part(part, index, eps=None):
    """Decode one part's face and boundary planes as a convex region.

    A pseudo-concave part's face planes are negated first, so the
    result's face rings follow ``part.face_planes`` then
    ``part.boundary_planes``.  Any GeometryError becomes a
    PartUndecodable naming ``index``.
    """
    faces = part.face_planes
    if part.kind is PartKind.PSEUDO_CONCAVE:
        faces = faces.negated()
    try:
        return decode_convex(
            PlaneSet.from_triplets(
                np.concatenate([faces.triplets(), part.boundary_planes.triplets()])
            ),
            eps=eps,
        )
    except GeometryError as exc:
        raise PartUndecodable(
            "part %d undecodable: %s" % (index, exc), part_index=index
        )


def decode_segmented(code, eps=None):
    """Rebuild the welded surface of a segmented code.

    Convex parts decode directly; concave parts decode with negated
    face planes and flipped windings.  Faces contributed by cutting
    planes are dropped, so open parts stay open.  Part surfaces are
    then welded on coincident vertices.
    """
    if not code.parts:
        raise EmptyRegion("segmented code has no parts")
    soup = []
    for i, part in enumerate(code.parts):
        poly = decode_part(part, i, eps=eps)
        concave = part.kind is PartKind.PSEUDO_CONCAVE
        n_face = len(part.face_planes)
        for ring, plane_idx in zip(poly.faces, poly.face_planes):
            if plane_idx >= n_face:
                continue
            pts = poly.vertices[np.asarray(ring)]
            if concave:
                pts = pts[::-1]
            for k in range(1, len(pts) - 1):
                soup.append((pts[0], pts[k], pts[k + 1]))
    if not soup:
        raise EmptyRegion("no faces survived decoding")
    flat = np.asarray(soup, dtype=float).reshape(-1, 3)
    span = flat.max(axis=0) - flat.min(axis=0)
    cell = WELD_REL * float(np.linalg.norm(span))
    if cell <= 0.0:
        cell = 1e-12
    labels, firsts = weld(flat, cell, cell)
    tris = labels.reshape(-1, 3)
    solid = tris[
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 2] != tris[:, 0])
    ]
    out = TriangleMesh(flat[firsts], solid)
    if not out.is_edge_manifold:
        raise WeldMismatch("welded surface has an over-shared edge")
    return out
