"""Polygon faces per part, boundary cutting planes, segmented codec.

Each mesh part is coded as two plane groups: its polygonized face
planes, and extra "cutting" planes that close the part's open boundary
so the convex decoder can rebuild it.  Decoding a pseudo-concave part
negates its face planes (the two part kinds are dual under negation),
decodes with the convex machinery, and flips the windings back.
``_region`` is the one place that negates, part by part, for
``decode_part`` (simplification, one part at a time) and
``decode_parts`` (decoding and the encode's self-check, all parts at
once) alike.  The cutting planes are stored already oriented so the
part's own vertices sit in their closed negative half-spaces; they are
used as stored for both part kinds.

A part reads all its face polygons from one face table
(``convex.FaceTable``): its coplanar patches, their planes from one
``patch_planes`` call and their border edges from one grouped
``mesh.EdgeTable``.  That is the mesh's own table (``convex.face_table``),
built once per encode, when every patch the part touches lies wholly
inside it; otherwise, when a part border cuts a patch, it is a table of
the part's own triangles.  A part's rim is the border of its triangles
in the mesh's edge table (``EdgeTable.border``), the rule that also
outlines each patch.  All the parts of a code decode in one
``convex.decode_regions`` call (``decode_parts``), for the self-check of
an encode and for a decode alike; their kept rings are fanned by one
``mesh.fan`` call and joined by one ``mesh.weld``.
"""

import math

import numpy as np

from .convex import FaceTable, PlaneSet, decode_convex, decode_regions, face_table
from .errors import (
    BoundaryNotCuttable,
    EmptyRegion,
    GeometryError,
    NonSimpleBoundary,
    PartUndecodable,
    WeldMismatch,
)
from .geometry import TWO_PI, cross, snapped_triplets
from .mesh import TriangleMesh, fan, weld
from .segmentation import PartKind, segment_mesh

EPS_FIT_REL = 1e-9    # planarity: smallest singular value per unit of largest
EPS_LINE_REL = 1e-9   # collinearity of consecutive boundary edges
WELD_REL = 1e-6       # vertex weld radius per unit of decoded bbox diagonal


class PolygonFace:
    """A maximal coplanar patch: its plane's (nu, phi, h) row and outer vertex ring.

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

    The faces are the part's coplanar patches, in order of their
    smallest triangle, read from one face table: the mesh's own
    (``convex.face_table``) unless the part's border cuts one of its
    patches, else a table of the part's own triangles, since a cut
    patch may fall apart inside the part.
    Raises NonSimpleBoundary when a merged patch is not a disk (its
    boundary is more than one loop, or pinches at a vertex).
    """
    table = face_table(mesh, eps)
    members = np.unique(np.asarray(part.triangles, dtype=np.int64))
    count = np.bincount(table.labels[members], minlength=len(table.patches))
    ids = np.flatnonzero(count).tolist()
    if (count[ids] < table.sizes[ids]).any():
        table = FaceTable(mesh, table.eps, members)
        ids = range(len(table.patches))
    return [
        PolygonFace(
            table.planes[k], _patch_ring(_chain_loops(table.borders[k])), list(table.patches[k])
        )
        for k in ids
    ]


def _patch_ring(loops):
    if len(loops) != 1:
        raise NonSimpleBoundary(
            "coplanar patch has %d boundary loops, expected 1" % len(loops)
        )
    return loops[0]


def _chain_loops(edges):
    """Directed edges -> vertex loops; raises on branch or dead end.

    Walks start at the unwalked vertices in increasing order, and the
    loops are disjoint, so each loop starts at its smallest vertex.
    """
    succ = {}
    for a, b in edges:
        if a in succ:
            raise NonSimpleBoundary("boundary pinches at vertex %d" % a)
        succ[a] = b
    loops = []
    for a in sorted(succ):
        if a in succ:  # not walked yet
            loop, cur = [a], succ.pop(a)
            while cur != a:
                if cur not in succ:
                    raise NonSimpleBoundary("boundary walk does not close")
                loop.append(cur)
                cur = succ.pop(cur)
            loops.append(loop)
    return loops


def boundary_planes_for_part(mesh, part, eps=None):
    """Cutting planes that close a part's open boundary.

    Boundary edges are chained into loops and fused into straight
    sides.  A loop whose corners are coplanar yields one plane; other
    loops get one plane per planar run of three or more sides, and one
    plane per remaining single side chosen from the side's pencil of
    planes (``_pencil_plane``): the middle of the one arc of its normals
    that keeps the part behind it.  That arc is an intersection of
    half-circles, so it is one arc or none.  Every returned plane keeps
    all of the part's vertices in its closed negative half-space.  The
    cuts are snapped together by one ``snapped_triplets`` call.
    """
    eps = mesh.slack(eps)
    scale = max(1.0, mesh.bbox_diagonal())
    part_verts = mesh.vertices[np.unique(mesh.triangles[part.triangles])]
    planes = []
    a, b, _ = mesh.edges.border(part.triangles)
    for loop in _chain_loops(zip(a.tolist(), b.tolist())):
        corners = _fuse_collinear(mesh.vertices[np.asarray(loop)])
        normal, centroid, sv = _fit_svd(corners)
        if sv[2] <= EPS_FIT_REL * max(sv[0], 1.0):
            planes.append(
                _oriented_cut(normal, float(normal @ centroid), part_verts, eps)
            )
        else:
            planes.extend(_cut_warped_loop(corners, part_verts, eps, scale))
    offsets = [h for _, h in planes]
    return PlaneSet(snapped_triplets([n for n, _ in planes], offsets, scale=scale))


def _fuse_collinear(points):
    """The loop's corners whose two sides are not collinear, in loop order.

    A corner goes when the cross product of its incoming and outgoing
    sides is at most EPS_LINE_REL times the product of their lengths.
    """
    d1 = points - np.roll(points, 1, axis=0)
    d2 = np.roll(points, -1, axis=0) - points
    lim = EPS_LINE_REL * np.linalg.norm(d1, axis=1) * np.linalg.norm(d2, axis=1)
    keep = np.linalg.norm(cross(d1, d2), axis=1) > lim
    if np.count_nonzero(keep) < 3:
        raise BoundaryNotCuttable("boundary loop collapses to a line")
    return points[keep]


def _fit_svd(points):
    """Normal, centroid and singular values of the best plane through 3+ points."""
    centroid = points.mean(axis=0)
    _, sv, vt = np.linalg.svd(points - centroid)
    return vt[2], centroid, sv


def _oriented_cut(normal, h, part_verts, eps):
    """(normal, h) turned so the part lies behind it, or BoundaryNotCuttable."""
    d = part_verts @ normal - h
    if (d <= eps).all():
        return normal, h
    if (d >= -eps).all():
        return -normal, -h
    raise BoundaryNotCuttable("rim plane does not separate the part")


def _cut_warped_loop(corners, part_verts, eps, scale):
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
                        normal, float(normal @ centroid), part_verts, eps
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
                _pencil_plane(corners[s], corners[(s + 1) % m], part_verts, scale)
            )
    return out


def _pencil_plane(p0, p1, part_verts, scale):
    """(normal, h) of a separating plane through the segment p0-p1.

    Any plane containing the segment's line has normal
    cos(t) u + sin(t) v in the basis (u, v) orthogonal to the line.
    Each part vertex off the line forbids the open half-circle of
    normals that would put it strictly outside.  What survives is an
    intersection of closed half-circles, so it is one arc or nothing,
    and its midpoint is the most robust choice (``_free_arc``).
    """
    d = p1 - p0
    d = d / np.linalg.norm(d)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(d)))] = 1.0
    u = axis - (axis @ d) * d
    u /= np.linalg.norm(u)
    v = cross(d, u)
    rel = part_verts - p0
    a = rel @ u
    b = rel @ v
    keep = np.hypot(a, b) > 1e-9 * scale
    arc = _free_arc(np.arctan2(b[keep], a[keep]))
    if arc is None:
        raise BoundaryNotCuttable("no separating plane through boundary edge")
    start, width = arc
    theta = (start + width / 2.0) % TWO_PI
    normal = math.cos(theta) * u + math.sin(theta) * v
    return normal, float(normal @ p0)


def _free_arc(centers):
    """(start, width) of the arc no (c - pi/2, c + pi/2) covers, or None.

    Sorted, the centres leave one widest circular gap; the arc runs from
    pi/2 past the centre before it to pi/2 short of the one after it.
    Any other gap is below pi, so no other arc exists.  An arc of width
    1e-9 or less counts as none, and no centres leave the whole circle.
    """
    if len(centers) == 0:
        return 0.0, TWO_PI
    c = np.sort(centers)
    gaps = np.diff(c, append=c[0] + TWO_PI)
    k = int(np.argmax(gaps))
    if not gaps[k] > math.pi:
        return None
    end = (c[k] + math.pi / 2.0) % TWO_PI
    nxt = (c[(k + 1) % len(c)] - math.pi / 2.0) % TWO_PI
    if nxt < end:  # the arc wraps through angle 0
        nxt += TWO_PI
    width = nxt - end
    # end rounds to 2pi itself when c[k] + pi/2 is a tiny negative
    return (end % TWO_PI, width) if width > 1e-9 else None


def encode_segmented(mesh, eps=None):
    """Segment, polygonize, and cut: the full plane-group encoding.

    Every part code is decoded once before it is kept, so a part its
    own decoder would reject (too few planes, coplanar normals, no
    interior) raises PartUndecodable naming the part instead of
    producing a code that cannot be read back.  The parts are built in
    order and their codes decoded together (``decode_parts``).  The
    error is the one a part-by-part loop would raise: when building
    part j fails, the first of parts 0 to j - 1 that does not decode,
    else part j's own GeometryError.
    """
    parts = segment_mesh(mesh, eps=eps)
    coded, failure = [], None
    for part in parts:
        try:
            faces = polygonize_part(mesh, part, eps=eps)
            face_planes = PlaneSet([f.plane for f in faces]).sorted_canonical()
            boundary = boundary_planes_for_part(mesh, part, eps=eps)
        except GeometryError as exc:
            failure = exc
            break
        coded.append(PartCode(part.kind, face_planes, boundary))
    decode_parts(coded, eps=eps)
    if failure is not None:
        raise failure
    return SegmentedCode(coded)


def _region(part):
    """A part's planes as one convex region: its face planes, then its cuts.

    A pseudo-concave part's face planes are negated.
    """
    faces = part.face_planes
    if part.kind is PartKind.PSEUDO_CONCAVE:
        faces = faces.negated()
    return PlaneSet.concatenate([faces, part.boundary_planes])


def _undecodable(exc, index):
    return PartUndecodable("part %d undecodable: %s" % (index, exc), part_index=index)


def decode_part(part, index, eps=None):
    """Decode one part's face and boundary planes as a convex region.

    A pseudo-concave part's face planes are negated first, so the
    result's face rings follow ``part.face_planes`` then
    ``part.boundary_planes``.  Any GeometryError becomes a
    PartUndecodable naming ``index``.
    """
    try:
        return decode_convex(_region(part), eps=eps)
    except GeometryError as exc:
        raise _undecodable(exc, index)


def decode_parts(parts, eps=None):
    """``decode_part`` of every part, in one ``decode_regions`` call.

    Returns each part's ConvexPolyhedron, in order; the first part that
    does not decode raises its PartUndecodable.
    """
    polys = decode_regions([_region(part) for part in parts], eps=eps)
    for i, poly in enumerate(polys):
        if isinstance(poly, GeometryError):
            raise _undecodable(poly, i)
    return polys


def decode_segmented(code, eps=None):
    """Rebuild the welded surface of a segmented code.

    All parts decode in one batch (``decode_parts``): convex parts
    directly, concave parts with negated face planes, their rings fanned
    reversed.  Faces contributed by cutting planes are dropped, so open
    parts stay open, and a ring shared by exact duplicate face planes is
    fanned once: every part's kept rings go through one ``fan`` call.
    Part surfaces are then welded on vertices within WELD_REL times
    their bounding-box diagonal of one another (``weld``), in unit
    scale, as the parts decode: the points over 2^e, e the binary
    exponent of their largest |coordinate|, which scales every distance
    exactly and keeps the diagonal from overflowing.
    """
    if not code.parts:
        raise EmptyRegion("segmented code has no parts")
    polys = decode_parts(code.parts, eps=eps)
    rings = []
    base = 0
    for part, poly in zip(code.parts, polys):
        n_face = len(part.face_planes)
        step = -1 if part.kind is PartKind.PSEUDO_CONCAVE else 1
        rings += [
            [base + j for j in ring[::step]]
            for ring, plane_idx in zip(poly.faces, poly.face_planes)
            if plane_idx < n_face
        ]
        base += len(poly.vertices)
    flat = np.concatenate([poly.vertices for poly in polys])[fan(rings)].reshape(-1, 3)
    if not len(flat):
        raise EmptyRegion("no faces survived decoding")
    e = math.frexp(float(np.abs(flat).max()))[1]
    unit = np.ldexp(flat, -e)
    radius = WELD_REL * float(np.linalg.norm(unit.max(axis=0) - unit.min(axis=0)))
    if radius <= 0.0:
        radius = math.ldexp(1e-12, -e)
    labels, firsts = weld(unit, radius)
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
