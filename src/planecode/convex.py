"""Convex plane codes: encode, decode, and closed-form rigid transforms.

A convex solid is stored as the ordered list of its face planes; the
solid itself is the intersection of their closed negative half-spaces.
``PlaneSet`` holds such a list as one (n, 3) float64 array of
``(nu, phi, h)`` rows with the unit normals computed once, so every
module reads normals and offsets from it instead of rebuilding them.
Decoding finds an interior point as the centre of the largest inscribed
ball, read off the lower hull of the planes lifted to R^4, and hands it
to Qhull's half-space intersection.  Each dual facet Qhull returns is
one vertex together with the planes that meet there: the vertex is
solved from those planes' triples, and the same lists give every face
ring its vertices, so incidence never depends on a distance tolerance.

This module also holds the pieces the segmented codec shares: coplanar
patches as components of coplanar neighbours (``coplanar_patches``), the
area-weighted plane of a patch (``patch_planes``).  The part decode that
negates pseudo-concave faces lives in ``polygonize.decode_part``.
"""

import functools
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import EmptyRegion, NotARotation, NotClosed, UnboundedRegion, NotConvex
from .geometry import (
    OrientedPlane,
    SNAP_AXIS,
    SphericalDirection,
    angle_rows,
    check_triplets,
    row_dots,
    snapped_triplets,
)
from .mesh import TriangleMesh, components, fan

EPS_CONVEX_REL = 1e-7     # convexity slack per unit of bounding-box diagonal
COND_LIMIT = 1e8          # triple solves beyond this condition number are skipped
DET_CLEAR = 2.0 / COND_LIMIT * (1.0 + 1e-6)  # |det| above this proves cond < COND_LIMIT
MAX_VERTEX_TRIPLES = 220  # triples averaged per vertex, C(12, 3): bounds the cost
FEAS_REL = 1e-9           # least inscribed-ball radius per unit of max(1, |h|)
COPLANAR_ANGLE = 1e-6     # radians; triangles closer than this may share a face
CONVEX_ROWS = 64          # triangles per block of the convexity test

class PlaneSet:
    """Ordered oriented planes encoding one convex region.

    Stored as one read-only (n, 3) float64 array of ``(nu, phi, h)``
    rows, with the (n, 3) unit normals derived once from the angles.
    Indexing with an integer and iterating yield ``OrientedPlane``
    views; indexing with a slice or a boolean or index array yields a
    new PlaneSet.  Every constructor checks the angle ranges and that
    the offsets are finite, raising ValueError; the check runs once per
    stored array, and the views trust it rather than checking each row
    again.
    """

    def __init__(self, planes=()):
        rows = [(p.direction.nu, p.direction.phi, p.h) for p in planes]
        self._store(rows)

    @classmethod
    def from_triplets(cls, triplets):
        """PlaneSet of the rows of an (n, 3) ``(nu, phi, h)`` array."""
        out = cls.__new__(cls)
        out._store(triplets)
        return out

    @classmethod
    def from_normals(cls, normals, offsets):
        """PlaneSet of unit normals (n, 3) and offsets (n,), taken as given.

        The angles come from ``angle_rows`` in one batch, so a normal
        that is not unit length raises NotUnitVector naming the first
        such row; nothing is snapped or renormalized.
        """
        w = np.asarray(normals, dtype=float).reshape(-1, 3)
        return cls.from_triplets(np.column_stack([angle_rows(w), offsets]))

    def _store(self, triplets):
        t = np.array(triplets, dtype=float).reshape(-1, 3)
        check_triplets(t)
        nu, phi = t[:, 0], t[:, 1]
        s = np.sin(nu)
        normals = np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(nu)], axis=1)
        t.flags.writeable = False
        normals.flags.writeable = False
        self._triplets = t
        self._normals = normals

    def __len__(self):
        return len(self._triplets)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            # the row passed check_triplets when stored: fill the frozen
            # dataclasses without running their __post_init__ checks
            nu, phi, h = self._triplets[i].tolist()
            direction = object.__new__(SphericalDirection)
            direction.__dict__.update(nu=nu, phi=phi)
            plane = object.__new__(OrientedPlane)
            plane.__dict__.update(direction=direction, h=h)
            return plane
        return PlaneSet.from_triplets(self._triplets[i])

    def __repr__(self):
        return "PlaneSet(n=%d)" % len(self)

    def normals(self):
        return self._normals

    def offsets(self):
        return self._triplets[:, 2]

    def triplets(self):
        """(n, 3) array of (nu, phi, h) rows in list order."""
        return self._triplets

    def negated(self):
        """Every plane with the opposite orientation (omega, h -> -omega, -h)."""
        return PlaneSet.from_normals(-self._normals, -self.offsets())

    def sorted_canonical(self):
        """Planes reordered by (nu, phi, h) for deterministic output."""
        t = self._triplets
        return self[np.lexsort((t[:, 2], t[:, 1], t[:, 0]))]


class ConvexPolyhedron:
    """Decoded solid: vertex array plus convex face rings.

    ``faces[i]`` is a counterclockwise vertex-index ring (seen from
    outside) lying on plane ``planes[face_planes[i]]``.  Planes that
    carry no face (redundant half-spaces) are listed separately rather
    than treated as an error.
    """

    def __init__(self, vertices, faces, face_planes, planes, redundant_planes):
        self.vertices = vertices
        self.faces = faces
        self.face_planes = face_planes
        self.planes = planes
        self.redundant_planes = redundant_planes

    def to_mesh(self):
        """Fan triangulation of the rings, a ring shared by duplicate planes once."""
        return TriangleMesh(self.vertices, fan(self.faces))


def decode_convex(code, eps=None):
    """Intersect the closed negative half-spaces of ``code``.

    The normals must surround the origin, else UnboundedRegion.  An
    interior point is the centre of the largest ball inside every
    half-space (``_chebyshev_centre``); when that ball's radius is at
    most ``eps`` (default FEAS_REL * max(1, max |h|)) the region is
    empty or flat, say a zero-thickness slab, and EmptyRegion is raised.
    Qhull's half-space intersection (Barber, Dobkin and Huhdanpaa, ACM
    TOMS 1996) then gives one dual facet per vertex, listing the planes
    that meet there; the vertex is the mean, in combination order, of
    the 3x3 solves of those planes' triples (``_vertex_points``), with
    triples of condition number COND_LIMIT or more skipped; a closed-form
    determinant clears most triples, since cond(A) <= 2 / |det A| for
    unit rows, and only the rest need an SVD condition estimate.  Each
    plane's ring holds exactly the vertices whose dual facets list it,
    in the order of their normal cones (``_rings``).
    An exact duplicate plane, which Qhull sees once, shares its first
    copy's ring; a plane with fewer than three vertices is redundant.
    Output is canonical: vertices sorted lexicographically, faces in
    plane order, each ring counterclockwise from outside and starting
    at its smallest vertex index.
    """
    n = len(code)
    if n < 4:
        raise UnboundedRegion("%d half-space(s) cannot bound a volume" % n)
    normals = code.normals()
    offsets = code.offsets()

    try:
        hull = ConvexHull(normals)
    except QhullError:
        raise UnboundedRegion("plane normals are degenerate (coplanar or fewer)")
    if hull.equations[:, 3].max() > -1e-9:
        raise UnboundedRegion("normals do not surround the origin")

    feas = FEAS_REL * max(1.0, float(np.abs(offsets).max())) if eps is None else eps

    # Qhull sees each distinct plane once; ``first`` maps every plane to
    # the index of its first exact copy.  Equal rows sit side by side,
    # first copy first, in the stable lexicographic order, which like
    # ``==`` takes h = -0.0 and 0.0 as equal.
    t = code.triplets()
    order = np.lexsort((t[:, 2], t[:, 1], t[:, 0]))
    ts = t[order]
    first = np.arange(n)
    for i in np.flatnonzero((ts[1:] == ts[:-1]).all(axis=1)).tolist():
        first[order[i + 1]] = first[order[i]]
    kept = np.flatnonzero(first == np.arange(n))
    centre, radius = _chebyshev_centre(normals[kept], offsets[kept])
    if radius <= feas:
        raise EmptyRegion(
            "no ball of radius above %.3g fits inside every half-space "
            "(largest radius %.3g)" % (feas, radius)
        )
    try:
        hs = HalfspaceIntersection(
            np.column_stack([normals[kept], -offsets[kept]]), centre
        )
    except QhullError as exc:
        raise EmptyRegion("half-space intersection failed: %s" % exc)

    # one (plane, vertex) incidence pair per entry of a dual facet
    facets = hs.dual_facets
    sizes = np.fromiter(map(len, facets), dtype=np.int64, count=len(facets))
    pair_plane = kept[np.fromiter(itertools.chain.from_iterable(facets), dtype=np.int64)]
    pts = _vertex_points(normals, offsets, pair_plane, sizes, hs.intersections)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    verts = pts[order]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    pair_vert = np.repeat(rank, sizes)
    cones = np.zeros_like(verts)
    np.add.at(cones, pair_vert, normals[pair_plane])

    count = np.bincount(pair_plane, minlength=n)
    face = count[pair_plane] >= 3
    rings = _rings(normals, cones, pair_plane[face], pair_vert[face])

    carrying = count[first] >= 3
    face_planes = np.flatnonzero(carrying).tolist()
    faces = [rings[j] for j in first[carrying].tolist()]
    redundant = np.flatnonzero(~carrying).tolist()
    return ConvexPolyhedron(verts, faces, face_planes, code, redundant)


def _chebyshev_centre(normals, offsets):
    """Centre and radius of the largest ball inside every half-space.

    The ball (x, t) fits when omega_i . x + t <= h_i for every plane,
    that is when the hyperplane h = omega . x + t of R^4 passes below
    every lifted point (omega_i, h_i).  By LP duality the best t is the
    height of the lifted points' lower hull above omega = 0, reached on
    the lower facet that lies highest there.  One extra point above
    that height keeps the lifted set full-dimensional when all planes
    touch one sphere.  The radius returned is the least slack of the
    chosen centre over all planes.
    """
    top = 2.0 * float(np.abs(offsets).max()) + 1.0
    lifted = np.vstack([np.column_stack([normals, offsets]), [[0.0, 0.0, 0.0, top]]])
    try:
        eq = ConvexHull(lifted).equations
    except QhullError as exc:
        raise EmptyRegion("lifted planes have no lower hull: %s" % exc)
    lower = eq[eq[:, 3] < 0.0]
    best = lower[int(np.argmax(-lower[:, 4] / lower[:, 3]))]
    centre = -best[:3] / best[3]
    return centre, float((offsets - normals @ centre).min())


def _vertex_points(normals, offsets, flat, sizes, fallback):
    """One point per dual facet from the 3x3 solves of its plane triples.

    ``flat`` lists the facets' planes back to back, ``sizes`` their
    counts.  Triples are taken in combination order of the sorted
    planes (``_combinations``), at most MAX_VERTEX_TRIPLES of them,
    skipping solves with condition number COND_LIMIT or more
    (``_usable``), and summed in that order.  A facet with no usable
    triple keeps Qhull's own intersection point from ``fallback``.
    """
    pts = np.array(fallback, dtype=float)
    starts = np.cumsum(sizes) - sizes
    for k in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == k)
        planes = np.sort(flat[starts[rows, None] + np.arange(k)], axis=1)
        triples = planes[:, _combinations(k)]
        a = normals[triples]
        ok = _usable(a)
        a[~ok] = np.eye(3)
        sol = np.linalg.solve(a, offsets[triples][:, :, :, None])[:, :, :, 0]
        # x + -0.0 == x for every x, so the skipped solves and the start
        # of the sum leave the kept solves' sum bit for bit, -0.0 included
        sol[~ok] = -0.0
        used = ok.sum(axis=1)
        some = used > 0
        pts[rows[some]] = sol[some].sum(axis=1, initial=-0.0) / used[some, None]
    return pts


def _usable(a):
    """Which 3x3 matrices of unit rows in ``a`` have cond(A) < COND_LIMIT.

    Most are cleared by their closed-form determinant instead of an
    SVD.  For singular values s1 >= s2 >= s3 of A,
    cond(A) = s1 / s3 = s1^2 s2 / |det A|, and unit rows give
    s1^2 + s2^2 + s3^2 = 3, so s1^2 s2 <= 2 (the maximum of
    x sqrt(3 - x), at x = 2).  A matrix with |det A| > DET_CLEAR, which
    is 2 / COND_LIMIT widened by 1e-6 for rounding, therefore has
    cond(A) < COND_LIMIT.  Only the others go through
    ``np.linalg.cond``, so each answer is the one it would give.
    Returns a boolean array of shape ``a.shape[:-2]``.
    """
    x0, y0, z0, x1, y1, z1, x2, y2, z2 = a.reshape(-1, 9).T.copy()
    det = x0 * (y1 * z2 - z1 * y2) - y0 * (x1 * z2 - z1 * x2) + z0 * (x1 * y2 - y1 * x2)
    ok = np.abs(det) > DET_CLEAR
    if not ok.all():
        near = ~ok
        cond = np.linalg.cond(a.reshape(-1, 3, 3)[near])
        ok[near] = np.isfinite(cond) & (cond < COND_LIMIT)
    return ok.reshape(a.shape[:-2])


@functools.lru_cache(maxsize=64)
def _combinations(k):
    """Read-only index array of the first MAX_VERTEX_TRIPLES triples of range(k)."""
    combos = np.array(
        list(itertools.islice(itertools.combinations(range(k), 3), MAX_VERTEX_TRIPLES)),
        dtype=np.int64,
    ).reshape(-1, 3)
    combos.flags.writeable = False
    return combos


def _rings(normals, cones, plane, vert):
    """Counterclockwise vertex rings from (plane, vertex) incidence pairs.

    ``cones[j]`` is the sum of the unit normals of the planes meeting at
    vertex j.  Projected into a face's plane it points into the vertex's
    normal cone within the face, and those cones follow the face's
    vertices once around in counterclockwise order.  So each plane's
    vertices are sorted by the angle of their cone sums in the plane
    basis (u, v = omega x u), where u is the coordinate axis least
    aligned with omega, projected onto the plane.  Unlike the angles of
    the vertices themselves, these angles stay apart when vertices lie
    closer than coordinate rounding.  Each ring then starts at its
    smallest vertex index.  Returns a dict from plane to ring.

    The basis is built once per plane, with v written out as np.cross's
    formula, so it rounds exactly as a basis built per pair would.
    """
    w = normals
    at = (np.arange(len(w)), np.argmin(np.abs(w), axis=1))
    u = -w * w[at][:, None]
    u[at] += 1.0
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w0, w1, w2 = w.T
    u0, u1, u2 = u.T
    v = np.stack([w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0], axis=1)
    c = cones[vert]
    ang = np.arctan2((c * v[plane]).sum(axis=1), (c * u[plane]).sum(axis=1))
    order = np.lexsort((ang, plane))
    rings = {}
    for p, j in zip(plane[order].tolist(), vert[order].tolist()):
        rings.setdefault(p, []).append(j)
    for p, ring in rings.items():
        k = ring.index(min(ring))
        rings[p] = ring[k:] + ring[:k]
    return rings


def encode_convex(mesh, eps=None):
    """Face planes of a closed convex mesh, coplanar groups merged.

    Every vertex must sit in the closed negative half-space of every
    triangle's plane (within ``eps``, default scaled by the bounding-box
    diagonal); the first violation in (triangle, vertex) order is
    reported in the NotConvex error.  The test runs CONVEX_ROWS
    triangles at a time and stops at the first block that fails, so a
    non-convex mesh rarely pays for the whole triangles x vertices table.
    Adjacent coplanar triangles contribute a single area-weighted plane.
    The result is sorted canonically by (nu, phi, h).
    """
    if not mesh.is_closed:
        raise NotClosed("mesh has boundary or over-shared edges")
    diag = mesh.bbox_diagonal()
    if eps is None:
        eps = EPS_CONVEX_REL * diag

    normals, offsets = mesh.planes
    points = mesh.vertices.T
    for r in range(0, len(normals), CONVEX_ROWS):
        dist = normals[r:r + CONVEX_ROWS] @ points - offsets[r:r + CONVEX_ROWS, None]
        bad = np.argwhere(dist > eps)
        if len(bad):
            t, v = (int(x) for x in bad[0])
            raise NotConvex(
                "vertex %d lies %.3g outside the plane of triangle %d"
                % (v, float(dist[t, v]), r + t),
                vertex_index=v,
                triangle_index=r + t,
            )
    patches = coplanar_patches(mesh, normals, offsets, eps)
    return patch_planes(mesh, patches, max(1.0, diag)).sorted_canonical()


def coplanar_patches(mesh, normals, offsets, eps, members=None):
    """Partition triangles into edge-connected coplanar patches.

    Two edge neighbors are coplanar when their normals differ by less
    than COPLANAR_ANGLE and their offsets by at most ``eps``.  Only the
    triangles in ``members`` (default: all) take part, and all their
    neighbour pairs are tested in one batch, each dot product rounding as
    the scalar ``normals[t] @ normals[nb]`` does.  Patches are the
    ``components`` of the coplanar pairs, sorted, smallest triangle first.
    """
    nt = len(mesh.triangles)
    members = np.arange(nt) if members is None else np.unique(members).astype(int)
    inside = np.bincount(members, minlength=nt) > 0
    p, q = mesh.edges.pairs()
    p, q = np.compress(inside[p] & inside[q], (p, q), axis=1)
    dot = row_dots(normals[p], normals[q])
    flat = (dot >= math.cos(COPLANAR_ANGLE)) & (np.abs(offsets[p] - offsets[q]) <= eps)
    root = components(nt, p[flat], q[flat])[members]
    patches = {}
    for t, r in zip(members.tolist(), root.tolist()):
        patches.setdefault(r, []).append(t)
    return list(patches.values())


def patch_planes(mesh, patches, scale):
    """PlaneSet of one plane per triangle patch: area-weighted, through its centroid.

    The direction is the normalized sum of the patch's cross products
    and the plane passes through the area-weighted centroid; both are
    zero-snapped at ``scale`` by one ``snapped_triplets`` call.  Patches
    of one size are summed together, as one (patches, triangles) batch
    whose per-patch sums run in the same order as a single patch's
    would, so every row equals the one a patch-by-patch loop gives.
    """
    p1, p2, p3 = mesh.triangle_corners()
    cross = np.cross(p2 - p1, p3 - p2)
    centers = (p1 + p2 + p3) / 3.0
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    sizes = np.fromiter(map(len, patches), dtype=np.int64, count=len(patches))
    directions = np.empty((len(patches), 3))
    centroids = np.empty((len(patches), 3))
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        g = np.array([patches[r] for r in rows.tolist()], dtype=np.int64)
        a = areas[g]
        directions[rows] = cross[g].sum(axis=1)
        centroids[rows] = (
            (centers[g] * a[:, :, None]).sum(axis=1) / a.sum(axis=1)[:, None]
        )
    directions /= np.sqrt(row_dots(directions, directions))[:, None]
    offsets = row_dots(directions, centroids)
    return PlaneSet.from_triplets(snapped_triplets(directions, offsets, scale=scale))


def translate_planes(code, a):
    """Shift the coded solid by ``a``: directions fixed, h += omega . a."""
    t = code.triplets().copy()
    t[:, 2] += code.normals() @ np.asarray(a, dtype=float)
    return PlaneSet.from_triplets(t)


def rotate_planes(code, r):
    """Rotate the coded solid about the origin: omega -> R omega, h kept.

    The rotated directions are zero-snapped before the angles are taken;
    without it an exact quarter turn leaves 1e-16 dust on pole normals
    and the degenerate azimuth jumps away from its canonical 0.
    """
    w = code.normals() @ check_rotation(r).T
    w[np.abs(w) < SNAP_AXIS] = 0.0
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return PlaneSet.from_normals(w, code.offsets())


def check_rotation(r, tol=1e-9):
    """Validate a proper rotation matrix, returning it as a float array."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise NotARotation("expected a 3x3 matrix, got shape %r" % (r.shape,))
    if not np.isfinite(r).all():
        raise NotARotation("matrix has non-finite entries")
    if np.abs(r.T @ r - np.eye(3)).max() > tol:
        raise NotARotation("matrix is not orthogonal")
    if abs(np.linalg.det(r) - 1.0) > tol:
        raise NotARotation("determinant is not +1")
    return r
