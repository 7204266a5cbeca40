"""Convex plane codes: encode, decode, and closed-form rigid transforms.

A convex solid is stored as the ordered list of its face planes; the
solid itself is the intersection of their closed negative half-spaces.
``PlaneSet`` holds such a list as one (n, 3) float64 array of
``(nu, phi, h)`` rows with the unit normals computed once, so every
module reads normals and offsets from it instead of rebuilding them.
Decoding enumerates all plane triples, solves the 3x3 systems, keeps
the feasible intersection points and reassembles faces as convex rings.

This module also holds the pieces the segmented codec shares: the grid
weld (``weld``), the coplanar-patch flood (``coplanar_patches``) and
the area-weighted plane of a patch (``patch_planes``).  The part
decode that negates pseudo-concave faces lives in
``polygonize.decode_part``.
"""

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import EmptyRegion, NotARotation, NotClosed, UnboundedRegion, NotConvex
from .geometry import (
    OrientedPlane,
    SNAP_AXIS,
    SphericalDirection,
    check_triplets,
    snapped_plane,
    spherical_angles,
    triangle_planes,
)
from .mesh import TriangleMesh

EPS_CONVEX_REL = 1e-7     # convexity slack per unit of bounding-box diagonal
COND_LIMIT = 1e8          # triple solves beyond this condition number are skipped
SNAP_REL = 1e-7           # vertex merge cell per unit of candidate bbox diagonal
FEAS_REL = 1e-9           # feasibility slack per unit of max(1, |h|)
COPLANAR_ANGLE = 1e-6     # radians; triangles closer than this may share a face

_NEIGHBOR_CELLS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
]


class PlaneSet:
    """Ordered oriented planes encoding one convex region.

    Stored as one read-only (n, 3) float64 array of ``(nu, phi, h)``
    rows, with the (n, 3) unit normals derived once from the angles.
    Indexing with an integer and iterating yield ``OrientedPlane``
    views; indexing with a slice or a boolean or index array yields a
    new PlaneSet.  Every constructor checks the angle ranges and that
    the offsets are finite, raising ValueError.
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
        """PlaneSet of unit normals (n, 3) and offsets (n,)."""
        rows = [
            spherical_angles(w) + (float(h),)
            for w, h in zip(np.asarray(normals, dtype=float), offsets)
        ]
        return cls.from_triplets(rows)

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
            nu, phi, h = (float(x) for x in self._triplets[i])
            return OrientedPlane(SphericalDirection(nu, phi), h)
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
        tris = []
        for ring in self.faces:
            for k in range(1, len(ring) - 1):
                tris.append((ring[0], ring[k], ring[k + 1]))
        return TriangleMesh(self.vertices, np.asarray(tris, dtype=np.int64))


def weld(points, cell, radius):
    """Cluster points lying within ``radius`` of a cluster's first point.

    Grid buckets of size ``cell`` with a 27-cell neighborhood check, in
    point order.  Returns each point's cluster label (clusters numbered
    in first-appearance order) and the index of each cluster's first
    point.
    """
    buckets = {}
    firsts = []
    labels = np.empty(len(points), dtype=np.int64)
    cells = np.floor(points / cell).tolist()
    for k, p in enumerate(points):
        x, y, z = (int(v) for v in cells[k])
        hit = -1
        for dx, dy, dz in _NEIGHBOR_CELLS:
            j = buckets.get((x + dx, y + dy, z + dz), -1)
            if j >= 0 and np.linalg.norm(p - points[firsts[j]]) <= radius:
                hit = j
                break
        if hit < 0:
            hit = len(firsts)
            buckets[(x, y, z)] = hit
            firsts.append(k)
        labels[k] = hit
    return labels, np.asarray(firsts, dtype=np.int64)


def decode_convex(code, eps=None):
    """Intersect the closed negative half-spaces of ``code``.

    Enumerates plane triples in chunks, discards solves with condition
    number beyond COND_LIMIT, keeps intersection points feasible for
    every half-space, merges duplicates and builds one convex ring per
    plane with three or more incident vertices.  Output is canonical:
    vertices sorted lexicographically, faces in plane order, each ring
    starting at its smallest vertex index.
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

    triples = np.array(
        list(itertools.combinations(range(n), 3)), dtype=np.int64
    )
    candidates = []
    for lo in range(0, len(triples), 200000):
        chunk = triples[lo : lo + 200000]
        a = normals[chunk]
        b = offsets[chunk]
        cond = np.linalg.cond(a)
        ok = np.isfinite(cond) & (cond < COND_LIMIT)
        if not ok.any():
            continue
        pts = np.linalg.solve(a[ok], b[ok][:, :, None])[:, :, 0]
        good = np.isfinite(pts).all(axis=1)
        dist = pts[good] @ normals.T - offsets
        feasible = (dist <= feas).all(axis=1)
        candidates.append(pts[good][feasible])
    candidates = (
        np.concatenate(candidates) if candidates else np.zeros((0, 3))
    )
    if len(candidates) == 0:
        raise EmptyRegion("no point satisfies all half-spaces")

    span = candidates.max(axis=0) - candidates.min(axis=0)
    diag = float(np.linalg.norm(span))
    cell = SNAP_REL * diag if diag > 0 else 1e-12
    # cluster means; each sum starts from the cluster's first point, since
    # starting from 0.0 would turn a lone -0.0 coordinate into 0.0
    labels, firsts = weld(candidates, cell, 2.0 * cell)
    sums = candidates[firsts]
    later = np.ones(len(candidates), dtype=bool)
    later[firsts] = False
    np.add.at(sums, labels[later], candidates[later])
    verts = sums / np.bincount(labels)[:, None]

    order = np.lexsort((verts[:, 2], verts[:, 1], verts[:, 0]))
    verts = verts[order]

    eps_face = max(feas, 3.0 * cell)
    dist = verts @ normals.T - offsets
    faces = []
    face_planes = []
    redundant = []
    for i in range(n):
        incident = np.where(np.abs(dist[:, i]) <= eps_face)[0]
        if len(incident) < 3:
            redundant.append(i)
            continue
        w = normals[i]
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(w)))] = 1.0
        u = axis - (axis @ w) * w
        u /= np.linalg.norm(u)
        v = np.cross(w, u)
        rel = verts[incident] - verts[incident].mean(axis=0)
        ang = np.arctan2(rel @ v, rel @ u)
        ring = incident[np.argsort(ang)]
        start = int(np.argmin(ring))
        ring = np.roll(ring, -start)
        faces.append([int(x) for x in ring])
        face_planes.append(i)
    return ConvexPolyhedron(verts, faces, face_planes, code, redundant)


def encode_convex(mesh, eps=None):
    """Face planes of a closed convex mesh, coplanar groups merged.

    Every vertex must sit in the closed negative half-space of every
    triangle's plane (within ``eps``, default scaled by the bounding-box
    diagonal); the first violation is reported in the NotConvex error.
    Adjacent coplanar triangles contribute a single area-weighted plane.
    The result is sorted canonically by (nu, phi, h).
    """
    if not mesh.is_closed:
        raise NotClosed("mesh has boundary or over-shared edges")
    diag = mesh.bbox_diagonal()
    if eps is None:
        eps = EPS_CONVEX_REL * diag

    normals, offsets = triangle_planes(*mesh.triangle_corners())
    dist = normals @ mesh.vertices.T - offsets[:, None]
    bad = np.argwhere(dist > eps)
    if len(bad):
        t, v = (int(x) for x in bad[0])
        raise NotConvex(
            "vertex %d lies %.3g outside the plane of triangle %d"
            % (v, float(dist[t, v]), t),
            vertex_index=v,
            triangle_index=t,
        )
    patches = coplanar_patches(mesh, normals, offsets, eps)
    return PlaneSet(patch_planes(mesh, patches, max(1.0, diag))).sorted_canonical()


def coplanar_patches(mesh, normals, offsets, eps, members=None):
    """Partition triangles into edge-connected coplanar patches.

    Two edge neighbors are coplanar when their normals differ by less
    than COPLANAR_ANGLE and their offsets by at most ``eps``.  Only the
    triangles in ``members`` (default: all) take part.  Each patch is a
    sorted list of triangle indices; patches come in order of their
    smallest triangle.
    """
    members = sorted(range(len(mesh.triangles)) if members is None else members)
    unseen = set(members)
    cos_tol = math.cos(COPLANAR_ANGLE)
    patches = []
    for seed in members:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        patch = [seed]
        stack = [seed]
        while stack:
            t = stack.pop()
            for nb in mesh.neighbors[t]:
                if (
                    nb in unseen
                    and normals[t] @ normals[nb] >= cos_tol
                    and abs(offsets[t] - offsets[nb]) <= eps
                ):
                    unseen.discard(nb)
                    patch.append(nb)
                    stack.append(nb)
        patches.append(sorted(patch))
    return patches


def patch_planes(mesh, patches, scale):
    """One plane per triangle patch: area-weighted, through its centroid.

    The direction is the normalized sum of the patch's cross products
    and the plane passes through the area-weighted centroid; both are
    zero-snapped at ``scale`` (see snapped_plane).
    """
    p1, p2, p3 = mesh.triangle_corners()
    cross = np.cross(p2 - p1, p3 - p2)
    centers = (p1 + p2 + p3) / 3.0
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    out = []
    for patch in patches:
        g = np.asarray(patch)
        direction = cross[g].sum(axis=0)
        direction /= np.linalg.norm(direction)
        centroid = (centers[g] * areas[g, None]).sum(axis=0) / areas[g].sum()
        out.append(snapped_plane(direction, float(direction @ centroid), scale=scale))
    return out


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
