"""Convex plane codes: encode, decode, and closed-form rigid transforms.

A convex solid is stored as the ordered list of its face planes; the
solid itself is the intersection of their closed negative half-spaces.
``PlaneSet`` holds such a list as one (n, 3) float64 array of
``(nu, phi, h)`` rows with the unit normals computed once, so every
module reads normals and offsets from it instead of rebuilding them.
It is the one plane container: a single plane is one of its rows, a
``(nu, phi, h)`` tuple, with no object of its own.
Decoding (``decode_regions``, of which ``decode_convex`` is the
one-region case) takes a list of plane sets.  Qhull runs once per
region, and every other step once over all the regions' planes back to
back, so the parts of a segmented code share one pass of numpy glue.
Each region is decoded in unit scale, its offsets over a power of two,
so a code decodes at any finite scale.  Decoding first checks that the
normals surround the origin, mostly by a certified screen of 128
support values and only otherwise by the 3-D hull of the normals.  It then needs an interior point.  The least-squares
centre of the planes, one 4x4 solve, serves when it is provably well
inside; otherwise the centre of the largest inscribed ball, read off the
lower hull of the planes lifted to R^4, does.  Qhull's half-space
intersection from that point is, for a typical decode, the one Qhull
call.  Each dual facet it returns is one vertex together with the
planes that meet there: the vertex is solved from those planes'
triples, all in one batch when every vertex is simple (three planes),
and the same lists give every face ring its vertices, so incidence
never depends on a distance tolerance.

This module also holds the pieces the segmented codec shares: coplanar
patches as components of coplanar neighbours (``coplanar_patches``), the
area-weighted plane of a patch (``patch_planes``), and the face table that
holds both, with the patches' borders, for a set of triangles
(``FaceTable``).  ``face_table`` builds the whole mesh's table once per
mesh and slack and caches it on the mesh, so ``encode_convex``,
``mesh_io.count_coplanar_patches`` and every part of a segmented encode
read one set of patches, one ``patch_planes`` call's rows and, when a part
asks, one grouped edge table's patch borders.  A part that cuts a patch
builds a table of its own triangles instead.  The part decodes that
negate pseudo-concave faces live in ``polygonize`` (``decode_part`` and
``decode_parts``).
"""

import functools
import itertools
import math
import weakref

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import (
    EmptyRegion,
    GeometryError,
    NotARotation,
    NotClosed,
    NotConvex,
    UnboundedRegion,
)
from .geometry import (
    SNAP_AXIS,
    angle_rows,
    check_triplets,
    cross,
    row_dots,
    snapped_triplets,
)
from .mesh import TriangleMesh, components, fan, group_borders

COND_LIMIT = 1e8          # triple solves beyond this condition number are skipped
DET_CLEAR = 2.0 / COND_LIMIT * (1.0 + 1e-6)  # |det| above this proves cond < COND_LIMIT
MAX_VERTEX_TRIPLES = 220  # triples averaged per vertex, C(12, 3): bounds the cost
FEAS_REL = 1e-9           # least inscribed-ball radius per unit of max(1, |h|)
COPLANAR_ANGLE = 1e-6     # radians; triangles closer than this may share a face
CONVEX_ROWS = 64          # triangles per block of the convexity test
SURROUND_DIRECTIONS = 128 # directions probed by the surround screen
SURROUND_MARGIN = 1e-6    # ball about the origin the surround screen proves
CENTRED_SLACK = 0.5       # least over mean slack of an accepted least-squares centre
ROTATION_TOL = 1e-9       # largest |R^T R - I| entry and |det R - 1| of a rotation

class PlaneSet:
    """Ordered oriented planes encoding one convex region.

    Stored as one read-only (n, 3) float64 array of ``(nu, phi, h)``
    rows, with the (n, 3) unit normals derived once from the angles.
    ``PlaneSet(rows)`` takes any sequence or (n, 3) array of rows and
    checks the angle ranges and that the offsets are finite, raising
    ValueError; ``from_normals`` checks the same.  Indexing with an
    integer and iterating yield each row as a ``(nu, phi, h)`` tuple of
    Python floats.  Indexing with a slice or a boolean or index array
    yields a new PlaneSet that takes the chosen rows with their
    normals, as ``concatenate`` takes the rows of several sets; the
    check runs once per stored array, and the sets taken from it trust
    it rather than checking each row again.  numpy's elementwise sin
    and cos round a row the same wherever it sits in an array, so
    reused normals are the ones a new set would compute.
    """

    def __init__(self, rows=()):
        t = np.array(rows, dtype=float).reshape(-1, 3)
        check_triplets(t)
        nu, phi = t[:, 0], t[:, 1]
        s = np.sin(nu)
        normals = np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(nu)], axis=1)
        t.flags.writeable = False
        normals.flags.writeable = False
        self._triplets = t
        self._normals = normals

    @classmethod
    def from_normals(cls, normals, offsets):
        """PlaneSet of unit normals (n, 3) and offsets (n,), taken as given.

        The angles come from ``angle_rows`` in one batch, so a normal
        that is not unit length raises NotUnitVector naming the first
        such row; nothing is snapped or renormalized.
        """
        w = np.asarray(normals, dtype=float).reshape(-1, 3)
        return cls(np.column_stack([angle_rows(w), offsets]))

    @classmethod
    def concatenate(cls, sets):
        """PlaneSet of the planes of ``sets`` in turn, their normals reused."""
        sets = list(sets)
        return cls._of(
            np.concatenate([p._triplets for p in sets]),
            np.concatenate([p._normals for p in sets]),
        )

    @classmethod
    def _of(cls, triplets, normals):
        """PlaneSet of rows already checked, with their normals: nothing is recomputed."""
        out = cls.__new__(cls)
        out._triplets = triplets.reshape(-1, 3)
        out._normals = normals.reshape(-1, 3)
        out._triplets.flags.writeable = False
        out._normals.flags.writeable = False
        return out

    def __len__(self):
        return len(self._triplets)

    def __iter__(self):
        return map(tuple, self._triplets.tolist())

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return tuple(self._triplets[i].tolist())
        return PlaneSet._of(self._triplets[i], self._normals[i])

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

    The one-region case of ``decode_regions``: returns the region's
    ConvexPolyhedron, or raises the GeometryError it returns.
    """
    poly = decode_regions([code], eps)[0]
    if isinstance(poly, GeometryError):
        raise poly
    return poly


def decode_regions(codes, eps=None):
    """Intersect the closed negative half-spaces of each PlaneSet in ``codes``.

    Returns, for each region in order, its ConvexPolyhedron or the
    GeometryError its decode raises, so that a caller raises the errors
    of many regions in its own order.  Qhull runs once per region;
    every other step runs once over all the regions' planes back to
    back, and each region's values round as they would alone.

    A region needs four planes, and normals that surround the origin,
    else UnboundedRegion.  A screen (``_surrounds_origin``) proves the
    latter for most codes from 128 support values: when the normals'
    support function exceeds the net's covering radius plus
    SURROUND_MARGIN in every direction of SURROUND_NET, their hull holds
    a ball about the origin.  Only a region it cannot clear builds the
    3-D hull of its normals, whose facets must all pass more than 1e-9
    from the origin.
    Each region is decoded in unit scale: its offsets and ``eps``
    (default FEAS_REL * max(1, max |h|)) are divided by 2^k, k the
    binary exponent of its max |h|, and its vertices multiplied back.
    A power of two scales exactly, and a triple solve's pivots read only
    the normals, so a solved vertex keeps its bits, while offsets near
    the float limit no longer overflow Qhull; error texts give radii in
    the caller's units.
    The interior point is first the least-squares centre
    (``_least_squares_centres``, one 4x4 solve per region, stacked),
    kept only when a ball larger than ``eps`` fits about it and it is
    well centred.  When it is refused, or Qhull's intersection from it
    fails, the interior point is the centre of the largest ball inside
    every half-space (``_chebyshev_centre``, one 4-D hull); when that
    ball's radius is at most ``eps`` the region is empty or flat, say a
    zero-thickness slab, and its result is EmptyRegion.
    Qhull's half-space intersection (Barber, Dobkin and Huhdanpaa, ACM
    TOMS 1996) gives one dual facet per vertex, listing the planes that
    meet there; the vertex is the mean, in combination order, of the
    3x3 solves of those planes' triples (``_triple_points``), with
    triples of condition number COND_LIMIT or more skipped; a
    closed-form determinant clears most triples, since
    cond(A) <= 2 / |det A| for unit rows, and only the rest need an SVD
    condition estimate.  When every vertex has three planes, as at a
    simple vertex, all of them are solved in one batch.  A vertex with
    no usable triple takes Qhull's own intersection point, which moves
    with the interior point, so it is always taken from the Chebyshev
    centre's intersection; when that intersection lists other dual
    facets, the region takes its whole output.  So a typical region
    makes one Qhull call, the intersection.
    Each plane's ring holds exactly the vertices whose dual facets list
    it, in the order of their normal cones (``_rings``).
    An exact duplicate plane, which Qhull sees once, shares its first
    copy's ring; a plane with fewer than three vertices is redundant.
    Output is canonical: vertices sorted lexicographically, faces in
    plane order, each ring counterclockwise from outside and starting
    at its smallest vertex index.
    """
    codes = list(codes)
    out = [None] * len(codes)
    live = []
    for r, code in enumerate(codes):
        if len(code) < 4:
            out[r] = UnboundedRegion("%d half-space(s) cannot bound a volume" % len(code))
        else:
            live.append(r)
    if not live:
        return out
    normals, t, starts = _stacked(codes, live)
    cleared = _surrounds_origin(normals, starts)
    if not all(cleared):
        for i, ok in enumerate(cleared):
            if not ok:
                out[live[i]] = _surround_error(normals[starts[i]:starts[i + 1]])
        if any(out[r] is not None for r in live):
            live = [r for r in live if out[r] is None]
            if not live:
                return out
            normals, t, starts = _stacked(codes, live)
    k = len(live)
    total = starts[-1]

    # each region in unit scale: its offsets and ``feas`` over 2^e, e the
    # binary exponent of its largest |h|, so that its offsets lie in [0, 1)
    if k > 1:
        top = np.maximum.reduceat(np.abs(t[:, 2]), starts[:-1]).tolist()
    else:
        top = [float(np.abs(t[:, 2]).max())]
    e = [math.frexp(x)[1] for x in top]
    feas = [math.ldexp(FEAS_REL * max(1.0, x) if eps is None else eps, -y) for x, y in zip(top, e)]
    if k > 1:
        region = np.repeat(np.arange(k), np.diff(starts))
        offsets = np.ldexp(t[:, 2], np.negative(e)[region])
        order = np.lexsort((*t.T[::-1], region))
    else:
        offsets = np.ldexp(t[:, 2], -e[0])
        order = np.lexsort(t.T[::-1])

    # Qhull sees each distinct plane once; ``first`` maps every plane to
    # the index of its first exact copy in its region.  Equal rows of a
    # region sit side by side, first copy first, in the stable
    # lexicographic order, which like ``==`` takes h = -0.0 and 0.0 as
    # equal; with the region as the leading key, each region keeps its
    # positions.  Two regions never meet in an equal pair: a region's
    # last row has its largest nu, above pi/2 since some normal points
    # down, and the next region's first row its least, below pi/2.
    ts = t[order]
    same = (ts[1:] == ts[:-1]).all(axis=1)
    first = np.arange(total)
    if same.any():
        for i in np.flatnonzero(same).tolist():
            first[order[i + 1]] = first[order[i]]
        kept = np.flatnonzero(first == np.arange(total))
        w, h = normals[kept], offsets[kept]
        bounds = np.searchsorted(kept, starts).tolist()
    else:
        kept, w, h, bounds = first, normals, offsets, starts

    # one Qhull intersection per region, and its (plane, vertex)
    # incidence pairs, one per entry of a dual facet
    done = []
    for i, centre in enumerate(_least_squares_centres(w, h, feas, bounds)):
        a, b = bounds[i], bounds[i + 1]
        hs = cheb = None
        if centre is not None:
            try:
                hs = HalfspaceIntersection(_augmented(w[a:b], -h[a:b]), centre)
            except QhullError:
                pass
        if hs is None:
            try:
                hs = cheb = _chebyshev_intersection(w[a:b], h[a:b], feas[i], e[i])
            except GeometryError as exc:
                out[live[i]] = exc
                continue
        done.append((i, hs, cheb, *_incidences(hs, kept[a:b])))
    if not done:
        return out
    sizes = _joined([d[3] for d in done])
    pair_plane = _joined([d[4] for d in done])
    pts, missing = _triple_points(normals, offsets, pair_plane, sizes)
    if missing.any():
        # Qhull's own point moves with the interior point, so a vertex
        # with no usable triple takes the Chebyshev centre's point: the
        # output never depends on which centre served the intersection
        cuts = np.cumsum([len(d[3]) for d in done])[:-1]
        redone, blocks = [], []
        for (i, hs, cheb, n, pairs), p, m in zip(done, np.split(pts, cuts), np.split(missing, cuts)):
            if m.any():
                a, b = bounds[i], bounds[i + 1]
                if cheb is None:
                    try:
                        cheb = _chebyshev_intersection(w[a:b], h[a:b], feas[i], e[i])
                    except GeometryError as exc:
                        out[live[i]] = exc
                        continue
                points = _matched_points(hs, cheb)
                if points is None:
                    hs, (n, pairs) = cheb, _incidences(cheb, kept[a:b])
                    p = _vertex_points(normals, offsets, pairs, n, cheb.intersections)
                else:
                    p[m] = points[m]
            redone.append((i, hs, cheb, n, pairs))
            blocks.append(p)
        done = redone
        if not done:
            return out
        pts = _joined(blocks)
        sizes = _joined([d[3] for d in done])
        pair_plane = _joined([d[4] for d in done])

    # vertices sorted within each region and scaled back
    nv = [len(d[3]) for d in done]
    vstart = list(itertools.accumulate(nv, initial=0))
    if len(done) > 1:
        vregion = np.repeat(np.arange(len(done)), nv)
        order = np.lexsort((*pts.T[::-1], vregion))
        scale = np.repeat([e[d[0]] for d in done], nv)[:, None]
    else:
        order = np.lexsort(pts.T[::-1])
        scale = e[done[0][0]]
    verts = np.ldexp(pts[order], scale)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    pair_vert = np.repeat(rank, sizes)
    cones = np.zeros_like(pts)
    np.add.at(cones, pair_vert, normals[pair_plane])

    # each ring numbers its vertices within its region
    count = np.bincount(pair_plane, minlength=total)
    face = count[pair_plane] >= 3
    local = pair_vert[face]
    if len(done) > 1:
        local = local - np.repeat(vstart[:-1], nv)[local]
    rings = _rings(normals, cones[pair_vert[face]], pair_plane[face], local)

    carrying = count[first] >= 3
    faced, spare, first = carrying.tolist(), (~carrying).tolist(), first.tolist()
    for (i, *_), vs, ve in zip(done, vstart, vstart[1:]):
        a, b = starts[i], starts[i + 1]
        out[live[i]] = ConvexPolyhedron(
            verts[vs:ve],
            [rings[j] for j in itertools.compress(first[a:b], faced[a:b])],
            list(itertools.compress(range(b - a), faced[a:b])),
            codes[live[i]],
            list(itertools.compress(range(b - a), spare[a:b])),
        )
    return out


def _stacked(codes, live):
    """Normals and rows of ``codes[r]`` for r in ``live``, back to back, and each one's start.

    The starts are a list that ends with the total.
    """
    if len(live) == 1:
        code = codes[live[0]]
        return code.normals(), code.triplets(), [0, len(code)]
    sets = [codes[r] for r in live]
    starts = list(itertools.accumulate(map(len, sets), initial=0))
    return (
        np.concatenate([c.normals() for c in sets]),
        np.concatenate([c.triplets() for c in sets]),
        starts,
    )


def _joined(arrays):
    """``np.concatenate(arrays)``, with a single array returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _fibonacci_sphere(k):
    """(k, 3) unit directions spread evenly over the sphere (Fibonacci lattice)."""
    i = np.arange(k) + 0.5
    z = 1.0 - 2.0 * i / k
    r = np.sqrt(1.0 - z * z)
    theta = math.pi * (1.0 + math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _covering_radius(net):
    """Least chord distance within which every unit vector has a direction of ``net``.

    The unit vectors farthest from the net are the centres of the
    empty caps that the facets of the net's convex hull cut off the
    sphere: a facet's outward unit normal, equidistant from its three
    corners, with no direction of the net nearer.  The radius is the
    largest distance from such a normal to its facet's corners.
    """
    hull = ConvexHull(net)
    corners = net[hull.simplices]
    return float(np.linalg.norm(corners - hull.equations[:, None, :3], axis=2).max())


SURROUND_NET = _fibonacci_sphere(SURROUND_DIRECTIONS)
SURROUND_RHO = _covering_radius(SURROUND_NET)


def _augmented(normals, last):
    """(n, 4) rows of the (n, 3) ``normals`` with ``last`` as a fourth column.

    The values of ``np.column_stack``, without its overhead.
    """
    out = np.empty((len(normals), 4))
    out[:, :3] = normals
    out[:, 3] = last
    return out


def _surrounds_origin(normals, starts):
    """Whether each region's unit normals provably surround the origin with room to spare.

    Region i holds the rows from ``starts[i]`` to ``starts[i + 1]``.  The
    support function h(d) = max_i omega_i . d of unit normals moves by
    at most |d - d'| between two directions, and every unit vector lies
    within SURROUND_RHO of a direction d_j of SURROUND_NET.  So when
    every h(d_j) exceeds SURROUND_RHO + SURROUND_MARGIN, h exceeds
    SURROUND_MARGIN everywhere: the normals' hull holds the ball of that
    radius about the origin, every facet of it lies farther than that
    from the origin, and the normals span three dimensions.  That is the
    answer ``_surround_error``'s hull check would reach, far beyond its
    1e-9 slack and Qhull's rounding.  A False, NaN normals included,
    proves nothing; the caller then runs the check itself.  Returns one
    bool per region.
    """
    support = normals @ SURROUND_NET.T
    bound = SURROUND_RHO + SURROUND_MARGIN
    if len(starts) == 2:
        return [bool(support.max(axis=0).min() > bound)]
    return (np.maximum.reduceat(support, starts[:-1]).min(axis=1) > bound).tolist()


def _surround_error(normals):
    """UnboundedRegion unless the hull of the unit ``normals`` keeps 1e-9 off the origin."""
    try:
        hull = ConvexHull(normals)
    except QhullError:
        return UnboundedRegion("plane normals are degenerate (coplanar or fewer)")
    if hull.equations[:, 3].max() > -1e-9:
        return UnboundedRegion("normals do not surround the origin")
    return None


def _least_squares_centres(normals, offsets, feas, bounds):
    """One cheap interior point per region, or None where it is not provably well inside.

    Region i holds the rows from ``bounds[i]`` to ``bounds[i + 1]``.  Its
    point x is the least-squares fit of omega_j . x + r = h_j over its
    planes, one 4x4 normal-equations solve, all regions' solves stacked,
    so its slacks s_j = h_j - omega_j . x are as even as a fit makes
    them.  It is kept only when both of these hold:

    - its least slack exceeds ``feas[i]``.  The ball of that radius
      about x fits inside every half-space, so the largest inscribed
      ball is larger still and the region is not the one
      ``decode_regions`` refuses as empty or flat.
    - it is well centred: its least slack is at least CENTRED_SLACK
      times the mean slack.  Qhull intersects the half-spaces through
      the hull of the dual points omega_j / s_j, whose norms are then at
      most 1 / (CENTRED_SLACK * mean slack); no plane lies much nearer x
      than the planes do on average, so no dual point lies far out of
      the cloud and Qhull's rounding stays near that of the Chebyshev
      centre's dual points.

    A single region's sums are BLAS products, as they always were;
    several regions' sums run in row order, per region.  A non-finite
    slack fails a test, and the caller falls back to
    ``_chebyshev_centre``.
    """
    a = _augmented(normals, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if len(bounds) == 2:
            x = np.linalg.solve(a.T @ a, a.T @ offsets)[:3]
            slack = offsets - normals @ x
            least = slack.min()
            return [x if least > feas[0] and least >= CENTRED_SLACK * slack.mean() else None]
        starts = bounds[:-1]
        n = np.diff(bounds)
        m = np.add.reduceat(a[:, :, None] * a[:, None, :], starts)
        x = np.linalg.solve(m, np.add.reduceat(a * offsets[:, None], starts)[:, :, None])
        x = x[:, :3, 0]
        slack = offsets - row_dots(normals, np.repeat(x, n, axis=0))
        least = np.minimum.reduceat(slack, starts)
        ok = (least > feas) & (least >= CENTRED_SLACK * np.add.reduceat(slack, starts) / n)
    return [c if good else None for c, good in zip(x, ok.tolist())]


def _chebyshev_intersection(normals, offsets, feas, e=0):
    """Qhull's half-space intersection from the Chebyshev centre.

    EmptyRegion when the largest inscribed ball has radius at most
    ``feas``, or when Qhull fails.  The offsets and ``feas`` are in units
    of 2^e, and the error text gives radii in the caller's units.
    """
    centre, radius = _chebyshev_centre(normals, offsets)
    if radius <= feas:
        raise EmptyRegion(
            "no ball of radius above %.3g fits inside every half-space "
            "(largest radius %.3g)" % (math.ldexp(feas, e), math.ldexp(radius, e))
        )
    try:
        return HalfspaceIntersection(_augmented(normals, -offsets), centre)
    except QhullError as exc:
        raise EmptyRegion("half-space intersection failed: %s" % _first_line(exc))


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
        raise EmptyRegion("lifted planes have no lower hull: %s" % _first_line(exc))
    lower = eq[eq[:, 3] < 0.0]
    best = lower[int(np.argmax(-lower[:, 4] / lower[:, 3]))]
    centre = -best[:3] / best[3]
    return centre, float((offsets - normals @ centre).min())


def _first_line(exc):
    """The first line of a Qhull report: its error code and one-line reason."""
    return str(exc).partition("\n")[0]


def _incidences(hs, kept):
    """Each dual facet's plane count, and its planes back to back as code indices."""
    facets = hs.dual_facets
    sizes = np.fromiter(map(len, facets), dtype=np.int64, count=len(facets))
    return sizes, kept[np.fromiter(itertools.chain.from_iterable(facets), dtype=np.int64)]


def _matched_points(first, other):
    """``other``'s intersection points in the order of ``first``'s dual facets.

    Facets are matched by their sets of planes; None when the two
    intersections do not list the same sets, each once.
    """
    if other is first:
        return first.intersections
    where = {tuple(sorted(f)): i for i, f in enumerate(other.dual_facets)}
    at = [where.get(tuple(sorted(f)), -1) for f in first.dual_facets]
    if sorted(at) != list(range(len(other.dual_facets))):
        return None
    return other.intersections[at]


def _vertex_points(normals, offsets, flat, sizes, fallback):
    """One point per dual facet: ``_triple_points``, else Qhull's from ``fallback``."""
    pts, missing = _triple_points(normals, offsets, flat, sizes)
    pts[missing] = fallback[missing]
    return pts


def _triple_points(normals, offsets, flat, sizes):
    """One point per dual facet from the 3x3 solves of its plane triples.

    ``flat`` lists the facets' planes back to back, ``sizes`` their
    counts.  Triples are taken in combination order of the sorted
    planes (``_combinations``), at most MAX_VERTEX_TRIPLES of them,
    skipping solves with condition number COND_LIMIT or more
    (``_usable``), and summed in that order.  Returns the points and a
    mask of the facets with no usable triple, whose rows the caller
    fills with Qhull's own intersection points.  When every facet lists
    three planes, their one triple each is screened and solved in one
    batch, with no sum: a mean of one solve is that solve, bit for bit.
    """
    if len(flat) == 3 * len(sizes):
        # every facet lists at least three planes, so here each lists
        # exactly three: one triple per vertex, and its solve is the mean
        triples = np.sort(flat.reshape(-1, 3), axis=1)
        a = normals[triples]
        ok = _usable(a)
        if not ok.all():
            a[~ok] = np.eye(3)
        sol = np.linalg.solve(a, offsets[triples][:, :, None])[:, :, 0]
        return sol, ~ok
    pts = np.zeros((len(sizes), 3))
    missing = np.ones(len(sizes), dtype=bool)
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
        missing[rows[some]] = False
    return pts, missing


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

    ``cones[i]`` is the sum of the unit normals of the planes meeting at
    pair i's vertex.  Projected into a face's plane it points into the
    vertex's normal cone within the face, and those cones follow the
    face's vertices once around in counterclockwise order.  So each
    plane's vertices are sorted by the angle of their cone sums in the
    plane basis (u, v = omega x u), where u is the coordinate axis least
    aligned with omega, projected onto the plane.  Unlike the angles of
    the vertices themselves, these angles stay apart when vertices lie
    closer than coordinate rounding.  Each ring then starts at its
    smallest vertex number.  Returns a dict from plane to ring.

    The basis is built once per plane, with v from ``cross``, so it
    rounds exactly as a basis built per pair would.
    """
    w = normals
    at = (np.arange(len(w)), np.argmin(np.abs(w), axis=1))
    u = -w * w[at][:, None]
    u[at] += 1.0
    u /= np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))  # np.linalg.norm's sum
    v = cross(w, u)
    ang = np.arctan2((cones * v[plane]).sum(axis=1), (cones * u[plane]).sum(axis=1))
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
    triangle's plane (within ``eps``, default ``mesh.slack()``); the first
    violation in (triangle, vertex) order is reported in the NotConvex
    error.  The test runs CONVEX_ROWS triangles at a time and stops at
    the first block that fails, so a non-convex mesh rarely pays for the
    whole triangles x vertices table.
    Adjacent coplanar triangles contribute a single area-weighted plane,
    read from the mesh's face table (``face_table``).
    Fewer than 4 such patches bound no volume (a flat or empty mesh) and
    raise UnboundedRegion, as ``decode_convex`` would on their code.
    The result is sorted canonically by (nu, phi, h).
    """
    if not mesh.is_closed:
        raise NotClosed("mesh has boundary or over-shared edges")
    normals, offsets = mesh.planes
    eps = mesh.slack(eps)
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
    table = face_table(mesh, eps)
    if len(table.patches) < 4:
        raise UnboundedRegion("%d half-space(s) cannot bound a volume" % len(table.patches))
    return table.planes.sorted_canonical()


class FaceTable:
    """The maximal coplanar patches of a set of triangles, with their planes and borders.

    ``patches`` is ``coplanar_patches`` over the mesh's triangles, or over
    ``members`` alone: each patch's triangles in increasing order, the
    patches in order of their smallest triangle.  ``sizes`` holds the
    patch sizes and ``labels[t]`` the patch of triangle t, or -1 for a
    triangle outside the table.  ``planes`` is one ``patch_planes``
    call's PlaneSet, a row per patch, and ``borders`` each patch's border
    edges from one grouped ``EdgeTable`` of the patches' triangles
    (``mesh.group_borders``); both are built on first read, so a convex
    encode never builds the borders.  Only a built table's patch sums can
    overflow (a cube scaled by 1e77), and then every read of ``planes``
    raises as ``patch_planes`` does.  The table refers to its mesh
    weakly: cached on the mesh, it makes no cycle.
    """

    def __init__(self, mesh, eps, members=None):
        self.eps = eps
        self.patches = coplanar_patches(mesh, *mesh.planes, eps, members=members)
        self._mesh = weakref.proxy(mesh)

    @functools.cached_property
    def sizes(self):
        return np.fromiter(map(len, self.patches), dtype=np.int64, count=len(self.patches))

    @functools.cached_property
    def _grouped(self):
        """The patches' triangles back to back, and the patch of each."""
        order = np.fromiter(itertools.chain.from_iterable(self.patches), dtype=np.int64)
        return order, np.repeat(np.arange(len(self.patches)), self.sizes)

    @functools.cached_property
    def labels(self):
        order, group = self._grouped
        labels = np.full(len(self._mesh.triangles), -1, dtype=np.int64)
        labels[order] = group
        return labels

    @functools.cached_property
    def planes(self):
        return patch_planes(self._mesh, self.patches, max(1.0, self._mesh.bbox_diagonal()))

    @functools.cached_property
    def borders(self):
        order, group = self._grouped
        return group_borders(self._mesh.triangles[order], group, len(self.patches))


def face_table(mesh, eps=None):
    """The FaceTable of ``mesh`` at slack ``mesh.slack(eps)``, built once per slack."""
    eps = mesh.slack(eps)
    tables = mesh.face_tables
    if eps not in tables:
        tables[eps] = FaceTable(mesh, eps)
    return tables[eps]


def coplanar_patches(mesh, normals, offsets, eps, members=None):
    """Partition triangles into edge-connected coplanar patches.

    Two edge neighbors are coplanar when their normals differ by less
    than COPLANAR_ANGLE and their offsets by at most ``eps``.  Only the
    triangles in ``members`` (default: all) take part, and all their
    neighbour pairs are tested in one batch, each dot product rounding as
    the scalar ``normals[t] @ normals[nb]`` does.  Patches are the
    ``components`` of the coplanar pairs, run over the members alone,
    sorted, smallest triangle first; with no coplanar pair, as on a
    hull, each member is its own patch and nothing is sorted.
    """
    nt = len(mesh.triangles)
    members = np.arange(nt) if members is None else np.unique(members).astype(int)
    inside = np.bincount(members, minlength=nt) > 0
    p, q = mesh.edges.pairs()
    p, q = np.compress(inside[p] & inside[q], (p, q), axis=1)
    dot = row_dots(normals[p], normals[q])
    flat = (dot >= math.cos(COPLANAR_ANGLE)) & (np.abs(offsets[p] - offsets[q]) <= eps)
    if not flat.any():
        return [[t] for t in members.tolist()]
    local = np.cumsum(inside) - 1  # a member's position in ``members``
    root = components(len(members), local[p[flat]], local[q[flat]])
    # each component's root is its least member, so a stable sort by root
    # lists the patches in order of their smallest triangle
    order = np.argsort(root, kind="stable")
    r = root[order]
    cuts = (np.flatnonzero(r[1:] != r[:-1]) + 1).tolist()
    m = members[order].tolist()
    return [m[a:b] for a, b in zip([0, *cuts], [*cuts, len(m)])]


def patch_planes(mesh, patches, scale):
    """PlaneSet of one plane per triangle patch: area-weighted, through its centroid.

    The direction is the normalized sum of the patch's cross products
    and the plane passes through the area-weighted centroid; both are
    zero-snapped at ``scale`` by one ``snapped_triplets`` call.  Patches
    of one size are summed together, as one (patches, triangles) batch
    whose per-patch sums run in the same order as a single patch's
    would, so every row equals the one a patch-by-patch loop gives.
    Only the patches' own triangles are measured.
    """
    v = mesh.vertices
    sizes = np.fromiter(map(len, patches), dtype=np.int64, count=len(patches))
    directions = np.empty((len(patches), 3))
    centroids = np.empty((len(patches), 3))
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        g = np.array([patches[r] for r in rows.tolist()], dtype=np.int64)
        t = mesh.triangles[g]
        p1, p2, p3 = v[t[..., 0]], v[t[..., 1]], v[t[..., 2]]
        c = cross(p2 - p1, p3 - p2)
        a = 0.5 * np.linalg.norm(c, axis=2)
        directions[rows] = c.sum(axis=1)
        centroids[rows] = (
            ((p1 + p2 + p3) / 3.0 * a[:, :, None]).sum(axis=1) / a.sum(axis=1)[:, None]
        )
    directions /= np.sqrt(row_dots(directions, directions))[:, None]
    offsets = row_dots(directions, centroids)
    return PlaneSet(snapped_triplets(directions, offsets, scale=scale))


def translate_planes(code, a):
    """Shift the coded solid by ``a``: directions fixed, h += omega . a.

    A shift turns no normal, so the moved set keeps the code's normals
    and only the offsets are checked again.
    """
    t = code.triplets().copy()
    t[:, 2] += code.normals() @ np.asarray(a, dtype=float)
    check_triplets(t)
    return PlaneSet._of(t, code.normals())


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


def check_rotation(r):
    """Validate a proper rotation matrix, returning it as a float array."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise NotARotation("expected a 3x3 matrix, got shape %r" % (r.shape,))
    if not np.isfinite(r).all():
        raise NotARotation("matrix has non-finite entries")
    if np.abs(r.T @ r - np.eye(3)).max() > ROTATION_TOL:
        raise NotARotation("matrix is not orthogonal")
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise NotARotation("determinant is not +1")
    return r
