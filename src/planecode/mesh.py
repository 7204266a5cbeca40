"""Triangle surfaces, the one edge table and component routine, the weld and the fan.

The edge table also holds the one border rule: an edge is on the border
of a set of rings when they walk it one way only.  It gives each coplanar
patch its outline (``group_borders``) and each segmented part its rim
(``EdgeTable.border`` with the part's triangles).
"""

import functools
import math

import numpy as np
from scipy.spatial import cKDTree

from .geometry import cross, triangle_planes

SLACK_REL = 1e-7  # encode-side point-to-plane slack per unit of bounding-box diagonal


class TriangleMesh:
    """Vertices plus triangles, with lazily built edges, planes, diagonal and face tables.

    ``vertices`` is an (V, 3) float array, ``triangles`` a (T, 3) int
    array.  Each triangle lists its corners counterclockwise as seen
    from outside the surface.  The mesh itself is permissive; callers
    that need watertightness or manifoldness check the flags below.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ValueError("triangle index out of range")

    def __repr__(self):
        return "TriangleMesh(V=%d, T=%d)" % (len(self.vertices), len(self.triangles))

    # -- edge topology -------------------------------------------------

    @functools.cached_property
    def edges(self):
        """The triangles' EdgeTable."""
        return EdgeTable(self.triangles)

    @functools.cached_property
    def neighbors(self):
        """Per triangle, its neighbours over edges walked exactly twice, unordered."""
        return adjacency(len(self.triangles), *self.edges.pairs())

    @functools.cached_property
    def planes(self):
        """(normals, offsets) of every triangle's plane, from ``triangle_planes``.

        Built once per mesh and read-only, so the convex attempt, the
        segmentation and every part's polygons share one pass; a degenerate
        triangle raises DegenerateTriangle on every read, since a failed
        read caches nothing.
        """
        normals, offsets = triangle_planes(*self.triangle_corners())
        normals.flags.writeable = offsets.flags.writeable = False
        return normals, offsets

    @functools.cached_property
    def face_tables(self):
        """Slack value -> this mesh's ``convex.FaceTable``, filled by ``convex.face_table``."""
        return {}

    @property
    def is_edge_manifold(self):
        return bool((self.edges.size <= 2).all())

    @property
    def is_closed(self):
        return bool((self.edges.size == 2).all())

    @property
    def is_consistently_oriented(self):
        """Every shared edge is traversed once in each direction."""
        e = self.edges
        s = e.start[e.size == 2]
        return bool((e.a[s] != e.a[s + 1]).all())

    def boundary_edges(self):
        """Directed edges owned by exactly one triangle, as the triangle walks them."""
        e = self.edges
        s = e.start[e.size == 1]
        return list(zip(e.a[s].tolist(), e.b[s].tolist()))

    # -- measures ------------------------------------------------------

    @functools.cached_property
    def _diagonal(self):
        if len(self.vertices) == 0:
            return 0.0
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    def bbox_diagonal(self):
        return self._diagonal

    def slack(self, eps=None):
        """``eps`` when given, else SLACK_REL times the bounding-box diagonal.

        Every encode-side point-to-plane test takes its slack here, so a
        given ``eps`` that is NaN, infinite or negative raises ValueError
        for all of them.
        """
        if eps is None:
            return SLACK_REL * self._diagonal
        if not 0 <= eps < math.inf:
            raise ValueError("eps must be finite and >= 0, got %r" % (eps,))
        return eps

    def triangle_corners(self):
        """The three corner arrays (T, 3) of every triangle."""
        v = self.vertices
        t = self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def surface_area(self):
        if len(self.triangles) == 0:
            return 0.0
        p1, p2, p3 = self.triangle_corners()
        cr = cross(p2 - p1, p3 - p1)
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())

    def volume(self):
        """Signed enclosed volume by the divergence theorem.

        Only meaningful for closed, consistently outward-oriented
        surfaces; open meshes give the partial flux sum.
        """
        if len(self.triangles) == 0:
            return 0.0
        p1, p2, p3 = self.triangle_corners()
        return float(np.einsum("ij,ij->i", p1, cross(p2, p3)).sum() / 6.0)

    # -- transforms ----------------------------------------------------

    def translated(self, a):
        return TriangleMesh(self.vertices + np.asarray(a, dtype=float), self.triangles)

    def rotated(self, r):
        r = np.asarray(r, dtype=float)
        return TriangleMesh(self.vertices @ r.T, self.triangles)


class EdgeTable:
    """Directed edges (a, b) of vertex rings and their owning rings, one run per edge.

    ``rings`` is a (count, k) array, such as triangles.  One stable
    ``np.lexsort`` on the columns (group, min, max), never packed into one
    integer that could overflow, makes each undirected edge of a group one
    run, given by ``start`` and ``size``.
    """

    def __init__(self, rings, group=None):
        rings = np.asarray(rings)
        a = rings.ravel()
        b = np.concatenate([rings[:, 1:], rings[:, :1]], axis=1).ravel()  # last edge closes
        self.ring_count = len(rings)
        owner = np.repeat(np.arange(len(rings)), rings.shape[1])
        keys = [np.maximum(a, b), np.minimum(a, b)]
        if group is not None:
            keys.append(np.asarray(group)[owner])
        order = np.lexsort(keys)
        self.a, self.b, self.owner = a[order], b[order], owner[order]
        ks = np.array(keys)[:, order]
        change = (ks[:, 1:] != ks[:, :-1]).any(axis=0)
        self.start = np.flatnonzero(np.concatenate(([len(a) > 0], change)))
        self.size = np.concatenate((self.start[1:], [len(a)])) - self.start

    def pairs(self):
        """Owners (i, j) of each 2-run."""
        s = self.start[self.size == 2]
        return self.owner[s], self.owner[s + 1]

    def border(self, rings=None):
        """(a, b, owner) of each edge whose reverse no ring of its group walks, once.

        With ``rings``, indices of some of the rings, only their edges
        count: an edge they walk one way only is given as they walk it,
        owned by the first of them in its run, whether or not other rings
        walk it too, and an edge that only other rings walk is not given.
        """
        up, count = self.a < self.b, self.size
        if rings is not None:
            walked = np.zeros(self.ring_count, dtype=bool)
            walked[rings] = True
            walked = walked[self.owner]
            up, count = up & walked, np.add.reduceat(walked, self.start)
        forward = np.add.reduceat(up, self.start)
        one_way = (count > 0) & ((forward == 0) | (forward == count))
        s = self.start[one_way & (self.a[self.start] != self.b[self.start])]
        if rings is not None:
            at = np.flatnonzero(walked)
            s = at[np.searchsorted(at, s)]  # the first walked edge of each run
        return self.a[s], self.b[s], self.owner[s]


def group_borders(triangles, group, n):
    """Per group of range(n), the (a, b) edges ``EdgeTable.border`` gives its triangles.

    ``group`` labels each row of ``triangles``.  One grouped table serves
    every group, and since the group is its first sort key, each group's
    list is the one a table of that group's triangles alone would give.
    """
    a, b, owner = EdgeTable(triangles, group).border()
    ends = np.searchsorted(np.asarray(group)[owner], np.arange(1, n + 1)).tolist()
    a, b = a.tolist(), b.tolist()
    return [list(zip(a[i:j], b[i:j])) for i, j in zip([0, *ends], ends)]


def adjacency(n, i, j):
    """Per node of range(n), the nodes paired with it in (i, j), both ways."""
    x = np.concatenate([i, j])
    y = np.concatenate([j, i])[np.argsort(x, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(x, minlength=n)).tolist()
    return [y[e0:e1] for e0, e1 in zip([0] + ends[:-1], ends)]


def components(n, a, b):
    """Label each of n nodes with the least node in its component under edges (a, b).

    Each round hooks the larger root of every split edge onto the smaller and
    compresses paths fully (Shiloach and Vishkin, J. Algorithms 1982).
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while (root[root] != root).any():
            root = root[root]


def weld(points, radius):
    """Cluster points joined by chains of pairs at most ``radius`` apart.

    Exact duplicates meet in one stable lexicographic sort, which like
    ``==`` takes -0.0 and 0.0 as equal.  For ``radius`` > 0 a k-d tree
    (Bentley, CACM 1975) lists the distinct points within Euclidean
    distance ``radius``, and ``components`` joins them.  Returns each
    point's cluster label, clusters numbered in order of their first
    point, and the index of each cluster's first point.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    order = np.lexsort((p[:, 2], p[:, 1], p[:, 0]))
    ps = p[order]
    same = (ps[1:] == ps[:-1]).all(axis=1)
    a, b = order[:-1][same], order[1:][same]  # copies meet in the sort
    if radius > 0:
        heads = np.delete(order, np.flatnonzero(same) + 1)
        pairs = cKDTree(p[heads]).query_pairs(radius, output_type="ndarray")
        a, b = np.append(a, heads[pairs[:, 0]]), np.append(b, heads[pairs[:, 1]])
    firsts, labels = np.unique(components(len(p), a, b), return_inverse=True)
    return labels, firsts


def fan(rings):
    """(k, 3) fan triangles of vertex rings; a ring listed twice is fanned once."""
    tris = [
        (ring[0], ring[k], ring[k + 1])
        for ring in dict.fromkeys(map(tuple, rings))
        for k in range(1, len(ring) - 1)
    ]
    return np.array(tris, dtype=np.int64).reshape(-1, 3)
