"""Indexed triangle surfaces, their edge topology, the vertex weld and the ring fan."""

import numpy as np
from scipy.spatial import cKDTree


class TriangleMesh:
    """Vertices plus triangles, with lazily built edge adjacency.

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
        self._edges = None
        self._neighbors = None

    def __repr__(self):
        return "TriangleMesh(V=%d, T=%d)" % (len(self.vertices), len(self.triangles))

    # -- edge topology -------------------------------------------------

    def _edge_map(self):
        """Undirected edge -> list of (triangle index, traversed forward)."""
        if self._edges is None:
            edges = {}
            for t, (i, j, k) in enumerate(self.triangles):
                for a, b in ((i, j), (j, k), (k, i)):
                    key = (a, b) if a < b else (b, a)
                    edges.setdefault(key, []).append((t, a < b))
            self._edges = edges
        return self._edges

    @property
    def neighbors(self):
        """Per-triangle list of triangles sharing an edge with it."""
        if self._neighbors is None:
            nb = [[] for _ in range(len(self.triangles))]
            for tris in self._edge_map().values():
                if len(tris) == 2:
                    (ta, _), (tb, _) = tris
                    nb[ta].append(tb)
                    nb[tb].append(ta)
            self._neighbors = nb
        return self._neighbors

    @property
    def is_edge_manifold(self):
        return all(len(v) <= 2 for v in self._edge_map().values())

    @property
    def is_closed(self):
        return all(len(v) == 2 for v in self._edge_map().values())

    @property
    def is_consistently_oriented(self):
        """Every shared edge is traversed once in each direction."""
        for tris in self._edge_map().values():
            if len(tris) == 2 and tris[0][1] == tris[1][1]:
                return False
        return True

    def boundary_edges(self):
        """Directed edges owned by exactly one triangle, as the triangle walks them."""
        out = []
        for (a, b), tris in self._edge_map().items():
            if len(tris) == 1:
                t, forward = tris[0]
                out.append((a, b) if forward else (b, a))
        return out

    # -- measures ------------------------------------------------------

    def bbox_diagonal(self):
        if len(self.vertices) == 0:
            return 0.0
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    def triangle_corners(self):
        """The three corner arrays (T, 3) of every triangle."""
        v = self.vertices
        t = self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def surface_area(self):
        if len(self.triangles) == 0:
            return 0.0
        p1, p2, p3 = self.triangle_corners()
        cr = np.cross(p2 - p1, p3 - p1)
        return float(0.5 * np.linalg.norm(cr, axis=1).sum())

    def volume(self):
        """Signed enclosed volume by the divergence theorem.

        Only meaningful for closed, consistently outward-oriented
        surfaces; open meshes give the partial flux sum.
        """
        if len(self.triangles) == 0:
            return 0.0
        p1, p2, p3 = self.triangle_corners()
        return float(np.einsum("ij,ij->i", p1, np.cross(p2, p3)).sum() / 6.0)

    # -- transforms ----------------------------------------------------

    def translated(self, a):
        return TriangleMesh(self.vertices + np.asarray(a, dtype=float), self.triangles)

    def rotated(self, r):
        r = np.asarray(r, dtype=float)
        return TriangleMesh(self.vertices @ r.T, self.triangles)


def weld(points, radius):
    """Cluster points joined by chains of pairs at most ``radius`` apart.

    Exact duplicates meet in one stable lexicographic sort, which like
    ``==`` takes -0.0 and 0.0 as equal.  For ``radius`` > 0 a k-d tree
    (Bentley, CACM 1975) lists the distinct points within Euclidean
    distance ``radius``, joined by hooking each larger root onto the
    smaller and compressing paths fully until no pair spans two trees
    (Shiloach and Vishkin, J. Algorithms 1982).  Returns each point's
    cluster label, clusters numbered in order of their first point, and
    the index of each cluster's first point.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    order = np.lexsort((p[:, 2], p[:, 1], p[:, 0]))
    ps = p[order]
    new = np.ones(len(p), dtype=bool)
    new[1:] = (ps[1:] != ps[:-1]).any(axis=1)
    heads = order[new]  # each distinct point's first copy leads its run
    root = np.empty(len(p), dtype=np.int64)
    root[order] = heads[np.cumsum(new) - 1]
    if radius > 0:
        pairs = cKDTree(ps[new]).query_pairs(radius, output_type="ndarray")
        a, b = heads[pairs.T]
        # hooking matters: min-label propagation alone takes one round
        # per link of the longest chain
        while True:
            ra, rb = root[a], root[b]
            split = ra != rb
            if not split.any():
                break
            np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
            while True:
                up = root[root]
                if (up == root).all():
                    break
                root = up
    firsts, labels = np.unique(root, return_inverse=True)
    return labels, firsts


def fan(rings):
    """(k, 3) fan triangles of vertex rings; a ring listed twice is fanned once."""
    tris = [
        (ring[0], ring[k], ring[k + 1])
        for ring in dict.fromkeys(map(tuple, rings))
        for k in range(1, len(ring) - 1)
    ]
    return np.array(tris, dtype=np.int64).reshape(-1, 3)
