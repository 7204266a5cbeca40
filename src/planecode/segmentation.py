"""Greedy segmentation into pseudo-convex and pseudo-concave parts.

Two triangles are positively oriented when each lies in the closed
negative half-space of the other's plane, negatively oriented when each
lies in the closed positive half-space.  A pseudo-convex part is a set
of triangles in which every pair is positive; pseudo-concave demands
every pair negative.  Growth is greedy and deterministic: lowest-index
seeds, candidates explored in index order, admission checked against
all current members.

The check against all members costs O(1) per candidate: a growing part
keeps, for every vertex, the largest signed distance to the members'
planes, and for every triangle, the largest signed distance of the
members' vertices to its plane (signs flipped for pseudo-concave
parts).  A candidate reads the first at its three corners and the
second at itself.  Each new member folds its plane into the first with
one O(V) numpy update, and each of its vertices not yet in the part
into the second with one O(T) update; a vertex shared by many members,
like a plane shared by the triangles of one face, is folded once.  No
pairwise table is kept.
"""

import enum
import heapq

import numpy as np

from .errors import InconsistentOrientation, NonManifold
from .geometry import triangle_planes
from .mesh import adjacency


class MutualOrientation(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"


class PartKind(enum.Enum):
    PSEUDO_CONVEX = "pseudo-convex"
    PSEUDO_CONCAVE = "pseudo-concave"


class MeshPart:
    """One segment: its kind plus the triangle indices it owns."""

    def __init__(self, kind, triangles):
        self.kind = kind
        self.triangles = list(triangles)

    def __repr__(self):
        return "MeshPart(%s, %d triangles)" % (
            self.kind.value,
            len(self.triangles),
        )


def mutual_orientation(mesh, t1, t2, eps=None):
    """Classify a triangle pair as POSITIVE, NEGATIVE, or MIXED.

    ``t1`` and ``t2`` may be triangle indices or vertex-index triples.
    Each triangle's corners are tested against the other's plane with
    slack ``eps``, by default ``mesh.slack()`` as in ``segment_mesh``,
    so rounding cannot split a coplanar pair.  Coplanar pairs come out
    POSITIVE because both closed-half-space conditions hold and the
    positive test runs first.  A triangle without a plane raises
    DegenerateTriangle, which names it by its place in the pair, 0 or 1.
    """
    tris = [mesh.triangles[t] if isinstance(t, (int, np.integer)) else t for t in (t1, t2)]
    a, b = mesh.vertices[np.asarray(tris, dtype=np.int64)]
    n, h = triangle_planes(*np.stack([a, b], axis=1))
    below, above = _sides(a[None], b[None], n[:1], h[:1], n[1:], h[1:], mesh.slack(eps))
    if below[0]:
        return MutualOrientation.POSITIVE
    if above[0]:
        return MutualOrientation.NEGATIVE
    return MutualOrientation.MIXED


def segment_mesh(mesh, eps=None):
    """Partition the mesh's triangles into oriented parts.

    Pseudo-convex parts are grown first, then pseudo-concave parts from
    what remains, then leftovers become singleton pseudo-convex parts.
    A new part needs a seed pair that is strictly of its kind (a real
    convex or reflex dihedral); coplanar neighbors satisfy both closed
    half-space conditions, so they can join a growing part of either
    kind but never start one.  The seed is the lowest-index unassigned
    triangle with such an unassigned neighbor; candidates are the
    unassigned neighbors of the members, popped lowest index first, and
    one refusal bars a triangle from the whole part.

    A growing part keeps two running maxima over its members m, with
    sigma = +1 for pseudo-convex and -1 for pseudo-concave: for every
    vertex v, ``out_v[v]``, the largest sigma-signed distance of v to a
    member's plane, and for every triangle t, ``out_m[t]``, the largest
    sigma-signed distance of a member's vertex to the plane of t.  A
    candidate is admitted when ``out_v`` at its three corners and
    ``out_m`` at itself are all at most ``eps``, which is the pairwise
    test against every member.  Each admission folds the new member's
    plane into ``out_v`` with one product over the V vertices, and each
    of its vertices into ``out_m`` with one product over the T planes,
    but only the first time that plane or vertex joins the part: a
    vertex shared by several members (up to six in a grid), or a plane
    row bitwise equal to an earlier member's (the triangles of one cut
    face), adds the same distances every time, so it is folded once.
    The result is a partition: every triangle index appears in exactly
    one part.
    """
    if not mesh.is_edge_manifold:
        raise NonManifold("an edge is shared by more than two triangles")
    if not mesh.is_consistently_oriented:
        raise InconsistentOrientation(
            "adjacent triangles disagree on winding direction"
        )
    normals, offs = mesh.planes
    eps = mesh.slack(eps)

    nt = len(mesh.triangles)
    vertices = mesh.vertices
    corners = vertices[mesh.triangles]
    tris = mesh.triangles.tolist()
    neighbors = mesh.neighbors
    seeds = _strict_neighbors(corners, normals, offs, *mesh.edges.pairs(), eps)
    plane_id = _plane_ids(normals, offs)

    assigned = np.zeros(nt, dtype=bool)
    parts = []
    for sigma, kind in ((1.0, PartKind.PSEUDO_CONVEX), (-1.0, PartKind.PSEUDO_CONCAVE)):
        # negation is exact, so sigma * (x . n - h) == x . (sigma n) - sigma h
        s_normals, s_offs = sigma * normals, sigma * offs
        strict = seeds[kind]
        # assignment only grows, so a triangle that fails the seed test
        # fails it for the rest of the side: the scan resumes, not restarts
        k = 0
        while True:
            while k < len(strict) and (
                assigned[strict[k][0]] or all(assigned[nb] for nb in strict[k][1])
            ):
                k += 1
            if k == len(strict):
                break
            seed = strict[k][0]
            out_v = np.full(len(vertices), -np.inf)
            out_m = np.full(nt, -np.inf)
            folded = set()
            folded_planes = set()
            members = []
            rejected = set()
            heap = [seed]
            while heap:
                t = heapq.heappop(heap)
                if assigned[t] or t in rejected:
                    continue
                a, b, c = tris[t]
                if not (
                    out_v[a] <= eps and out_v[b] <= eps and out_v[c] <= eps
                    and out_m[t] <= eps
                ):
                    # one refusal bars this triangle from the whole part
                    rejected.add(t)
                    continue
                assigned[t] = True
                members.append(t)
                if plane_id[t] not in folded_planes:
                    folded_planes.add(plane_id[t])
                    np.maximum(out_v, vertices @ s_normals[t] - s_offs[t], out=out_v)
                for v in (a, b, c):
                    if v not in folded:
                        folded.add(v)
                        np.maximum(out_m, s_normals @ vertices[v] - s_offs, out=out_m)
                for nb in neighbors[t]:
                    if not assigned[nb] and nb not in rejected:
                        heapq.heappush(heap, nb)
            parts.append(MeshPart(kind, members))

    for t in range(nt):
        if not assigned[t]:
            parts.append(MeshPart(PartKind.PSEUDO_CONVEX, [t]))
    return parts


def _strict_neighbors(corners, normals, offs, i, j, eps):
    """Per kind, the triangles in a neighbor pair strictly of it, with those neighbors.

    All neighbor pairs (i, j) go through ``_sides`` in one batch.
    Coplanar pairs are both below and above, so they count for neither
    kind.  Each kind gets a list of (triangle, neighbors) in triangle
    order, neighbors as ``adjacency`` orders them, which is all the seed
    scan reads.
    """
    below, above = _sides(corners[i], corners[j], normals[i], offs[i], normals[j], offs[j], eps)
    strict = {PartKind.PSEUDO_CONVEX: below & ~above, PartKind.PSEUDO_CONCAVE: above & ~below}
    return {
        kind: [(t, nb) for t, nb in enumerate(adjacency(len(corners), i[s], j[s])) if nb]
        for kind, s in strict.items()
    }


def _sides(ci, cj, ni, hi, nj, hj, eps):
    """(below, above) per pair: the six-vertex test of mutual orientation.

    Pair k is below when each triangle's corners (``ci[k]``, ``cj[k]``)
    lie within ``eps`` of the closed negative half-space of the other's
    plane (``ni[k] . x = hi[k]``, ``nj[k] . x = hj[k]``), above in the
    mirror case.  Coplanar pairs are both.
    """
    # corners of one triangle against the other's plane, each way
    d_ij = np.matmul(cj, ni[:, :, None])[:, :, 0] - hi[:, None]
    d_ji = np.matmul(ci, nj[:, :, None])[:, :, 0] - hj[:, None]
    below = (d_ij <= eps).all(axis=1) & (d_ji <= eps).all(axis=1)
    above = (d_ij >= -eps).all(axis=1) & (d_ji >= -eps).all(axis=1)
    return below, above


def _plane_ids(normals, offs):
    """Label each (normal, offset) row, equal labels for bitwise equal rows.

    Equal rows fold the same distances into a growing part, and a
    maximum taken twice is taken once, so only a row's first member
    folds it.
    """
    key = np.column_stack([normals, offs]).view(np.uint64)
    order = np.lexsort(key.T[::-1])
    ks = key[order]
    new = np.concatenate([[True], (ks[1:] != ks[:-1]).any(axis=1)])
    ids = np.empty(len(key), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids.tolist()
