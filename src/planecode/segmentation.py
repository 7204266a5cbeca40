"""Greedy segmentation into pseudo-convex and pseudo-concave parts.

Two triangles are positively oriented when each lies in the closed
negative half-space of the other's plane, negatively oriented when each
lies in the closed positive half-space.  A pseudo-convex part is a set
of triangles in which every pair is positive; pseudo-concave demands
every pair negative.  Growth is greedy and deterministic: lowest-index
seeds, candidates explored in index order, admission checked against
all current members.

The check against all members costs a few integer operations per
candidate.  Per part kind, every vertex of a still unassigned triangle
gets one Python int, bit p set when the vertex lies more than ``eps``
outside distinct plane p of those triangles (signs flipped for
pseudo-concave parts), built in blocks of vertices from one batched
matrix-vector product each.  A growing part keeps the bits of its
members' planes and the OR of its members' corners' ints; a candidate
is tested by two ANDs.  The bits take V x P / 8 bytes per kind, P the
number of distinct planes, which rounding can bring up to T.
"""

import enum
import heapq

import numpy as np

from .errors import InconsistentOrientation, NonManifold
from .geometry import triangle_planes

# entries of one block of vertex-to-plane distances in _outside_bits; the
# whole table of two_notch_box cut 24 x 24 (12674 vertices, 12763 distinct
# planes) would take 1.3 GB
_OUTSIDE_BLOCK = 1 << 17


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

    With sigma = +1 for pseudo-convex and -1 for pseudo-concave, each
    kind works on the triangles still unassigned when its first seed is
    found (``_kind_bits``): it labels their distinct plane rows, ``bit[t]``,
    and gives each of their corners v an int ``over[v]`` whose bit p is
    set when v lies more than ``eps`` outside plane p, sigma-signed.  A
    growing part keeps ``planes``, the bits of its members' labels, and
    ``outside``, the OR of ``over`` at its members' corners.  Candidate
    t with corners a, b, c is admitted when no member plane has a, b or
    c outside it, ``(over[a] | over[b] | over[c]) & planes == 0``, and no
    member corner is outside the plane of t, bit ``bit[t]`` of ``outside``
    clear: the pairwise test against every member.  The result is a
    partition: every triangle index appears in exactly one part.
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
    tris = mesh.triangles.tolist()
    neighbors = mesh.neighbors
    seeds = _strict_neighbors(mesh.vertices[mesh.triangles], normals, offs, *mesh.edges.pairs(), eps)

    assigned = [False] * nt
    parts = []
    for sigma, kind in ((1.0, PartKind.PSEUDO_CONVEX), (-1.0, PartKind.PSEUDO_CONCAVE)):
        firsts, seconds = seeds[kind]
        over = None
        # assignment only grows, so a pair with an assigned triangle stays
        # useless for the rest of the kind: the scan resumes, not restarts
        k = 0
        while True:
            while k < len(firsts) and (assigned[firsts[k]] or assigned[seconds[k]]):
                k += 1
            if k == len(firsts):
                break
            if over is None:
                live = np.flatnonzero(~np.array(assigned, dtype=bool))
                over, bit = _kind_bits(mesh, live, sigma, eps)
            planes = outside = 0
            members = []
            rejected = set()
            heap = [firsts[k]]
            while heap:
                t = heapq.heappop(heap)
                if assigned[t] or t in rejected:
                    continue
                a, b, c = tris[t]
                corners = over[a] | over[b] | over[c]
                if corners & planes or outside >> bit[t] & 1:
                    # one refusal bars this triangle from the whole part
                    rejected.add(t)
                    continue
                assigned[t] = True
                members.append(t)
                planes |= 1 << bit[t]
                outside |= corners
                for nb in neighbors[t]:
                    if not assigned[nb] and nb not in rejected:
                        heapq.heappush(heap, nb)
            parts.append(MeshPart(kind, members))

    for t in range(nt):
        if not assigned[t]:
            parts.append(MeshPart(PartKind.PSEUDO_CONVEX, [t]))
    return parts


def _strict_neighbors(corners, normals, offs, i, j, eps):
    """Per kind, the neighbor pairs strictly of it, as (firsts, seconds) lists.

    All neighbor pairs (i, j) go through ``_sides`` in one batch.
    Coplanar pairs are both below and above, so they count for neither
    kind.  Each kind's pairs are listed both ways, (i, j) then (j, i),
    and stable-sorted by their first triangle, which is the order the
    seed scan reads them in.
    """
    below, above = _sides(corners[i], corners[j], normals[i], offs[i], normals[j], offs[j], eps)
    out = {}
    for kind, s in ((PartKind.PSEUDO_CONVEX, below & ~above), (PartKind.PSEUDO_CONCAVE, above & ~below)):
        x = np.concatenate([i[s], j[s]])
        order = np.argsort(x, kind="stable")
        out[kind] = (x[order].tolist(), np.concatenate([j[s], i[s]])[order].tolist())
    return out


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

    Returns the labels and, per label, its first row.  Equal rows put a
    vertex on the same side, so one bit serves them all.
    """
    key = np.column_stack([normals, offs]).view(np.uint64)
    order = np.lexsort(key.T[::-1])
    ks = key[order]
    new = np.concatenate([[True], (ks[1:] != ks[:-1]).any(axis=1)])
    ids = np.empty(len(key), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    # lexsort is stable, so each run of equal rows starts at its lowest row
    return ids, order[new]


def _kind_bits(mesh, live, sigma, eps):
    """(over, bit) lists for growing parts of one kind from the triangles ``live``.

    ``bit[t]`` is the ``_plane_ids`` label of live triangle t's plane
    among the live triangles' planes, and ``over[v]``, for each corner v
    of a live triangle, the ``_outside_bits`` int of v against those
    planes times sigma; other entries are 0.  Growth reads nothing else,
    since members and candidates are live triangles.
    """
    normals, offs = mesh.planes
    ids, first = _plane_ids(normals[live], offs[live])
    rows = live[first]
    used = np.zeros(len(mesh.vertices), dtype=bool)
    used[mesh.triangles[live]] = True
    used = np.flatnonzero(used)
    # negation is exact, so sigma * (x . n - h) == x . (sigma n) - sigma h
    ints = _outside_bits(mesh.vertices[used], sigma * normals[rows], sigma * offs[rows], eps)
    over = [0] * len(mesh.vertices)
    for v, x in zip(used.tolist(), ints):
        over[v] = x
    bit = np.zeros(len(mesh.triangles), dtype=np.int64)
    bit[live] = ids
    return over, bit.tolist()


def _outside_bits(vertices, normals, offs, eps):
    """Per vertex, an int whose bit p is set unless it lies within ``eps`` below plane p.

    The distances of a block of vertices, at most ``_OUTSIDE_BLOCK``
    entries, come from one batched matrix-vector product, ``normals @ v``
    per vertex v (``block @ n`` for a single plane n), the product the
    running-maxima oracle of the tests folds: a matrix-matrix or dot
    product rounds some distances one ulp apart, which moves decisions at
    ``eps`` = 0.  Blocks are written into buffers made once, so the (V, P)
    table is never held whole, and each row of a block's bits is packed
    little-endian into one int.  A NaN distance sets its bit.
    """
    step = max(1, _OUTSIDE_BLOCK // max(1, len(offs)))
    shape = (min(step, len(vertices)), len(offs))
    dist, far = np.empty(shape), np.empty(shape, dtype=bool)
    ints = []
    for s in range(0, len(vertices), step):
        block = vertices[s:s + step]
        d, f = dist[:len(block)], far[:len(block)]
        if len(offs) > 1:
            np.matmul(normals, block[:, :, None], out=d[:, :, None])
        else:  # one row would make each product a dot product, which rounds otherwise
            np.matmul(block, normals[0], out=d[:, 0])
        np.subtract(d, offs, out=d)
        np.less_equal(d, eps, out=f)
        np.logical_not(f, out=f)
        ints += [int.from_bytes(row, "little") for row in np.packbits(f, axis=1, bitorder="little")]
    return ints
