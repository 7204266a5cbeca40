"""Greedy segmentation into pseudo-convex and pseudo-concave parts.

Two triangles are positively oriented when each lies in the closed
negative half-space of the other's plane, negatively oriented when each
lies in the closed positive half-space.  A pseudo-convex part is a set
of triangles in which every pair is positive; pseudo-concave demands
every pair negative.  Growth is greedy and deterministic: lowest-index
seeds, candidates explored in index order, admission checked against
all current members.
"""

import enum
import heapq

import numpy as np

from .errors import InconsistentOrientation, NonManifold
from .geometry import plane_from_triangle, triangle_planes

EPS_ORIENT_REL = 1e-7  # six-vertex test slack per unit of bbox diagonal


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


def _corners(mesh, t):
    if isinstance(t, (int, np.integer)):
        t = mesh.triangles[t]
    return mesh.vertices[np.asarray(t, dtype=np.int64)]


def mutual_orientation(mesh, t1, t2, eps=0.0):
    """Classify a triangle pair as POSITIVE, NEGATIVE, or MIXED.

    ``t1`` and ``t2`` may be triangle indices or vertex-index triples.
    Coplanar pairs come out POSITIVE because both closed-half-space
    conditions hold and the positive test runs first.
    """
    a = _corners(mesh, t1)
    b = _corners(mesh, t2)
    pa = plane_from_triangle(a[0], a[1], a[2])
    pb = plane_from_triangle(b[0], b[1], b[2])
    d_ab = pa.signed_distance(b)
    d_ba = pb.signed_distance(a)
    if (d_ab <= eps).all() and (d_ba <= eps).all():
        return MutualOrientation.POSITIVE
    if (d_ab >= -eps).all() and (d_ba >= -eps).all():
        return MutualOrientation.NEGATIVE
    return MutualOrientation.MIXED


def segment_mesh(mesh, eps=None):
    """Partition the mesh's triangles into oriented parts.

    Pseudo-convex parts are grown first, then pseudo-concave parts from
    what remains, then leftovers become singleton pseudo-convex parts.
    A new part needs a seed pair that is strictly of its kind (a real
    convex or reflex dihedral); coplanar neighbors satisfy both closed
    half-space conditions, so they can join a growing part of either
    kind but never start one.  The result is a partition: every
    triangle index appears in exactly one part.
    """
    if not mesh.is_edge_manifold:
        raise NonManifold("an edge is shared by more than two triangles")
    if not mesh.is_consistently_oriented:
        raise InconsistentOrientation(
            "adjacent triangles disagree on winding direction"
        )
    if eps is None:
        eps = EPS_ORIENT_REL * mesh.bbox_diagonal()

    nt = len(mesh.triangles)
    corners = mesh.vertices[mesh.triangles]
    normals, offs = triangle_planes(corners[:, 0], corners[:, 1], corners[:, 2])
    neighbors = mesh.neighbors

    cache = {}

    def conditions(i, j):
        """(mutually nonpositive, mutually nonnegative) for a pair.

        The first flag says each triangle lies in the closed negative
        half-space of the other's plane, the second the mirror image.
        Coplanar pairs satisfy both; such pairs may join a part of
        either kind but are too weak to seed one.
        """
        key = (i, j) if i < j else (j, i)
        got = cache.get(key)
        if got is None:
            d_ij = corners[j] @ normals[i] - offs[i]
            d_ji = corners[i] @ normals[j] - offs[j]
            got = (
                bool((d_ij <= eps).all() and (d_ji <= eps).all()),
                bool((d_ij >= -eps).all() and (d_ji >= -eps).all()),
            )
            cache[key] = got
        return got

    assigned = np.zeros(nt, dtype=bool)
    parts = []
    for side, kind in ((0, PartKind.PSEUDO_CONVEX), (1, PartKind.PSEUDO_CONCAVE)):
        while True:
            seed = -1
            for t in range(nt):
                if assigned[t]:
                    continue
                if any(
                    not assigned[nb]
                    and conditions(t, nb)[side]
                    and not conditions(t, nb)[1 - side]
                    for nb in neighbors[t]
                ):
                    seed = t
                    break
            if seed < 0:
                break
            members = [seed]
            assigned[seed] = True
            rejected = set()
            heap = [nb for nb in neighbors[seed] if not assigned[nb]]
            heapq.heapify(heap)
            while heap:
                t = heapq.heappop(heap)
                if assigned[t] or t in rejected:
                    continue
                if all(conditions(t, m)[side] for m in members):
                    assigned[t] = True
                    members.append(t)
                    for nb in neighbors[t]:
                        if not assigned[nb] and nb not in rejected:
                            heapq.heappush(heap, nb)
                else:
                    # one refusal bars this triangle from the whole part
                    rejected.add(t)
            parts.append(MeshPart(kind, members))

    for t in range(nt):
        if not assigned[t]:
            parts.append(MeshPart(PartKind.PSEUDO_CONVEX, [t]))
    return parts
