"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments (and of the numpy
``Generator`` it is handed), so one seed always gives byte-identical
input files.  Meshes come out closed, edge-manifold and consistently
outward oriented.
"""

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

from planecode import TriangleMesh, shapes


def sphere_hull(rng, n_points):
    """Convex hull of ``n_points`` random points on the unit sphere.

    The points are rounded to float32 before the hull is built, so
    writing the mesh as binary STL loses nothing.  Points in general
    position on a sphere are all hull vertices, giving 2n - 4 triangles
    with pairwise distinct planes.
    """
    pts = rng.standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts = pts.astype(np.float32).astype(np.float64)
    hull = ConvexHull(pts)
    tris = []
    for (a, b, c), eq in zip(hull.simplices, hull.equations):
        if np.cross(pts[b] - pts[a], pts[c] - pts[b]) @ eq[:3] < 0:
            b, c = c, b
        tris.append((a, b, c))
    used = np.unique(hull.simplices)
    remap = np.full(n_points, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(pts[used], remap[np.asarray(tris)])


def quads_of(mesh):
    """Recover the quads of a ``shapes`` fixture built two triangles per quad."""
    tris = mesh.triangles
    if len(tris) % 2:
        raise ValueError("odd triangle count: not a quad-built fixture")
    quads = []
    for first, second in zip(tris[0::2], tris[1::2]):
        a, b, c = (int(v) for v in first)
        if int(second[0]) != a or int(second[1]) != c:
            raise ValueError("triangle pair does not form a quad fan")
        quads.append((a, b, c, int(second[2])))
    return quads


def subdivide_quads(mesh, g):
    """Split every quad of a quad-built fixture into a g x g grid.

    Points on a shared quad edge are computed once, from the edge's
    lower vertex index, so neighbouring quads use the very same
    coordinates and the surface stays closed.  Triangles keep the
    fixture's quad order, which the greedy segmentation depends on.
    """
    verts = [tuple(v) for v in mesh.vertices]
    ids = {}

    def vertex(key, point):
        at = ids.get(key)
        if at is None:
            at = len(verts)
            ids[key] = at
            verts.append(tuple(point))
        return at

    def edge_point(u, w, k):
        if k == 0:
            return u
        if k == g:
            return w
        lo, hi, t = (u, w, k) if u < w else (w, u, g - k)
        p = mesh.vertices[lo] + (t / g) * (mesh.vertices[hi] - mesh.vertices[lo])
        return vertex(("e", lo, hi, t), p)

    tris = []
    for q, (a, b, c, d) in enumerate(quads_of(mesh)):
        pa, pb, pc, pd = mesh.vertices[[a, b, c, d]]
        grid = {}
        for i in range(g + 1):
            for j in range(g + 1):
                if j == 0:
                    grid[i, j] = edge_point(a, b, i)
                elif j == g:
                    grid[i, j] = edge_point(d, c, i)
                elif i == 0:
                    grid[i, j] = edge_point(a, d, j)
                elif i == g:
                    grid[i, j] = edge_point(b, c, j)
                else:
                    s, t = i / g, j / g
                    p = ((1 - s) * (1 - t)) * pa + (s * (1 - t)) * pb \
                        + (s * t) * pc + ((1 - s) * t) * pd
                    grid[i, j] = vertex(("i", q, i, j), p)
        for j in range(g):
            for i in range(g):
                p00, p10 = grid[i, j], grid[i + 1, j]
                p11, p01 = grid[i + 1, j + 1], grid[i, j + 1]
                tris.append((p00, p10, p11))
                tris.append((p00, p11, p01))
    return TriangleMesh(np.array(verts, dtype=float), tris)


def extrude(profile, height, center_fan):
    """Prism over a counterclockwise xy polygon, cap triangles first.

    Caps are fans: from an added centre vertex when ``center_fan`` is
    true (star-shaped about the origin), else from profile vertex 0.
    Listing the caps before the side quads makes the greedy
    segmentation mix cap and side triangles in its first part.
    """
    ring = np.asarray(profile, dtype=float)
    m = len(ring)
    verts = [(x, y, 0.0) for x, y in ring] + [(x, y, height) for x, y in ring]
    tris = []
    if center_fan:
        cb, ct = 2 * m, 2 * m + 1
        verts += [(0.0, 0.0, 0.0), (0.0, 0.0, height)]
        for i in range(m):
            j = (i + 1) % m
            tris.append((ct, m + i, m + j))
            tris.append((cb, j, i))
    else:
        for i in range(1, m - 1):
            tris.append((m, m + i, m + i + 1))
            tris.append((0, i + 1, i))
    for i in range(m):
        j = (i + 1) % m
        tris.append((i, j, m + j))
        tris.append((i, m + j, m + i))
    return TriangleMesh(np.array(verts), tris)


def star_prism(k, outer=1.0, inner=0.45, height=0.6):
    """Extruded k-pointed star, caps fanned from the centre."""
    profile = []
    for s in range(2 * k):
        r = outer if s % 2 == 0 else inner
        t = math.pi * s / k
        profile.append((r * math.cos(t), r * math.sin(t)))
    return extrude(profile, height, center_fan=True)


def staircase(k, depth=1.0):
    """Extruded k-step staircase profile, caps fanned from its corner."""
    profile = [(0.0, 0.0), (float(k), 0.0)]
    for s in range(1, k + 1):
        profile.append((float(k - s + 1), float(s)))
        profile.append((float(k - s), float(s)))
    return extrude(profile, depth, center_fan=False)


def _axis_rotations():
    """The 24 proper rotations that map the coordinate axes onto themselves."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            for row, (col, sign) in enumerate(zip(perm, signs)):
                r[row, col] = sign
            if np.linalg.det(r) > 0:
                out.append(r)
    return out


AXIS_ROTATIONS = _axis_rotations()


def axis_motion(rng):
    """Seeded rigid motion that is exact in floating point.

    A signed axis permutation and a half-integer translation move the
    fixture without rounding, so every seed keeps the same topology and
    plane count while the stored angles and offsets change.
    """
    r = AXIS_ROTATIONS[int(rng.integers(len(AXIS_ROTATIONS)))]
    a = rng.integers(-16, 17, size=3) / 2.0
    return r, a


def moved(mesh, motion):
    r, a = motion
    return TriangleMesh(mesh.vertices @ r.T + a, mesh.triangles)


def random_rotation(rng):
    """Uniform random rotation matrix from a normalized quaternion."""
    w, x, y, z = rng.standard_normal(4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


TESSELLATED_FIXTURES = {
    "notched_box": shapes.notched_box,
    "two_notch_box": shapes.two_notch_box,
}
SEGMENTED_FIXTURES = {
    "notched_box": shapes.notched_box,
    "l_prism": shapes.l_prism,
    "two_notch_box": shapes.two_notch_box,
}
