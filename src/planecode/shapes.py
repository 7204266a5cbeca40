"""Built-in solids and plane codes used by demos and tests.

Every mesh here is closed, edge-manifold and consistently outward
oriented.  Triangle order is deterministic and deliberate: the greedy
segmentation admits candidates in index order, so fixtures list their
convex shell quads before any concave feature quads.
"""

import numpy as np

from .convex import PlaneSet
from .geometry import cross, row_dots
from .mesh import TriangleMesh


def _mesh_from_quads(vertices, quads):
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriangleMesh(np.asarray(vertices, dtype=float), tris)


def cube():
    """Axis-aligned unit cube, 12 triangles."""
    verts = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    quads = [
        (0, 3, 2, 1),   # bottom, -z
        (4, 5, 6, 7),   # top, +z
        (1, 2, 6, 5),   # +x
        (3, 0, 4, 7),   # -x
        (0, 1, 5, 4),   # -y
        (2, 3, 7, 6),   # +y
    ]
    return _mesh_from_quads(verts, quads)


def tetrahedron():
    """Regular tetrahedron with vertices on alternating cube corners."""
    verts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return TriangleMesh(np.asarray(verts, dtype=float), tris)


def open_box():
    """Unit cube with the top face removed; the rim is a square loop."""
    verts = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    quads = [
        (0, 3, 2, 1),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ]
    return _mesh_from_quads(verts, quads)


def notched_box():
    """Box with a chamfered top rim and a slanted dent sunk through it.

    16 vertices, 14 quadrilateral faces (28 triangles).  The outer shell
    (bottom, four sides, four chamfers) is pairwise positively oriented;
    the dent (four walls plus floor) pairwise negatively.  One rim
    corner is raised and the dent floor tilted, so no three consecutive
    rim edges are coplanar and the dent breaks every symmetry.
    """
    verts = [
        # base ring
        (0, 0, 0), (40, 0, 0), (40, 40, 0), (0, 40, 0),
        # top of the sides (one corner raised)
        (0, 0, 14), (40, 0, 14), (40, 40, 14), (0, 40, 22),
        # rim of the dent opening
        (5, 5, 20), (35, 5, 20), (35, 35, 20), (5, 35, 26),
        # dent floor
        (10, 10, 10), (30, 10, 10), (32, 30, 14), (10, 365 / 14, 185 / 14),
    ]
    quads = [
        (0, 3, 2, 1),      # bottom
        (0, 1, 5, 4),      # side -y
        (1, 2, 6, 5),      # side +x
        (2, 3, 7, 6),      # side +y
        (3, 0, 4, 7),      # side -x
        (4, 5, 9, 8),      # chamfer south
        (5, 6, 10, 9),     # chamfer east
        (6, 7, 11, 10),    # chamfer north
        (7, 4, 8, 11),     # chamfer west
        (13, 12, 8, 9),    # dent wall south
        (14, 13, 9, 10),   # dent wall east
        (15, 14, 10, 11),  # dent wall north
        (12, 15, 11, 8),   # dent wall west
        (12, 13, 14, 15),  # dent floor
    ]
    return _mesh_from_quads(verts, quads)


def l_prism():
    """L-shaped cross section extruded along y.

    The end caps are triangulated across the diagonal chord from the
    outer corner to the reflex corner, so the surface splits into two
    convex prism patches meeting on the chord plane x = z.
    """
    profile = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    verts = [(x, 0.0, z) for x, z in profile] + [(x, 1.0, z) for x, z in profile]
    quads = [
        (6, 7, 1, 0),    # bottom
        (7, 8, 2, 1),    # right, x = 2
        (8, 9, 3, 2),    # shelf, z = 1
        (0, 1, 2, 3),    # near cap, lower piece
        (9, 8, 7, 6),    # far cap, lower piece
        (11, 6, 0, 5),   # left, x = 0
        (10, 11, 5, 4),  # top, z = 2
        (9, 10, 4, 3),   # riser, x = 1
        (0, 3, 4, 5),    # near cap, upper piece
        (11, 10, 9, 6),  # far cap, upper piece
    ]
    return _mesh_from_quads(verts, quads)


def two_notch_box():
    """Box with a rectangular dent in the top and a mirrored one in the bottom.

    24 vertices, 22 quadrilateral faces.  The shell (four sides plus two
    chamfer rings) grows into a single pseudo-convex part; each dent is
    a pseudo-concave part of its own.  Both rims are flat, so each of
    the three parts closes with one cutting plane per rim loop.
    """
    verts = [
        # side bottoms
        (0, 0, 22), (40, 0, 22), (40, 40, 22), (0, 40, 22),
        # side tops
        (0, 0, 38), (40, 0, 38), (40, 40, 38), (0, 40, 38),
        # top rim
        (5, 5, 44), (35, 5, 44), (35, 35, 44), (5, 35, 44),
        # top dent floor
        (10, 10, 34), (30, 10, 34), (30, 30, 34), (10, 30, 34),
        # bottom rim
        (5, 5, 16), (35, 5, 16), (35, 35, 16), (5, 35, 16),
        # bottom dent floor
        (10, 10, 26), (30, 10, 26), (30, 30, 26), (10, 30, 26),
    ]
    quads = [
        (0, 1, 5, 4),      # side -y
        (1, 2, 6, 5),      # side +x
        (2, 3, 7, 6),      # side +y
        (3, 0, 4, 7),      # side -x
        (4, 5, 9, 8),      # top chamfer south
        (5, 6, 10, 9),     # top chamfer east
        (6, 7, 11, 10),    # top chamfer north
        (7, 4, 8, 11),     # top chamfer west
        (16, 17, 1, 0),    # bottom chamfer south
        (17, 18, 2, 1),    # bottom chamfer east
        (18, 19, 3, 2),    # bottom chamfer north
        (19, 16, 0, 3),    # bottom chamfer west
        (13, 12, 8, 9),    # top dent wall south
        (14, 13, 9, 10),   # top dent wall east
        (15, 14, 10, 11),  # top dent wall north
        (12, 15, 11, 8),   # top dent wall west
        (12, 13, 14, 15),  # top dent floor
        (20, 21, 17, 16),  # bottom dent wall south
        (21, 22, 18, 17),  # bottom dent wall east
        (22, 23, 19, 18),  # bottom dent wall north
        (23, 20, 16, 19),  # bottom dent wall west
        (20, 23, 22, 21),  # bottom dent floor
    ]
    return _mesh_from_quads(verts, quads)


def random_hull_mesh(rng, n_points):
    """Convex hull of a Gaussian point cloud as an outward-oriented mesh."""
    from scipy.spatial import ConvexHull

    pts = rng.standard_normal((n_points, 3))
    hull = ConvexHull(pts)
    keep = np.unique(hull.simplices)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    tris = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = simplex
        n = cross(pts[b] - pts[a], pts[c] - pts[b])
        if n @ eq[:3] < 0:
            b, c = c, b
        tris.append((remap[a], remap[b], remap[c]))
    return TriangleMesh(pts[keep], tris)


def ngon_prism_code(n):
    """Plane code of a regular n-gon prism (circumradius 1, height 2)."""
    apothem = np.cos(np.pi / n)
    normals = []
    for k in range(n):
        t = 2.0 * np.pi * k / n
        normals.append((np.cos(t), np.sin(t), 0.0))
    normals += [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    return _plane_code(normals, [apothem] * n + [1.0, 1.0])


def chamfered_cube_code(t=0.03):
    """Unit cube code plus one corner plane cutting off a sliver of leg ``t``."""
    normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    normals.append((1, 1, 1))
    return _plane_code(normals, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 3.0 - t])


def _plane_code(normals, offsets):
    """PlaneSet of nonzero direction vectors, each offset scaled with its normal."""
    n = np.array(normals, dtype=float)
    ln = np.sqrt(row_dots(n, n))
    return PlaneSet.from_normals(n / ln[:, None], np.array(offsets, dtype=float) / ln)
