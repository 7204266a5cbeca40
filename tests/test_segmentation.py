import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from planecode import (
    InconsistentOrientation,
    MutualOrientation,
    NonManifold,
    PartKind,
    TriangleMesh,
    mutual_orientation,
    segment_mesh,
)
from planecode import shapes
from conftest import seeded_hulls


def fold_strip():
    """Three flat panels: a convex fold, then a reflex fold.

    Panels A (z = 0) and B (dropping) meet in a ridge, panels B and C
    (rising steeply) in a valley.  A and B grow into one part; C's two
    triangles are coplanar with each other only, so neither fold phase
    can seed from them and they fall through as singletons.
    """
    verts = np.array(
        [
            (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
            (2, 0, -0.5), (2, 1, -0.5),
            (3, 0, 1), (3, 1, 1),
        ],
        dtype=float,
    )
    tris = [(0, 1, 2), (0, 2, 3), (1, 4, 5), (1, 5, 2), (4, 6, 7), (4, 7, 5)]
    return TriangleMesh(verts, tris)


# a computed plane leaves ~1e-16 dust on vertices that sit exactly on
# it; a small eps absorbs it (eps=0 would call a touching pair MIXED)
EPS = 1e-12


def test_ridge_pair_is_positive():
    m = fold_strip()
    assert mutual_orientation(m, 0, 3, eps=EPS) is MutualOrientation.POSITIVE


def test_valley_pair_is_negative():
    m = fold_strip()
    assert mutual_orientation(m, 2, 5, eps=EPS) is MutualOrientation.NEGATIVE


def test_coplanar_pair_classifies_positive():
    m = fold_strip()
    assert mutual_orientation(m, 0, 1, eps=EPS) is MutualOrientation.POSITIVE
    assert mutual_orientation(m, 4, 5, eps=EPS) is MutualOrientation.POSITIVE


def test_distant_pair_can_be_mixed():
    m = fold_strip()
    assert mutual_orientation(m, 1, 4, eps=EPS) is MutualOrientation.MIXED


def test_orientation_accepts_vertex_triples():
    m = fold_strip()
    got = mutual_orientation(m, (0, 1, 2), (0, 2, 3), eps=EPS)
    assert got is MutualOrientation.POSITIVE


def test_default_slack_calls_every_cube_pair_positive():
    m = shapes.cube()
    n = len(m.triangles)
    kinds = {mutual_orientation(m, i, j) for i in range(n) for j in range(i + 1, n)}
    assert kinds == {MutualOrientation.POSITIVE}


@pytest.mark.parametrize("name", ["notched_box", "l_prism", "two_notch_box", "cube"])
def test_segment_parts_agree_with_the_default_pair_test(name):
    m = getattr(shapes, name)()
    for part in segment_mesh(m):
        tris = sorted(part.triangles)
        kinds = {
            mutual_orientation(m, a, b)
            for k, a in enumerate(tris)
            for b in tris[k + 1:]
        }
        assert MutualOrientation.MIXED not in kinds
        if part.kind is PartKind.PSEUDO_CONVEX:
            assert kinds <= {MutualOrientation.POSITIVE}


def test_strip_ends_in_singletons():
    parts = segment_mesh(fold_strip())
    table = [(p.kind, sorted(p.triangles)) for p in parts]
    assert table == [
        (PartKind.PSEUDO_CONVEX, [0, 1, 2, 3]),
        (PartKind.PSEUDO_CONVEX, [4]),
        (PartKind.PSEUDO_CONVEX, [5]),
    ]


EXPECTED_PARTS = {
    "cube": [(PartKind.PSEUDO_CONVEX, list(range(12)))],
    "tetrahedron": [(PartKind.PSEUDO_CONVEX, list(range(4)))],
    "open_box": [(PartKind.PSEUDO_CONVEX, list(range(10)))],
    "l_prism": [
        (PartKind.PSEUDO_CONVEX, list(range(0, 10))),
        (PartKind.PSEUDO_CONVEX, list(range(10, 20))),
    ],
    "notched_box": [
        (PartKind.PSEUDO_CONVEX, list(range(0, 18))),
        (PartKind.PSEUDO_CONCAVE, list(range(18, 28))),
    ],
    "two_notch_box": [
        (PartKind.PSEUDO_CONVEX, list(range(0, 24))),
        (PartKind.PSEUDO_CONCAVE, list(range(24, 34))),
        (PartKind.PSEUDO_CONCAVE, list(range(34, 44))),
    ],
}


def test_fixture_part_tables(corpus_meshes):
    for name, mesh in corpus_meshes.items():
        parts = segment_mesh(mesh)
        table = [(p.kind, sorted(p.triangles)) for p in parts]
        assert table == EXPECTED_PARTS[name], name


def test_parts_partition_the_triangles(corpus_meshes):
    for mesh in corpus_meshes.values():
        parts = segment_mesh(mesh)
        all_members = sorted(t for p in parts for t in p.triangles)
        assert all_members == list(range(len(mesh.triangles)))


def test_every_part_survives_the_pairwise_orientation_check(corpus_meshes):
    for name, mesh in corpus_meshes.items():
        eps = 1e-7 * mesh.bbox_diagonal()
        p1, p2, p3 = mesh.triangle_corners()
        cross = np.cross(p2 - p1, p3 - p2)
        normals = cross / np.linalg.norm(cross, axis=1)[:, None]
        offsets = np.einsum("ij,ij->i", normals, p1)
        corners = np.stack([p1, p2, p3], axis=1)
        for part in segment_mesh(mesh):
            members = sorted(part.triangles)
            for a in members:
                for b in members:
                    if a >= b:
                        continue
                    d_ab = corners[b] @ normals[a] - offsets[a]
                    d_ba = corners[a] @ normals[b] - offsets[b]
                    if part.kind is PartKind.PSEUDO_CONVEX:
                        ok = (d_ab <= eps).all() and (d_ba <= eps).all()
                    else:
                        ok = (d_ab >= -eps).all() and (d_ba >= -eps).all()
                    assert ok, (name, part.kind, a, b)


def test_convex_meshes_make_exactly_one_part():
    for mesh in [shapes.cube(), shapes.tetrahedron()] + seeded_hulls(7, 3, 10, 40):
        parts = segment_mesh(mesh)
        assert len(parts) == 1
        assert parts[0].kind is PartKind.PSEUDO_CONVEX
        assert sorted(parts[0].triangles) == list(range(len(mesh.triangles)))


def test_non_manifold_input_rejected(cube_mesh):
    tris = np.vstack([cube_mesh.triangles, cube_mesh.triangles[:1]])
    with pytest.raises(NonManifold):
        segment_mesh(TriangleMesh(cube_mesh.vertices, tris))


def test_inconsistent_winding_rejected(cube_mesh):
    tris = cube_mesh.triangles.copy()
    tris[5] = tris[5][::-1]
    with pytest.raises(InconsistentOrientation):
        segment_mesh(TriangleMesh(cube_mesh.vertices, tris))


def test_part_repr_is_compact(cube_mesh):
    part = segment_mesh(cube_mesh)[0]
    assert "pseudo-convex" in repr(part)
    assert "12" in repr(part)


def sphere_hull(rng, n_points):
    """Outward hull of random unit vectors: every point is a vertex, 2n - 4 triangles."""
    pts = rng.standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    hull = ConvexHull(pts)
    tris = hull.simplices.copy()
    a, b, c = (pts[tris[:, k]] for k in range(3))
    flip = (np.cross(b - a, c - b) * hull.equations[:, :3]).sum(axis=1) < 0
    tris[flip] = tris[flip][:, ::-1]
    return TriangleMesh(pts, tris)


def test_a_1020_triangle_hull_segments_in_well_under_a_second():
    # admission by pairwise tests against every member took 6-9 s on this mesh
    mesh = sphere_hull(np.random.default_rng(512), 512)
    assert len(mesh.triangles) == 1020
    t0 = time.perf_counter()
    parts = segment_mesh(mesh)
    elapsed = time.perf_counter() - t0
    assert [(p.kind, len(p.triangles)) for p in parts] == [(PartKind.PSEUDO_CONVEX, 1020)]
    assert elapsed < 1.0


def test_seed_lists_and_plane_labels():
    from planecode.mesh import adjacency
    from planecode.segmentation import _plane_ids, _strict_neighbors

    def seed_list(i, j, nt=6):
        # the expression the per-triangle seed lists were built with
        return [(t, nb) for t, nb in enumerate(adjacency(nt, i, j)) if nb]

    def flattened(lists):
        return [(t, nb) for t, nbs in lists for nb in nbs]

    i, j = np.array([4, 1, 1]), np.array([2, 4, 0])
    assert seed_list(i, j) == [(0, [1]), (1, [4, 0]), (2, [4]), (4, [2, 1])]
    assert seed_list(i[:0], j[:0]) == []
    # every neighbor pair of a tetrahedron is strictly convex, and
    # strictly reflex once its winding is turned
    tet = shapes.tetrahedron()
    for kind, mesh in (
        (PartKind.PSEUDO_CONVEX, tet),
        (PartKind.PSEUDO_CONCAVE, TriangleMesh(tet.vertices, tet.triangles[:, ::-1])),
    ):
        i, j = mesh.edges.pairs()
        seeds = _strict_neighbors(mesh.vertices[mesh.triangles], *mesh.planes, i, j, mesh.slack())
        assert list(zip(*seeds[kind])) == flattened(seed_list(i, j, 4))
        assert len(seeds[kind][0]) == 12
        other = ({*PartKind} - {kind}).pop()
        assert seeds[other] == ([], [])
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    offs = np.array([1.0, 1.0, 1.0, 2.0])
    ids, rep = _plane_ids(normals, offs)
    # bitwise equal rows share a label; -0.0 and 0.0 do not
    assert ids[0] == ids[1] and len({ids[0], ids[2], ids[3]}) == 3
    # each label's first row
    assert [int(rep[k]) for k in ids] == [0, 0, 2, 3]
