"""The vertex weld and the ring fan against the routines they replaced.

``grid_weld`` (the greedy grid walk, kept verbatim in the decode oracle)
and ``dict_weld_soup`` (the exact-match dictionary weld the STL readers
used) are the references: on inputs where their answers are well
defined, the single ``weld`` must give the same labels and first
points.  The hostile inputs pin that its cost stays bounded.
"""

import time

import numpy as np

from planecode.mesh import TriangleMesh, fan, weld
from planecode.mesh_io import _weld_soup

from test_decode_oracle import weld as grid_weld


def dict_weld_soup(tri_points):
    """Vertex/index arrays from a (T, 3, 3) corner soup, exact-match weld."""
    index = {}
    verts = []
    tris = []
    for corners in tri_points:
        tri = []
        for p in corners:
            key = (float(p[0]), float(p[1]), float(p[2]))
            at = index.get(key)
            if at is None:
                at = len(verts)
                index[key] = at
                verts.append(key)
            tri.append(at)
        tris.append(tri)
    return TriangleMesh(
        np.array(verts, dtype=float).reshape(-1, 3),
        np.array(tris, dtype=np.int64).reshape(-1, 3),
    )


def test_a_point_near_an_earlier_cluster_joins_it_whatever_lies_between():
    # the grid walk remembered only the latest cluster of a cell, so a'
    # missed a (b's cluster had taken the cell) and got its own vertex
    c = 1e-6
    a = np.full(3, 0.1 * c)
    b = np.full(3, 0.95 * c)
    points = np.array([a, b, a + [1e-12, 0.0, 0.0]])
    assert grid_weld(points, c, c)[0].tolist() == [0, 1, 2]
    labels, firsts = weld(points, c)
    assert labels.tolist() == [0, 1, 0]
    assert firsts.tolist() == [0, 1]


def test_tight_separated_clusters_weld_as_the_grid_walk_did():
    rng = np.random.default_rng(7)
    radius = 1e-6
    for _ in range(20):
        centres = rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 60)), 3))
        centres = centres[np.argsort(centres[:, 0])]
        keep = np.ones(len(centres), dtype=bool)
        keep[1:] = np.diff(centres[:, 0]) > 1e-3
        centres = centres[keep]
        sizes = rng.integers(1, 7, size=len(centres))
        points = np.repeat(centres, sizes, axis=0)
        points += rng.uniform(-0.1, 0.1, size=points.shape) * radius / np.sqrt(3.0)
        points = points[rng.permutation(len(points))]
        labels, firsts = weld(points, radius)
        want_labels, want_firsts = grid_weld(points, radius, radius)
        assert labels.tolist() == want_labels.tolist()
        assert firsts.tolist() == want_firsts.tolist()


def test_exact_weld_matches_the_dictionary_weld():
    rng = np.random.default_rng(3)
    pool = np.array([
        [0.0, 0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [1e-200, 0.0, 0.0],
        [0.0, -1e-200, 0.0],
        [1.0, 2.0, 3.0],
        [1.0, 2.0, np.nextafter(3.0, 4.0)],
        [-1.0, 0.5, 0.25],
        [0.5, -0.0, 7.0],
        [0.5, 0.0, 7.0],
    ])
    for _ in range(50):
        soup = pool[rng.integers(0, len(pool), size=(int(rng.integers(1, 40)), 3))]
        got = _weld_soup(soup)
        want = dict_weld_soup(soup)
        assert got.triangles.tolist() == want.triangles.tolist()
        assert got.vertices.tobytes() == want.vertices.tobytes()
        labels, firsts = weld(soup.reshape(-1, 3), 0.0)
        assert labels.tolist() == want.triangles.reshape(-1).tolist()
        assert soup.reshape(-1, 3)[firsts].tobytes() == want.vertices.tobytes()


def test_a_vertex_repeated_in_a_large_fan_welds_in_one_sort():
    k = 30000
    angle = np.linspace(0.0, 2.0 * np.pi, k + 1)
    rim = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(k + 1)])
    soup = np.stack([np.zeros((k, 3)), rim[:-1], rim[1:]], axis=1)
    t0 = time.perf_counter()
    labels, firsts = weld(soup.reshape(-1, 3), 1e-9)
    assert time.perf_counter() - t0 < 1.0
    assert len(firsts) == k + 1
    assert (labels.reshape(-1, 3)[:, 0] == 0).all()


def test_a_long_chain_in_random_order_welds_into_one_cluster_quickly():
    n = 100000
    rng = np.random.default_rng(11)
    points = np.zeros((n, 3))
    points[:, 0] = 0.5 * np.arange(n)
    points = points[rng.permutation(n)]
    t0 = time.perf_counter()
    labels, firsts = weld(points, 1.0)
    assert time.perf_counter() - t0 < 2.0
    assert firsts.tolist() == [0]
    assert not labels.any()


def test_fan_emits_a_repeated_ring_once():
    tris = fan([[0, 1, 2, 3], [4, 5, 6], (0, 1, 2, 3)])
    assert tris.tolist() == [[0, 1, 2], [0, 2, 3], [4, 5, 6]]
    assert fan([]).shape == (0, 3)
