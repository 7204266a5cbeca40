"""The pair-orientation test against the two copies it replaced.

``oracle_mutual_orientation`` (with ``_corners``) and
``oracle_strict_neighbors`` (with ``_seed_list``) below are the earlier
implementations, kept verbatim as oracles: each wrote the six-vertex
comparison on its own, and the seed lists had their own stable sort.
Now both go through ``segmentation._sides``, and the seed scan reads
the strict pairs both ways, stable-sorted by their first triangle,
which must be the oracle's lists flattened in order.  Those pairs and
every pair's class must stay the same on grid-cut fixtures (as built,
under an exact axis motion, and read back through float32 STL),
cap-first prisms and sphere hulls.
"""

import functools

import numpy as np
import pytest

from planecode import MutualOrientation, PartKind, TriangleMesh, mutual_orientation, shapes
from planecode.geometry import triangle_planes
from planecode.mesh import SLACK_REL as EPS_ORIENT_REL
from planecode.segmentation import _sides, _strict_neighbors

from test_segment_oracle import (
    ROTATIONS,
    grid_cut,
    sphere_hull,
    staircase,
    star_prism,
    via_float32_stl,
)


# -- the oracles, verbatim ---------------------------------------------

def _corners(mesh, t):
    if isinstance(t, (int, np.integer)):
        t = mesh.triangles[t]
    return mesh.vertices[np.asarray(t, dtype=np.int64)]


def oracle_mutual_orientation(mesh, t1, t2, eps=None):
    if eps is None:
        eps = EPS_ORIENT_REL * mesh.bbox_diagonal()
    a = _corners(mesh, t1)
    b = _corners(mesh, t2)
    normals, offsets = triangle_planes(*np.stack([a, b], axis=1))
    d_ab = b @ normals[0] - offsets[0]
    d_ba = a @ normals[1] - offsets[1]
    if (d_ab <= eps).all() and (d_ba <= eps).all():
        return MutualOrientation.POSITIVE
    if (d_ab >= -eps).all() and (d_ba >= -eps).all():
        return MutualOrientation.NEGATIVE
    return MutualOrientation.MIXED


def oracle_strict_neighbors(corners, normals, offs, i, j, eps):
    # corners of one triangle against the other's plane, each way
    d_ij = np.matmul(corners[j], normals[i][:, :, None])[:, :, 0] - offs[i][:, None]
    d_ji = np.matmul(corners[i], normals[j][:, :, None])[:, :, 0] - offs[j][:, None]
    below = (d_ij <= eps).all(axis=1) & (d_ji <= eps).all(axis=1)
    above = (d_ij >= -eps).all(axis=1) & (d_ji >= -eps).all(axis=1)
    convex, concave = below & ~above, above & ~below
    return {
        PartKind.PSEUDO_CONVEX: _seed_list(i[convex], j[convex]),
        PartKind.PSEUDO_CONCAVE: _seed_list(i[concave], j[concave]),
    }


def _seed_list(i, j):
    """(t, [neighbors of t]) for each t in a pair of (i, j), by increasing t."""
    x = np.concatenate([i, j])
    order = np.argsort(x, kind="stable")
    x, y = x[order], np.concatenate([j, i])[order]
    starts = np.flatnonzero(np.diff(x, prepend=-1))
    return list(zip(x[starts].tolist(), [g.tolist() for g in np.split(y, starts[1:])]))


# -- the corpus ----------------------------------------------------------

def axis_moved(mesh, seed):
    """The mesh under a seeded exact axis rotation and half-integer shift."""
    rng = np.random.default_rng(seed)
    rot = ROTATIONS[int(rng.integers(len(ROTATIONS)))]
    shift = rng.integers(-16, 17, size=3) / 2.0
    return TriangleMesh(mesh.vertices @ rot.T + shift, mesh.triangles)


@functools.lru_cache(maxsize=None)
def corpus():
    meshes = {}
    for name in ("notched_box", "two_notch_box"):
        for g in (1, 2, 3, 4, 8):
            mesh = grid_cut(getattr(shapes, name)(), g)
            meshes["%s_g%d" % (name, g)] = mesh
            meshes["%s_g%d_moved" % (name, g)] = axis_moved(mesh, 10 * g)
            meshes["%s_g%d_f32" % (name, g)] = via_float32_stl(mesh)
    for k in (4, 5, 8):
        meshes["star_k%d" % k] = star_prism(k)
    for k in (2, 3, 4):
        meshes["staircase_k%d" % k] = staircase(k)
    for g in (1, 2, 3, 4):
        meshes["l_prism_g%d" % g] = grid_cut(shapes.l_prism(), g)
    for n in (16, 32, 64, 128):
        meshes["sphere_n%d" % n] = sphere_hull(n, n)
    return meshes


NAMES = sorted(corpus())
SLACKS = [None, 0.0, 1e-9]


def pair_inputs(mesh):
    corners = mesh.vertices[mesh.triangles]
    normals, offs = mesh.planes
    return corners, normals, offs, *mesh.edges.pairs()


# -- comparisons ---------------------------------------------------------

@pytest.mark.parametrize("eps", SLACKS)
@pytest.mark.parametrize("name", NAMES)
def test_seed_lists_match_the_oracle(name, eps):
    mesh = corpus()[name]
    if eps is None:
        eps = EPS_ORIENT_REL * mesh.bbox_diagonal()
    args = pair_inputs(mesh)
    got = _strict_neighbors(*args, eps)
    want = oracle_strict_neighbors(*args, eps)
    assert list(got) == [PartKind.PSEUDO_CONVEX, PartKind.PSEUDO_CONCAVE]
    for kind, lists in want.items():
        # the oracle's per-triangle lists, flattened in order
        assert list(zip(*got[kind])) == [(t, nb) for t, nbs in lists for nb in nbs]


def slack(mesh, eps):
    return EPS_ORIENT_REL * mesh.bbox_diagonal() if eps is None else eps


def assert_same_class(mesh, p, q, eps):
    got = mutual_orientation(mesh, p, q, eps)
    assert got is oracle_mutual_orientation(mesh, p, q, eps), (p, q, eps)


@pytest.mark.parametrize("name", NAMES)
def test_every_neighbor_pair_classifies_as_the_oracle(name):
    mesh = corpus()[name]
    # the default slack passed explicitly: bbox_diagonal per call would
    # triple the cost, and the next test checks the default itself
    slacks = [slack(mesh, eps) for eps in SLACKS]
    for a, b in zip(*(x.tolist() for x in mesh.edges.pairs())):
        for eps in slacks:
            assert_same_class(mesh, a, b, eps)


@pytest.mark.parametrize("name", NAMES)
def test_sampled_pairs_and_vertex_triples_classify_as_the_oracle(name):
    mesh = corpus()[name]
    tris = mesh.triangles
    # every sixteenth neighbor pair both ways, by index and as vertex
    # triples (tuples and arrays), and with a triangle it may not touch,
    # one triple rotated
    i, j = (x[::16] for x in mesh.edges.pairs())
    k = np.random.default_rng(len(tris)).integers(len(tris), size=len(i))
    for a, b, c in zip(i.tolist(), j.tolist(), k.tolist()):
        for p, q in (
            (b, a),
            (tuple(tris[a].tolist()), tuple(tris[b].tolist())),
            (tris[b], tris[a]),
            (tris[a][[1, 2, 0]], tris[c]),
        ):
            for eps in SLACKS:
                assert_same_class(mesh, p, q, eps)


def test_the_corpus_has_every_kind_of_pair():
    kinds, mixed = set(), False
    for mesh in corpus().values():
        args = pair_inputs(mesh)
        seeds = _strict_neighbors(*args, EPS_ORIENT_REL * mesh.bbox_diagonal())
        kinds |= {kind for kind, (firsts, _) in seeds.items() if firsts}
        # at eps = 0 the rounding dust of coplanar neighbors reads MIXED
        corners, normals, offs, i, j = args
        below, above = _sides(corners[i], corners[j], normals[i], offs[i], normals[j], offs[j], 0.0)
        mixed |= bool((~below & ~above).any())
    assert kinds == set(PartKind) and mixed
