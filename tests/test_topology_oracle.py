"""Edge-table topology against the dict, set and flood loops it replaced.

The oracle below keeps the earlier routines verbatim: the
``TriangleMesh._edge_map`` dict with the flags, ``neighbors`` and
``boundary_edges`` built on it (``OracleMesh``), ``polygonize``'s
``_border_edges`` set with its ``_chain_loops`` and ``_patch_ring``,
the membership mask of ``polygonize._rim`` that read a part's rim off
the mesh's edge table, the stack flood of ``convex.coplanar_patches``
and the dict ``simplify._face_adjacency``.  Every answer read from
``mesh.EdgeTable`` and ``mesh.components`` must equal the oracle's on
the fixtures, their grid cuts, float32 STL copies of those, seeded
hulls and random triangle subsets.  Neighbour lists are compared as
sorted lists, since their order is not a contract; a boundary with
several pinches may name a different one of them, so its error text
is compared only when one vertex pinches.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planecode import (
    TriangleMesh,
    decode_convex,
    encode_convex,
    read_code,
    segment_mesh,
    shapes,
    write_code,
)
from planecode.convex import COPLANAR_ANGLE, PlaneSet, coplanar_patches
from planecode.errors import GeometryError, NonSimpleBoundary
from planecode.geometry import triangle_planes
from planecode.mesh import EdgeTable, components, group_borders
from planecode.polygonize import _chain_loops as table_chain_loops
from planecode.polygonize import boundary_planes_for_part, polygonize_part
from planecode.segmentation import MeshPart, PartKind
from planecode.simplify import _face_adjacency

from conftest import quaternion_rotation, seeded_hulls
from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl


class OracleMesh(TriangleMesh):
    """TriangleMesh with the earlier dict-based edge topology."""

    def __init__(self, mesh):
        super().__init__(mesh.vertices, mesh.triangles)
        self._edges = None
        self._neighbors = None

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


def flood_coplanar_patches(mesh, normals, offsets, eps, members=None):
    """Partition triangles into edge-connected coplanar patches.

    Two edge neighbors are coplanar when their normals differ by less
    than COPLANAR_ANGLE and their offsets by at most ``eps``.  Only the
    triangles in ``members`` (default: all) take part.  Each patch is a
    sorted list of triangle indices; patches come in order of their
    smallest triangle.
    """
    members = sorted(range(len(mesh.triangles)) if members is None else members)
    unseen = set(members)
    cos_tol = math.cos(COPLANAR_ANGLE)
    patches = []
    for seed in members:
        if seed not in unseen:
            continue
        unseen.discard(seed)
        patch = [seed]
        stack = [seed]
        while stack:
            t = stack.pop()
            for nb in mesh.neighbors[t]:
                if (
                    nb in unseen
                    and normals[t] @ normals[nb] >= cos_tol
                    and abs(offsets[t] - offsets[nb]) <= eps
                ):
                    unseen.discard(nb)
                    patch.append(nb)
                    stack.append(nb)
        patches.append(sorted(patch))
    return patches


def _border_edges(mesh, triangles):
    """Directed edges of ``triangles`` whose reverse none of them walks."""
    walked = set()
    for t in triangles:
        a, b, c = (int(v) for v in mesh.triangles[t])
        walked.update([(a, b), (b, c), (c, a)])
    return [e for e in walked if (e[1], e[0]) not in walked]


def _patch_ring(mesh, patch):
    loops = _chain_loops(_border_edges(mesh, patch))
    if len(loops) != 1:
        raise NonSimpleBoundary(
            "coplanar patch has %d boundary loops, expected 1" % len(loops)
        )
    loop = loops[0]
    start = loop.index(min(loop))
    return loop[start:] + loop[:start]


def _chain_loops(edges):
    """Directed edges -> vertex loops; raises on branch or dead end."""
    succ = {}
    for a, b in edges:
        if a in succ:
            raise NonSimpleBoundary("boundary pinches at vertex %d" % a)
        succ[a] = b
    loops = []
    visited = set()
    for a, _ in sorted(edges):
        if a in visited:
            continue
        loop = [a]
        visited.add(a)
        cur = succ[a]
        while cur != a:
            if cur in visited or cur not in succ:
                raise NonSimpleBoundary("boundary walk does not close")
            loop.append(cur)
            visited.add(cur)
            cur = succ[cur]
        loops.append(loop)
    return loops


def oracle_rim(mesh, triangles):
    """Directed edges (a, b) of the triangles' open boundary, in ``EdgeTable.border`` order.

    Read off the mesh's own edge table: an edge is on the rim when the
    listed triangles walk it, and never both ways, so an edge that the
    whole mesh walks once, as on an open mesh, is on it too.  Each run
    gives its edge once, as the listed triangles walk it.
    """
    e = mesh.edges
    inside = np.zeros(len(mesh.triangles), dtype=bool)
    inside[triangles] = True
    mine = inside[e.owner]
    count = np.add.reduceat(mine, e.start)
    forward = np.add.reduceat(mine & (e.a < e.b), e.start)
    a, b = e.a[e.start], e.b[e.start]
    keep = (count > 0) & ((forward == 0) | (forward == count)) & (a != b)
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    up = forward[keep] > 0
    return zip(np.where(up, lo, hi).tolist(), np.where(up, hi, lo).tolist())


def oracle_face_adjacency(poly):
    """Sorted plane-index pairs whose decoded faces share an edge."""
    owners = {}
    for ring, idx in zip(poly.faces, poly.face_planes):
        for k in range(len(ring)):
            a, b = ring[k], ring[(k + 1) % len(ring)]
            edge = (a, b) if a < b else (b, a)
            owners.setdefault(edge, []).append(idx)
    pairs = set()
    for members in owners.values():
        for x in members:
            for y in members:
                if x < y:
                    pairs.add((x, y))
    return sorted(pairs)


# -- the corpus ---------------------------------------------------------

FIXTURES = ("cube", "tetrahedron", "open_box", "l_prism", "notched_box", "two_notch_box")


def corpus():
    """Name -> mesh: fixtures, g1-g4 grid cuts, their float32 copies, hulls."""
    out = {name: getattr(shapes, name)() for name in FIXTURES}
    for name, make in sorted(GRID_FIXTURES.items()):
        for g in (1, 2, 3, 4):
            out["%s_g%d" % (name, g)] = grid_cut(make(), g)
            out["%s_g%d_f32" % (name, g)] = via_float32_stl(grid_cut(make(), g))
    rng = np.random.default_rng(5)
    for k, hull in enumerate(seeded_hulls(31, 8, lo=8, hi=80)):
        spun = hull.rotated(quaternion_rotation(rng)).translated(rng.normal(size=3))
        out["hull_%d" % k] = hull
        out["hull_%d_spun" % k] = spun
    return out


CORPUS = corpus()


def planes_and_eps(mesh):
    normals, offsets = triangle_planes(*mesh.triangle_corners())
    return normals, offsets, 1e-7 * mesh.bbox_diagonal()


def outcome(fn, *args):
    """Result of ``fn``, or the class and text of the NonSimpleBoundary it raises."""
    try:
        return fn(*args)
    except NonSimpleBoundary as exc:
        return ("NonSimpleBoundary", str(exc))


def oracle_loops(mesh, group):
    return outcome(lambda: _chain_loops(_border_edges(mesh, group)))


def table_loops(mesh, groups):
    """Per group, its loops or its error, chained from one grouped table's borders."""
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    tris = mesh.triangles[np.array([t for g in groups for t in g], dtype=np.int64)]
    return [
        outcome(table_chain_loops, edges)
        for edges in group_borders(tris, group, len(groups))
    ]


def assert_same_loops(mesh, group, got):
    """``got`` equals the oracle's loops or error text for ``group``.

    Where several vertices pinch, each implementation names the first it
    meets, so only the error class is compared.
    """
    expected = oracle_loops(mesh, group)
    starts = [a for a, _ in _border_edges(mesh, group)]
    if len(starts) - len(set(starts)) > 1:
        assert got[0] == expected[0] == "NonSimpleBoundary"
    else:
        assert got == expected


def assert_topology_matches(mesh):
    oracle = OracleMesh(mesh)
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    assert fresh.is_edge_manifold == oracle.is_edge_manifold
    assert fresh.is_closed == oracle.is_closed
    assert fresh.is_consistently_oriented == oracle.is_consistently_oriented
    assert [sorted(nb) for nb in fresh.neighbors] == [
        sorted(nb) for nb in oracle.neighbors
    ]
    assert sorted(fresh.boundary_edges()) == sorted(oracle.boundary_edges())


def assert_patches_and_borders_match(mesh, members=None):
    normals, offsets, eps = planes_and_eps(mesh)
    oracle = OracleMesh(mesh)
    patches = coplanar_patches(mesh, normals, offsets, eps, members=members)
    assert patches == flood_coplanar_patches(oracle, normals, offsets, eps, members)
    for patch, got in zip(patches, table_loops(mesh, patches)):
        assert_same_loops(mesh, patch, got)
    # one group of everything, as boundary_planes_for_part reads it
    group = sorted(range(len(mesh.triangles)) if members is None else set(members))
    (got,) = table_loops(mesh, [group])
    assert_same_loops(mesh, group, got)


def table_border(mesh, group):
    a, b, _ = EdgeTable(mesh.triangles[np.asarray(group, dtype=np.int64)]).border()
    return sorted(zip(a.tolist(), b.tolist()))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_flags_neighbours_and_boundary_edges_match_the_oracle(name):
    assert_topology_matches(CORPUS[name])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_patches_and_patch_borders_match_the_oracle(name):
    assert_patches_and_borders_match(CORPUS[name])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_random_subsets_match_the_oracle(name):
    mesh = CORPUS[name]
    rng = np.random.default_rng(len(name))
    nt = len(mesh.triangles)
    for frac in (0.1, 0.5, 0.9):
        members = np.flatnonzero(rng.random(nt) < frac).tolist()
        sub = TriangleMesh(mesh.vertices, mesh.triangles[members])
        assert_topology_matches(sub)
        assert_patches_and_borders_match(mesh, members)
        assert table_border(mesh, members) == sorted(_border_edges(mesh, members))


def test_grouped_borders_equal_one_set_per_group():
    """Random disjoint groups of one table equal a set rebuilt per group."""
    rng = np.random.default_rng(9)
    for name in ("notched_box_g3", "two_notch_box_g4_f32", "hull_3_spun", "l_prism"):
        mesh = CORPUS[name]
        label = rng.integers(0, 7, size=len(mesh.triangles))
        groups = [np.flatnonzero(label == k).tolist() for k in range(7)]
        groups = [g for g in groups if g]
        a, b, owner = EdgeTable(
            mesh.triangles[np.concatenate(groups)],
            np.repeat(np.arange(len(groups)), [len(g) for g in groups]),
        ).border()
        group_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])[owner]
        for k, group in enumerate(groups):
            got = sorted(zip(a[group_of == k].tolist(), b[group_of == k].tolist()))
            assert got == sorted(_border_edges(mesh, group)), (name, k)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CORPUS)),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.05, 1.0),
)
def test_any_subset_matches_the_oracle(name, seed, frac):
    mesh = CORPUS[name]
    keep = np.random.default_rng(seed).random(len(mesh.triangles)) < frac
    members = np.flatnonzero(keep).tolist()
    assert_topology_matches(TriangleMesh(mesh.vertices, mesh.triangles[members]))
    assert_patches_and_borders_match(mesh, members)


@pytest.mark.parametrize("name", ["notched_box_g2", "two_notch_box_g3", "l_prism_g4_f32"])
def test_polygonized_parts_match_the_oracle_rings(name):
    mesh = CORPUS[name]
    normals, offsets, eps = planes_and_eps(mesh)
    oracle = OracleMesh(mesh)
    for part in segment_mesh(mesh):
        patches = flood_coplanar_patches(oracle, normals, offsets, eps, part.triangles)
        rings = [outcome(_patch_ring, mesh, patch) for patch in patches]
        first_error = next((r for r in rings if isinstance(r, tuple)), None)
        faces = outcome(polygonize_part, mesh, part)
        if first_error is not None:
            assert faces == first_error
            continue
        assert [f.triangles for f in faces] == patches
        assert [f.boundary for f in faces] == rings


# -- face adjacency ------------------------------------------------------


def test_face_adjacency_of_decoded_hulls_matches_the_oracle():
    rng = np.random.default_rng(17)
    for hull in seeded_hulls(41, 12, lo=8, hi=120):
        code = encode_convex(hull.rotated(quaternion_rotation(rng)))
        for c in (code, read_code(write_code(code))):
            poly = decode_convex(c)
            assert _face_adjacency(poly) == oracle_face_adjacency(poly)


def test_face_adjacency_with_repeated_planes_matches_the_oracle(cube_mesh):
    code = encode_convex(cube_mesh)
    for rows in ([5], [0, 0], [1, 4, 4]):
        repeated = PlaneSet(
            np.concatenate([code.triplets(), code.triplets()[rows]])
        )
        poly = decode_convex(repeated)
        pairs = _face_adjacency(poly)
        assert pairs == oracle_face_adjacency(poly)
        # each copy of a repeated plane is adjacent to the plane it repeats
        for k, row in enumerate(rows):
            assert (row, 6 + k) in pairs


# -- hand-built edge cases ----------------------------------------------


def test_empty_mesh():
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert_topology_matches(mesh)
    normals = np.zeros((0, 3))
    assert coplanar_patches(mesh, normals, np.zeros(0), 0.0) == []
    assert _face_adjacency(types.SimpleNamespace(faces=[], face_planes=[])) == []


def test_an_edge_owned_by_three_triangles_is_nobodys_neighbour_edge():
    verts = [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0), (0.5, 0, 1), (2, 1, 0)]
    tris = [(0, 1, 2), (1, 0, 3), (0, 1, 4), (1, 5, 2)]
    mesh = TriangleMesh(np.array(verts, dtype=float), tris)
    assert_topology_matches(mesh)
    assert not mesh.is_edge_manifold
    # edge 0-1 is walked three times; only edge 1-2 joins two triangles
    assert mesh.neighbors == [[3], [], [], [0]]


def test_a_flipped_triangle_keeps_the_border_rule(cube_mesh):
    tris = cube_mesh.triangles.copy()
    tris[0] = tris[0][::-1]
    mesh = TriangleMesh(cube_mesh.vertices, tris)
    assert_topology_matches(mesh)
    everything = list(range(len(tris)))
    border = table_border(mesh, everything)
    # each flipped edge is walked twice the same way and never reversed:
    # a border edge, though no edge is owned once
    assert border == sorted(_border_edges(mesh, everything))
    assert len(border) == 3 and mesh.boundary_edges() == []
    assert table_loops(mesh, [everything]) == [oracle_loops(mesh, everything)]


def test_an_edge_from_a_vertex_to_itself_is_no_border_edge():
    verts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 0), (3, 2, 0)], dtype=float)
    tris = [(0, 1, 2), (3, 3, 4), (4, 3, 3), (2, 1, 1), (1, 2, 0)]
    mesh = TriangleMesh(verts, tris)
    assert_topology_matches(mesh)
    for group in ([1], [1, 2], [0, 3], [3], [0, 1, 2, 3, 4]):
        assert table_border(mesh, group) == sorted(_border_edges(mesh, group)), group
    assert table_border(mesh, [1]) == []


def assert_rim_matches(mesh, triangles):
    """``mesh.edges.border(triangles)`` gives ``oracle_rim``'s edges.

    Each edge's owner is a listed triangle that walks it that way.
    """
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    a, b, owner = fresh.edges.border(triangles)
    got = list(zip(a.tolist(), b.tolist()))
    assert got == list(oracle_rim(mesh, triangles))
    listed = set(np.asarray(triangles, dtype=np.int64).tolist())
    for (x, y), t in zip(got, owner.tolist()):
        i, j, k = mesh.triangles[t].tolist()
        assert t in listed and (x, y) in ((i, j), (j, k), (k, i))
    return got


def segmented_parts(mesh):
    try:
        return segment_mesh(mesh)
    except GeometryError:
        return []


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_part_rims_match_the_oracle(name):
    mesh = CORPUS[name]
    nt = len(mesh.triangles)
    for part in segmented_parts(mesh):
        assert_rim_matches(mesh, part.triangles)
    # every triangle: the rim of a whole mesh is the border the table gives
    a, b, _ = mesh.edges.border()
    assert assert_rim_matches(mesh, np.arange(nt)) == list(zip(a.tolist(), b.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CORPUS)),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.0, 1.0),
    repeat=st.booleans(),
)
def test_any_subset_rim_matches_the_oracle(name, seed, frac, repeat):
    mesh = CORPUS[name]
    rng = np.random.default_rng(seed)
    nt = len(mesh.triangles)
    members = rng.permutation(np.flatnonzero(rng.random(nt) < frac))
    if repeat:  # a triangle listed twice walks its edges no other way
        members = np.concatenate([members, members[: len(members) // 2]])
    assert_rim_matches(mesh, members)


def test_an_empty_subset_has_no_rim():
    for name in ("cube", "open_box", "notched_box_g2"):
        assert assert_rim_matches(CORPUS[name], []) == []
        assert assert_rim_matches(CORPUS[name], np.zeros(0, dtype=np.int64)) == []


def test_an_open_mesh_keeps_the_edges_it_walks_once():
    mesh = CORPUS["open_box"]
    nt = len(mesh.triangles)
    rim = assert_rim_matches(mesh, np.arange(nt))
    assert rim and sorted(rim) == sorted(mesh.boundary_edges())
    for t in range(nt):
        assert_rim_matches(mesh, [t])
    assert_rim_matches(mesh, list(range(0, nt, 2)))


def test_a_ring_with_a_self_edge_keeps_the_border_rule():
    verts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 0), (3, 2, 0)], dtype=float)
    mesh = TriangleMesh(verts, [(0, 1, 2), (3, 3, 4), (4, 3, 3), (2, 1, 1), (1, 2, 0)])
    for group in ([1], [1, 2], [0, 3], [3], [0, 1, 2, 3, 4], [4, 0], [2, 2, 1]):
        assert_rim_matches(mesh, group)
    # the edge from 3 to itself is no rim edge; 3-4 is walked both ways
    assert assert_rim_matches(mesh, [1, 2]) == []


def flat_cells(cells):
    """Unit squares of the plane z = 0 at integer cells, two triangles each."""
    ids = {}
    tris = []

    def vid(x, y):
        return ids.setdefault((x, y), len(ids))

    for x, y in cells:
        a, b, c, d = vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y + 1)
        tris += [(a, b, c), (a, c, d)]
    verts = [(x, y, 0.0) for (x, y) in ids]
    return TriangleMesh(np.array(verts, dtype=float), tris)


def test_a_pinched_patch_raises_the_same_error():
    # a ring of cells around (1, 1), open at the corner cell (2, 2): the
    # hole's rim and the outer rim meet at the one vertex (2, 2)
    ring = [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1), (0, 2), (1, 2)]
    mesh = flat_cells(ring)
    part = MeshPart(PartKind.PSEUDO_CONVEX, range(len(mesh.triangles)))
    (patch,) = coplanar_patches(mesh, *planes_and_eps(mesh))
    expected = outcome(_patch_ring, mesh, patch)
    assert expected[0] == "NonSimpleBoundary" and "pinches" in expected[1]
    with pytest.raises(NonSimpleBoundary) as exc:
        polygonize_part(mesh, part)
    assert str(exc.value) == expected[1]
    with pytest.raises(NonSimpleBoundary) as exc:
        boundary_planes_for_part(mesh, part)
    assert str(exc.value) == expected[1]


def test_a_patch_with_a_hole_raises_the_same_error():
    ring = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    mesh = flat_cells(ring)
    (patch,) = coplanar_patches(mesh, *planes_and_eps(mesh))
    expected = outcome(_patch_ring, mesh, patch)
    assert expected == ("NonSimpleBoundary", "coplanar patch has 2 boundary loops, expected 1")
    with pytest.raises(NonSimpleBoundary) as exc:
        polygonize_part(mesh, MeshPart(PartKind.PSEUDO_CONVEX, patch))
    assert str(exc.value) == expected[1]


# -- the batched coplanarity test ---------------------------------------


def merged(mesh, normals, offsets, eps, p, q):
    """Whether coplanar_patches joins neighbours p and q on their own."""
    return len(coplanar_patches(mesh, normals, offsets, eps, members=[p, q])) == 1


def test_every_corpus_pair_is_decided_as_the_scalar_dot_decides():
    cos_tol = math.cos(COPLANAR_ANGLE)
    for name, mesh in CORPUS.items():
        normals, offsets, eps = planes_and_eps(mesh)
        level = np.zeros(len(offsets))  # equal offsets: only the normals decide
        p, q = mesh.edges.pairs()
        for t, nb in zip(p.tolist(), q.tolist()):
            assert merged(mesh, normals, level, eps, t, nb) == bool(
                normals[t] @ normals[nb] >= cos_tol
            ), (name, t, nb)


def hinge(theta, rotation, shift):
    """Two triangles on the edge (0,0,0)-(1,0,0), bent by ``theta`` out of plane."""
    verts = np.array([
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, 1.0, 0.0),
        (0.6, -math.cos(theta), math.sin(theta)),
    ])
    mesh = TriangleMesh(verts @ rotation.T + shift, [(0, 1, 2), (1, 0, 3)])
    normals, _ = triangle_planes(*mesh.triangle_corners())
    return mesh, normals


def test_hinges_within_ulps_of_the_angle_are_decided_as_the_scalar_dot_decides():
    cos_tol = math.cos(COPLANAR_ANGLE)
    ulp = math.ulp(cos_tol)
    rng = np.random.default_rng(23)
    below = above = near_below = near_above = 0
    for k in range(3000):
        # one ulp of the dot product is about 1e-4 of the angle here
        theta = COPLANAR_ANGLE * (1.0 + rng.uniform(-6e-4, 6e-4))
        rotation = np.eye(3) if k % 4 == 0 else quaternion_rotation(rng)
        mesh, normals = hinge(theta, rotation, rng.normal(size=3) if k % 2 else 0.0)
        dot = normals[0] @ normals[1]
        expected = bool(dot >= cos_tol)
        assert merged(mesh, normals, np.zeros(2), 0.0, 0, 1) == expected, (k, theta)
        above += expected
        below += not expected
        near_above += expected and dot - cos_tol <= 3 * ulp
        near_below += (not expected) and cos_tol - dot <= 3 * ulp
    # both decisions are taken, many of them within three ulps of the bound
    assert min(below, above) > 500
    assert min(near_below, near_above) > 100


# -- components -----------------------------------------------------------


def bfs_labels(n, a, b):
    adj = [[] for _ in range(n)]
    for x, y in zip(a, b):
        adj[x].append(y)
        adj[y].append(x)
    label = [-1] * n
    for s in range(n):
        if label[s] < 0:
            label[s] = s
            stack = [s]
            while stack:
                for y in adj[stack.pop()]:
                    if label[y] < 0:
                        label[y] = s
                        stack.append(y)
    return label


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), data=st.data())
def test_components_label_each_node_with_its_smallest_node(n, data):
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                 max_size=3 * n if n else 0)
    )
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    assert components(n, a, b).tolist() == bfs_labels(n, a.tolist(), b.tolist())


def test_components_join_a_long_chain():
    n = 5000
    order = np.random.default_rng(3).permutation(n)
    label = components(n, order[:-1], order[1:])
    assert (label == 0).all()
