"""segment_mesh against the two greedy implementations it replaced.

``pairwise_segment_mesh`` below is the first implementation, kept
verbatim as an oracle: it tests every candidate against every current
member through a cache of pair conditions.  ``running_maxima_segment_mesh``
(with its ``_strict_neighbors`` and ``_plane_ids``) is the second, also
kept verbatim: a growing part kept, per vertex and per triangle, the
largest signed distance to its members' planes and of its members'
vertices, folded in by one numpy product per new plane and new vertex.
It costs O(VT) rather than O(T^2) pair tests, so it checks large meshes.
The bitset greedy in ``planecode.segmentation`` must give the same part
table, kinds and member order included, on fixtures, their grid-cut
tessellations (also read back through float32 STL), cap-first
extrusions, seeded hulls and bumpy spheres.
"""

import functools
import heapq
import math

import numpy as np
from hypothesis import given, settings, strategies as st
import pytest
from scipy.spatial import ConvexHull

from planecode import TriangleMesh, load_mesh, segment_mesh, shapes, write_stl_binary
from planecode import segmentation
from planecode.errors import InconsistentOrientation, NonManifold
from planecode.geometry import triangle_planes
from planecode.mesh import SLACK_REL as EPS_ORIENT_REL
from planecode.mesh import adjacency
from planecode.segmentation import MeshPart, PartKind, _outside_bits, _sides

from conftest import seeded_hulls


def pairwise_segment_mesh(mesh, eps=None):
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


def running_maxima_segment_mesh(mesh, eps=None):
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


def part_table(parts):
    """(kind, members) per part, members in admission order."""
    return [(p.kind, list(p.triangles)) for p in parts]


def assert_matches_oracle(mesh):
    assert part_table(segment_mesh(mesh)) == part_table(pairwise_segment_mesh(mesh))


# -- mesh builders -----------------------------------------------------

GRID_FIXTURES = {
    "notched_box": shapes.notched_box,
    "two_notch_box": shapes.two_notch_box,
    "l_prism": shapes.l_prism,
}


def grid_cut(mesh, g):
    """Cut every quad of a two-triangles-per-quad fixture into a g x g grid.

    A point on a quad edge is computed from the edge's lower vertex
    index, so both quads sharing the edge get the same coordinates and
    the surface stays closed.  Triangles keep the fixture's quad order.
    """
    pts = mesh.vertices
    verts = list(pts)
    ids = {}

    def point(key, p):
        if key not in ids:
            ids[key] = len(verts)
            verts.append(p)
        return ids[key]

    def on_edge(u, w, k):
        if k == 0:
            return u
        if k == g:
            return w
        if u > w:
            u, w, k = w, u, g - k
        return point(("edge", u, w, k), pts[u] + (k / g) * (pts[w] - pts[u]))

    tris = []
    for q, (first, second) in enumerate(zip(mesh.triangles[0::2], mesh.triangles[1::2])):
        a, b, c = (int(v) for v in first)
        d = int(second[2])
        grid = {}
        for i in range(g + 1):
            for j in range(g + 1):
                if j == 0:
                    grid[i, j] = on_edge(a, b, i)
                elif j == g:
                    grid[i, j] = on_edge(d, c, i)
                elif i == 0:
                    grid[i, j] = on_edge(a, d, j)
                elif i == g:
                    grid[i, j] = on_edge(b, c, j)
                else:
                    s, t = i / g, j / g
                    p = ((1 - s) * (1 - t)) * pts[a] + (s * (1 - t)) * pts[b] \
                        + (s * t) * pts[c] + ((1 - s) * t) * pts[d]
                    grid[i, j] = point(("quad", q, i, j), p)
        for j in range(g):
            for i in range(g):
                tris.append((grid[i, j], grid[i + 1, j], grid[i + 1, j + 1]))
                tris.append((grid[i, j], grid[i + 1, j + 1], grid[i, j + 1]))
    return TriangleMesh(np.array(verts), tris)


def via_float32_stl(mesh):
    return load_mesh(write_stl_binary(mesh), "stl")


def extrude(profile, height, center_fan):
    """Prism over a counterclockwise xy polygon, cap triangles listed first."""
    m = len(profile)
    verts = [(x, y, 0.0) for x, y in profile] + [(x, y, height) for x, y in profile]
    tris = []
    if center_fan:
        verts += [(0.0, 0.0, 0.0), (0.0, 0.0, height)]
        for i in range(m):
            j = (i + 1) % m
            tris.append((2 * m + 1, m + i, m + j))
            tris.append((2 * m, j, i))
    else:
        for i in range(1, m - 1):
            tris.append((m, m + i, m + i + 1))
            tris.append((0, i + 1, i))
    for i in range(m):
        j = (i + 1) % m
        tris.append((i, j, m + j))
        tris.append((i, m + j, m + i))
    return TriangleMesh(np.array(verts), tris)


def star_prism(k):
    profile = [
        ((1.0 if s % 2 == 0 else 0.45) * math.cos(math.pi * s / k),
         (1.0 if s % 2 == 0 else 0.45) * math.sin(math.pi * s / k))
        for s in range(2 * k)
    ]
    return extrude(profile, 0.6, center_fan=True)


def staircase(k):
    profile = [(0.0, 0.0), (float(k), 0.0)]
    for s in range(1, k + 1):
        profile += [(float(k - s + 1), float(s)), (float(k - s), float(s))]
    return extrude(profile, 1.0, center_fan=False)


def rotations():
    """The 24 signed axis permutations with determinant +1."""
    out = []
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        for signs in np.ndindex(2, 2, 2):
            r = np.zeros((3, 3))
            r[range(3), perm] = [1.0 - 2.0 * s for s in signs]
            if np.linalg.det(r) > 0:
                out.append(r)
    return out


ROTATIONS = rotations()


# -- oracle comparisons ------------------------------------------------

def test_fixtures_match_the_oracle(corpus_meshes):
    for name, mesh in corpus_meshes.items():
        assert part_table(segment_mesh(mesh)) == part_table(pairwise_segment_mesh(mesh)), name


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
def test_grid_cut_fixtures_match_the_oracle(name, g):
    assert_matches_oracle(grid_cut(GRID_FIXTURES[name](), g))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
def test_float32_stl_grid_cuts_match_the_oracle(name, g):
    assert_matches_oracle(via_float32_stl(grid_cut(GRID_FIXTURES[name](), g)))


@pytest.mark.parametrize("k", [4, 5, 8])
def test_cap_first_star_prisms_match_the_oracle(k):
    assert_matches_oracle(star_prism(k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cap_first_staircases_match_the_oracle(k):
    assert_matches_oracle(staircase(k))


@pytest.mark.parametrize("seed", range(3))
def test_seeded_hulls_match_the_oracle(seed):
    for hull in seeded_hulls(200 + seed, 4, lo=8, hi=200):
        assert_matches_oracle(hull)


def test_grid_cuts_are_closed_and_oriented():
    for make in GRID_FIXTURES.values():
        mesh = grid_cut(make(), 3)
        assert mesh.is_closed and mesh.is_consistently_oriented
        assert mesh.volume() == pytest.approx(make().volume(), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["cube", "tetrahedron", "open_box", "l_prism", "notched_box", "two_notch_box"]),
    rot=st.integers(0, len(ROTATIONS) - 1),
    shift=st.tuples(*[st.integers(-16, 16)] * 3),
)
def test_exact_axis_motions_keep_the_part_table(name, rot, shift):
    mesh = getattr(shapes, name)()
    moved = TriangleMesh(
        mesh.vertices @ ROTATIONS[rot].T + np.asarray(shift) / 2.0, mesh.triangles
    )
    assert part_table(segment_mesh(moved)) == part_table(segment_mesh(mesh))


# -- vertices shared by many triangles, and a vertex no triangle uses ---

def bipyramid(k, top, bottom, wobble=0.0):
    """Two apex fans over a k-gon: every side triangle of a fan holds its apex.

    ``top`` and ``bottom`` are the apex heights; a bottom apex above the
    k-gon's plane dents the solid in, and ``wobble`` alternates the
    k-gon's radius, so the rim is not convex.
    """
    theta = 2.0 * math.pi * np.arange(k) / k
    radius = 1.0 + wobble * (-1.0) ** np.arange(k)
    ring = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), np.zeros(k)])
    verts = np.vstack([ring, [[0.0, 0.0, top], [0.0, 0.0, bottom]]])
    tris = []
    for i in range(k):
        j = (i + 1) % k
        tris.append((i, j, k))
        tris.append((j, i, k + 1))
    return TriangleMesh(verts, tris)


@pytest.mark.parametrize(
    "top, bottom, wobble",
    [(1.0, -1.0, 0.0), (1.0, 0.4, 0.0), (1.0, -1.0, 0.3), (1.0, 0.4, 0.3), (0.7, -0.2, 0.1)],
)
def test_bipyramids_over_a_32_gon_match_the_oracle(top, bottom, wobble):
    mesh = bipyramid(32, top, bottom, wobble)
    assert mesh.is_closed and mesh.is_consistently_oriented
    assert_matches_oracle(mesh)
    for rot in (3, 11):
        assert_matches_oracle(TriangleMesh(mesh.vertices @ ROTATIONS[rot].T, mesh.triangles))


def crater(k, depth):
    """A k-gon prism whose top is a cone sunk ``depth`` below its rim.

    The cone's k triangles share their apex and are mutually reflex.
    They are listed last, so the walls and the bottom fan, which shares
    its centre, grow into one pseudo-convex part first, and the cone
    becomes one pseudo-concave part.
    """
    theta = 2.0 * math.pi * np.arange(k) / k
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    verts = np.vstack([
        np.column_stack([ring, np.zeros(k)]),
        np.column_stack([ring, np.ones(k)]),
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0 - depth]],
    ])
    tris, cone = [], []
    for i in range(k):
        j = (i + 1) % k
        tris += [(i, j, k + j), (i, k + j, k + i), (j, i, 2 * k)]
        cone.append((k + i, k + j, 2 * k + 1))
    return TriangleMesh(verts, tris + cone)


@pytest.mark.parametrize("depth", [0.3, 0.9])
def test_a_sunk_cone_over_a_32_gon_matches_the_oracle(depth):
    mesh = crater(32, depth)
    assert mesh.is_closed and mesh.is_consistently_oriented
    parts = segment_mesh(mesh)
    assert [len(p.triangles) for p in parts if p.kind is PartKind.PSEUDO_CONCAVE] == [32]
    assert_matches_oracle(mesh)
    assert_matches_oracle(TriangleMesh(mesh.vertices @ ROTATIONS[7].T, mesh.triangles))


def sphere_hull(seed, n):
    """Outward-wound hull of n seeded points on the unit sphere: 2n - 4 triangles."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    hull = ConvexHull(pts)
    tris = hull.simplices.copy()
    normals = np.cross(pts[tris[:, 1]] - pts[tris[:, 0]], pts[tris[:, 2]] - pts[tris[:, 1]])
    flip = np.einsum("ij,ij->i", normals, hull.equations[:, :3]) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return TriangleMesh(pts, tris)


def bumpy_sphere(seed, n, amp):
    """A sphere hull with each vertex then moved radially by up to ``amp``.

    The surface stays closed and outward wound, but most dihedrals turn
    reflex at random, so parts are small and a member's corner is often
    shared with no other member: each corner must be folded in.
    """
    mesh = sphere_hull(seed, n)
    scale = np.random.default_rng(seed + 1000).uniform(1.0 - amp, 1.0 + amp, size=(n, 1))
    return TriangleMesh(mesh.vertices * scale, mesh.triangles)


@pytest.mark.parametrize("n, amp", [(30, 0.3), (60, 0.1), (100, 0.05)])
@pytest.mark.parametrize("seed", range(4))
def test_bumpy_spheres_match_the_oracle(seed, n, amp):
    mesh = bumpy_sphere(seed, n, amp)
    assert mesh.is_closed and mesh.is_consistently_oriented
    assert_matches_oracle(mesh)


@pytest.mark.parametrize("at", [0, 5, -1])
@pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
def test_a_vertex_no_triangle_uses_matches_the_oracle(name, at):
    mesh = grid_cut(GRID_FIXTURES[name](), 2)
    nv = len(mesh.vertices)
    at = nv if at < 0 else at
    # a stray point inside the bounding box, inserted at index ``at``
    stray = mesh.vertices.mean(axis=0) + 0.01
    verts = np.insert(mesh.vertices, at, stray, axis=0)
    tris = mesh.triangles + (mesh.triangles >= at)
    padded = TriangleMesh(verts, tris)
    assert at not in set(padded.triangles.ravel().tolist())
    assert_matches_oracle(padded)
    assert part_table(segment_mesh(padded)) == part_table(segment_mesh(mesh))


# -- the running-maxima oracle on large and reordered meshes -----------

@functools.lru_cache(maxsize=None)
def cut_fixture(name, g):
    return grid_cut(getattr(shapes, name)(), g)


def slacks(mesh):
    """The default slack, none at all, and 1e-4 times the diagonal."""
    return [None, 0.0, 1e-4 * mesh.bbox_diagonal()]


def assert_matches_running_maxima(mesh, eps=None):
    got = part_table(segment_mesh(mesh, eps))
    assert got == part_table(running_maxima_segment_mesh(mesh, eps)), eps


@pytest.mark.parametrize("g", [8, 16])
@pytest.mark.parametrize("name", ["notched_box", "two_notch_box"])
def test_large_grid_cuts_match_the_running_maxima_oracle(name, g):
    mesh = cut_fixture(name, g)
    for eps in slacks(mesh):
        assert_matches_running_maxima(mesh, eps)


@pytest.mark.parametrize("name", ["notched_box", "two_notch_box"])
def test_float32_stl_grid_cuts_at_g8_match_the_running_maxima_oracle(name):
    mesh = via_float32_stl(cut_fixture(name, 8))
    for eps in slacks(mesh):
        assert_matches_running_maxima(mesh, eps)


def test_the_1020_triangle_hull_matches_the_running_maxima_oracle():
    from test_segmentation import sphere_hull as random_sphere_hull

    mesh = random_sphere_hull(np.random.default_rng(512), 512)
    assert len(mesh.triangles) == 1020
    for eps in slacks(mesh):
        assert_matches_running_maxima(mesh, eps)


REORDERED_SOURCES = [
    ("grid", name, g) for name in sorted(GRID_FIXTURES) for g in (2, 3, 5)
] + [("bumpy", seed, n) for seed in range(2) for n in (30, 80)]


def reordered_source(source):
    if source[0] == "grid":
        return cut_fixture(*source[1:])
    seed, n = source[1:]
    return bumpy_sphere(seed, n, 0.1)


@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from(REORDERED_SOURCES),
    rot=st.integers(0, len(ROTATIONS) - 1),
    shift=st.tuples(*[st.integers(-16, 16)] * 3),
    order=st.integers(0, 2**32 - 1),
    slack=st.sampled_from([None, 0.0, 1e-4]),
)
def test_moved_and_shuffled_meshes_match_the_running_maxima_oracle(source, rot, shift, order, slack):
    mesh = reordered_source(source)
    perm = np.random.default_rng(order).permutation(len(mesh.triangles))
    moved = TriangleMesh(
        mesh.vertices @ ROTATIONS[rot].T + np.asarray(shift) / 2.0, mesh.triangles[perm]
    )
    eps = slack if slack is None else slack * moved.bbox_diagonal()
    assert_matches_running_maxima(moved, eps)


# -- the bits themselves -----------------------------------------------

@pytest.mark.parametrize("p", [7, 8, 9, 64, 65])
def test_outside_bits_put_plane_p_at_bit_p(p):
    # plane k is x = k, so a vertex at x = k + 1/2 is outside planes 0..k,
    # and one at x = -1 is outside none
    normals = np.tile([1.0, 0.0, 0.0], (p, 1))
    offs = np.arange(p, dtype=float)
    xs = [-1.0, *(k + 0.5 for k in range(p)), 3.0]
    vertices = np.array([[x, 2.0, -3.0] for x in xs])
    want = [sum(1 << k for k in range(p) if x - k > 0.25) for x in xs]
    assert _outside_bits(vertices, normals, offs, 0.25) == want
    assert want[0] == 0 and want[-2] == (1 << p) - 1 and want[-1] == 0b111
    # a vertex exactly eps outside plane k is within the slack of it
    assert _outside_bits(np.array([[2.25, 0.0, 0.0]]), normals, offs, 0.25) == [0b11]


def test_outside_bits_of_one_plane_round_as_its_fold():
    # a vertex's distance to its own triangle's plane is rounding dust,
    # whose sign decides at eps = 0; one plane is folded as vertices @ n
    mesh = bumpy_sphere(3, 60, 0.1)
    normals, offs = mesh.planes
    for t in range(0, len(offs), 7):
        want = [int(not (d <= 0.0)) for d in mesh.vertices @ normals[t] - offs[t]]
        assert _outside_bits(mesh.vertices, normals[t:t + 1], offs[t:t + 1], 0.0) == want


@pytest.mark.parametrize("block", [1, 9, 64, 1 << 17])
def test_outside_bits_are_the_same_in_any_block(monkeypatch, block):
    rng = np.random.default_rng(block)
    normals = rng.standard_normal((65, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offs = rng.standard_normal(65)
    vertices = rng.standard_normal((40, 3))
    vertices[7, 1] = np.nan
    want = [
        sum(1 << k for k in range(65) if not (normals[k] @ v - offs[k] <= 0.1))
        for v in vertices
    ]
    monkeypatch.setattr(segmentation, "_OUTSIDE_BLOCK", block)
    assert _outside_bits(vertices, normals, offs, 0.1) == want
    # a NaN distance counts as outside
    assert want[7] == (1 << 65) - 1
