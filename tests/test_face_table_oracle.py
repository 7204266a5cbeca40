"""The mesh's one face table against the per-part code it replaced.

The oracle keeps the earlier ``convex.coplanar_patches``,
``polygonize._border_loops``, ``polygonize_part`` and
``boundary_planes_for_part`` verbatim: every part merged its own
patches, computed their planes, chained their rings from a grouped edge
table of its own and built one more table for its rim.  Today one face
table per mesh and slack (``convex.face_table``) holds the whole-mesh
patches, their planes and their borders; a part reads every face from
that table when it cuts no patch, and otherwise from a ``FaceTable`` of
its own triangles, which is the oracle's computation, and its rim comes
from the mesh's own edge table.  Faces (plane rows bit for bit, rings,
triangles), cutting planes, the face plane sets built from the faces'
rows and ``encode_segmented``'s bytes must equal the oracle's, or raise
the same error class and text from the same part and stage, on the
fixtures, their g1-g8 grid cuts and float32 STL copies, every
benchmark probe shape (among them patches that cross part borders),
random triangle subsets taken as parts, explicit slacks and shuffled
triangle orders.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planecode import (
    DegenerateTriangle,
    GeometryError,
    PartCode,
    PlaneSet,
    SegmentedCode,
    TriangleMesh,
    boundary_planes_for_part,
    encode_convex,
    encode_segmented,
    mutual_orientation,
    polygonize_part,
    segment_mesh,
    shapes,
    write_code,
)
from planecode import convex, polygonize
from planecode.convex import COPLANAR_ANGLE, coplanar_patches, face_table, patch_planes
from planecode.geometry import row_dots, snapped_triplets
from planecode.mesh import EdgeTable, components
from planecode.mesh_io import count_coplanar_patches
from planecode.polygonize import (
    EPS_FIT_REL,
    PolygonFace,
    _chain_loops,
    _cut_warped_loop,
    _fit_svd,
    _fuse_collinear,
    _oriented_cut,
    _patch_ring,
    decode_part,
)
from planecode.segmentation import MeshPart, PartKind

from conftest import seeded_hulls
from test_polygonize import annulus_mesh, caps_first_star_prism
from test_segment_oracle import GRID_FIXTURES, grid_cut, staircase, star_prism, via_float32_stl
from test_topology_oracle import flat_cells


# -- the oracle: the per-part code, verbatim ------------------------------


def oracle_coplanar_patches(mesh, normals, offsets, eps, members=None):
    nt = len(mesh.triangles)
    members = np.arange(nt) if members is None else np.unique(members).astype(int)
    inside = np.bincount(members, minlength=nt) > 0
    p, q = mesh.edges.pairs()
    p, q = np.compress(inside[p] & inside[q], (p, q), axis=1)
    dot = row_dots(normals[p], normals[q])
    flat = (dot >= math.cos(COPLANAR_ANGLE)) & (np.abs(offsets[p] - offsets[q]) <= eps)
    local = np.cumsum(inside) - 1  # a member's position in ``members``
    root = components(len(members), local[p[flat]], local[q[flat]])
    if not len(root):
        return []
    # each component's root is its least member, so a stable sort by root
    # lists the patches in order of their smallest triangle
    order = np.argsort(root, kind="stable")
    r = root[order]
    cuts = (np.flatnonzero(r[1:] != r[:-1]) + 1).tolist()
    m = members[order].tolist()
    return [m[a:b] for a, b in zip([0, *cuts], [*cuts, len(m)])]


def oracle_polygonize_part(mesh, part, eps=None):
    normals, offsets = mesh.planes
    patches = oracle_coplanar_patches(mesh, normals, offsets, mesh.slack(eps), members=part.triangles)
    planes = patch_planes(mesh, patches, max(1.0, mesh.bbox_diagonal()))
    return [
        PolygonFace(plane, _patch_ring(loops), patch)
        for plane, patch, loops in zip(planes, patches, oracle_border_loops(mesh, patches))
    ]


def oracle_border_loops(mesh, groups):
    """Per group in turn, the loops its ``EdgeTable.border`` edges chain into."""
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    tris = mesh.triangles[np.concatenate(groups).astype(int)]
    a, b, owner = EdgeTable(tris, group).border()
    cuts = np.searchsorted(group[owner], np.arange(1, len(groups)))
    for x, y in zip(np.split(a, cuts), np.split(b, cuts)):
        yield _chain_loops(zip(x.tolist(), y.tolist()))


def oracle_boundary_planes_for_part(mesh, part, eps=None):
    eps = mesh.slack(eps)
    scale = max(1.0, mesh.bbox_diagonal())
    part_verts = mesh.vertices[np.unique(mesh.triangles[part.triangles])]
    planes = []
    for loop in next(oracle_border_loops(mesh, [part.triangles])):
        corners = _fuse_collinear(mesh.vertices[np.asarray(loop)])
        normal, centroid, sv = _fit_svd(corners)
        if sv[2] <= EPS_FIT_REL * max(sv[0], 1.0):
            planes.append(
                _oriented_cut(normal, float(normal @ centroid), part_verts, eps)
            )
        else:
            planes.extend(_cut_warped_loop(corners, part_verts, eps, scale))
    offsets = [h for _, h in planes]
    return PlaneSet(snapped_triplets([n for n, _ in planes], offsets, scale=scale))


def oracle_encode_segmented(mesh, eps=None):
    parts = segment_mesh(mesh, eps=eps)
    coded = []
    for i, part in enumerate(parts):
        faces = oracle_polygonize_part(mesh, part, eps=eps)
        face_planes = PlaneSet([f.plane for f in faces]).sorted_canonical()
        boundary = oracle_boundary_planes_for_part(mesh, part, eps=eps)
        code = PartCode(part.kind, face_planes, boundary)
        decode_part(code, i, eps=eps)
        coded.append(code)
    return SegmentedCode(coded)


# -- comparisons ------------------------------------------------------------


def bits(rows):
    return np.asarray(rows, dtype=float).tobytes()


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the class and text of what it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def face_summary(faces):
    return [(bits(f.plane), f.boundary, f.triangles) for f in faces]


def plane_summary(planes):
    return bits(planes.triplets()), bits(planes.normals()), planes.triplets().shape


def summary(result, describe):
    status, value = result
    return (status, describe(value)) if status == "ok" else result


def assert_parts_match(mesh, parts, eps=None):
    """Each part's faces, cuts and face plane set, in encode order, on a fresh mesh.

    The fresh mesh starts with no face table, so the first part builds
    it and every later part reads it, as in one encode.
    """
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    stats = {"errors": 0, "cut patches": 0}
    for i, part in enumerate(parts):
        old = outcome(oracle_polygonize_part, mesh, part, eps=eps)
        new = outcome(polygonize_part, fresh, part, eps=eps)
        assert summary(new, face_summary) == summary(old, face_summary), (i, "polygonize")
        if old[0] == "ok":
            want = PlaneSet([f.plane for f in old[1]]).sorted_canonical()
            # the face set encode_segmented builds from the faces' rows
            got = PlaneSet([f.plane for f in new[1]]).sorted_canonical()
            assert plane_summary(got) == plane_summary(want), (i, "face planes")
            table = face_table(fresh, eps)
            members = np.unique(np.asarray(part.triangles, dtype=np.int64))
            count = np.bincount(table.labels[members], minlength=len(table.patches))
            stats["cut patches"] += int(((count > 0) & (count < table.sizes)).sum())
        old = outcome(oracle_boundary_planes_for_part, mesh, part, eps=eps)
        new = outcome(boundary_planes_for_part, fresh, part, eps=eps)
        assert summary(new, plane_summary) == summary(old, plane_summary), (i, "cut")
        stats["errors"] += old[0] != "ok"
    return stats


def encoded(mesh, encode):
    result = outcome(encode, mesh)
    return summary(result, write_code)


def assert_encode_matches(mesh, eps=None):
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    assert encoded(fresh, lambda m: encode_segmented(m, eps=eps)) == encoded(
        mesh, lambda m: oracle_encode_segmented(m, eps=eps)
    )


# -- the corpus ---------------------------------------------------------------

FIXTURES = ("cube", "tetrahedron", "open_box", "l_prism", "notched_box", "two_notch_box")


def corpus():
    """Name -> mesh: fixtures, g1-g8 grid cuts and their float32 copies, probes."""
    out = {name: getattr(shapes, name)() for name in FIXTURES}
    for name, make in sorted(GRID_FIXTURES.items()):
        for g in range(1, 9):
            out["%s_g%d" % (name, g)] = grid_cut(make(), g)
            out["%s_g%d_f32" % (name, g)] = via_float32_stl(grid_cut(make(), g))
    for k in (4, 5, 8):
        out["star_k%d" % k] = star_prism(k)
    for k in (2, 3, 4):
        out["staircase_k%d" % k] = staircase(k)
    out["caps_first_star"] = caps_first_star_prism()
    return out


CORPUS = corpus()
SMALL = sorted(name for name, mesh in CORPUS.items() if len(mesh.triangles) <= 400)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_segmented_parts_match_the_oracle(name):
    mesh = CORPUS[name]
    assert_parts_match(mesh, segment_mesh(mesh))
    assert_encode_matches(mesh)


# whole-mesh patches that a part border cuts, in the benchmark's shapes:
# none in its timed meshes, some in its probes
CROSSING = {
    **{"%s_g%d" % (name, g): 0 for name in ("notched_box", "two_notch_box") for g in (1, 2, 3, 4)},
    "staircase_k3": 2, "staircase_k4": 2, "l_prism_g2": 3, "l_prism_g3": 3,
    "l_prism_g4": 3, "notched_box_g3_f32": 1, "notched_box_g4_f32": 1,
}


@pytest.mark.parametrize("name", sorted(CROSSING))
def test_patches_that_cross_part_borders(name):
    # the recompute path is among those compared above
    mesh = CORPUS[name]
    table = face_table(mesh)
    crossing = set()
    for part in segment_mesh(mesh):
        count = np.bincount(table.labels[part.triangles], minlength=len(table.patches))
        crossing.update(np.flatnonzero((count > 0) & (count < table.sizes)).tolist())
    assert len(crossing) == CROSSING[name]


@pytest.mark.parametrize("name", SMALL)
def test_explicit_slacks_match_the_oracle(name):
    mesh = CORPUS[name]
    diag = mesh.bbox_diagonal()
    for eps in (0.0, 1e-7 * diag, 1e-9, 1e-5 * diag):
        assert_parts_match(mesh, segment_mesh(mesh, eps=eps), eps=eps)
        assert_encode_matches(mesh, eps=eps)


@pytest.mark.parametrize("name", SMALL)
def test_random_subsets_as_parts_match_the_oracle(name):
    mesh = CORPUS[name]
    rng = np.random.default_rng(len(name))
    nt = len(mesh.triangles)
    parts = []
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        members = np.flatnonzero(rng.random(nt) < frac).tolist() or [0]
        parts.append(MeshPart(PartKind.PSEUDO_CONVEX, members))
    assert_parts_match(mesh, parts)


def test_random_subsets_raise_and_cut_patches():
    """The subsets above reach errors and patches cut by a part border."""
    errors = cut = 0
    for name in ("notched_box_g2", "two_notch_box_g2", "l_prism_g3_f32"):
        mesh = CORPUS[name]
        rng = np.random.default_rng(len(name))
        parts = [
            MeshPart(PartKind.PSEUDO_CONVEX,
                     np.flatnonzero(rng.random(len(mesh.triangles)) < frac).tolist())
            for frac in (0.3, 0.5, 0.7)
        ]
        stats = assert_parts_match(mesh, parts)
        errors += stats["errors"]
        cut += stats["cut patches"]
    assert errors > 0 and cut > 0


@pytest.mark.parametrize("name", SMALL)
def test_shuffled_triangle_orders_match_the_oracle(name):
    mesh = CORPUS[name]
    rng = np.random.default_rng(3 + len(name))
    for _ in range(3):
        shuffled = TriangleMesh(mesh.vertices, mesh.triangles[rng.permutation(len(mesh.triangles))])
        assert_parts_match(shuffled, segment_mesh(shuffled))
        assert_encode_matches(shuffled)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(SMALL),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([None, 0.0, 1e-9, 1e-4]),
    shuffle=st.booleans(),
)
def test_any_subsets_slack_and_order_match_the_oracle(name, seed, eps, shuffle):
    mesh = CORPUS[name]
    rng = np.random.default_rng(seed)
    nt = len(mesh.triangles)
    if shuffle:
        mesh = TriangleMesh(mesh.vertices, mesh.triangles[rng.permutation(nt)])
    parts = [
        MeshPart(PartKind.PSEUDO_CONVEX, rng.permutation(np.flatnonzero(rng.random(nt) < frac)))
        for frac in rng.random(3)
    ]
    assert_parts_match(mesh, [p for p in parts if len(p.triangles)], eps=eps)


# -- hand-built cases ---------------------------------------------------------


def test_hand_built_parts_match_the_oracle():
    pinched = flat_cells([(0, 0), (1, 0), (2, 0), (2, 1), (0, 1), (0, 2), (1, 2)])
    holed = flat_cells([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)])
    cube = shapes.cube()
    flipped = cube.triangles.copy()
    flipped[0] = flipped[0][::-1]
    three = TriangleMesh(
        np.array([(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0), (0.5, 0, 1), (2, 1, 0)],
                 dtype=float),
        [(0, 1, 2), (1, 0, 3), (0, 1, 4), (1, 5, 2)],
    )
    # triangles 1 to 3 walk an edge from a vertex to itself
    self_edges = TriangleMesh(
        np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 0), (3, 2, 0)], dtype=float),
        [(0, 1, 2), (3, 3, 4), (4, 3, 3), (2, 1, 1), (1, 2, 0)],
    )
    for mesh in (pinched, holed, annulus_mesh(), shapes.open_box(),
                 TriangleMesh(cube.vertices, flipped), three, self_edges):
        nt = len(mesh.triangles)
        parts = [MeshPart(PartKind.PSEUDO_CONVEX, list(range(nt)))]
        parts += [MeshPart(PartKind.PSEUDO_CONVEX, [t]) for t in range(nt)]
        parts.append(MeshPart(PartKind.PSEUDO_CONVEX, list(range(nt)) + [0, 0]))
        parts.append(MeshPart(PartKind.PSEUDO_CONVEX, list(range(0, nt, 2))))
        assert_parts_match(mesh, parts)
        status, segmented = outcome(segment_mesh, mesh)
        if status == "ok":
            assert_parts_match(mesh, segmented)


def test_an_empty_part_matches_the_oracle(cube_mesh):
    assert_parts_match(cube_mesh, [MeshPart(PartKind.PSEUDO_CONVEX, [])])


# -- one table per mesh and slack -----------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_whole_mesh_patches_and_counts_match_the_oracle(name):
    mesh = CORPUS[name]
    want = oracle_coplanar_patches(mesh, *mesh.planes, mesh.slack())
    assert coplanar_patches(mesh, *mesh.planes, mesh.slack()) == want
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    assert face_table(fresh).patches == want
    assert count_coplanar_patches(fresh) == len(want)
    assert face_table(fresh) is face_table(fresh, fresh.slack())


def test_hull_patches_and_codes_match_the_oracle():
    for hull in seeded_hulls(7, 12, lo=8, hi=90):
        normals, offsets = hull.planes
        want = oracle_coplanar_patches(hull, normals, offsets, hull.slack())
        assert coplanar_patches(hull, normals, offsets, hull.slack()) == want
        for members in ([0, 3, 5], list(range(0, len(hull.triangles), 2))):
            assert coplanar_patches(hull, normals, offsets, 0.0, members=members) == \
                oracle_coplanar_patches(hull, normals, offsets, 0.0, members=members)
        planes = patch_planes(hull, want, max(1.0, hull.bbox_diagonal())).sorted_canonical()
        assert plane_summary(encode_convex(hull)) == plane_summary(planes)


def test_a_convex_encode_never_builds_the_borders():
    hull = seeded_hulls(3, 1)[0]
    encode_convex(hull)
    assert "borders" not in face_table(hull).__dict__
    assert list(hull.face_tables) == [hull.slack()]


def test_a_segmented_encode_merges_the_whole_mesh_once(monkeypatch):
    calls = []

    def counted(mesh, normals, offsets, eps, members=None):
        calls.append(members is None)
        return coplanar_patches(mesh, normals, offsets, eps, members=members)

    monkeypatch.setattr(convex, "coplanar_patches", counted)
    mesh = grid_cut(shapes.two_notch_box(), 3)
    assert len(segment_mesh(mesh)) > 1
    encode_segmented(mesh)
    # no patch of this mesh crosses a part border: one whole-mesh merge
    assert calls == [True]
    assert len(mesh.face_tables) == 1
    calls.clear()
    mesh = CORPUS["staircase_k3"]
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    for part in segment_mesh(fresh):
        outcome(polygonize_part, fresh, part)
    # the parts cut patches here, and each such part merges its own triangles
    assert calls[0] is True and len(calls) > 1 and not any(calls[1:])


def count_tables(monkeypatch):
    """A list that gets one entry per FaceTable built: whether it is a whole-mesh table."""
    built = []

    class Counted(convex.FaceTable):
        def __init__(self, mesh, eps, members=None):
            built.append(members is None)
            super().__init__(mesh, eps, members)

    monkeypatch.setattr(convex, "FaceTable", Counted)
    monkeypatch.setattr(polygonize, "FaceTable", Counted)
    return built


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["notched_box", "two_notch_box"])
def test_an_encode_with_no_cut_patch_builds_one_face_table(monkeypatch, name, g):
    built = count_tables(monkeypatch)
    mesh = CORPUS["%s_g%d" % (name, g)]
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    assert len(encode_segmented(fresh)) > 1
    assert built == [True]


# parts of each probe, and how many of them cut a whole-mesh patch
CUTTING_PARTS = {"l_prism_g2": (2, 2), "staircase_k3": (6, 4)}


@pytest.mark.parametrize("name", sorted(CUTTING_PARTS))
def test_each_part_that_cuts_a_patch_builds_one_more_face_table(monkeypatch, name):
    built = count_tables(monkeypatch)
    mesh = CORPUS[name]
    fresh = TriangleMesh(mesh.vertices, mesh.triangles)
    parts = segment_mesh(fresh)
    for part in parts:
        outcome(polygonize_part, fresh, part)
    n_parts, n_cutting = CUTTING_PARTS[name]
    assert len(parts) == n_parts
    assert built == [True] + [False] * n_cutting


# -- a triangle without a plane ---------------------------------------------


GRID_CUTS = tuple("%s_g%d" % (n, g) for n in sorted(GRID_FIXTURES) for g in (1, 2, 4, 8))


@pytest.mark.parametrize("name", FIXTURES + GRID_CUTS)
def test_a_corner_without_a_plane_raises_degenerate_triangle(name):
    """NaN, infinite and overflowing corners fail the one plane test.

    Every encode entry point raises DegenerateTriangle naming a triangle
    that touches the corner, and no numpy warning escapes (the suite
    turns a RuntimeWarning into an error).
    """
    mesh = CORPUS[name]
    n = len(mesh.vertices)
    for k in range(0, n, max(3, n // 4)):
        for bad in (np.nan, np.inf, -np.inf, 1e300):
            v = mesh.vertices.copy()
            v[k, 1] = bad
            broken = TriangleMesh(v, mesh.triangles)
            calls = [segment_mesh, encode_segmented]
            if broken.is_closed:
                calls.append(encode_convex)
            named = []
            for call in calls:
                with pytest.raises(DegenerateTriangle) as err:
                    call(broken)
                named.append(int(str(err.value).split()[1].rstrip(":")))
            t = named[0]
            assert named == [t] * len(calls) and k in mesh.triangles[t], (k, bad)
            # the pair test names the triangle's place in the pair
            other = int(np.flatnonzero((mesh.triangles != k).all(axis=1))[0])
            for pair, place in (((t, other), 0), ((other, t), 1)):
                with pytest.raises(DegenerateTriangle, match="^triangle %d: " % place):
                    mutual_orientation(broken, *pair)


def test_a_cube_whose_patch_sums_overflow_raises_a_geometry_error(cube_mesh):
    """Each triangle of a cube scaled by 1e77 has a plane, but its patch sums overflow.

    numpy warns on the way, so the warnings are silenced here.
    """
    huge = TriangleMesh(cube_mesh.vertices * 1e77, cube_mesh.triangles)
    assert len(huge.planes[0]) == 12  # every triangle passes the plane test
    with np.errstate(over="ignore", invalid="ignore"):
        for encode in (encode_convex, encode_segmented):
            with pytest.raises(GeometryError):
                encode(TriangleMesh(huge.vertices, huge.triangles))
