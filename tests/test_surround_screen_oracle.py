"""The surround screen and the simple-vertex batch against the code they skip.

``decode_convex`` used to build the 3-D convex hull of every code's
normals to check that they surround the origin.  It now first asks
``convex._surrounds_origin``, which proves that from 128 support values
for most codes, and builds the hull only for codes the screen cannot
clear.  The old check is kept below verbatim as the oracle: the screen
must never clear a code the oracle rejects, and every decode must give
the outcome and message of ``oracle_decode_convex``, which runs the
hull check on every code.  The inputs are the decode oracles' codes,
random normal sets in and near a hemisphere, 4- and 5-plane codes,
coplanar and duplicated normals, and the part codes of segmented
fixtures.  ``_triple_points`` solves simple vertices (three planes) in
one batch; it must match the earlier triple loop bit for bit and
estimate each near-singular triple's condition number once.  A common
decode builds no hull at all: its interior point is the least-squares
centre.  Only a decode whose centre is refused, or whose intersection
from it fails, builds the 4-D hull of the Chebyshev centre.
"""

import numpy as np
import pytest
from scipy.spatial import (
    ConvexHull,
    QhullError,
    SphericalVoronoi,
    cKDTree,
)

from planecode import (
    EmptyRegion,
    PlaneSet,
    UnboundedRegion,
    decode_convex,
    encode_convex,
    encode_segmented,
    shapes,
)
from planecode import convex
from planecode.errors import GeometryError
from planecode.segmentation import PartKind

from conftest import quaternion_rotation
from test_decode_fastpath_oracle import (
    counting_cond,
    near_singular_unit_triples,
    oracle_decode_convex,
    oracle_vertex_points,
    outcome,
    stored,
)
from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl


def oracle_surround_check(normals):
    try:
        hull = ConvexHull(normals)
    except QhullError:
        raise UnboundedRegion("plane normals are degenerate (coplanar or fewer)")
    if hull.equations[:, 3].max() > -1e-9:
        raise UnboundedRegion("normals do not surround the origin")


def assert_screen_sound(code):
    """The screen clears only what the oracle accepts; the decode matches.

    Returns whether the screen cleared the code.
    """
    cleared = convex._surrounds_origin(code.normals(), [0, len(code)])[0]
    if cleared:
        oracle_surround_check(code.normals())
    assert outcome(decode_convex, code) == outcome(oracle_decode_convex, code)
    return cleared


def unit_rows(rng, count):
    w = rng.normal(size=(count, 3))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def normal_code(w, offsets=None):
    return PlaneSet.from_normals(w, np.ones(len(w)) if offsets is None else offsets)


def test_the_covering_radius_bounds_every_unit_vector():
    net = convex.SURROUND_NET
    assert net.shape == (convex.SURROUND_DIRECTIONS, 3) == (128, 3)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0, rtol=0.0, atol=1e-15)
    hull = ConvexHull(net)
    corners = net[hull.simplices]
    rho = float(np.linalg.norm(corners - hull.equations[:, None, :3], axis=2).max())
    assert convex.SURROUND_RHO >= rho
    assert 0.2 < rho < 0.25
    # the points farthest from the net are its spherical Voronoi vertices
    tree = cKDTree(net)
    far = tree.query(SphericalVoronoi(net).vertices)[0].max()
    assert abs(far - rho) < 1e-12
    sample = unit_rows(np.random.default_rng(5), 200_000)
    assert tree.query(sample)[0].max() <= convex.SURROUND_RHO
    # the proven ball dwarfs Qhull's rounding and the check's 1e-9 slack
    assert convex.SURROUND_MARGIN >= 100 * 1e-9


def test_decode_oracle_codes_clear_the_screen_and_match():
    rng = np.random.default_rng(17)
    codes = [shapes.ngon_prism_code(n) for n in range(3, 29)]
    for t in np.linspace(0.01, 0.45, 12):
        codes.append(shapes.chamfered_cube_code(float(t)))
        codes.append(stored(codes[-1]))
    for n_points in (8, 16, 32, 64, 128):
        for k in range(3):
            code = encode_convex(shapes.random_hull_mesh(rng, n_points))
            if k:
                code = convex.rotate_planes(code, quaternion_rotation(rng))
            codes.append(stored(code))
    cleared = [assert_screen_sound(code) for code in codes]
    # every prism and chamfered cube clears; a hull of few planes may
    # leave a gap in its normals too wide for the net to prove it closed
    assert all(cleared[:50])
    assert sum(cleared) >= len(cleared) - 3


def test_hemispheres_and_near_hemispheres_reach_the_oracle():
    rng = np.random.default_rng(23)
    outcomes = {}
    for margin in (0.0, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        for side in (-1.0, 1.0):
            for count in (6, 12, 40):
                # a ring at height side * margin and random normals above it
                theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, count))
                z = side * margin
                r = np.sqrt(1.0 - z * z)
                ring = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.full(count, z)])
                cap = unit_rows(rng, count)
                cap[:, 2] = np.abs(cap[:, 2])
                w = np.vstack([ring, cap]) @ quaternion_rotation(rng).T
                code = normal_code(w)
                assert not assert_screen_sound(code)
                got = outcome(decode_convex, code)[0]
                outcomes[got] = outcomes.get(got, 0) + 1
    # both sides of the check are reached: unbounded, and bounded solids
    assert outcomes.pop(UnboundedRegion) >= 20
    assert sum(outcomes.values()) >= 20


def test_four_and_five_plane_codes_match_the_oracle():
    rng = np.random.default_rng(29)
    cleared = bounded = 0
    for count in (4, 5):
        for _ in range(300):
            w = unit_rows(rng, count)
            code = normal_code(w, rng.uniform(0.2, 2.0, count))
            cleared += assert_screen_sound(code)
            bounded += outcome(decode_convex, code)[0] is not UnboundedRegion
    assert cleared >= 10 and bounded > cleared


def test_coplanar_and_duplicated_normals_match_the_oracle():
    rng = np.random.default_rng(31)
    messages = set()
    for count in (4, 7, 20):
        frame = quaternion_rotation(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        flat = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(count)]) @ frame.T
        assert not assert_screen_sound(normal_code(flat))
        messages.add(outcome(decode_convex, normal_code(flat))[1])
        w = unit_rows(rng, count)
        for dup in (np.vstack([w, w]), np.vstack([w, w[:2], w[::-1]]), np.repeat(w[:2], 3, axis=0)):
            assert_screen_sound(normal_code(dup))
    cube = shapes.chamfered_cube_code(0.2)
    assert assert_screen_sound(PlaneSet.concatenate([cube, cube, cube[:3]]))
    assert messages == {"plane normals are degenerate (coplanar or fewer)"}


def part_codes():
    """The convex code each part of the segmented fixtures decodes."""
    for name, make in sorted(GRID_FIXTURES.items()):
        for g in (1, 2, 3, 4):
            for f32 in (False, True):
                mesh = grid_cut(make(), g)
                try:
                    code = encode_segmented(via_float32_stl(mesh) if f32 else mesh)
                except GeometryError:
                    continue
                for part in code.parts:
                    faces = part.face_planes
                    if part.kind is PartKind.PSEUDO_CONCAVE:
                        faces = faces.negated()
                    yield PlaneSet.concatenate([faces, part.boundary_planes])


def test_segmented_part_codes_match_the_oracle():
    cleared = [assert_screen_sound(code) for code in part_codes()]
    assert len(cleared) >= 40 and sum(cleared) >= 0.9 * len(cleared)


def counting_hulls(monkeypatch):
    dims = []
    hull = convex.ConvexHull

    def counted(points, *args, **kwargs):
        dims.append(np.shape(points)[1])
        return hull(points, *args, **kwargs)

    monkeypatch.setattr(convex, "ConvexHull", counted)
    return dims


def test_a_common_decode_builds_no_hull(monkeypatch):
    # the least-squares centre is accepted, so neither the normals' hull
    # nor the lifted hull of the Chebyshev centre is built
    codes = [
        shapes.ngon_prism_code(12),
        encode_convex(shapes.cube()),
        encode_convex(shapes.random_hull_mesh(np.random.default_rng(9), 40)),
    ]
    dims = counting_hulls(monkeypatch)
    for code in codes:
        decode_convex(code)
    assert dims == []


def test_a_refused_centre_builds_only_the_lifted_hull(monkeypatch):
    # a slab of the unit cube's planes: its least slack is far below
    # half its mean slack, so the least-squares centre is refused
    cube = encode_convex(shapes.cube())
    top = cube.normals()[:, 2] == 1.0
    dims = counting_hulls(monkeypatch)
    for thickness, empty in ((1e-3, False), (1e-10, True), (-1e-12, True)):
        code = PlaneSet.from_normals(cube.normals(), np.where(top, thickness, cube.offsets()))
        centres = convex._least_squares_centres(code.normals(), code.offsets(), [1e-9], [0, 6])
        assert centres == [None]
        dims.clear()
        got = outcome(decode_convex, code)
        assert dims == [4]
        assert (got[0] is EmptyRegion) == empty
        assert got == outcome(oracle_decode_convex, code)
        if empty:
            assert got[1].startswith("no ball of radius above 1e-09 fits inside every half-space")


def test_a_failed_intersection_from_the_centre_falls_back(monkeypatch):
    # Qhull fails from the accepted least-squares centre: the decode then
    # builds the lifted hull of the Chebyshev centre and intersects again
    code = shapes.chamfered_cube_code(0.2)
    intersect = convex.HalfspaceIntersection
    tried = []

    def fails_first(halfspaces, interior, *args, **kwargs):
        tried.append(interior)
        if len(tried) == 1:
            raise QhullError("QH6023 qhull input error: as if from a failing centre\nmore")
        return intersect(halfspaces, interior, *args, **kwargs)

    monkeypatch.setattr(convex, "HalfspaceIntersection", fails_first)
    dims = counting_hulls(monkeypatch)
    got = outcome(decode_convex, code)
    assert len(tried) == 2 and dims == [4]
    assert got == outcome(oracle_decode_convex, code)


def test_a_cube_at_1e90_decodes_in_unit_scale(monkeypatch):
    # at 1e90 Qhull could not intersect from the least-squares centre, and
    # the lifted hull failed too; in unit scale the centre serves, and a
    # power-of-two scale gives the unit cube's vertices times that power
    cube = encode_convex(shapes.cube())
    unit = decode_convex(cube)
    dims = counting_hulls(monkeypatch)
    for factor in (1e90, 2.0**300):
        code = PlaneSet.from_normals(cube.normals(), cube.offsets() * factor)
        poly = decode_convex(code)
        assert dims == []
        assert poly.faces == unit.faces and poly.redundant_planes == unit.redundant_planes
        assert poly.to_mesh().is_closed
        assert np.allclose(poly.vertices / factor, unit.vertices, rtol=0.0, atol=1e-15)
    assert poly.vertices.tobytes() == (unit.vertices * 2.0**300).tobytes()


def test_normals_in_a_hemisphere_still_build_the_normal_hull(monkeypatch):
    w = unit_rows(np.random.default_rng(4), 9)
    w[:, 2] = np.abs(w[:, 2]) + 0.05
    code = normal_code(w / np.linalg.norm(w, axis=1, keepdims=True))
    dims = counting_hulls(monkeypatch)
    with pytest.raises(UnboundedRegion) as exc:
        decode_convex(code)
    assert str(exc.value) == "normals do not surround the origin"
    assert dims == [3]


def filled_points(normals, offsets, flat, sizes, fallback):
    """``_triple_points``, each facet with no usable triple taking its ``fallback`` row."""
    pts, missing = convex._triple_points(normals, offsets, flat, sizes)
    pts[missing] = fallback[missing]
    return pts


def simple_vertex_input(rng, count):
    """Planes of ``count`` three-plane facets, a third of them near-singular."""
    near = near_singular_unit_triples(rng, count // 3)
    wide = unit_rows(rng, 3 * (count - len(near))).reshape(-1, 3, 3)
    triples = np.concatenate([near, wide])[rng.permutation(count)]
    normals = triples.reshape(-1, 3)
    flat = rng.permuted(np.arange(len(normals)).reshape(-1, 3), axis=1).ravel()
    return normals, rng.normal(size=len(normals)), flat, np.full(count, 3)


def test_simple_vertices_match_the_triple_loop_bit_for_bit():
    rng = np.random.default_rng(37)
    normals, offsets, flat, sizes = simple_vertex_input(rng, 3000)
    fallback = rng.normal(size=(len(sizes), 3))
    got = filled_points(normals, offsets, flat, sizes, fallback)
    want = oracle_vertex_points(normals, offsets, flat, sizes, fallback)
    assert got.tobytes() == want.tobytes()
    kept = (got == fallback).all(axis=1).sum()
    assert 50 < kept < len(sizes) // 3


def test_simple_vertices_estimate_each_condition_number_once(monkeypatch):
    rng = np.random.default_rng(41)
    normals, offsets, flat, sizes = simple_vertex_input(rng, 600)
    calls = counting_cond(monkeypatch)
    convex._triple_points(normals, offsets, flat, sizes)
    assert len(calls) == 1 and 0 < calls[0] < len(sizes)


def test_mixed_facet_sizes_keep_the_triple_loop():
    rng = np.random.default_rng(43)
    normals = unit_rows(rng, 40)
    offsets = rng.normal(size=40)
    sizes = rng.choice([3, 3, 3, 4, 5], size=300)
    flat = np.concatenate([rng.choice(40, k, replace=False) for k in sizes.tolist()])
    fallback = rng.normal(size=(300, 3))
    got = filled_points(normals, offsets, flat, sizes, fallback)
    want = oracle_vertex_points(normals, offsets, flat, sizes, fallback)
    assert got.tobytes() == want.tobytes()
