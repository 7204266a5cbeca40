"""The boundedness certificate and the simple-vertex batch against the code they skip.

``decode_convex`` used to build the 3-D convex hull of every code's
normals to check that they surround the origin.  It now reads that from
each region's own Qhull intersection (``convex._bounded``): the dual
points are omega_i / s_i, s_i the slack of plane i at the interior
point, so when every dual facet lies at least d from the origin the
normals' hull holds the ball of radius s_min d, and a radius above
SURROUND_MARGIN proves the region bounded.  Only a region that is not
so certified, or whose intersection fails, builds the normals' hull.
The old check is kept below verbatim as the oracle: a decode that
builds no normals' hull must be one the oracle accepts, and every
decode must give the outcome and message of ``oracle_decode_convex``,
which runs the hull check on every code.  The inputs are the decode
oracles' codes, random normal sets in and near a hemisphere, 4- and
5-plane codes, coplanar and duplicated normals, the part codes of
segmented fixtures and a seeded sweep of random codes.  Unbounded codes
now reach the least-squares solve and Qhull: a singular system gives no
centre, and an unbounded intersection warns nothing.
``_triple_points`` solves simple vertices (three planes) in one batch;
it must match the earlier triple loop bit for bit and estimate each
near-singular triple's condition number once.  A common decode builds
no hull at all: its interior point is the least-squares centre.  Only
a decode whose centre is refused, or whose intersection from it fails,
builds the 4-D hull of the Chebyshev centre.
"""

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

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
from planecode.convex import ConvexPolyhedron, decode_regions
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


def counting_hulls(monkeypatch):
    dims = []
    hull = convex.ConvexHull

    def counted(points, *args, **kwargs):
        dims.append(np.shape(points)[1])
        return hull(points, *args, **kwargs)

    monkeypatch.setattr(convex, "ConvexHull", counted)
    return dims


@pytest.fixture
def assert_sound(monkeypatch):
    """A check of one code: a decode that builds no normals' hull is one the
    oracle accepts, and the decode matches the oracle.

    The check returns whether the decode certified the code without that hull.
    """
    dims = counting_hulls(monkeypatch)

    def check(code):
        dims.clear()
        got = outcome(decode_convex, code)
        certified = 3 not in dims
        if certified:
            oracle_surround_check(code.normals())
        assert got == outcome(oracle_decode_convex, code)
        return certified

    return check


def unit_rows(rng, count):
    w = rng.normal(size=(count, 3))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def normal_code(w, offsets=None):
    return PlaneSet.from_normals(w, np.ones(len(w)) if offsets is None else offsets)


def ring_and_cap(rng, z, count):
    """``count`` normals on a ring at height ``z``, as many above it, turned at random."""
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, count))
    r = np.sqrt(1.0 - z * z)
    ring = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.full(count, z)])
    cap = unit_rows(rng, count)
    cap[:, 2] = np.abs(cap[:, 2])
    return np.vstack([ring, cap]) @ quaternion_rotation(rng).T


def test_the_certified_ball_dwarfs_the_checks_slack_and_fits_the_normals_hull():
    # the ball the dual hull proves, s_min times its facets' least
    # distance, is never larger than the normals' hull's own, bounded or
    # not; the certificate asks for SURROUND_MARGIN, far beyond the
    # check's 1e-9 slack
    assert convex.SURROUND_MARGIN >= 100 * 1e-9
    rng = np.random.default_rng(5)
    codes = [shapes.ngon_prism_code(n) for n in (3, 8, 40)]
    codes += [encode_convex(shapes.random_hull_mesh(rng, n)) for n in (8, 32, 128)]
    for z in (-1e-7, -1e-6, -3e-6, -1e-5, -1e-3, -0.1):
        codes += [normal_code(ring_and_cap(rng, z, count)) for count in (6, 40)]
    radii = []
    for code in codes:
        hs = convex._intersection(code.normals(), code.offsets(), 1e-9, 0)
        p = hs.dual_points
        radius = -hs.dual_equations[:, 3].max() / np.sqrt((p * p).sum(axis=1)).max()
        inradius = -ConvexHull(code.normals()).equations[:, 3].max()
        assert radius <= inradius + 1e-12
        assert convex._bounded(hs) == (radius > convex.SURROUND_MARGIN)
        radii.append(radius)
    assert min(radii) < convex.SURROUND_MARGIN < max(radii)


def test_decode_oracle_codes_are_certified_and_match(assert_sound):
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
    assert all(assert_sound(code) for code in codes)


def test_hemispheres_and_near_hemispheres_reach_the_oracle(assert_sound):
    rng = np.random.default_rng(23)
    outcomes = {}
    certified = []
    for margin in (0.0, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        for side in (-1.0, 1.0):
            for count in (6, 12, 40):
                # a ring at height side * margin and random normals above it
                code = normal_code(ring_and_cap(rng, side * margin, count))
                if assert_sound(code):
                    certified.append((side, margin))
                got = outcome(decode_convex, code)[0]
                outcomes[got] = outcomes.get(got, 0) + 1
    # both sides of the check are reached: unbounded, and bounded solids
    assert outcomes.pop(UnboundedRegion) >= 20
    assert sum(outcomes.values()) >= 20
    # a ring 1e-5 below the cap is certified from the intersection alone
    assert set(certified) == {(-1.0, m) for m in (1e-6, 1e-5, 1e-4, 1e-3)}
    assert certified.count((-1.0, 1e-6)) < 3


def test_four_and_five_plane_codes_match_the_oracle(assert_sound):
    rng = np.random.default_rng(29)
    certified = bounded = 0
    for count in (4, 5):
        for _ in range(300):
            w = unit_rows(rng, count)
            code = normal_code(w, rng.uniform(0.2, 2.0, count))
            certified += assert_sound(code)
            bounded += outcome(decode_convex, code)[0] is not UnboundedRegion
    assert certified >= 10 and bounded >= certified


def test_coplanar_and_duplicated_normals_match_the_oracle(assert_sound):
    rng = np.random.default_rng(31)
    messages = set()
    for count in (4, 7, 20):
        frame = quaternion_rotation(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        flat = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(count)]) @ frame.T
        assert not assert_sound(normal_code(flat))
        messages.add(outcome(decode_convex, normal_code(flat))[1])
        w = unit_rows(rng, count)
        for dup in (np.vstack([w, w]), np.vstack([w, w[:2], w[::-1]]), np.repeat(w[:2], 3, axis=0)):
            assert_sound(normal_code(dup))
    cube = shapes.chamfered_cube_code(0.2)
    assert assert_sound(PlaneSet.concatenate([cube, cube, cube[:3]]))
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


def test_segmented_part_codes_match_the_oracle(assert_sound):
    certified = [assert_sound(code) for code in part_codes()]
    assert len(certified) >= 40 and all(certified)


def sweep_normals(rng, kind, count):
    w = rng.normal(size=(count, 3))
    if kind == "hemisphere":
        w[:, 2] = np.abs(w[:, 2])
    elif kind == "near-flat":
        w[:, 2] *= 10.0 ** rng.uniform(-12.0, -3.0)
    elif kind == "capped":
        # a cap and one normal straight below it
        w[:, 2] = np.abs(w[:, 2]) + rng.uniform(0.0, 0.5)
        w[0] = (0.0, 0.0, -1.0)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w @ quaternion_rotation(rng).T


def test_a_seeded_sweep_of_random_codes_matches_the_oracle(assert_sound):
    rng = np.random.default_rng(47)
    kinds = {}
    for kind in ("sphere", "hemisphere", "near-flat", "capped"):
        for i in range(60):
            count = int(rng.integers(4, 24))
            # the oracle decodes in the caller's units: a largest |h| in
            # [0.5, 1) makes the decoder's unit scale the identity, so a
            # vertex with no usable triple takes the same Qhull point
            offsets = rng.uniform(-0.3, 0.95, count)
            offsets[rng.integers(count)] = 0.9
            code = normal_code(sweep_normals(rng, kind, count), offsets)
            if i % 3 == 0:
                code = stored(code)
            assert_sound(code)
            got = outcome(decode_convex, code)
            key = got[0] if isinstance(got[0], type) else ConvexPolyhedron
            kinds[key] = kinds.get(key, 0) + 1
    assert min(kinds.get(k, 0) for k in (ConvexPolyhedron, UnboundedRegion, EmptyRegion)) >= 20


def test_a_singular_least_squares_system_gives_no_centre():
    # coplanar normals make the 4x4 normal equations singular; a stack
    # with one such region keeps the others' centres bit for bit
    flat = normal_code(np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]))
    cube = encode_convex(shapes.cube())
    prism = shapes.ngon_prism_code(7)
    centres = convex._least_squares_centres
    assert centres(flat.normals(), flat.offsets(), [1e-9], [0, 4]) == [None]
    both = PlaneSet.concatenate([cube, prism])
    want = centres(both.normals(), both.offsets(), [1e-9, 1e-9], [0, 6, 15])
    assert want[0] is not None and want[1] is not None
    mixed = PlaneSet.concatenate([cube, flat, prism])
    got = centres(mixed.normals(), mixed.offsets(), [1e-9] * 3, [0, 6, 10, 19])
    assert got[1] is None
    assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[1].tobytes()
    with pytest.raises(UnboundedRegion, match=r"^plane normals are degenerate"):
        decode_convex(flat)


def test_an_unbounded_intersection_is_refused_without_a_warning(monkeypatch):
    # the least-squares centre of these unbounded planes is accepted and
    # Qhull intersects from it; a dual facet passes through the origin,
    # and scipy's division of the facets into points divides by zero,
    # a RuntimeWarning this suite would turn into an error
    q = np.pi / 4
    code = PlaneSet([
        (2 * q, 0.0, 0.25),
        (3 * q, q, 0.75),
        (3 * q, q, 0.5),
        (q, 2 * q, 0.25),
        (np.pi / 3, np.pi, 0.75),
    ])
    intersect = convex.HalfspaceIntersection
    seen = []

    def spy(*args, **kwargs):
        seen.append(intersect(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(convex, "HalfspaceIntersection", spy)
    dims = counting_hulls(monkeypatch)
    with pytest.raises(UnboundedRegion) as exc:
        decode_convex(code)
    assert str(exc.value) == "normals do not surround the origin"
    assert len(seen) == 1 and not convex._bounded(seen[0])
    assert (seen[0].dual_equations[:, 3] == 0.0).any()
    assert dims == [3]


def test_an_unbounded_region_takes_no_plane_of_the_next_region():
    # a region of upward normals sorts its largest row last; the next
    # region's least row is the same plane, and stays its own
    up = PlaneSet([(0.0, 0.0, 0.1), (0.0, 0.0, 0.2), (0.0, 0.0, 0.3), (0.0, 0.0, 1.0)])
    cube = encode_convex(shapes.cube())
    assert up[3] == cube.sorted_canonical()[0]
    got = decode_regions([up, cube])
    assert isinstance(got[0], UnboundedRegion)
    assert outcome(lambda c: got[1], cube) == outcome(decode_convex, cube)


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
    # half its mean slack, so the least-squares centre is refused; an
    # empty slab then asks the normals' hull before it is refused
    cube = encode_convex(shapes.cube())
    top = cube.normals()[:, 2] == 1.0
    dims = counting_hulls(monkeypatch)
    for thickness, empty in ((1e-3, False), (1e-10, True), (-1e-12, True)):
        code = PlaneSet.from_normals(cube.normals(), np.where(top, thickness, cube.offsets()))
        centres = convex._least_squares_centres(code.normals(), code.offsets(), [1e-9], [0, 6])
        assert centres == [None]
        dims.clear()
        got = outcome(decode_convex, code)
        assert dims == ([4, 3] if empty else [4])
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
