"""decode_regions against a loop of the single-region decoder it replaced, bit for bit.

``convex.decode_regions`` decodes many plane sets at once: Qhull runs
once per region, and every other step (the duplicate map, the
least-squares centres, the triple solves, the vertex sort, the cone
sums and the rings) runs once over all the regions' planes back to
back.  ``decode_convex`` is its one-region case.  The earlier
``decode_convex`` is kept below verbatim as the oracle, with the helpers
it called that have since changed, and with the exact check that the
normals surround the origin run on every code.  Every region of a list must
give that oracle's vertices (compared as bytes, so -0.0 counts), faces,
face planes and redundant planes, or its error class and text.  The
lists mix fixtures, float32-stored hulls, codes with exact duplicate
planes (within a region and across regions), codes whose least-squares
centre is refused (the Chebyshev path), the near-singular roof whose
ridge vertices have no usable triple, the segmented fixtures' part
codes, and unbounded and empty regions.

The regions decode in unit scale, each over 2^e for e the binary
exponent of its largest |h|: codes scaled by a power of two decode to
the scaled vertices bit for bit, and offsets up to the float limit
decode.  ``decode_segmented`` and ``encode_segmented`` decode all their
parts in one batch and still raise the error a part-by-part loop
raised, naming the same part.
"""

import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from planecode import (
    PlaneSet,
    TriangleMesh,
    decode_convex,
    decode_segmented,
    encode_convex,
    encode_segmented,
    shapes,
)
from planecode import convex, polygonize
from planecode.convex import (
    CENTRED_SLACK,
    COND_LIMIT,
    DET_CLEAR,
    FEAS_REL,
    ConvexPolyhedron,
    _chebyshev_centre,
    _combinations,
    _first_line,
    _incidences,
    decode_regions,
    rotate_planes,
    translate_planes,
)
from planecode.errors import (
    EmptyRegion,
    GeometryError,
    NonSimpleBoundary,
    PartUndecodable,
    UnboundedRegion,
)
from planecode.geometry import cross
from planecode.polygonize import PartCode, SegmentedCode, decode_part
from planecode.segmentation import PartKind

from conftest import quaternion_rotation
from test_decode_fastpath_oracle import outcome, stored
from test_interior_point_oracle import roof, slab
from test_surround_screen_oracle import counting_hulls, part_codes


def oracle_decode_convex(code, eps=None):
    n = len(code)
    if n < 4:
        raise UnboundedRegion("%d half-space(s) cannot bound a volume" % n)
    normals = code.normals()
    offsets = code.offsets()

    try:
        hull = ConvexHull(normals)
    except QhullError:
        raise UnboundedRegion("plane normals are degenerate (coplanar or fewer)")
    if hull.equations[:, 3].max() > -1e-9:
        raise UnboundedRegion("normals do not surround the origin")

    feas = FEAS_REL * max(1.0, float(np.abs(offsets).max())) if eps is None else eps

    # Qhull sees each distinct plane once; ``first`` maps every plane to
    # the index of its first exact copy.  Equal rows sit side by side,
    # first copy first, in the stable lexicographic order, which like
    # ``==`` takes h = -0.0 and 0.0 as equal.
    t = code.triplets()
    order = np.lexsort((t[:, 2], t[:, 1], t[:, 0]))
    ts = t[order]
    first = np.arange(n)
    for i in np.flatnonzero((ts[1:] == ts[:-1]).all(axis=1)).tolist():
        first[order[i + 1]] = first[order[i]]
    kept = np.flatnonzero(first == np.arange(n))
    w, h = normals[kept], offsets[kept]
    hs = cheb = None
    centre = oracle_least_squares_centre(w, h, feas)
    if centre is not None:
        try:
            hs = HalfspaceIntersection(np.column_stack([w, -h]), centre)
        except QhullError:
            pass
    if hs is None:
        hs = cheb = oracle_chebyshev_intersection(w, h, feas)

    # one (plane, vertex) incidence pair per entry of a dual facet
    sizes, pair_plane = _incidences(hs, kept)
    pts, missing = oracle_triple_points(normals, offsets, pair_plane, sizes)
    if missing.any():
        # Qhull's own point moves with the interior point, so a vertex
        # with no usable triple takes the Chebyshev centre's point: the
        # output never depends on which centre served the intersection
        if cheb is None:
            cheb = oracle_chebyshev_intersection(w, h, feas)
        points = oracle_matched_points(hs, cheb)
        if points is None:
            hs = cheb
            sizes, pair_plane = _incidences(hs, kept)
            pts = oracle_vertex_points(normals, offsets, pair_plane, sizes, hs.intersections)
        else:
            pts[missing] = points[missing]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    verts = pts[order]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    pair_vert = np.repeat(rank, sizes)
    cones = np.zeros_like(verts)
    np.add.at(cones, pair_vert, normals[pair_plane])

    count = np.bincount(pair_plane, minlength=n)
    face = count[pair_plane] >= 3
    rings = oracle_rings(normals, cones, pair_plane[face], pair_vert[face])

    carrying = count[first] >= 3
    face_planes = np.flatnonzero(carrying).tolist()
    faces = [rings[j] for j in first[carrying].tolist()]
    redundant = np.flatnonzero(~carrying).tolist()
    return ConvexPolyhedron(verts, faces, face_planes, code, redundant)


def oracle_least_squares_centre(normals, offsets, feas):
    a = np.column_stack([normals, np.ones(len(normals))])
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linalg.solve(a.T @ a, a.T @ offsets)[:3]
        slack = offsets - normals @ x
        least = slack.min()
        if least > feas and least >= CENTRED_SLACK * slack.mean():
            return x
    return None


def oracle_chebyshev_intersection(normals, offsets, feas):
    centre, radius = _chebyshev_centre(normals, offsets)
    if radius <= feas:
        raise EmptyRegion(
            "no ball of radius above %.3g fits inside every half-space "
            "(largest radius %.3g)" % (feas, radius)
        )
    try:
        return HalfspaceIntersection(np.column_stack([normals, -offsets]), centre)
    except QhullError as exc:
        raise EmptyRegion("half-space intersection failed: %s" % _first_line(exc))


def oracle_matched_points(first, other):
    """``other``'s intersection points in the order of ``first``'s dual facets.

    Facets are matched by their sets of planes; None when the two
    intersections do not list the same sets, each once.
    """
    if other is first:
        return first.intersections
    where = {tuple(sorted(f)): i for i, f in enumerate(other.dual_facets)}
    at = [where.get(tuple(sorted(f)), -1) for f in first.dual_facets]
    if sorted(at) != list(range(len(other.dual_facets))):
        return None
    return other.intersections[at]


def oracle_vertex_points(normals, offsets, flat, sizes, fallback):
    pts, missing = oracle_triple_points(normals, offsets, flat, sizes)
    pts[missing] = fallback[missing]
    return pts


def oracle_triple_points(normals, offsets, flat, sizes):
    if len(flat) == 3 * len(sizes):
        # every facet lists at least three planes, so here each lists
        # exactly three: one triple per vertex, and its solve is the mean
        triples = np.sort(flat.reshape(-1, 3), axis=1)
        a = normals[triples]
        ok = oracle_usable(a)
        if not ok.all():
            a[~ok] = np.eye(3)
        sol = np.linalg.solve(a, offsets[triples][:, :, None])[:, :, 0]
        return sol, ~ok
    pts = np.zeros((len(sizes), 3))
    missing = np.ones(len(sizes), dtype=bool)
    starts = np.cumsum(sizes) - sizes
    for k in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == k)
        planes = np.sort(flat[starts[rows, None] + np.arange(k)], axis=1)
        triples = planes[:, _combinations(k)]
        a = normals[triples]
        ok = oracle_usable(a)
        a[~ok] = np.eye(3)
        sol = np.linalg.solve(a, offsets[triples][:, :, :, None])[:, :, :, 0]
        # x + -0.0 == x for every x, so the skipped solves and the start
        # of the sum leave the kept solves' sum bit for bit, -0.0 included
        sol[~ok] = -0.0
        used = ok.sum(axis=1)
        some = used > 0
        pts[rows[some]] = sol[some].sum(axis=1, initial=-0.0) / used[some, None]
        missing[rows[some]] = False
    return pts, missing


def oracle_usable(a):
    x0, y0, z0, x1, y1, z1, x2, y2, z2 = a.reshape(-1, 9).T.copy()
    det = x0 * (y1 * z2 - z1 * y2) - y0 * (x1 * z2 - z1 * x2) + z0 * (x1 * y2 - y1 * x2)
    ok = np.abs(det) > DET_CLEAR
    if not ok.all():
        near = ~ok
        cond = np.linalg.cond(a.reshape(-1, 3, 3)[near])
        ok[near] = np.isfinite(cond) & (cond < COND_LIMIT)
    return ok.reshape(a.shape[:-2])


def oracle_rings(normals, cones, plane, vert):
    w = normals
    at = (np.arange(len(w)), np.argmin(np.abs(w), axis=1))
    u = -w * w[at][:, None]
    u[at] += 1.0
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = cross(w, u)
    c = cones[vert]
    ang = np.arctan2((c * v[plane]).sum(axis=1), (c * u[plane]).sum(axis=1))
    order = np.lexsort((ang, plane))
    rings = {}
    for p, j in zip(plane[order].tolist(), vert[order].tolist()):
        rings.setdefault(p, []).append(j)
    for p, ring in rings.items():
        k = ring.index(min(ring))
        rings[p] = ring[k:] + ring[:k]
    return rings


def polyhedron_outcome(poly):
    """``outcome``'s tuple for one result of decode_regions."""
    if isinstance(poly, GeometryError):
        return type(poly), str(poly)
    return outcome(lambda code: poly, None)


def assert_batch_matches(codes):
    """Every region of one decode_regions call matches the oracle alone."""
    got = decode_regions(codes)
    assert len(got) == len(codes)
    for code, poly in zip(codes, got):
        assert polyhedron_outcome(poly) == outcome(oracle_decode_convex, code)
    return got


def unbounded_and_empty():
    cube = encode_convex(shapes.cube())
    rng = np.random.default_rng(4)
    hemisphere = rng.normal(size=(9, 3))
    hemisphere[:, 2] = np.abs(hemisphere[:, 2]) + 0.05
    hemisphere /= np.linalg.norm(hemisphere, axis=1, keepdims=True)
    ring = np.column_stack([np.cos(np.arange(6)), np.sin(np.arange(6)), np.zeros(6)])
    top = cube.normals()[:, 2] == 1.0
    return [
        cube[:3],
        PlaneSet([]),
        PlaneSet.from_normals(hemisphere, np.ones(9)),
        PlaneSet.from_normals(ring, np.ones(6)),
        slab(0.0),
        slab(-1e-12),
        PlaneSet.from_normals(cube.normals(), np.where(top, -1e-3, cube.offsets())),
    ]


def duplicate_codes():
    cube = shapes.chamfered_cube_code(0.2)
    prism = shapes.ngon_prism_code(9)
    t = cube.triplets()
    zero_h = np.flatnonzero(t[:, 2] == 0.0)[0]
    signed = t[zero_h].copy()
    signed[2] = -0.0
    return [
        PlaneSet.concatenate([cube, cube[:1]]),
        PlaneSet.concatenate([cube, cube[::-1], cube[2:5]]),
        PlaneSet.concatenate([prism, prism[::-1]]),
        PlaneSet(np.vstack([t[3:], signed, t[:3]])),
    ]


def code_pool():
    rng = np.random.default_rng(61)
    codes = [encode_convex(shapes.cube())]
    codes += [shapes.ngon_prism_code(n) for n in (3, 4, 7, 12, 28, 40)]
    for t in (0.02, 0.2, 0.45):
        code = shapes.chamfered_cube_code(t)
        codes += [code, stored(code)]
    for n_points in (8, 16, 32, 64, 128):
        for k in range(2):
            code = encode_convex(shapes.random_hull_mesh(rng, n_points))
            if k:
                code = rotate_planes(code, quaternion_rotation(rng))
                code = translate_planes(code, rng.uniform(-3.0, 3.0, size=3))
            codes.append(stored(code))
    codes += duplicate_codes()
    codes += [roof(), stored(roof()), slab(1e-3), slab(1e-8)]
    codes += list(itertools.islice(part_codes(), 0, None, 3))
    codes += unbounded_and_empty()
    return codes


POOL = code_pool()


def test_every_code_alone_matches_the_oracle():
    for code in POOL:
        assert_batch_matches([code])
        assert outcome(decode_convex, code) == outcome(oracle_decode_convex, code)


def test_the_whole_pool_in_one_batch_matches_the_oracle():
    got = assert_batch_matches(POOL)
    errors = sum(not isinstance(p, ConvexPolyhedron) for p in got)
    assert 7 <= errors < len(POOL) // 4


def test_shuffled_mixed_lists_match_the_oracle():
    rng = np.random.default_rng(67)
    for size in (2, 3, 5, 8, 13, 21, 34):
        for _ in range(3):
            pick = rng.choice(len(POOL), size=size, replace=True)
            assert_batch_matches([POOL[i] for i in pick.tolist()])


def test_equal_regions_keep_their_own_planes():
    # a plane repeated across regions is no duplicate: each region's
    # Qhull sees it, and each region gets its own ring for it
    cube = shapes.chamfered_cube_code(0.2)
    codes = [cube, cube, cube[::-1], PlaneSet.concatenate([cube, cube[:2]]), cube]
    got = assert_batch_matches(codes)
    assert got[0].faces == got[1].faces == got[4].faces
    assert got[0].vertices.tobytes() == got[1].vertices.tobytes()


def test_the_chebyshev_and_missing_triple_paths_match_in_a_batch(monkeypatch):
    # the slabs refuse their least-squares centre and build the lifted
    # hull; the roof's ridge vertices have no usable triple, so its
    # region builds it too and is decoded again from the Chebyshev centre
    thin = slab(1e-3)
    assert convex._least_squares_centres(
        thin.normals(), thin.offsets(), [1e-9], [0, len(thin)]
    ) == [None]
    dims = counting_hulls(monkeypatch)
    codes = [shapes.ngon_prism_code(6), thin, roof(), stored(roof()), slab(1e-3)]
    got = decode_regions(codes)
    assert dims.count(4) == 3
    for code, poly in zip(codes, got):
        assert polyhedron_outcome(poly) == outcome(oracle_decode_convex, code)


def test_stacked_least_squares_centres_decide_as_one_region_does():
    # the batch sums each region's normal equations in row order, not by
    # BLAS, so its centres may differ in the last bits, never in which
    # regions it accepts
    codes = [c for c, p in zip(POOL, decode_regions(POOL)) if isinstance(p, ConvexPolyhedron)]
    normals = np.concatenate([c.normals() for c in codes])
    offsets = np.concatenate([c.offsets() for c in codes])
    bounds = list(itertools.accumulate(map(len, codes), initial=0))
    feas = [FEAS_REL * max(1.0, float(np.abs(c.offsets()).max())) for c in codes]
    batch = convex._least_squares_centres(normals, offsets, feas, bounds)
    refused = 0
    for code, f, x in zip(codes, feas, batch):
        (alone,) = convex._least_squares_centres(code.normals(), code.offsets(), [f], [0, len(code)])
        assert (x is None) == (alone is None)
        if x is None:
            refused += 1
        else:
            assert np.allclose(x, alone, rtol=1e-12, atol=1e-12 * np.abs(code.offsets()).max())
    assert 0 < refused < len(codes) // 2


def test_errors_come_back_in_place():
    bad = unbounded_and_empty()
    good = [shapes.ngon_prism_code(5), encode_convex(shapes.cube())]
    codes = [bad[0], good[0], bad[2], bad[4], good[1], bad[6], bad[1]]
    got = assert_batch_matches(codes)
    kinds = [type(p) for p in got]
    assert kinds == [
        UnboundedRegion,
        ConvexPolyhedron,
        UnboundedRegion,
        EmptyRegion,
        ConvexPolyhedron,
        EmptyRegion,
        UnboundedRegion,
    ]
    assert decode_regions([]) == []


def test_a_given_eps_serves_every_region():
    codes = [slab(1e-3), slab(1e-8), shapes.chamfered_cube_code(0.3)]
    for eps in (0.0, 1e-9, 1e-6, 1e-2):
        for code, poly in zip(codes, decode_regions(codes, eps=eps)):
            want = outcome(lambda c: oracle_decode_convex(c, eps=eps), code)
            assert polyhedron_outcome(poly) == want


def scaled(code, factor):
    t = code.triplets().copy()
    t[:, 2] *= factor
    return PlaneSet(t)


@pytest.mark.parametrize("k", [-1, 1, 7, 60, 300, 900])
def test_powers_of_two_scale_the_vertices_bit_for_bit(k):
    # far below 1, the absolute floor of FEAS_REL * max(1, max |h|)
    # refuses small regions as empty: that floor is not scaled here
    codes = [c for c in POOL[:40] if len(c) >= 4]
    base = decode_regions(codes)
    for code, poly, moved in zip(codes, base, decode_regions([scaled(c, 2.0**k) for c in codes])):
        if isinstance(poly, ConvexPolyhedron):
            assert moved.vertices.tobytes() == (poly.vertices * 2.0**k).tobytes()
            assert (moved.faces, moved.face_planes) == (poly.faces, poly.face_planes)
            assert moved.redundant_planes == poly.redundant_planes


def test_offsets_up_to_the_float_limit_decode():
    # decoded in caller units, Qhull lost these codes from about 1e80
    for code in (encode_convex(shapes.cube()), shapes.chamfered_cube_code(0.2)):
        unit = decode_convex(code)
        for e in range(0, 301, 20):
            poly = decode_convex(scaled(code, 10.0**e))
            assert poly.to_mesh().is_closed
            assert len(poly.faces) == len(unit.faces) and poly.face_planes == unit.face_planes
            v = poly.vertices / 10.0**e
            assert np.allclose(np.sort(v, axis=0), np.sort(unit.vertices, axis=0), atol=1e-12)


def scaled_parts(code, factor):
    return SegmentedCode(
        PartCode(p.kind, scaled(p.face_planes, factor), scaled(p.boundary_planes, factor))
        for p in code.parts
    )


@pytest.mark.parametrize("name", ["notched_box", "two_notch_box", "l_prism"])
def test_segmented_fixtures_decode_at_every_offset_scale(name):
    # two_notch_box's part 1 failed from 1e15, the others from 1e110; the
    # weld's diagonal overflowed from about 1e160
    code = encode_segmented(getattr(shapes, name)())
    base = decode_segmented(code)
    for e in range(10, 301, 10):
        mesh = decode_segmented(scaled_parts(code, 10.0**e))
        assert mesh.is_closed
        assert (len(mesh.vertices), len(mesh.triangles)) == (len(base.vertices), len(base.triangles))
        span = mesh.vertices.max(axis=0) / 10.0**e - mesh.vertices.min(axis=0) / 10.0**e
        assert np.allclose(span, base.vertices.max(axis=0) - base.vertices.min(axis=0))
    mesh = decode_segmented(scaled_parts(code, 2.0**900))
    assert mesh.vertices.tobytes() == (base.vertices * 2.0**900).tobytes()
    assert np.array_equal(mesh.triangles, base.triangles)


def test_a_segmented_encode_scales_its_offsets_by_powers_of_two():
    # the self-check decodes refused two_notch_box from 2^42
    mesh = shapes.two_notch_box()
    base = encode_segmented(mesh)
    for k in (18, 42, 60):
        code = encode_segmented(TriangleMesh(mesh.vertices * 2.0**k, mesh.triangles))
        for got, want in zip(code.parts, base.parts, strict=True):
            assert got.kind is want.kind
            for a, b in ((got.face_planes, want.face_planes), (got.boundary_planes, want.boundary_planes)):
                assert np.array_equal(a.triplets()[:, :2], b.triplets()[:, :2])
                assert np.array_equal(a.offsets(), b.offsets() * 2.0**k)


def loop_decode_segmented(code):
    """The part decodes of ``decode_segmented`` as the part-by-part loop made them."""
    return [decode_part(part, i) for i, part in enumerate(code.parts)]


def error_of(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "part_index", None)
    return None


def without_cuts(part):
    return PartCode(part.kind, part.face_planes, PlaneSet([]))


@pytest.mark.parametrize("name", ["notched_box", "two_notch_box", "l_prism"])
def test_decode_segmented_names_the_first_part_that_fails(name):
    code = encode_segmented(getattr(shapes, name)())
    n = len(code.parts)
    for broken in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(1, n + 1)
    ):
        parts = [without_cuts(p) if i in broken else p for i, p in enumerate(code.parts)]
        parts += [PartCode(PartKind.PSEUDO_CONVEX, code.parts[0].face_planes[:2], PlaneSet([]))]
        bad = SegmentedCode(parts)
        want = error_of(loop_decode_segmented, bad)
        assert want is not None and want[0] is PartUndecodable
        assert error_of(decode_segmented, bad) == want


def oracle_encode_segmented(mesh, eps=None):
    """``encode_segmented`` as it was: build, then decode, one part at a time."""
    parts = polygonize.segment_mesh(mesh, eps=eps)
    coded = []
    for i, part in enumerate(parts):
        faces = polygonize.polygonize_part(mesh, part, eps=eps)
        face_planes = PlaneSet([f.plane for f in faces]).sorted_canonical()
        boundary = polygonize.boundary_planes_for_part(mesh, part, eps=eps)
        code = PartCode(part.kind, face_planes, boundary)
        decode_part(code, i, eps=eps)
        coded.append(code)
    return SegmentedCode(coded)


def inject(monkeypatch, cutless, broken):
    """Parts in ``cutless`` lose their cuts; building part ``broken`` raises."""
    polygonize_part = polygonize.polygonize_part
    cuts = polygonize.boundary_planes_for_part
    seen = {"faces": 0, "cuts": 0}

    def faces(mesh, part, eps=None):
        i = seen["faces"]
        seen["faces"] += 1
        if i == broken:
            raise NonSimpleBoundary("injected at part %d" % i)
        return polygonize_part(mesh, part, eps=eps)

    def boundary(mesh, part, eps=None):
        i = seen["cuts"]
        seen["cuts"] += 1
        return PlaneSet([]) if i in cutless else cuts(mesh, part, eps=eps)

    monkeypatch.setattr(polygonize, "polygonize_part", faces)
    monkeypatch.setattr(polygonize, "boundary_planes_for_part", boundary)
    return seen


@pytest.mark.parametrize(
    "cutless,broken",
    [
        ({1, 2}, None),
        ({2}, None),
        ({1}, 2),
        ({2}, 1),
        ((), 0),
        ((), 2),
        ({1}, 1),
        ({2}, 2),
    ],
)
def test_encode_segmented_raises_what_the_part_loop_raised(monkeypatch, cutless, broken):
    mesh = shapes.two_notch_box()
    with monkeypatch.context() as mp:
        inject(mp, cutless, broken)
        want = error_of(oracle_encode_segmented, mesh)
    with monkeypatch.context() as mp:
        seen = inject(mp, cutless, broken)
        got = error_of(encode_segmented, mesh)
    assert want is not None
    assert got == want
    # parts after a failed build are never built
    assert seen["faces"] == (3 if broken is None else broken + 1)
