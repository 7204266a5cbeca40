"""decode_convex against its own earlier array form, bit for bit.

The decoder's glue around Qhull was rewritten for speed: a closed-form
determinant clears most plane triples before any SVD condition
estimate, each plane's ring basis is built once instead of once per
(plane, vertex) pair, and exact duplicate planes are found with one
lexicographic sort instead of ``np.unique(axis=0)``.  None of that may
change a bit of the output.  The earlier ``decode_convex``,
``_vertex_points`` and ``_rings`` are kept below verbatim as the oracle;
both decoders must give identical vertices (compared as bytes, so -0.0
counts), faces, face planes and redundant planes, or the same error.
The inputs stress what the rewrite touched: float32-stored hulls whose
vertices split where four or more planes meet, prisms and chamfered
cubes full of exact zeros, and exact duplicate planes, including rows
that differ only in the sign of a zero.
"""

import itertools

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from planecode import (
    EmptyRegion,
    GeometryError,
    PlaneSet,
    UnboundedRegion,
    decode_convex,
    encode_convex,
    read_code,
    shapes,
    write_code,
)
from planecode import convex
from planecode.convex import (
    COND_LIMIT,
    DET_CLEAR,
    FEAS_REL,
    MAX_VERTEX_TRIPLES,
    ConvexPolyhedron,
    _chebyshev_centre,
    rotate_planes,
    translate_planes,
)

from conftest import quaternion_rotation


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
    # the index of its first exact copy
    _, first_of_row, row = np.unique(
        code.triplets(), axis=0, return_index=True, return_inverse=True
    )
    first = first_of_row[row.ravel()]
    kept = np.flatnonzero(first == np.arange(n))
    centre, radius = _chebyshev_centre(normals[kept], offsets[kept])
    if radius <= feas:
        raise EmptyRegion(
            "no ball of radius above %.3g fits inside every half-space "
            "(largest radius %.3g)" % (feas, radius)
        )
    try:
        hs = HalfspaceIntersection(
            np.column_stack([normals[kept], -offsets[kept]]), centre
        )
    except QhullError as exc:
        raise EmptyRegion("half-space intersection failed: %s" % exc)

    # one (plane, vertex) incidence pair per entry of a dual facet
    facets = hs.dual_facets
    sizes = np.fromiter(map(len, facets), dtype=np.int64, count=len(facets))
    pair_plane = kept[np.fromiter(itertools.chain.from_iterable(facets), dtype=np.int64)]
    pts = oracle_vertex_points(normals, offsets, pair_plane, sizes, hs.intersections)
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


def oracle_vertex_points(normals, offsets, flat, sizes, fallback):
    pts = np.array(fallback, dtype=float)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        planes = np.sort(flat[starts[rows, None] + np.arange(k)], axis=1)
        combos = np.array(
            list(itertools.islice(itertools.combinations(range(k), 3), MAX_VERTEX_TRIPLES)),
            dtype=np.int64,
        )
        triples = planes[:, combos]
        a = normals[triples]
        cond = np.linalg.cond(a)
        ok = np.isfinite(cond) & (cond < COND_LIMIT)
        a[~ok] = np.eye(3)
        sol = np.linalg.solve(a, offsets[triples][:, :, :, None])[:, :, :, 0]
        # x + -0.0 == x for every x, so the skipped solves and the start
        # of the sum leave the kept solves' sum bit for bit, -0.0 included
        sol[~ok] = -0.0
        used = ok.sum(axis=1)
        some = used > 0
        pts[rows[some]] = sol[some].sum(axis=1, initial=-0.0) / used[some, None]
    return pts


def oracle_rings(normals, cones, plane, vert):
    w = normals[plane]
    at = (np.arange(len(w)), np.argmin(np.abs(w), axis=1))
    u = -w * w[at][:, None]
    u[at] += 1.0
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(w, u)
    c = cones[vert]
    ang = np.arctan2((c * v).sum(axis=1), (c * u).sum(axis=1))
    order = np.lexsort((ang, plane))
    plane, vert = plane[order], vert[order]
    starts = np.flatnonzero(np.r_[True, plane[1:] != plane[:-1]])
    ends = np.r_[starts[1:], len(plane)]
    group = np.repeat(np.arange(len(starts)), ends - starts)
    pos = np.arange(len(plane)) - starts[group]
    lowest = vert == np.minimum.reduceat(vert, starts)[group]
    turn = (pos - pos[lowest][group]) % (ends - starts)[group]
    vert = vert[np.lexsort((turn, group))].tolist()
    rings = [vert[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    return dict(zip(plane[starts].tolist(), rings))


def outcome(decode, code):
    try:
        poly = decode(code)
    except GeometryError as exc:
        return type(exc), str(exc)
    return (
        poly.vertices.shape,
        poly.vertices.tobytes(),
        poly.faces,
        poly.face_planes,
        poly.redundant_planes,
    )


def assert_same_decode(code):
    new = outcome(decode_convex, code)
    assert new == outcome(oracle_decode_convex, code)
    return new


def stored(code):
    """The code after its float32 round trip through the .plnc format."""
    return read_code(write_code(code))


def test_float32_sphere_hulls_match_the_oracle_bit_for_bit():
    rng = np.random.default_rng(7)
    split = 0
    for n_points in (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256):
        for k in range(4):
            mesh = shapes.random_hull_mesh(rng, n_points)
            code = encode_convex(mesh)
            if k % 2:
                code = rotate_planes(code, quaternion_rotation(rng))
                code = translate_planes(code, rng.uniform(-3.0, 3.0, size=3))
            shape = assert_same_decode(stored(code))[0]
            # a hull vertex where four or more planes met came apart into
            # vertices whose planes Qhull's combinatorics chose
            split += shape[0] > len(mesh.vertices)
    assert split >= 10


def test_prisms_and_chamfered_cubes_match_the_oracle_bit_for_bit():
    for n in range(3, 29):
        assert_same_decode(shapes.ngon_prism_code(n))
    for t in np.linspace(0.01, 0.45, 23):
        code = shapes.chamfered_cube_code(float(t))
        assert_same_decode(code)
        assert_same_decode(stored(code))


def test_exact_duplicate_planes_match_the_oracle_bit_for_bit():
    cube = shapes.chamfered_cube_code(0.2).triplets()
    # the x = 0 face has h = 0.0; its copy differs only in the sign of zero
    zero_h = np.flatnonzero(cube[:, 2] == 0.0)[0]
    signed = cube[zero_h].copy()
    signed[2] = -0.0
    # the +x face has phi = 0.0; a copy with phi = -0.0 is the same plane
    plus_x = np.flatnonzero((cube[:, 1] == 0.0) & (cube[:, 2] == 1.0))[0]
    signed_phi = cube[plus_x].copy()
    signed_phi[1] = -0.0
    codes = [
        np.vstack([cube, cube[:1]]),
        np.vstack([cube[3:], signed, cube[:3]]),
        np.vstack([signed, cube, signed_phi]),
        np.vstack([cube, cube[::-1], cube[2:5]]),
    ]
    prism = shapes.ngon_prism_code(9).triplets()
    codes.append(np.vstack([prism, prism[::-1]]))
    for rows in codes:
        code = PlaneSet.from_triplets(rows)
        out = assert_same_decode(code)
        assert len(out[3]) == len(rows), "every copy carries its plane's face"
    # a -0.0 offset shares its first copy's ring, not a ring of its own
    poly = decode_convex(PlaneSet.from_triplets(np.vstack([cube, signed])))
    assert poly.faces[-1] == poly.faces[zero_h]


def test_errors_match_the_oracle():
    cube = shapes.chamfered_cube_code(0.2).triplets()
    flat = cube.copy()
    flat[0, 2] = -1e-12  # opposite faces x <= -1e-12 and -x <= 0: empty
    codes = [
        PlaneSet.from_triplets(cube[:3]),
        PlaneSet.from_triplets(cube[[0, 2, 4, 6]]),
        PlaneSet.from_triplets(flat),
    ]
    for code in codes:
        out = assert_same_decode(code)
        assert out[0] in (UnboundedRegion, EmptyRegion)


def near_singular_unit_triples(rng, count):
    """3x3 matrices of unit rows, condition numbers clustered near COND_LIMIT.

    Half are the worst case for the determinant bound: two rows an
    angle theta apart and the third orthogonal to both, so that
    cond = cot(theta / 2), within a factor 1 + theta^2 / 4 of the bound
    2 / |det|.  Their theta is spread over a factor of ten around the
    limit, a tenth of them within 1e-5 of it, in a random frame.  The
    rest have a third row leaning out of the first two rows' plane by
    a log-uniform amount, and a few are exactly singular.
    """
    half = count // 2
    frames = np.linalg.qr(rng.normal(size=(half, 3, 3)))[0]
    theta = 2.0 / (COND_LIMIT * np.exp(rng.uniform(-np.log(10.0), np.log(10.0), half)))
    edge = half // 10
    theta[:edge] = 2.0 / (COND_LIMIT * (1.0 + rng.uniform(-1e-5, 1e-5, edge)))
    local = np.zeros((half, 3, 3))
    local[:, 0, 0] = 1.0
    local[:, 1, 0] = np.cos(theta)
    local[:, 1, 1] = np.sin(theta)
    local[:, 2, 2] = 1.0
    tight = local @ np.swapaxes(frames, 1, 2)

    rest = count - half
    r = rng.normal(size=(rest, 3, 3))
    r[:, :2] /= np.linalg.norm(r[:, :2], axis=2, keepdims=True)
    normal = np.cross(r[:, 0], r[:, 1])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    lean = np.exp(rng.uniform(np.log(1e-11), np.log(1e-5), rest))
    mix = rng.normal(size=(rest, 2))
    r[:, 2] = mix[:, :1] * r[:, 0] + mix[:, 1:] * r[:, 1] + lean[:, None] * normal
    r[: rest // 50, 2] = r[: rest // 50, 0]
    a = np.concatenate([tight, r])
    return a / np.linalg.norm(a, axis=2, keepdims=True)


def test_determinant_screen_decides_every_triple_as_the_condition_number():
    a = near_singular_unit_triples(np.random.default_rng(11), 120_000)
    cond = np.linalg.cond(a)
    expected = np.isfinite(cond) & (cond < COND_LIMIT)
    assert np.array_equal(convex._usable(a), expected)
    assert np.array_equal(convex._usable(a.reshape(-1, 4, 3, 3)), expected.reshape(-1, 4))
    # the inputs sit where the screen has to be exact: many within a
    # factor 3 of the limit and within 1e-4 of it, on both sides of the
    # determinant threshold, and usable ones the screen leaves to the SVD
    cleared = np.abs(np.linalg.det(a)) > DET_CLEAR
    for reach, least in ((3.0, 30_000), (1.0 + 1e-4, 4_000)):
        near = (cond > COND_LIMIT / reach) & (cond < COND_LIMIT * reach)
        assert near.sum() > least
        assert (near & cleared).sum() > least // 4
        assert (near & ~expected).sum() > least // 4
        assert (near & expected & ~cleared).sum() > least // 40


def counting_cond(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counted(x, *args, **kwargs):
        calls.append(len(x))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return calls


def test_a_prism_decodes_without_any_condition_estimate(monkeypatch):
    calls = counting_cond(monkeypatch)
    poly = decode_convex(shapes.ngon_prism_code(12))
    assert len(poly.vertices) == 24
    assert calls == []


def test_a_near_singular_vertex_still_gets_its_condition_estimate(monkeypatch):
    # the +x face split into a roof of two planes 2e-9 rad apart: the
    # vertices at the ends of its ridge solve a triple with |det| 2e-9
    cube = shapes.chamfered_cube_code(0.2)
    keep = cube.normals()[:, 0] != 1.0
    c, s = np.cos(1e-9), np.sin(1e-9)
    roof = PlaneSet.from_normals(
        np.vstack([cube.normals()[keep], [[c, s, 0.0], [c, -s, 0.0]]]),
        np.concatenate([cube.offsets()[keep], [c + 0.5 * s, c - 0.5 * s]]),
    )
    calls = counting_cond(monkeypatch)
    decode_convex(roof)
    assert calls == [2]
    assert_same_decode(roof)
