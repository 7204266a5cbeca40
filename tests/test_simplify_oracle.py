"""simplify_code against the version that decoded each plane set anew.

The oracle below is the earlier ``simplify`` module kept verbatim: the
convex path decodes the input, the kept planes, and the kept planes
twice more (adjacency and merge metrics), measures each face ring on
its own and takes every merge angle from ``np.cross``.  The library now
decodes each distinct plane set once and measures rings in batches;
both must write the same bytes, or raise the same error class, on
every code and every (delta, tau) of the grid.  The batched ring
measures and ``angle_between`` must equal the oracle's per-ring loop
and ``np.cross`` form bit for bit, and the last tests count the
decodes themselves.
"""

import math

import numpy as np
import pytest

import planecode.geometry
import planecode.simplify
from planecode import (
    PlaneSet,
    SimplifyParams,
    decode_convex,
    encode_convex,
    encode_segmented,
    read_code,
    rotate_planes,
    shapes,
    simplify_code,
    translate_planes,
    write_code,
)
from planecode.convex import ConvexPolyhedron
from planecode.errors import GeometryError, OverSimplified, PartUndecodable
from planecode.polygonize import PartCode, SegmentedCode, decode_part

from conftest import quaternion_rotation, seeded_hulls
from test_face_measure_oracle import assert_matches_the_oracle
from test_plane_batch_oracle import oracle_snapped_row
from test_segment_oracle import sphere_hull


def angle_between(u, v):
    """Angle between two vectors in radians, stable near 0 and pi."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = np.cross(u, v)
    return math.atan2(math.sqrt(float(c @ c)), float(u @ v))


def _ring_metrics(pts):
    """(area, area centroid) of a planar convex ring."""
    if len(pts) < 3:
        return 0.0, pts.mean(axis=0)
    v0 = pts[0]
    cross = np.cross(pts[1:-1] - v0, pts[2:] - v0)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = float(areas.sum())
    if total <= 0.0:
        return 0.0, pts.mean(axis=0)
    centers = (v0 + pts[1:-1] + pts[2:]) / 3.0
    return total, (centers * areas[:, None]).sum(axis=0) / total


def _face_measurements(poly, n_planes):
    """Per-plane decoded face area and centroid; zeros when faceless."""
    areas = np.zeros(n_planes)
    centroids = np.zeros((n_planes, 3))
    for ring, idx in zip(poly.faces, poly.face_planes):
        a, c = _ring_metrics(poly.vertices[np.asarray(ring)])
        areas[idx] = a
        centroids[idx] = c
    return areas, centroids


def face_adjacency(poly):
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


def drop_small_faces(code, params, eps=None):
    """Planes whose decoded face area is at least delta, in input order.

    Planes with no face at all (redundant half-spaces) count as area
    zero, so any positive delta discards them while delta = 0 is the
    exact identity.
    """
    poly = decode_convex(code, eps=eps)
    areas, _ = _face_measurements(poly, len(code))
    out = code[areas >= params.delta]
    if len(out) < 4:
        raise OverSimplified(
            "only %d plane(s) would remain" % len(out)
        )
    try:
        decode_convex(out, eps=eps)
    except GeometryError as exc:
        raise OverSimplified("remaining planes do not bound a solid: %s" % exc)
    return out


def merge_near_parallel(code, adjacency, params):
    """Union adjacent planes whose directions differ by less than tau.

    Clusters are replaced by one plane: the normalized area-weighted
    direction sum, offset so the plane passes through the cluster's
    area centroid.  A cluster's direction evolves as it grows, so each
    union is judged against the merged direction, not the seeds'.
    """
    if params.tau <= 0.0 or not len(code):
        return code
    poly = decode_convex(code)
    areas, centroids = _face_measurements(poly, len(code))
    return _merge_with_metrics(code, areas, centroids, adjacency, params)


def oracle_simplify_code(code, params, eps=None):
    """Both passes, for a convex or a segmented code.

    Segmented codes are simplified part by part on their face planes;
    boundary cutting planes are never dropped or merged.
    """
    if isinstance(code, SegmentedCode):
        return SegmentedCode(
            [_simplify_part(p, i, params, eps) for i, p in enumerate(code.parts)]
        )
    out = code
    if params.delta > 0.0:
        out = drop_small_faces(out, params, eps=eps)
    if params.tau > 0.0:
        poly = decode_convex(out, eps=eps)
        out = merge_near_parallel(out, face_adjacency(poly), params)
    return out


def _simplify_part(part, index, params, eps):
    faces = part.face_planes
    boundary = part.boundary_planes

    def part_poly(face_planes):
        return decode_part(PartCode(part.kind, face_planes, boundary), index, eps=eps)

    if params.delta > 0.0:
        poly = part_poly(faces)
        areas, _ = _face_measurements(poly, len(faces) + len(boundary))
        kept = faces[areas[: len(faces)] >= params.delta]
        if not len(kept):
            raise OverSimplified("part %d would lose every face plane" % index)
        try:
            part_poly(kept)
        except PartUndecodable:
            raise OverSimplified(
                "part %d no longer bounds a solid after area pass" % index
            )
        faces = kept

    if params.tau > 0.0 and len(faces):
        poly = part_poly(faces)
        n_face = len(faces)
        adjacency = [
            (i, j) for i, j in face_adjacency(poly) if i < n_face and j < n_face
        ]
        areas, centroids = _face_measurements(poly, n_face + len(boundary))
        faces = _merge_with_metrics(
            faces, areas[:n_face], centroids[:n_face], adjacency, params
        )
    return PartCode(part.kind, faces, boundary)


def _merge_with_metrics(planes, areas, centroids, adjacency, params):
    """merge_near_parallel core against externally supplied metrics."""
    n = len(planes)
    normals = planes.normals()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dir_sum = normals * np.asarray(areas)[:, None]
    cen_sum = np.asarray(centroids) * np.asarray(areas)[:, None]
    area_sum = np.asarray(areas, dtype=float).copy()
    merged_any = False
    for i, j in sorted(adjacency):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        na, nb = np.linalg.norm(dir_sum[ri]), np.linalg.norm(dir_sum[rj])
        if na == 0.0 or nb == 0.0:
            continue
        if angle_between(dir_sum[ri] / na, dir_sum[rj] / nb) < params.tau:
            parent[rj] = ri
            dir_sum[ri] += dir_sum[rj]
            cen_sum[ri] += cen_sum[rj]
            area_sum[ri] += area_sum[rj]
            merged_any = True
    if not merged_any:
        return planes
    scale = max(1.0, float(np.abs(np.asarray(centroids)).max(initial=0.0)))
    out = []
    emitted = set()
    for i in range(n):
        root = find(i)
        if root in emitted:
            continue
        emitted.add(root)
        size = sum(1 for k in range(n) if find(k) == root)
        if size == 1:
            out.append(planes[i])
            continue
        direction = dir_sum[root] / np.linalg.norm(dir_sum[root])
        centroid = cen_sum[root] / area_sum[root]
        out.append(
            oracle_snapped_row(direction, float(direction @ centroid), scale=scale)
        )
    return PlaneSet(out)


# delta 2.5 leaves the four sides of a square prism (unbounded) and 1e9
# leaves nothing, so both OverSimplified messages are on the grid
DELTAS = (0.0, 1e-3, 0.6, 2.5, 1e9)
TAUS = tuple(math.radians(d) for d in (0.0, 5.0, 20.0, 45.0))


def outcome(simplify, code, params):
    try:
        return write_code(simplify(code, params))
    except GeometryError as exc:
        return type(exc)


def assert_grid_agrees(codes):
    merged = 0
    for code in codes:
        for delta in DELTAS:
            for tau in TAUS:
                params = SimplifyParams(delta=delta, tau=tau)
                got = outcome(simplify_code, code, params)
                assert got == outcome(oracle_simplify_code, code, params), (
                    code, delta, tau)
                merged += isinstance(got, bytes) and got != write_code(code)
    assert merged


def f32(code):
    return read_code(write_code(code))


def test_prisms_agree_with_the_oracle():
    assert_grid_agrees([shapes.ngon_prism_code(n) for n in range(3, 29)])


def test_chamfered_cubes_agree_with_the_oracle():
    assert_grid_agrees(
        [shapes.chamfered_cube_code(t) for t in (0.02, 0.03, 0.1, 0.3, 0.4, 1.0, 1.5)]
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_float32_rotated_hulls_agree_with_the_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    codes = []
    for mesh in seeded_hulls(seed, 4, lo=6, hi=40):
        code = encode_convex(mesh)
        codes.append(f32(code))
        moved = translate_planes(
            rotate_planes(code, quaternion_rotation(rng)), rng.uniform(-2, 2, 3)
        )
        codes.append(f32(moved))
    assert_grid_agrees(codes)


def test_segmented_fixtures_agree_with_the_oracle():
    codes = []
    for make in (shapes.notched_box, shapes.l_prism, shapes.two_notch_box):
        code = encode_segmented(make())
        codes += [code, f32(code)]
    assert_grid_agrees(codes)


def test_batched_ring_measures_equal_the_per_ring_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    polys = [decode_convex(shapes.ngon_prism_code(n)) for n in (3, 9, 40)]
    for mesh in seeded_hulls(3, 6, lo=8, hi=80):
        polys.append(decode_convex(encode_convex(mesh)))
    for _ in range(40):
        # rings of 1 to 40 random points, one of no area and one collinear
        verts = rng.normal(size=(60, 3)) * 10.0 ** rng.uniform(-3, 3)
        verts[5:12] = verts[5] + np.outer(np.arange(7), [1.0, 2.0, 3.0])
        rings = [rng.choice(60, size=int(rng.integers(1, 41)), replace=False).tolist()
                 for _ in range(8)]
        rings += [[0, 0, 0, 0], list(range(5, 12))]
        order = rng.permutation(len(rings) + 2)[: len(rings)].tolist()
        polys.append(ConvexPolyhedron(verts, rings, order, None, []))
    for poly in polys:
        n = max(poly.face_planes) + 1
        want = _face_measurements(poly, n)
        got = planecode.simplify._face_measurements(poly, n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_float32_hulls_and_random_length_rings_measure_bit_for_bit():
    # float32 storage splits a large hull's vertices, so its rings run
    # from 3 to 14 vertices: the short ones share one padded batch and
    # the longer ones go by length
    for n_points in (200, 1000, 2500):
        code = read_code(write_code(encode_convex(sphere_hull(n_points, n_points))))
        assert_matches_the_oracle(decode_convex(code), len(code))
    # hand-built rings of random lengths: many triangles and a few
    # longer rings, so some lengths skip
    rng = np.random.default_rng(61)
    for _ in range(30):
        verts = rng.normal(size=(200, 3))
        lengths = rng.choice([3, 3, 3, 4, 6, 9, 12], size=int(rng.integers(100, 400)))
        rings = [rng.choice(200, size=k, replace=False).tolist() for k in lengths.tolist()]
        poly = ConvexPolyhedron(verts, rings, list(range(len(rings))), None, [])
        got = planecode.simplify._face_measurements(poly, len(rings))
        want = _face_measurements(poly, len(rings))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_angle_between_equals_the_np_cross_form_bit_for_bit():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(10000, 3))
    v = rng.normal(size=(10000, 3))
    v[::3] = u[::3] + 1e-7 * v[::3]       # nearly parallel
    v[1::7] = -u[1::7]                    # exactly opposite
    u[2::5, rng.integers(3)] = 0.0
    for a, b in zip(u, v):
        assert planecode.geometry.angle_between(a, b) == angle_between(a, b)


@pytest.fixture
def decode_counter(monkeypatch):
    """Counts of the convex decodes and part decodes simplify makes."""
    counts = {"convex": 0, "part": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        planecode.simplify, "decode_convex", counted("convex", planecode.simplify.decode_convex)
    )
    monkeypatch.setattr(
        planecode.simplify, "decode_part", counted("part", planecode.simplify.decode_part)
    )
    return counts


@pytest.mark.parametrize(
    "delta,tau,decodes",
    [
        (0.0, 20.0, 1),   # merge only
        (1e-5, 0.0, 1),   # area pass keeps every plane
        (1e-5, 20.0, 1),  # ... and the merge reuses its decode
        (0.05, 0.0, 2),   # the chamfer goes: the kept planes are checked
        (0.05, 20.0, 2),  # ... and the merge reuses that check's decode
    ],
)
def test_a_convex_code_is_decoded_once_per_distinct_plane_set(
    decode_counter, delta, tau, decodes
):
    code = shapes.chamfered_cube_code()
    simplify_code(code, SimplifyParams(delta=delta, tau=math.radians(tau)))
    assert decode_counter == {"convex": decodes, "part": 0}


@pytest.mark.parametrize(
    "delta,dropped",
    [(1e-9, [0, 0]), (230.0, [0, 1]), (260.0, [2, 1])],
)
def test_a_part_is_decoded_once_per_distinct_plane_set(decode_counter, delta, dropped):
    # the notched box's two parts have face areas of 250 to 1600 and 224 to 384
    code = encode_segmented(shapes.notched_box())
    out = simplify_code(code, SimplifyParams(delta=delta, tau=math.radians(20.0)))
    assert [
        len(a.face_planes) - len(b.face_planes) for a, b in zip(code.parts, out.parts)
    ] == dropped
    assert decode_counter == {"convex": 0, "part": 2 + sum(map(bool, dropped))}
