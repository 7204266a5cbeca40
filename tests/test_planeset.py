"""Array paths against their scalar references: PlaneSet rows, rigid
motions, per-triangle planes and the vertex weld."""

import math

import numpy as np
import pytest

from planecode import PlaneSet, encode_convex, rotate_planes, translate_planes
from planecode.geometry import SNAP_AXIS, TWO_PI, triangle_planes
from planecode.mesh import weld

from conftest import quaternion_rotation, seeded_hulls


def test_array_constructor_rejects_out_of_range_rows():
    bad_rows = [
        (-0.1, 0.0, 0.0),
        (math.pi + 0.1, 0.0, 0.0),
        (1.0, TWO_PI, 0.0),
        (1.0, -1e-9, 0.0),
        (1.0, 0.0, float("nan")),
        (1.0, 0.0, float("inf")),
    ]
    for row in bad_rows:
        with pytest.raises(ValueError):
            PlaneSet([(1.0, 1.0, 1.0), row])


def test_arrays_match_the_scalar_views_bit_for_bit():
    poles_and_wrap = PlaneSet(
        [(0.0, 0.0, 1.0), (math.pi, 0.0, -2.0), (1.0, np.nextafter(TWO_PI, 0.0), 0.5)]
    )
    for code in [poles_and_wrap] + [encode_convex(hull) for hull in seeded_hulls(5, 4)]:
        # integers and iteration give each row as a tuple of Python floats
        rows = [tuple(row) for row in code.triplets().tolist()]
        assert list(code) == rows
        assert [code[i] for i in range(len(code))] == rows
        assert all(type(x) is float for row in code for x in row)
        assert np.array_equal(code.normals(), [_unit_vector(nu, phi) for nu, phi, _ in code])
        assert list(code.offsets()) == [h for _, _, h in code]
        w, h = code.normals(), code.offsets()
        flipped = [PlaneSet.from_normals(-w[i:i + 1], -h[i:i + 1])[0] for i in range(len(code))]
        assert list(code.negated()) == flipped
        assert list(PlaneSet(flipped).triplets().ravel()) == list(
            code.negated().triplets().ravel()
        )


def _unit_vector(nu, phi):
    """Reference: the unit normal of one row, on Python floats."""
    s = math.sin(nu)
    return [s * math.cos(phi), s * math.sin(phi), math.cos(nu)]


def test_mask_indexing_keeps_order():
    code = encode_convex(seeded_hulls(6, 1)[0])
    keep = np.arange(len(code)) % 3 != 0
    sub = code[keep]
    assert isinstance(sub, PlaneSet)
    assert list(sub) == [p for p, k in zip(code, keep) if k]


def test_taken_rows_reuse_the_normals_a_new_set_would_compute():
    code = encode_convex(seeded_hulls(8, 1)[0])
    rng = np.random.default_rng(8)
    picks = [
        slice(None),
        slice(1, None, 3),
        slice(None, None, -1),
        rng.random(len(code)) < 0.5,
        rng.permutation(len(code))[:7],
        np.zeros(len(code), dtype=bool),
    ]
    taken = [code[i] for i in picks]
    taken.append(PlaneSet.concatenate([code[::2], code.negated(), code[:0]]))
    for sub in taken:
        fresh = PlaneSet(sub.triplets())
        assert sub.triplets().tobytes() == fresh.triplets().tobytes()
        assert sub.normals().tobytes() == fresh.normals().tobytes()
        assert not sub.triplets().flags.writeable
        assert not sub.normals().flags.writeable
    # taking rows never writes through to the set they came from
    before = code.normals().tobytes()
    with pytest.raises(ValueError):
        code[1:].normals()[0, 0] = 2.0
    assert code.normals().tobytes() == before


def _rotated_normals_loop(code, r):
    """Reference: one plane at a time, snapped and renormalized."""
    out = []
    for normal in code.normals():
        w = r @ normal
        w[np.abs(w) < SNAP_AXIS] = 0.0
        out.append(w / np.linalg.norm(w))
    return np.array(out)


def test_rigid_motions_match_the_per_plane_loop():
    rng = np.random.default_rng(8)
    for hull in seeded_hulls(7, 4):
        code = encode_convex(hull)
        r = quaternion_rotation(rng)
        a = rng.uniform(-2.0, 2.0, size=3)
        rotated = rotate_planes(code, r)
        want = _rotated_normals_loop(code, r)
        assert np.abs(rotated.normals() - want).max() <= 1e-14
        assert list(rotated.offsets()) == [h for _, _, h in code]
        moved = translate_planes(code, a)
        want_h = [h + float(w @ a) for w, h in zip(code.normals(), code.offsets())]
        assert np.abs(moved.offsets() - want_h).max() <= 1e-14 * max(1.0, np.abs(a).max())
        assert np.array_equal(moved.normals(), code.normals())


def test_a_shift_keeps_the_normals_a_new_set_computes():
    rng = np.random.default_rng(23)
    for hull in seeded_hulls(11, 4):
        code = encode_convex(hull)
        moved = translate_planes(code, rng.uniform(-3.0, 3.0, size=3))
        fresh = PlaneSet(moved.triplets())
        assert moved.normals().tobytes() == fresh.normals().tobytes()
        assert moved.triplets().tobytes() == fresh.triplets().tobytes()
    # a non-finite offset raises the text a new set raises for the moved rows
    code = encode_convex(seeded_hulls(11, 1)[0])
    for a in ((float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0)):
        rows = code.triplets().copy()
        with np.errstate(invalid="ignore"):
            rows[:, 2] += code.normals() @ np.array(a)
            with pytest.raises(ValueError) as want:
                PlaneSet(rows)
            with pytest.raises(ValueError) as got:
                translate_planes(code, a)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("h must be finite, got ")


def test_triangle_planes_match_the_per_triangle_loop():
    for hull in seeded_hulls(9, 3):
        p1, p2, p3 = hull.triangle_corners()
        normals, offsets = triangle_planes(p1, p2, p3)
        for t in range(len(p1)):
            c = np.cross(p2[t] - p1[t], p3[t] - p2[t])
            n = c / np.sqrt(c @ c)
            assert np.abs(normals[t] - n).max() <= 1e-15
            assert abs(offsets[t] - n @ p1[t]) <= 1e-14


def test_weld_clusters_near_duplicates_in_first_appearance_order():
    base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    points = np.concatenate([base, base[::-1] + 1e-9, base + 1.0])
    labels, firsts = weld(points, 1e-6)
    assert labels.tolist() == [0, 1, 2, 2, 1, 0, 3, 4, 5]
    assert firsts.tolist() == [0, 1, 2, 6, 7, 8]
