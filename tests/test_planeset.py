"""Array paths against their scalar references: PlaneSet views, rigid
motions, per-triangle planes and the grid weld."""

import math

import numpy as np
import pytest

from planecode import (
    PlaneSet,
    encode_convex,
    rotate_planes,
    translate_planes,
)
from planecode.convex import weld
from planecode.geometry import SNAP_AXIS, TWO_PI, triangle_planes

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
            PlaneSet.from_triplets([(1.0, 1.0, 1.0), row])


def test_arrays_match_the_scalar_views_bit_for_bit():
    for hull in seeded_hulls(5, 4):
        code = encode_convex(hull)
        assert np.array_equal(code.normals(), [p.normal for p in code])
        assert list(code.offsets()) == [p.h for p in code]
        flipped = [p.negated() for p in code]
        assert list(code.negated()) == flipped
        assert list(PlaneSet(flipped).triplets().ravel()) == list(
            code.negated().triplets().ravel()
        )


def test_mask_indexing_keeps_order():
    code = encode_convex(seeded_hulls(6, 1)[0])
    keep = np.arange(len(code)) % 3 != 0
    sub = code[keep]
    assert isinstance(sub, PlaneSet)
    assert list(sub) == [p for p, k in zip(code, keep) if k]


def _rotated_normals_loop(code, r):
    """Reference: one plane at a time, snapped and renormalized."""
    out = []
    for p in code:
        w = r @ p.normal
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
        assert list(rotated.offsets()) == [p.h for p in code]
        moved = translate_planes(code, a)
        want_h = [p.h + float(p.normal @ a) for p in code]
        assert np.abs(moved.offsets() - want_h).max() <= 1e-14 * max(1.0, np.abs(a).max())
        assert np.array_equal(moved.normals(), code.normals())


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
    labels, firsts = weld(points, 1e-6, 1e-6)
    assert labels.tolist() == [0, 1, 2, 2, 1, 0, 3, 4, 5]
    assert firsts.tolist() == [0, 1, 2, 6, 7, 8]
