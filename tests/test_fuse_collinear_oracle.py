"""_fuse_collinear against the corner-by-corner loop it replaced.

``loop_fuse_collinear`` below is the earlier implementation, kept
verbatim as the oracle.  The batched version in ``planecode.polygonize``
must keep the same corners, in the same order, on every boundary loop
of the grid-cut fixtures (float64 and read back through float32 STL),
on loops with long collinear runs, and raise the same error on a loop
that collapses to a line.
"""

import numpy as np
import pytest

from planecode import segment_mesh
from planecode.errors import BoundaryNotCuttable
from planecode.polygonize import EPS_LINE_REL, _chain_loops, _fuse_collinear

from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl


def loop_fuse_collinear(points):
    m = len(points)
    keep = []
    for i in range(m):
        d1 = points[i] - points[i - 1]
        d2 = points[(i + 1) % m] - points[i]
        lim = EPS_LINE_REL * np.linalg.norm(d1) * np.linalg.norm(d2)
        if np.linalg.norm(np.cross(d1, d2)) > lim:
            keep.append(i)
    if len(keep) < 3:
        raise BoundaryNotCuttable("boundary loop collapses to a line")
    return points[keep]


def assert_same_corners(points):
    want = loop_fuse_collinear(points)
    got = _fuse_collinear(points)
    assert got.tobytes() == want.tobytes()
    return got


def part_loops(mesh):
    """Corner arrays of every boundary loop of every part of the mesh."""
    for part in segment_mesh(mesh):
        a, b, _ = mesh.edges.border(part.triangles)
        for loop in _chain_loops(zip(a.tolist(), b.tolist())):
            yield mesh.vertices[np.asarray(loop)]


@pytest.mark.parametrize("f32", [False, True])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
def test_grid_cut_part_loops_keep_the_same_corners(name, g, f32):
    mesh = grid_cut(GRID_FIXTURES[name](), g)
    if f32:
        mesh = via_float32_stl(mesh)
    loops = list(part_loops(mesh))
    assert loops
    for points in loops:
        assert_same_corners(points)


def square_loop(per_side, jitter=0.0, seed=0):
    """A unit square's boundary with ``per_side`` points on each side."""
    t = np.arange(per_side) / per_side
    sides = [
        np.column_stack([t, 0 * t]),
        np.column_stack([1 + 0 * t, t]),
        np.column_stack([1 - t, 1 + 0 * t]),
        np.column_stack([0 * t, 1 - t]),
    ]
    xy = np.concatenate(sides)
    xy = xy + jitter * np.random.default_rng(seed).standard_normal(xy.shape)
    return np.column_stack([xy, 0.3 * xy[:, 0] - 0.2 * xy[:, 1] + 1.0])


@pytest.mark.parametrize("per_side", [1, 2, 7, 50])
def test_long_collinear_runs_keep_only_the_square_corners(per_side):
    points = square_loop(per_side)
    got = assert_same_corners(points)
    assert len(got) == 4
    assert got.tobytes() == points[::per_side].tobytes()


@pytest.mark.parametrize("jitter", [1e-16, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6])
@pytest.mark.parametrize("seed", range(5))
def test_jittered_runs_match_the_loop(jitter, seed):
    # jitter near EPS_LINE_REL keeps some run points and drops others
    assert_same_corners(square_loop(20, jitter, seed))


def test_every_corner_kept_on_a_convex_ring():
    theta = np.linspace(0.0, 2.0 * np.pi, 33)[:-1]
    points = np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    assert len(assert_same_corners(points)) == 32


@pytest.mark.parametrize(
    "points",
    [
        np.outer(np.arange(6.0), [1.0, 2.0, -0.5]),  # there and back along one line
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        # a sliver thinner than EPS_LINE_REL times its length
        np.array([[0.0, 0.0, 0.0], [1.0, 1e-12, 0.0], [2.0, 0.0, 0.0], [1.0, -1e-12, 0.0]]),
        # a sliver whose two short-sided corners stay: still too few
        np.array([[0.4, -7.5e-10, 0.0], [1.5, -3e-10, 0.0], [2.85, 1.3e-9, 0.0], [2.845, -3.6e-10, 0.0]]),
    ],
)
def test_a_loop_on_a_line_raises_the_same_error(points):
    with pytest.raises(BoundaryNotCuttable) as want:
        loop_fuse_collinear(points)
    with pytest.raises(BoundaryNotCuttable) as got:
        _fuse_collinear(points)
    assert str(got.value) == str(want.value)
