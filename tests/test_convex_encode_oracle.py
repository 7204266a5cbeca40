"""encode_convex against the full-table convexity test it replaced.

``full_table_encode_convex`` below is the earlier implementation, kept
verbatim as the oracle: it builds the whole triangles x vertices table
of signed distances before looking for a violation.  The blocked test
in ``planecode.convex`` must report the same first (triangle, vertex)
witness in row-major order, with the same message, and encode convex
meshes to the same planes bit for bit.
"""

import numpy as np
import pytest

from planecode import TriangleMesh, encode_convex, shapes
from planecode.convex import (
    CONVEX_ROWS,
    coplanar_patches,
    patch_planes,
)
from planecode.mesh import SLACK_REL as EPS_CONVEX_REL
from planecode.errors import NotClosed, NotConvex
from planecode.geometry import triangle_planes

from conftest import seeded_hulls
from test_segment_oracle import ROTATIONS, grid_cut, sphere_hull


def full_table_encode_convex(mesh, eps=None):
    if not mesh.is_closed:
        raise NotClosed("mesh has boundary or over-shared edges")
    diag = mesh.bbox_diagonal()
    if eps is None:
        eps = EPS_CONVEX_REL * diag

    normals, offsets = triangle_planes(*mesh.triangle_corners())
    dist = normals @ mesh.vertices.T - offsets[:, None]
    bad = np.argwhere(dist > eps)
    if len(bad):
        t, v = (int(x) for x in bad[0])
        raise NotConvex(
            "vertex %d lies %.3g outside the plane of triangle %d"
            % (v, float(dist[t, v]), t),
            vertex_index=v,
            triangle_index=t,
        )
    patches = coplanar_patches(mesh, normals, offsets, eps)
    return patch_planes(mesh, patches, max(1.0, diag)).sorted_canonical()


def assert_same_witness(mesh):
    with pytest.raises(NotConvex) as want:
        full_table_encode_convex(mesh)
    with pytest.raises(NotConvex) as got:
        encode_convex(mesh)
    assert str(got.value) == str(want.value)
    assert got.value.triangle_index == want.value.triangle_index
    assert got.value.vertex_index == want.value.vertex_index
    return got.value.triangle_index


def bad_rows(mesh):
    """Triangles some vertex lies outside of, by the oracle's full table."""
    normals, offsets = triangle_planes(*mesh.triangle_corners())
    dist = normals @ mesh.vertices.T - offsets[:, None]
    return (dist > EPS_CONVEX_REL * mesh.bbox_diagonal()).any(axis=1)


def bad_rows_from(mesh, row):
    """The same surface with its triangles reordered so the first bad one is at ``row``."""
    bad = bad_rows(mesh)
    good = np.flatnonzero(~bad)
    order = np.concatenate([good[:row], np.flatnonzero(bad), good[row:]])
    return TriangleMesh(mesh.vertices, mesh.triangles[order])


def dented_hull(seed):
    """A sphere hull of more than CONVEX_ROWS triangles with one vertex pushed in."""
    mesh = sphere_hull(seed, 50)
    v = mesh.vertices.copy()
    v[0] *= 0.5
    return TriangleMesh(v, mesh.triangles)


@pytest.mark.parametrize("rot", [0, 5, 17])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_grid_cut_two_notch_box_reports_the_first_witness(g, rot):
    mesh = grid_cut(shapes.two_notch_box(), g)
    mesh = TriangleMesh(mesh.vertices @ ROTATIONS[rot].T, mesh.triangles)
    # the first bad triangle lies past the first block of rows
    assert assert_same_witness(mesh) > CONVEX_ROWS


@pytest.mark.parametrize("row", [0, 1, CONVEX_ROWS - 1, CONVEX_ROWS, CONVEX_ROWS + 1, 200])
def test_first_witness_at_block_edges(row):
    mesh = bad_rows_from(grid_cut(shapes.two_notch_box(), 4), row)
    assert assert_same_witness(mesh) == row


@pytest.mark.parametrize("seed", range(4))
def test_first_witness_in_the_last_block(seed):
    mesh = dented_hull(seed)
    nt = len(mesh.triangles)
    nbad = int(bad_rows(mesh).sum())
    assert nt > CONVEX_ROWS and 0 < nbad < CONVEX_ROWS
    # every bad triangle last: the witness sits in the final block of rows
    row = nt - nbad
    assert assert_same_witness(bad_rows_from(mesh, row)) == row


@pytest.mark.parametrize("n", [40, 80, 150])
@pytest.mark.parametrize("seed", range(2))
def test_convex_hulls_encode_to_the_same_planes(seed, n):
    hull = sphere_hull(seed, n)
    assert len(hull.triangles) > CONVEX_ROWS
    got = encode_convex(hull).triplets()
    want = full_table_encode_convex(hull).triplets()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_seeded_hulls_encode_to_the_same_planes(seed):
    for hull in seeded_hulls(300 + seed, 4, lo=300, hi=1000):
        got = encode_convex(hull).triplets()
        want = full_table_encode_convex(hull).triplets()
        assert got.tobytes() == want.tobytes()
