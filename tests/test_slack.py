"""One encode slack per mesh: ``TriangleMesh.slack``.

Every encode-side point-to-plane test takes its default slack from the
mesh, so omitting ``eps`` must give what passing ``mesh.slack()`` gives,
and repeated default-slack calls on one mesh measure it once.
"""

import numpy as np
import pytest

from planecode import (
    TriangleMesh,
    boundary_planes_for_part,
    encode_convex,
    encode_segmented,
    mutual_orientation,
    polygonize_part,
    segment_mesh,
    shapes,
)
from planecode.convex import coplanar_patches, face_table
from planecode.errors import GeometryError
from planecode.mesh import SLACK_REL, EdgeTable
from planecode.mesh_io import count_coplanar_patches

from conftest import seeded_hulls
from test_segment_oracle import grid_cut, via_float32_stl


def slack_meshes():
    out = {
        name: getattr(shapes, name)()
        for name in ("cube", "tetrahedron", "open_box", "l_prism", "notched_box", "two_notch_box")
    }
    for name in ("notched_box", "two_notch_box"):
        for g in (2, 3):
            out["%s_g%d" % (name, g)] = grid_cut(getattr(shapes, name)(), g)
    for k, hull in enumerate(seeded_hulls(19, 4)):
        out["hull%d_f32" % k] = via_float32_stl(hull)
    # vertices moved by up to a tenth of the slack: here every function
    # answers differently at a hundredth of the slack than at the slack.
    # The l_prism rims stay put, so its rim loops stay planar and their
    # cuts, which pass through a face, test the face's moved vertices.
    rng = np.random.default_rng(7)
    for name, g in (("cube", 2), ("notched_box", 1), ("l_prism", 3)):
        m = grid_cut(getattr(shapes, name)(), g)
        jitter = rng.uniform(-0.1, 0.1, m.vertices.shape) * m.slack()
        if name == "l_prism":
            parts = segment_mesh(m)
            group = np.repeat(np.arange(len(parts)), [len(p.triangles) for p in parts])
            tris = m.triangles[np.concatenate([p.triangles for p in parts])]
            jitter[EdgeTable(tris, group).border()[0]] = 0.0
        out["%s_g%d_jittered" % (name, g)] = TriangleMesh(m.vertices + jitter, m.triangles)
    return out


MESHES = slack_meshes()


def outcome(call):
    """``call()``, or the class and text of the GeometryError it raises."""
    try:
        return call()
    except GeometryError as exc:
        return type(exc).__name__, str(exc)


def slack_results(mesh, eps):
    """What each default-slack function gives on ``mesh`` at ``eps``."""
    parts = outcome(lambda: segment_mesh(mesh, eps=eps))
    parts = [] if isinstance(parts, tuple) else parts
    pairs = zip(*mesh.edges.pairs())
    return {
        "encode_convex": outcome(lambda: encode_convex(mesh, eps=eps).triplets().tolist()),
        "segment_mesh": [(p.kind, p.triangles) for p in parts],
        "polygonize_part": [
            outcome(lambda: [
                (f.plane, f.boundary, f.triangles) for f in polygonize_part(mesh, p, eps=eps)
            ])
            for p in parts
        ],
        "boundary_planes_for_part": [
            outcome(lambda: boundary_planes_for_part(mesh, p, eps=eps).triplets().tolist())
            for p in parts
        ],
        "mutual_orientation": [
            mutual_orientation(mesh, int(i), int(j), eps=eps) for i, j in pairs
        ],
    }


@pytest.mark.parametrize("name", sorted(MESHES))
def test_omitted_eps_is_the_mesh_slack(name):
    m = MESHES[name]
    implicit = TriangleMesh(m.vertices, m.triangles)
    explicit = TriangleMesh(m.vertices, m.triangles)
    slack = explicit.slack()
    assert slack == SLACK_REL * explicit.bbox_diagonal() > 0.0
    assert explicit.slack(0.0) == 0.0 and explicit.slack(2.5e-3) == 2.5e-3
    assert slack_results(implicit, None) == slack_results(explicit, slack)
    normals, offsets = explicit.planes
    assert count_coplanar_patches(implicit) == len(
        coplanar_patches(explicit, normals, offsets, slack)
    )


def test_default_slack_measures_the_mesh_once(monkeypatch):
    mesh = grid_cut(shapes.two_notch_box(), 8)
    calls = []
    norm = np.linalg.norm

    def counted_norm(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    i, j = mesh.edges.pairs()
    for a, b in zip(i[:100].tolist(), j[:100].tolist()):
        mutual_orientation(mesh, a, b)
    segment_mesh(mesh)
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
def test_a_nan_infinite_or_negative_slack_is_refused(eps):
    mesh = shapes.l_prism()
    part = segment_mesh(mesh)[0]
    calls = [
        lambda: mesh.slack(eps),
        lambda: encode_convex(mesh, eps=eps),
        lambda: segment_mesh(mesh, eps=eps),
        lambda: polygonize_part(mesh, part, eps=eps),
        lambda: boundary_planes_for_part(mesh, part, eps=eps),
        lambda: mutual_orientation(mesh, 0, 1, eps=eps),
        lambda: encode_segmented(mesh, eps=eps),
        lambda: face_table(mesh, eps),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^eps must be finite and >= 0, got "):
            call()
    # no face table was cached under the refused key
    assert all(0 <= key < np.inf for key in mesh.face_tables)
