"""_free_arc against the arc sweep it replaced.

``sweep_free_arcs`` below is the earlier ``_free_arcs`` kept verbatim
as the oracle, and ``sweep_choice`` the widest-arc choice
``_pencil_plane`` made from its list.  The free normals of a pencil are
an intersection of half-circles, so the sweep never finds more than one
arc; ``_free_arc`` reads that arc off the widest gap between sorted
centres.  Both must give the same ``(start, width)`` bit for bit, or
None together, on random centre sets, on sets crowded into a
half-circle, on quarter turns and their neighbouring ulps, and on
near-antipodal pairs a few ulps apart.  The last tests run every
boundary cut of the grid-cut fixtures with the earlier pencil routine
swapped in and compare the planes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import planecode.polygonize
from planecode import segment_mesh
from planecode.errors import BoundaryNotCuttable, GeometryError
from planecode.geometry import TWO_PI
from planecode.polygonize import _free_arc, boundary_planes_for_part

from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl


def sweep_free_arcs(centers):
    """Arcs of the circle not covered by any (c - pi/2, c + pi/2)."""
    if len(centers) == 0:
        return [(0.0, TWO_PI)]
    spans = []
    for c in centers:
        s = (c - math.pi / 2.0) % TWO_PI
        e = (c + math.pi / 2.0) % TWO_PI
        if s <= e:
            spans.append((s, e))
        else:
            spans.append((s, TWO_PI))
            spans.append((0.0, e))
    spans.sort()
    merged = [list(spans[0])]
    for s, e in spans[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    arcs = []
    for k in range(len(merged)):
        end = merged[k][1]
        nxt = merged[(k + 1) % len(merged)][0]
        if k == len(merged) - 1:
            nxt += TWO_PI
        width = nxt - end
        if width > 1e-9:
            arcs.append((end % TWO_PI, width))
    return arcs


def sweep_choice(centers):
    arcs = sweep_free_arcs(centers)
    assert len(arcs) <= 1
    if not arcs:
        return None
    return min(arcs, key=lambda g: (-g[1], g[0]))


def sweep_pencil_plane(p0, p1, part_verts, diag):
    """The earlier ``_pencil_plane``, choosing from ``sweep_free_arcs``.

    It returns the unsnapped ``(normal, h)``, as ``_pencil_plane`` does:
    ``boundary_planes_for_part`` snaps every cut of a part at once.
    """
    d = p1 - p0
    d = d / np.linalg.norm(d)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(d)))] = 1.0
    u = axis - (axis @ d) * d
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    rel = part_verts - p0
    a = rel @ u
    b = rel @ v
    keep = np.hypot(a, b) > 1e-9 * max(1.0, diag)
    centers = np.arctan2(b[keep], a[keep])
    arcs = sweep_free_arcs(centers)
    if not arcs:
        raise BoundaryNotCuttable("no separating plane through boundary edge")
    start, width = min(arcs, key=lambda g: (-g[1], g[0]))
    theta = (start + width / 2.0) % TWO_PI
    normal = math.cos(theta) * u + math.sin(theta) * v
    return normal, float(normal @ p0)


def bits(arc):
    return None if arc is None else np.array(arc, dtype=float).tobytes()


def assert_same_arc(centers):
    centers = np.asarray(centers, dtype=float)
    want = sweep_choice(centers)
    got = _free_arc(centers)
    assert bits(got) == bits(want), (centers.tolist(), got, want)
    return got


def ulp_neighbours(x, k=3):
    """x and its k nearest floats on either side, kept within [-pi, pi]."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return [float(v) for v in out if -math.pi <= v <= math.pi]


def wrap(x):
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


QUARTER_TURNS = (-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi)
QUARTERS = sorted({x for q in QUARTER_TURNS for x in ulp_neighbours(q)}) + [-0.0]


def uniform_sets(rng, n):
    return rng.uniform(-math.pi, math.pi, n)


def crowded_sets(rng, n):
    width = rng.uniform(0.0, math.pi)
    return wrap(rng.uniform(-math.pi, math.pi) + rng.uniform(0.0, width, n))


def quarter_sets(rng, n):
    return rng.choice(QUARTERS, n)


def antipodal_sets(rng, n):
    c = float(rng.uniform(-math.pi, math.pi))
    return rng.choice([c] + ulp_neighbours(float(wrap(c + math.pi)), 4), n)


def arctan2_sets(rng, n):
    """Centres as the pencil makes them, with exact zeros and signed zeros."""
    xy = rng.standard_normal((n, 2))
    xy[:, 0] *= rng.choice([1.0, 0.0, 1e-17], n)
    xy[:, 1] *= rng.choice([1.0, 0.0, -0.0], n)
    return np.arctan2(xy[:, 1], xy[:, 0])


def quarter_crowd_sets(rng, n):
    """A quarter-turn centre, or an ulp off one, and a crowd less than pi after it."""
    base = float(rng.choice(QUARTERS))
    crowd = wrap(base + rng.uniform(0.0, rng.uniform(0.0, math.pi), n - 1))
    return np.concatenate([[base], crowd])


FAMILIES = [
    uniform_sets,
    crowded_sets,
    quarter_sets,
    antipodal_sets,
    arctan2_sets,
    quarter_crowd_sets,
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
def test_adversarial_families_match_the_sweep(family):
    rng = np.random.default_rng(FAMILIES.index(family))
    found = 0
    for _ in range(4000):
        found += assert_same_arc(family(rng, int(rng.integers(1, 12)))) is not None
    assert found  # every family reaches the arc branch


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-math.pi, math.pi, allow_nan=False),
            st.sampled_from(QUARTERS),
        ),
        max_size=12,
    )
)
def test_any_centre_set_matches_the_sweep(centers):
    assert_same_arc(centers)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-math.pi, math.pi, allow_nan=False),
    st.lists(st.floats(0.0, math.pi, allow_nan=False), min_size=1, max_size=12),
)
def test_centres_within_a_half_circle_match_the_sweep(base, offsets):
    assert_same_arc(wrap(base + np.asarray(offsets)))


def test_the_quarter_below_minus_half_pi_starts_its_arc_at_zero():
    """(c + pi/2) % 2pi rounds to 2pi itself here; the arc starts at 0.0."""
    c = float(np.nextafter(-math.pi / 2, -np.inf))
    start, width = assert_same_arc([c])
    assert start == 0.0 and width > 0.0


def test_no_centres_leave_the_whole_circle():
    assert assert_same_arc([]) == (0.0, TWO_PI)


def test_antipodal_centres_leave_no_arc():
    assert assert_same_arc([0.0, math.pi]) is None
    assert assert_same_arc([-math.pi / 2, math.pi / 2]) is None


@pytest.mark.parametrize("f32", [False, True])
@pytest.mark.parametrize("g", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
def test_grid_cut_boundary_planes_match_the_sweep(monkeypatch, name, g, f32):
    mesh = grid_cut(GRID_FIXTURES[name](), g)
    if f32:
        mesh = via_float32_stl(mesh)

    def outcomes():
        out = []
        for part in segment_mesh(mesh):
            try:
                out.append(boundary_planes_for_part(mesh, part).triplets().tobytes())
            except GeometryError as exc:
                out.append(repr(exc))
        return out

    got = outcomes()
    monkeypatch.setattr(planecode.polygonize, "_pencil_plane", sweep_pencil_plane)
    assert got == outcomes()
