"""The least-squares interior point against the Chebyshev centre, bit for bit.

``decode_convex`` used to find its interior point as the Chebyshev
centre, read off a 4-D hull of the lifted planes (``_chebyshev_centre``).
It now first tries the least-squares centre (``_least_squares_centres``),
one 4x4 solve, and falls back to the Chebyshev centre when that point is
refused or Qhull's intersection from it fails.  A vertex with no usable
plane triple still takes Qhull's point from the Chebyshev centre's
intersection: its whole region is decoded again from there.  So the
outputs must not move: every code is decoded as the library does and
again with the least-squares centre always refused, and both must
give the same vertex bytes, faces, face planes and redundant planes, or
the same error and text.  The codes are float32-stored hulls of 16 to
2500 points, prisms, chamfered cubes, repeated planes, the part codes
of the segmented fixtures, the near-singular roof, refused slabs and
random hulls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planecode import PlaneSet, decode_convex, encode_convex, shapes
from planecode import convex
from planecode.errors import EmptyRegion

from conftest import quaternion_rotation
from test_decode_fastpath_oracle import outcome, stored
from test_segment_oracle import sphere_hull
from test_surround_screen_oracle import part_codes


def chebyshev_outcome(code):
    """The decode with the least-squares centre refused: the Chebyshev path alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            convex, "_least_squares_centres", lambda w, h, feas, bounds: [None] * len(feas)
        )
        return outcome(decode_convex, code)


def accepted(code):
    """Whether the least-squares centre serves ``code``'s decode."""
    taken = []
    centres = convex._least_squares_centres

    def spy(*args):
        x = centres(*args)
        taken.extend(c is not None for c in x)
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convex, "_least_squares_centres", spy)
        got = outcome(decode_convex, code)
    assert got == chebyshev_outcome(code)
    return taken == [True]


def roof():
    """A chamfered cube whose +x face is a roof of two planes 2e-9 rad apart."""
    cube = shapes.chamfered_cube_code(0.2)
    keep = cube.normals()[:, 0] != 1.0
    c, s = np.cos(1e-9), np.sin(1e-9)
    return PlaneSet.from_normals(
        np.vstack([cube.normals()[keep], [[c, s, 0.0], [c, -s, 0.0]]]),
        np.concatenate([cube.offsets()[keep], [c + 0.5 * s, c - 0.5 * s]]),
    )


def slab(thickness):
    """The unit cube's planes with the top face moved to z = ``thickness``."""
    cube = encode_convex(shapes.cube())
    h = cube.offsets().copy()
    h[cube.normals()[:, 2] == 1.0] = thickness
    return PlaneSet.from_normals(cube.normals(), h)


def test_float32_sphere_hulls_match_bit_for_bit():
    rng = np.random.default_rng(53)
    taken = []
    for n_points in (16, 32, 64, 128, 256, 512, 1000, 2500):
        for k in range(3 if n_points <= 512 else 1):
            code = encode_convex(sphere_hull(int(rng.integers(2**31)), n_points))
            if k:
                code = convex.rotate_planes(code, quaternion_rotation(rng))
                code = convex.translate_planes(code, rng.uniform(-2.0, 2.0, size=3))
            taken.append(accepted(stored(code)))
    assert all(taken)


def test_prisms_and_chamfered_cubes_match_bit_for_bit():
    taken = [accepted(shapes.ngon_prism_code(n)) for n in range(3, 60)]
    for t in np.linspace(0.01, 0.45, 20):
        code = shapes.chamfered_cube_code(float(t))
        taken += [accepted(code), accepted(stored(code))]
    assert all(taken)


def test_repeated_planes_match_bit_for_bit():
    cube = shapes.chamfered_cube_code(0.2)
    prism = shapes.ngon_prism_code(9)
    codes = [
        PlaneSet.concatenate([cube, cube[:1]]),
        PlaneSet.concatenate([cube, cube[::-1], cube[2:5]]),
        PlaneSet.concatenate([prism, prism[::-1]]),
    ]
    assert all(accepted(code) for code in codes)


def test_segmented_part_codes_match_bit_for_bit():
    # about two parts in three take the least-squares centre: both paths run
    taken = [accepted(code) for code in part_codes()]
    assert len(taken) >= 40 and 0.4 * len(taken) < sum(taken) < len(taken)


def test_the_near_singular_roof_matches_bit_for_bit():
    # its ridge vertices have no usable triple, so their points come
    # from the Chebyshev centre's intersection
    code = roof()
    assert accepted(code)
    assert accepted(stored(code))


def test_other_facets_take_the_chebyshev_output_whole():
    # the roof's ridge vertices have no usable triple, so its region is
    # decoded again, whole, from the Chebyshev centre
    code = roof()
    assert outcome(decode_convex, code) == chebyshev_outcome(code)


def test_refused_slabs_match_bit_for_bit():
    for thickness in (1e-2, 1e-4, 1e-8, 1e-10, 0.0, -1e-12):
        assert not accepted(slab(thickness))
    assert chebyshev_outcome(slab(0.0))[0] is EmptyRegion


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(5, 200),
    is_stored=st.booleans(),
)
def test_random_hulls_match_bit_for_bit(seed, n_points, is_stored):
    rng = np.random.default_rng(seed)
    hull = shapes.random_hull_mesh(rng, n_points).rotated(quaternion_rotation(rng))
    code = encode_convex(hull)
    accepted(stored(code) if is_stored else code)
