"""One simplify path: a convex code is simplified as a part with no cuts.

Both code kinds run the same two passes under the same rule: a pass
that would leave fewer than 4 planes in all, or no face plane, raises
OverSimplified.  A segmented simplify therefore never writes a part
too small to bound a solid, and a part's message names the part.
"""

import math

import pytest

from planecode import (
    OverSimplified,
    PartCode,
    PartKind,
    PlaneSet,
    SegmentedCode,
    SimplifyParams,
    encode_convex,
    encode_segmented,
    read_code,
    shapes,
    simplify_code,
    write_code,
)
from planecode.cli import main

from conftest import seeded_hulls
from test_simplify import HULL_P6
from test_simplify_oracle import DELTAS, TAUS


def as_one_part(code):
    return SegmentedCode([PartCode(PartKind.PSEUDO_CONVEX, code, PlaneSet())])


def convex_outcome(code, params):
    try:
        return write_code(simplify_code(code, params))
    except OverSimplified:
        return OverSimplified


def one_part_outcome(code, params):
    try:
        (part,) = simplify_code(as_one_part(code), params).parts
    except OverSimplified:
        return OverSimplified
    assert len(part.boundary_planes) == 0
    return write_code(part.face_planes)


def test_a_convex_code_simplifies_like_one_part_with_no_cuts():
    codes = [shapes.ngon_prism_code(n) for n in range(3, 29)]
    codes += [
        shapes.chamfered_cube_code(t) for t in (0.02, 0.03, 0.1, 0.3, 0.4, 1.0, 1.5)
    ]
    codes.append(read_code(HULL_P6))
    codes += [
        read_code(write_code(encode_convex(mesh)))
        for mesh in seeded_hulls(5, 8, lo=6, hi=40)
    ]
    merged = refused = 0
    for code in codes:
        for delta in DELTAS:
            for tau in TAUS:
                params = SimplifyParams(delta=delta, tau=tau)
                got = convex_outcome(code, params)
                assert one_part_outcome(code, params) == got, (code, delta, tau)
                merged += isinstance(got, bytes) and got != write_code(code)
                refused += got is OverSimplified
    assert merged and refused


@pytest.mark.parametrize(
    "make,delta,tau,message",
    [
        # part 1 of the two-notch box merges to one face plane and one cut
        (shapes.two_notch_box, 0.0, 85.0, "part 1: only 2 plane(s) would remain"),
        (shapes.l_prism, 1.6, 0.0, "part 0: only 2 plane(s) would remain"),
        (shapes.notched_box, 1e9, 0.0, "part 0: no face plane would remain"),
        (
            shapes.l_prism,
            1.1,
            0.0,
            "part 0: remaining planes do not bound a solid: part 0 undecodable: ",
        ),
    ],
)
def test_part_messages_name_the_part(make, delta, tau, message):
    code = encode_segmented(make())
    with pytest.raises(OverSimplified) as info:
        simplify_code(code, SimplifyParams(delta=delta, tau=math.radians(tau)))
    assert str(info.value).startswith(message)


def test_cli_simplify_refuses_a_part_merged_to_two_planes(capsys, tmp_path):
    src, dst = tmp_path / "two_notch.plnc", tmp_path / "out.plnc"
    src.write_bytes(write_code(encode_segmented(shapes.two_notch_box())))
    assert main(["simplify", str(src), str(dst), "--tau", "85"]) == 3
    assert "OverSimplified" in capsys.readouterr().err
    assert not dst.exists()
