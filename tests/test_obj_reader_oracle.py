"""The one-pass OBJ reader against the line parser it sits in front of.

``mesh_io._parse_obj`` first reads a plain text (``v x y z`` and
``f a b c`` lines, comments, blank lines) in one pass and hands any
other text to the line parser.  The oracle is the line parser alone, as
``_parse_obj`` was before, kept verbatim: every text must give the same
vertex and triangle arrays bit for bit, or the same error class, text
and line number.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planecode import shapes
from planecode.errors import ParseError, UnsupportedFeature
from planecode.mesh import TriangleMesh
from planecode.mesh_io import _parse_obj, _parse_plain_obj, load_mesh, write_obj

from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl

_OBJ_UNSUPPORTED = {
    "curv", "curv2", "surf", "l", "p", "cstype", "deg", "step", "bmat",
    "con", "trim", "hole", "scrv", "sp", "end",
}


# -- the oracle: the line parser, verbatim ------------------------------------


def oracle_parse_obj(text):
    verts = []
    tris = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) < 4:
                raise ParseError("vertex needs 3 coordinates", line=lineno)
            verts.append(_coordinates(fields, lineno))
        elif tag == "f":
            if len(fields) < 4:
                raise ParseError("face needs at least 3 vertices", line=lineno)
            ring = [_obj_index(tok, len(verts), lineno) for tok in fields[1:]]
            for k in range(1, len(ring) - 1):
                tris.append((ring[0], ring[k], ring[k + 1]))
        elif tag in _OBJ_UNSUPPORTED:
            raise UnsupportedFeature(
                "line %d: OBJ element %r is not supported" % (lineno, tag)
            )
        # vt/vn/vp, groups, materials, smoothing: silently ignored
    if not verts:
        raise ParseError("no vertices found")
    return TriangleMesh(np.array(verts, dtype=float), np.array(tris, dtype=np.int64).reshape(-1, 3))


def _obj_index(token, n_verts, lineno):
    head = token.split("/", 1)[0]
    try:
        i = int(head)
    except ValueError:
        raise ParseError("bad face index %r" % (token,), line=lineno)
    if i < 0:
        i = n_verts + i
    elif i > 0:
        i = i - 1
    else:
        raise ParseError("face index 0 is not allowed", line=lineno)
    if not 0 <= i < n_verts:
        raise ParseError("face references undefined vertex %r" % (token,), line=lineno)
    return i


def _coordinates(fields, lineno):
    """The three finite floats after a vertex tag."""
    try:
        xyz = [float(x) for x in fields[1:4]]
    except ValueError:
        raise ParseError("bad vertex coordinate", line=lineno)
    if not all(map(math.isfinite, xyz)):
        raise ParseError("non-finite vertex coordinate", line=lineno)
    return xyz


# -- comparison ---------------------------------------------------------------


def read(parse, text):
    """The arrays ``parse`` reads, as dtype, shape and bytes, or its error."""
    try:
        mesh = parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return tuple(
        (a.dtype.str, a.shape, a.tobytes()) for a in (mesh.vertices, mesh.triangles)
    )


def assert_same_read(text):
    assert read(_parse_obj, text) == read(oracle_parse_obj, text), text


# -- generated texts ----------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: "%.6e" % x),
    st.integers(-50, 50).map(str),
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "Infinity", "1e308", "1e309", "-0", "+0.5",
        "1_000.5", "1__0", "_1", "1e-3", "2E+2", ".5", "5.", "0x1p3", "abc", "1,5",
    ]),
)
INDICES = st.one_of(
    st.integers(-12, 12).map(str),
    st.sampled_from([
        "0", "+2", "1_0", "99999999999999999999999", "1/2/3", "2//1", "-1/1",
        "3/", "x", "1.0", "\u0661",
    ]),
)
SPACE = st.sampled_from([" ", " ", " ", "\t", "  ", " \t"])


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(
        ["v"] * 8 + ["f"] * 6 + ["comment", "blank", "vt", "vn", "other", "unsupported"]
    ))
    sep = draw(SPACE)
    lead = draw(st.sampled_from(["", "", "", " ", "\t"]))
    trail = draw(st.sampled_from(["", "", "", " ", "\t", " # note"]))
    if kind == "v":
        n = draw(st.sampled_from([3, 3, 3, 3, 2, 4]))
        body = sep.join(["v", *draw(st.lists(NUMBERS, min_size=n, max_size=n))])
    elif kind == "f":
        n = draw(st.sampled_from([3, 3, 3, 3, 4, 5, 2]))
        body = sep.join(["f", *draw(st.lists(INDICES, min_size=n, max_size=n))])
    elif kind == "comment":
        body = "#" + draw(st.sampled_from(["", " a comment", "v 1 2 3", "#", " f 1 2 3"]))
    elif kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t "]))
    elif kind == "vt":
        body = "vt 0.5 0.25"
    elif kind == "vn":
        body = "vn 0 0 1"
    elif kind == "other":
        body = draw(st.sampled_from(["g group", "o thing", "usemtl red", "s 1", "mtllib a.mtl",
                                     "V 1 2 3", "vp 1", "F 1 2 3", "v1 2 3 4"]))
    else:
        body = draw(st.sampled_from(sorted(_OBJ_UNSUPPORTED))) + " 1 2"
    return lead + body + trail


@st.composite
def obj_texts(draw):
    body = draw(st.lists(lines(), max_size=25))
    ends = draw(st.sampled_from(["\n", "\n", "\r\n", "mixed", "odd"]))
    if ends == "mixed":
        breaks = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(body),
                               max_size=len(body)))
    elif ends == "odd":
        breaks = draw(st.lists(
            st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                             "\x85", "\u2028", "\u2029"]),
            min_size=len(body), max_size=len(body),
        ))
    else:
        breaks = [ends] * len(body)
    text = "".join(line + end for line, end in zip(body, breaks))
    if draw(st.booleans()) and text:
        text = text[: -len(breaks[-1])]  # no break after the last line
    return text


@st.composite
def plain_texts(draw):
    """Texts the one-pass reader takes: vertices first, then in-range faces."""
    nv = draw(st.integers(1, 12))
    sep = draw(SPACE)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    coords = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        min_size=3 * nv, max_size=3 * nv,
    ))
    out = ["# written by a test"]
    out += [sep.join(["v", *coords[3 * k: 3 * k + 3]]) for k in range(nv)]
    faces = draw(st.lists(st.lists(st.integers(1, nv), min_size=3, max_size=3), max_size=12))
    out += [sep.join(["f", *map(str, ring)]) for ring in faces]
    for _ in range(draw(st.integers(0, 3))):
        out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(["", "# c", "  "])))
    return end.join(out) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(obj_texts())
def test_any_text_reads_as_the_line_parser_reads_it(text):
    assert_same_read(text)


@settings(max_examples=150, deadline=None)
@given(plain_texts())
def test_plain_texts_take_the_one_pass_reader(text):
    assert _parse_plain_obj(text) is not None
    assert_same_read(text)


# -- written files and hand-picked texts --------------------------------------


def written_meshes():
    out = [getattr(shapes, name)() for name in
           ("cube", "tetrahedron", "open_box", "l_prism", "notched_box", "two_notch_box")]
    for make in GRID_FIXTURES.values():
        for g in (2, 4):
            out += [grid_cut(make(), g), via_float32_stl(grid_cut(make(), g))]
    return out


@pytest.mark.parametrize("comment", [None, "a header"])
def test_written_files_take_the_one_pass_reader(comment):
    for mesh in written_meshes():
        text = write_obj(mesh, comment=comment)
        assert _parse_plain_obj(text) is not None
        assert_same_read(text)
        back = load_mesh(text.encode(), "obj")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "# only a comment\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 4\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3 4\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n",
    "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 0 0 1\nf 1 2 4\n",
    "v 0 0 nan\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v 0 0 inf\n",
    "v 1_0 2e1 -3E-1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v 0 0\n",
    "v 0 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 3\r\n",
    "v 0 0 0\rv 1 0 0\rv 0 1 0\rf 1 2 3\r",
    "v 0 0 0\x0bv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "# c\x85v 1 0 0\nv 0 0 0\nv 0 1 0\nf 1 2 3\n",
    "\tv\t0\t0\t0 \nv 1 0 0\t\nv 0 1 0\nf 1 2 3 \n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nl 1 2\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\ng x\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 # c\n",
    "v 0 0 0 # c\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v\xa00 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
])
def test_hand_picked_texts_read_as_the_line_parser_reads_them(text):
    assert_same_read(text)


@pytest.mark.parametrize(
    "brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_every_line_break_of_splitlines_ends_a_comment(brk):
    # the line parser reads a vertex after the break; a reader that took
    # the rest of the line for comment would lose it
    text = "# c" + brk + "v 9 9 9\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    assert len(oracle_parse_obj(text).vertices) == 4
    assert_same_read(text)


def test_texts_the_line_parser_must_read_are_left_to_it():
    quad = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    negative = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
    late_vertex = "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n"
    for text in (quad, negative, late_vertex, "v 0 0 nan\n", "v 0 0 0\rf 1 1 1\r"):
        assert _parse_plain_obj(text) is None
