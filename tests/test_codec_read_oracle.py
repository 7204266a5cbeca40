"""read_code against its part-by-part form, error for error.

``read_code`` reads every record of a segmented code into one PlaneSet,
with one range check and one sin/cos pass, and slices each part's face
and boundary sets out of it.  The earlier reader, which walked the file
part by part and built two sets per part, is kept below verbatim as the
oracle, with the convex reader and the header checks.  Both must give
the same plane set or the same parts (kinds, float64 rows and normals,
compared as bytes) or the same error class and text, whichever error a
walk in file order meets first: a bad record in part 0 wins over a cut
header in part 1, and any bad record wins over trailing bytes.
"""

import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from planecode import (
    AngleOutOfRange,
    BadMagic,
    CodeFormatError,
    GeometryError,
    PartCode,
    PartKind,
    PlaneSet,
    SegmentedCode,
    TruncatedPayload,
    UnsupportedVersion,
    encode_segmented,
    read_code,
    shapes,
    write_code,
)
from planecode.codec import (
    _KIND_CONVEX,
    _KIND_SEGMENTED,
    _PART_KIND_OF_BYTE,
    MAGIC,
    VERSION,
    _out_of_range,
)

from test_segment_oracle import GRID_FIXTURES, grid_cut

SEGMENTED_HEADER = b"PLNC" + bytes((1, 1))


def oracle_parse_planes(data, offset, count, label):
    raw = (
        np.frombuffer(data, dtype="<f4", count=3 * count, offset=offset)
        .astype(np.float64)
        .reshape(count, 3)
    )
    try:
        return PlaneSet(raw)
    except ValueError as exc:
        raise _out_of_range(label, raw, exc.row)


def oracle_read_code(data):
    data = bytes(data)
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic("expected 'PLNC' magic")
    if len(data) < 6:
        raise TruncatedPayload("header cut short")
    version, kind = data[4], data[5]
    if version != VERSION:
        raise UnsupportedVersion("format version %d not supported" % version)
    if kind == _KIND_CONVEX:
        return oracle_read_convex(data)
    if kind == _KIND_SEGMENTED:
        return oracle_read_segmented(data)
    raise UnsupportedVersion("unknown code kind byte %d" % kind)


def oracle_read_convex(data):
    if len(data) < 10:
        raise TruncatedPayload("missing plane count")
    (count,) = struct.unpack_from("<I", data, 6)
    expected = 10 + 12 * count
    if len(data) < expected:
        raise TruncatedPayload(
            "%d plane(s) declared but payload holds %d byte(s)"
            % (count, len(data) - 10)
        )
    if len(data) > expected:
        raise TruncatedPayload("%d trailing byte(s)" % (len(data) - expected))
    return oracle_parse_planes(data, 10, count, "plane")


def oracle_read_segmented(data):
    if len(data) < 10:
        raise TruncatedPayload("missing part count")
    (n_parts,) = struct.unpack_from("<I", data, 6)
    # every part needs at least its 9-byte sub-header; rejecting here
    # keeps declared-count attacks from turning into long loops
    if len(data) - 10 < 9 * n_parts:
        raise TruncatedPayload(
            "%d part(s) declared but only %d byte(s) follow"
            % (n_parts, len(data) - 10)
        )
    off = 10
    parts = []
    for i in range(n_parts):
        if off + 9 > len(data):
            raise TruncatedPayload("part %d header cut short" % i)
        kind_byte, n_face, n_boundary = struct.unpack_from("<BII", data, off)
        part_kind = _PART_KIND_OF_BYTE.get(kind_byte)
        if part_kind is None:
            raise UnsupportedVersion(
                "part %d has unknown kind byte %d" % (i, kind_byte)
            )
        off += 9
        need = 12 * (int(n_face) + int(n_boundary))
        if off + need > len(data):
            raise TruncatedPayload(
                "part %d declares %d plane(s) but payload ends early"
                % (i, int(n_face) + int(n_boundary))
            )
        face = oracle_parse_planes(data, off, int(n_face), "part %d face" % i)
        off += 12 * int(n_face)
        boundary = oracle_parse_planes(
            data, off, int(n_boundary), "part %d boundary" % i
        )
        off += 12 * int(n_boundary)
        parts.append(PartCode(part_kind, face, boundary))
    if off != len(data):
        raise TruncatedPayload("%d trailing byte(s)" % (len(data) - off))
    return SegmentedCode(parts)


def outcome(read, data):
    try:
        code = read(data)
    except CodeFormatError as exc:
        return type(exc), str(exc)
    if isinstance(code, PlaneSet):
        return code.triplets().tobytes(), code.normals().tobytes()
    return [
        (
            part.kind,
            part.face_planes.triplets().tobytes(),
            part.face_planes.normals().tobytes(),
            part.boundary_planes.triplets().tobytes(),
            part.boundary_planes.normals().tobytes(),
        )
        for part in code.parts
    ]


def assert_same_read(data):
    got = outcome(read_code, data)
    # the oracle casts a float32 signalling NaN with numpy's cast warning
    # on, as the reader once did; only its outcome is compared
    with np.errstate(invalid="ignore"):
        assert got == outcome(oracle_read_code, data)
    return got


def rec(nu, phi, h):
    return struct.pack("<3f", nu, phi, h)


def part(kind, faces, cuts):
    return struct.pack("<BII", kind, len(faces), len(cuts)) + b"".join(faces + cuts)


def segmented(*parts):
    return SEGMENTED_HEADER + struct.pack("<I", len(parts)) + b"".join(parts)


GOOD = rec(1.0, 2.0, 0.5)
BAD_NU = rec(9.0, 0.0, 1.0)
BAD_PHI = rec(1.0, 7.0, 1.0)
BAD_H = rec(1.0, 0.0, np.inf)


def test_a_bad_record_in_part_0_wins_over_a_cut_header_in_part_1():
    data = SEGMENTED_HEADER + struct.pack("<I", 2) + part(0, [GOOD, BAD_NU], [GOOD]) + b"\x00" * 4
    got = assert_same_read(data)
    assert got[0] is AngleOutOfRange and got[1].startswith("part 0 face record 1 holds")


def test_precedence_cases_match_the_oracle():
    header = SEGMENTED_HEADER + struct.pack("<I", 3)
    cases = [
        # a bad boundary record of part 0 and an unknown kind byte in part 1
        header + part(1, [GOOD], [GOOD, BAD_PHI]) + part(7, [GOOD], []),
        # a clean part 0, then part 1 declares more than the payload holds
        header + part(0, [GOOD], [GOOD]) + struct.pack("<BII", 0, 5, 5) + GOOD,
        # a bad record in part 1, then trailing bytes
        segmented(part(0, [GOOD], []), part(1, [BAD_H], [GOOD])) + b"zz",
        # bad records in parts 0 and 1: part 0's comes first
        segmented(part(0, [GOOD], [BAD_H]), part(1, [BAD_NU], [])),
        # the second bad row of a set is not the one named
        segmented(part(0, [GOOD, BAD_PHI, BAD_NU], [])),
        # clean parts with trailing bytes
        segmented(part(0, [GOOD], [GOOD]), part(1, [], [GOOD])) + b"\x01",
        # a part of no planes, a clean code, and an empty one
        segmented(part(0, [], []), part(1, [GOOD, GOOD], [GOOD])),
        segmented(),
    ]
    for data in cases:
        assert_same_read(data)


def fixture_codes():
    meshes = [shapes.notched_box(), shapes.l_prism()]
    meshes += [grid_cut(make(), g) for make in GRID_FIXTURES.values() for g in (2, 3)]
    out = []
    for mesh in meshes:
        try:
            out.append(write_code(encode_segmented(mesh)))
        except GeometryError:
            pass  # some grid cuts cannot be cut into parts
    return out


FIXTURES = fixture_codes()


def test_fixture_codes_read_the_same_with_the_same_normals():
    for data in FIXTURES:
        parts = assert_same_read(data)
        assert len(parts) >= 2
        assert {p[0] for p in parts} <= {PartKind.PSEUDO_CONVEX, PartKind.PSEUDO_CONCAVE}


@settings(deadline=None, max_examples=300)
# makes a boundary record's offset a float32 signalling NaN (0x7f897459)
@example(which=0, edits=[(255, 127, "s")])
@given(
    which=st.integers(0, len(FIXTURES) - 1),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255), st.sampled_from("sdic")),
        min_size=1,
        max_size=4,
    ),
)
def test_damaged_fixture_codes_fail_as_the_oracle_does(which, edits):
    data = bytearray(FIXTURES[which])
    for at, value, how in edits:
        at %= len(data) + 1
        if how == "s" and at < len(data):
            data[at] = value
        elif how == "d":
            del data[at:at + 1 + value % 13]
        elif how == "i":
            data[at:at] = bytes([value]) * (1 + value % 5)
        elif how == "c":
            del data[at:]
    assert_same_read(bytes(data))


@settings(deadline=None, max_examples=200)
@given(
    parts=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.lists(st.sampled_from([GOOD, GOOD, GOOD, BAD_NU, BAD_PHI, BAD_H]), max_size=4),
            st.lists(st.sampled_from([GOOD, GOOD, BAD_H]), max_size=3),
        ),
        max_size=4,
    ),
    cut=st.integers(0, 40),
    tail=st.binary(max_size=3),
)
def test_built_codes_fail_as_the_oracle_does(parts, cut, tail):
    data = segmented(*(part(k, f, c) for k, f, c in parts)) + tail
    assert_same_read(data[: len(data) - cut] if cut < len(data) else data)
