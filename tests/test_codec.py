"""The .plnc byte format: layout goldens, idempotence, hostile input."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import (
    AngleOutOfRange,
    BadMagic,
    CodeFormatError,
    PartCode,
    PartKind,
    PlaneSet,
    SegmentedCode,
    TruncatedPayload,
    UnsupportedVersion,
    encode_convex,
    encode_segmented,
    read_code,
    shapes,
    write_code,
)

from conftest import SNAN, seeded_hulls

# write_code(encode_convex(cube).sorted_canonical()), frozen byte for byte
CUBE_PLNC = bytes.fromhex(
    "504c4e4301000600000000000000000000000000803fdb0fc93f000000000000803f"
    "db0fc93fdb0fc93f0000803fdb0fc93fdb0f494000000000db0fc93fe4cb96400000"
    "0000da0f49400000000000000000"
)

CONVEX_HEADER = b"PLNC" + bytes((1, 0))
SEGMENTED_HEADER = b"PLNC" + bytes((1, 1))


def rec(nu, phi, h):
    return struct.pack("<3f", nu, phi, h)


def test_cube_code_bytes_match_the_frozen_layout(cube_mesh):
    blob = write_code(encode_convex(cube_mesh).sorted_canonical())
    assert blob == CUBE_PLNC
    assert len(blob) == 82
    assert blob[:4] == b"PLNC"
    assert blob[4] == 1 and blob[5] == 0
    assert struct.unpack_from("<I", blob, 6) == (6,)


def test_records_hold_float32_values_at_most_one_ulp_below_the_input(cube_mesh):
    code = encode_convex(cube_mesh).sorted_canonical()
    raw = np.frombuffer(CUBE_PLNC[10:], dtype="<f4").reshape(6, 3)
    for row, plane in zip(raw, code):
        for got, x in zip(row, plane):
            f = np.float32(x)
            assert got == f or got == np.nextafter(f, np.float32(0.0))
    assert (raw[:, 0] >= 0).all() and (raw[:, 0] <= np.pi).all()
    assert (raw[:, 1] >= 0).all() and (raw[:, 1] < 2 * np.pi).all()


def test_segmented_layout_walks_part_by_part(staircase_mesh):
    code = encode_segmented(staircase_mesh)
    blob = write_code(code)
    assert len(blob) == 6 + 4 + 2 * 9 + 22 * 12
    assert blob[5] == 1
    assert struct.unpack_from("<I", blob, 6) == (2,)
    off = 10
    seen = []
    for _ in range(2):
        kind, n_face, n_boundary = struct.unpack_from("<BII", blob, off)
        seen.append((kind, n_face, n_boundary))
        off += 9 + 12 * (n_face + n_boundary)
    assert seen == [(0, 9, 4), (1, 5, 4)]
    assert off == len(blob)


def test_write_read_write_is_byte_stable(staircase_mesh):
    codes = [encode_convex(m).sorted_canonical() for m in seeded_hulls(21, 10)]
    codes.append(encode_segmented(staircase_mesh))
    for code in codes:
        blob = write_code(code)
        assert write_code(read_code(blob)) == blob


def test_read_back_angles_stay_in_range_at_the_edges():
    edge = PlaneSet([(np.pi, 0.0, -1.0), (1.0, float(np.nextafter(2 * np.pi, 0)), 0.5)])
    blob = write_code(edge)
    back = read_code(blob)
    assert back[0][0] <= np.pi
    assert back[1][1] < 2 * np.pi
    assert write_code(back) == blob


@pytest.mark.parametrize("h", [3.5e38, -1e39, 1e300])
def test_an_offset_beyond_float32_is_refused_as_the_reader_would(h):
    ok = (1.0, 2.0, 0.5)
    inf = math.copysign(math.inf, h)
    part = PartCode(PartKind.PSEUDO_CONVEX, PlaneSet([ok]), PlaneSet([ok, ok, (0.5, 1.0, h)]))
    cases = [
        (PlaneSet([ok, (1.0, 2.0, h)]),
         CONVEX_HEADER + struct.pack("<I", 2) + rec(*ok) + rec(1.0, 2.0, inf),
         "plane record 1 holds (nu=1.0, phi=2.0, h=%r)" % inf),
        (SegmentedCode([part]),
         SEGMENTED_HEADER + struct.pack("<IBII", 1, 0, 1, 3) + rec(*ok) * 3 + rec(0.5, 1.0, inf),
         "part 0 boundary record 2 holds (nu=0.5, phi=1.0, h=%r)" % inf),
    ]
    for code, blob, message in cases:
        with pytest.raises(AngleOutOfRange) as read:
            read_code(blob)
        with pytest.raises(AngleOutOfRange) as written:
            write_code(code)
        assert str(written.value) == str(read.value) == message


def test_the_largest_float32_offset_still_round_trips():
    code = PlaneSet([(1.0, 2.0, 3.4e38), (1.0, 2.0, -3.4e38)])
    blob = write_code(code)
    assert write_code(read_code(blob)) == blob


def test_empty_codes_round_trip():
    for code, cls in ((PlaneSet([]), PlaneSet), (SegmentedCode([]), SegmentedCode)):
        blob = write_code(code)
        assert len(blob) == 10
        back = read_code(blob)
        assert isinstance(back, cls)
        assert len(back) == 0


BAD_BLOBS = [
    (b"", BadMagic, "magic"),
    (b"PLN", BadMagic, "magic"),
    (b"XXXX" + CUBE_PLNC[4:], BadMagic, "magic"),
    (b"PLNC\x01", TruncatedPayload, "header cut short"),
    (b"PLNC\x02\x00" + CUBE_PLNC[6:], UnsupportedVersion, "version 2"),
    (b"PLNC\x01\x07" + CUBE_PLNC[6:], UnsupportedVersion, "kind byte 7"),
    (CONVEX_HEADER + b"\x00\x00", TruncatedPayload, "missing plane count"),
    (
        CONVEX_HEADER + struct.pack("<I", 2) + rec(0, 0, 1),
        TruncatedPayload,
        "2 plane\\(s\\) declared",
    ),
    (
        CONVEX_HEADER + struct.pack("<I", 1) + rec(0, 0, 1) + b"x",
        TruncatedPayload,
        "1 trailing byte",
    ),
    (SEGMENTED_HEADER + b"\x00", TruncatedPayload, "missing part count"),
    (
        SEGMENTED_HEADER + struct.pack("<I", 1000),
        TruncatedPayload,
        "1000 part\\(s\\) declared but only 0 byte",
    ),
    (
        SEGMENTED_HEADER
        + struct.pack("<I", 2)
        + struct.pack("<BII", 0, 1, 0)
        + rec(0, 0, 1)
        + b"1234",
        TruncatedPayload,
        "part 1 header cut short",
    ),
    (
        SEGMENTED_HEADER + struct.pack("<I", 1) + struct.pack("<BII", 9, 0, 0),
        UnsupportedVersion,
        "part 0 has unknown kind byte 9",
    ),
    (
        SEGMENTED_HEADER + struct.pack("<I", 1) + struct.pack("<BII", 0, 2, 0) + rec(0, 0, 1),
        TruncatedPayload,
        "part 0 declares 2 plane",
    ),
    (
        SEGMENTED_HEADER + struct.pack("<I", 1) + struct.pack("<BII", 0, 0, 0) + b"zz",
        TruncatedPayload,
        "2 trailing byte",
    ),
    (
        CONVEX_HEADER + struct.pack("<I", 1) + rec(7.0, 0, 1),
        AngleOutOfRange,
        "plane record 0",
    ),
    (
        CONVEX_HEADER + struct.pack("<I", 1) + rec(-1.0, 0, 1),
        AngleOutOfRange,
        "plane record 0",
    ),
    (
        CONVEX_HEADER + struct.pack("<I", 1) + rec(1.0, 6.2831855, 1),
        AngleOutOfRange,
        "plane record 0",
    ),
    (
        CONVEX_HEADER + struct.pack("<I", 1) + rec(1.0, 0.0, np.inf),
        AngleOutOfRange,
        "plane record 0",
    ),
    (
        CONVEX_HEADER + struct.pack("<I", 1) + rec(1.0, 0.0, np.nan),
        AngleOutOfRange,
        "plane record 0",
    ),
    (
        SEGMENTED_HEADER + struct.pack("<I", 1) + struct.pack("<BII", 0, 1, 0) + rec(9, 0, 0),
        AngleOutOfRange,
        "part 0 face record 0",
    ),
    (
        SEGMENTED_HEADER
        + struct.pack("<I", 1)
        + struct.pack("<BII", 1, 0, 1)
        + rec(1, 9, 0),
        AngleOutOfRange,
        "part 0 boundary record 0",
    ),
]


@pytest.mark.parametrize("blob,err,match", BAD_BLOBS, ids=[m for _, _, m in BAD_BLOBS])
def test_hostile_bytes_raise_structured_errors(blob, err, match):
    with pytest.raises(err, match=match):
        read_code(blob)


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("segmented", [False, True], ids=["convex", "segmented"])
def test_a_signalling_nan_record_is_refused_without_a_warning(segmented, field):
    record = bytearray(rec(1.0, 0.0, 1.0))
    record[4 * field: 4 * field + 4] = SNAN
    if segmented:
        blob = SEGMENTED_HEADER + struct.pack("<I", 1) + struct.pack("<BII", 0, 1, 0) + record
    else:
        blob = CONVEX_HEADER + struct.pack("<I", 1) + record
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AngleOutOfRange, match="record 0 holds"):
            read_code(blob)
    assert [str(w.message) for w in caught] == []


def test_every_proper_prefix_of_a_valid_file_is_rejected():
    for n in range(len(CUBE_PLNC)):
        with pytest.raises(CodeFormatError):
            read_code(CUBE_PLNC[:n])


@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_parse_or_fail_structurally(blob):
    try:
        read_code(blob)
    except CodeFormatError:
        pass
