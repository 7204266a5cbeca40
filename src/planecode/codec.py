"""Binary serialization of plane codes (the .plnc byte layout).

Layout, all little-endian, no padding:

    magic "PLNC" | version u8 = 1 | kind u8 (0 convex, 1 segmented)
    convex:    plane count u32, then count records
    segmented: part count u32, then per part:
               part kind u8 (0 pseudo-convex, 1 pseudo-concave),
               face count u32, boundary count u32,
               face records, boundary records

A record is three float32 values (nu, phi, h), angles in radians.
Quantization to float32 can push nu past pi or phi up to 2*pi; the
writer nudges such values one ulp back into range so that a written
file always re-reads cleanly and re-writes bit-identically.  An offset
beyond float32's range cannot be nudged: the writer raises the reader's
AngleOutOfRange for it.

The reader trusts nothing: magic, version, kind bytes, counts against
the actual length, and angle ranges are all checked, and every failure
is a structured CodeFormatError subclass.
"""

import math
import struct

import numpy as np

from .convex import PlaneSet
from .errors import (
    AngleOutOfRange,
    BadMagic,
    TruncatedPayload,
    UnsupportedVersion,
)
from .geometry import TWO_PI
from .polygonize import PartCode, SegmentedCode
from .segmentation import PartKind

MAGIC = b"PLNC"
VERSION = 1

_KIND_CONVEX = 0
_KIND_SEGMENTED = 1
_PART_KIND_OF_BYTE = {0: PartKind.PSEUDO_CONVEX, 1: PartKind.PSEUDO_CONCAVE}
_BYTE_OF_PART_KIND = {v: k for k, v in _PART_KIND_OF_BYTE.items()}


def _records(planes, label):
    with np.errstate(over="ignore"):
        arr = planes.triplets().astype("<f4")
    nu = arr[:, 0]
    over = nu.astype(np.float64) > math.pi
    nu[over] = np.nextafter(nu[over], np.float32(0.0))
    phi = arr[:, 1]
    over = phi.astype(np.float64) >= TWO_PI
    phi[over] = np.nextafter(phi[over], np.float32(0.0))
    bad = np.flatnonzero(~np.isfinite(arr[:, 2]))
    if len(bad):
        raise _out_of_range(label, arr, bad[0])
    return arr.tobytes()


def _out_of_range(label, rows, row):
    nu, phi, h = rows[row].tolist()
    return AngleOutOfRange("%s record %d holds (nu=%r, phi=%r, h=%r)" % (label, row, nu, phi, h))


def write_code(code):
    """Serialize a PlaneSet or SegmentedCode to .plnc bytes, or raise as the reader would."""
    if isinstance(code, SegmentedCode):
        out = [
            MAGIC,
            bytes((VERSION, _KIND_SEGMENTED)),
            struct.pack("<I", len(code.parts)),
        ]
        for i, part in enumerate(code.parts):
            out.append(
                struct.pack(
                    "<BII",
                    _BYTE_OF_PART_KIND[part.kind],
                    len(part.face_planes),
                    len(part.boundary_planes),
                )
            )
            out.append(_records(part.face_planes, "part %d face" % i))
            out.append(_records(part.boundary_planes, "part %d boundary" % i))
        return b"".join(out)
    return b"".join(
        [
            MAGIC,
            bytes((VERSION, _KIND_CONVEX)),
            struct.pack("<I", len(code)),
            _records(code, "plane"),
        ]
    )


def _parse_planes(records, labels):
    """One PlaneSet of float32 ``records``: one range check and one sin/cos pass.

    ``labels`` names the record sets back to back, as (label, count)
    pairs.  A row out of range raises AngleOutOfRange naming its set
    and its place in that set.
    """
    with np.errstate(invalid="ignore"):  # a signalling NaN fails the range check quietly
        rows = np.frombuffer(records, dtype="<f4").astype(np.float64).reshape(-1, 3)
    try:
        return PlaneSet(rows)
    except ValueError as exc:
        ends = np.cumsum([count for _, count in labels])
        k = int(np.searchsorted(ends, exc.row, side="right"))
        start = int(ends[k]) - labels[k][1]
        raise _out_of_range(labels[k][0], rows[start:], exc.row - start)


def read_code(data):
    """Parse .plnc bytes back into a PlaneSet or SegmentedCode."""
    data = bytes(data)
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic("expected 'PLNC' magic")
    if len(data) < 6:
        raise TruncatedPayload("header cut short")
    version, kind = data[4], data[5]
    if version != VERSION:
        raise UnsupportedVersion("format version %d not supported" % version)
    if kind == _KIND_CONVEX:
        return _read_convex(data)
    if kind == _KIND_SEGMENTED:
        return _read_segmented(data)
    raise UnsupportedVersion("unknown code kind byte %d" % kind)


def _read_convex(data):
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
    return _parse_planes(memoryview(data)[10:], [("plane", count)])


def _read_segmented(data):
    """The parts of a segmented code, all their records read as one PlaneSet.

    The headers are walked first; the records of the parts before the
    first bad header are then checked in file order, so an error comes
    out as a part-by-part read would raise it: a bad record before a bad
    header or trailing bytes wins.  Each part's face and boundary sets
    are slices of the one set, with its normals.
    """
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
    heads, failure = [], None
    for i in range(n_parts):
        if off + 9 > len(data):
            failure = TruncatedPayload("part %d header cut short" % i)
            break
        kind_byte, n_face, n_boundary = struct.unpack_from("<BII", data, off)
        part_kind = _PART_KIND_OF_BYTE.get(kind_byte)
        if part_kind is None:
            failure = UnsupportedVersion("part %d has unknown kind byte %d" % (i, kind_byte))
            break
        off += 9
        if off + 12 * (n_face + n_boundary) > len(data):
            failure = TruncatedPayload(
                "part %d declares %d plane(s) but payload ends early" % (i, n_face + n_boundary)
            )
            break
        heads.append((part_kind, n_face, n_boundary, off))
        off += 12 * (n_face + n_boundary)
    if failure is None and off != len(data):
        failure = TruncatedPayload("%d trailing byte(s)" % (len(data) - off))
    view = memoryview(data)
    planes = _parse_planes(
        b"".join(view[o:o + 12 * (f + b)] for _, f, b, o in heads),
        [
            (label % i, count)
            for i, (_, f, b, _) in enumerate(heads)
            for label, count in (("part %d face", f), ("part %d boundary", b))
        ],
    )
    if failure is not None:
        raise failure
    parts, start = [], 0
    for kind, f, b, _ in heads:
        parts.append(PartCode(kind, planes[start:start + f], planes[start + f:start + f + b]))
        start += f + b
    return SegmentedCode(parts)
