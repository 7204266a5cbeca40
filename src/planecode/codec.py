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
file always re-reads cleanly and re-writes bit-identically.

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


def _records(planes):
    arr = planes.triplets().astype("<f4")
    nu = arr[:, 0]
    over = nu.astype(np.float64) > math.pi
    nu[over] = np.nextafter(nu[over], np.float32(0.0))
    phi = arr[:, 1]
    over = phi.astype(np.float64) >= TWO_PI
    phi[over] = np.nextafter(phi[over], np.float32(0.0))
    return arr.tobytes()


def write_code(code):
    """Serialize a PlaneSet or SegmentedCode to .plnc bytes."""
    if isinstance(code, SegmentedCode):
        out = [
            MAGIC,
            bytes((VERSION, _KIND_SEGMENTED)),
            struct.pack("<I", len(code.parts)),
        ]
        for part in code.parts:
            out.append(
                struct.pack(
                    "<BII",
                    _BYTE_OF_PART_KIND[part.kind],
                    len(part.face_planes),
                    len(part.boundary_planes),
                )
            )
            out.append(_records(part.face_planes))
            out.append(_records(part.boundary_planes))
        return b"".join(out)
    return b"".join(
        [
            MAGIC,
            bytes((VERSION, _KIND_CONVEX)),
            struct.pack("<I", len(code)),
            _records(code),
        ]
    )


def _parse_planes(data, offset, count, label):
    raw = (
        np.frombuffer(data, dtype="<f4", count=3 * count, offset=offset)
        .astype(np.float64)
        .reshape(count, 3)
    )
    nu, phi, h = raw[:, 0], raw[:, 1], raw[:, 2]
    ok = (
        (nu >= 0.0)
        & (nu <= math.pi)
        & (phi >= 0.0)
        & (phi < TWO_PI)
        & np.isfinite(h)
    )
    if not ok.all():
        k = int(np.argmax(~ok))
        raise AngleOutOfRange(
            "%s record %d holds (nu=%r, phi=%r, h=%r)"
            % (label, k, float(nu[k]), float(phi[k]), float(h[k]))
        )
    return PlaneSet.from_triplets(raw)


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
    return _parse_planes(data, 10, count, "plane")


def _read_segmented(data):
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
        face = _parse_planes(data, off, int(n_face), "part %d face" % i)
        off += 12 * int(n_face)
        boundary = _parse_planes(
            data, off, int(n_boundary), "part %d boundary" % i
        )
        off += 12 * int(n_boundary)
        parts.append(PartCode(part_kind, face, boundary))
    if off != len(data):
        raise TruncatedPayload("%d trailing byte(s)" % (len(data) - off))
    return SegmentedCode(parts)
