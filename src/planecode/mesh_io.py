"""Triangle mesh file readers and writers, plus storage accounting.

Supports Wavefront OBJ (vertices and faces only) and STL in both ascii
and binary flavors.  Polygonal OBJ faces are fan-triangulated.  STL
soups are welded on exact coordinate equality, which is enough for
files we wrote ourselves; use OBJ when vertex identity matters.
"""

import math
import struct

import numpy as np

from .convex import coplanar_patches
from .errors import ParseError, UnsupportedFeature
from .geometry import triangle_planes
from .mesh import TriangleMesh
from .polygonize import SegmentedCode

_OBJ_UNSUPPORTED = {
    "curv", "curv2", "surf", "l", "p", "cstype", "deg", "step", "bmat",
    "con", "trim", "hole", "scrv", "sp", "end",
}

_STL_RECORD = struct.Struct("<12fH")


def load_mesh(data, fmt):
    """Parse mesh bytes in the named format.

    ``fmt`` is one of "obj", "stl-ascii", "stl-binary", or "stl" to
    sniff the STL flavor from the payload.
    """
    fmt = fmt.lower()
    if fmt == "obj":
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="replace")
        return _parse_obj(data)
    if fmt == "stl":
        fmt = _sniff_stl(data)
    if fmt == "stl-ascii":
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="replace")
        return _parse_stl_ascii(data)
    if fmt == "stl-binary":
        return _parse_stl_binary(data)
    raise ValueError("unknown mesh format %r" % (fmt,))


def _sniff_stl(data):
    if len(data) >= 84:
        (count,) = struct.unpack_from("<I", data, 80)
        if len(data) == 84 + 50 * count:
            return "stl-binary"
    head = data[:512].lstrip()
    if head.startswith(b"solid"):
        return "stl-ascii"
    return "stl-binary"


def _parse_obj(text):
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
            try:
                verts.append([float(x) for x in fields[1:4]])
            except ValueError:
                raise ParseError("bad vertex coordinate", line=lineno)
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


def write_obj(mesh, comment=None):
    """Mesh as OBJ text; float repr keeps coordinates round-trippable."""
    lines = []
    if comment:
        lines.append("# %s" % comment)
    for x, y, z in mesh.vertices.tolist():
        lines.append("v %r %r %r" % (x, y, z))
    for a, b, c in mesh.triangles.tolist():
        lines.append("f %d %d %d" % (a + 1, b + 1, c + 1))
    return "\n".join(lines) + "\n"


def _weld_soup(tri_points):
    """Vertex/index arrays from a (T, 3, 3) corner soup, exact-match weld."""
    index = {}
    verts = []
    tris = []
    for corners in tri_points:
        tri = []
        for p in corners:
            key = (float(p[0]), float(p[1]), float(p[2]))
            at = index.get(key)
            if at is None:
                at = len(verts)
                index[key] = at
                verts.append(key)
            tri.append(at)
        tris.append(tri)
    return TriangleMesh(
        np.array(verts, dtype=float).reshape(-1, 3),
        np.array(tris, dtype=np.int64).reshape(-1, 3),
    )


def _parse_stl_ascii(text):
    tri_points = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0].lower()
        if tag == "outer":
            current = []
        elif tag == "vertex":
            if current is None:
                raise ParseError("vertex outside loop", line=lineno)
            if len(fields) < 4:
                raise ParseError("vertex needs 3 coordinates", line=lineno)
            try:
                current.append([float(x) for x in fields[1:4]])
            except ValueError:
                raise ParseError("bad vertex coordinate", line=lineno)
        elif tag == "endloop":
            if current is None or len(current) != 3:
                raise ParseError("loop does not have exactly 3 vertices", line=lineno)
            tri_points.append(current)
            current = None
        elif tag in ("solid", "facet", "endfacet", "endsolid", "normal"):
            continue
        else:
            raise ParseError("unexpected token %r" % (fields[0],), line=lineno)
    if not tri_points:
        raise ParseError("no facets found")
    return _weld_soup(np.array(tri_points, dtype=float))


def _parse_stl_binary(data):
    if len(data) < 84:
        raise ParseError("binary STL shorter than its 84-byte header")
    (count,) = struct.unpack_from("<I", data, 80)
    need = 84 + 50 * count
    if len(data) < need:
        raise ParseError(
            "header promises %d facets but payload holds %d bytes"
            % (count, len(data) - 84)
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=50 * count, offset=84)
    floats = raw.reshape(count, 50)[:, :48].reshape(-1).view(np.float32)
    tri_points = floats.astype(float).reshape(count, 4, 3)[:, 1:, :]
    return _weld_soup(tri_points)


def _facet_normals(p1, p2, p3):
    """Unit facet normals for STL; zero for degenerate triangles."""
    cross = np.cross(p2 - p1, p3 - p2)
    norms = np.linalg.norm(cross, axis=1)
    norms[norms == 0] = 1.0
    return cross / norms[:, None]


def write_stl_binary(mesh, header=b""):
    head = (header or b"planecode mesh")[:80].ljust(80, b"\x00")
    parts = [head, struct.pack("<I", len(mesh.triangles))]
    p1, p2, p3 = mesh.triangle_corners()
    normals = _facet_normals(p1, p2, p3)
    for t in range(len(mesh.triangles)):
        rec = _STL_RECORD.pack(
            *normals[t].astype(np.float32),
            *p1[t].astype(np.float32),
            *p2[t].astype(np.float32),
            *p3[t].astype(np.float32),
            0,
        )
        parts.append(rec)
    return b"".join(parts)


def write_stl_ascii(mesh, name="planecode"):
    p1, p2, p3 = mesh.triangle_corners()
    normals = _facet_normals(p1, p2, p3)
    lines = ["solid %s" % name]
    for t in range(len(mesh.triangles)):
        lines.append("  facet normal %r %r %r" % tuple(float(x) for x in normals[t]))
        lines.append("    outer loop")
        for p in (p1[t], p2[t], p3[t]):
            lines.append("      vertex %r %r %r" % tuple(float(x) for x in p))
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append("endsolid %s" % name)
    return "\n".join(lines) + "\n"


class StorageReport:
    """Byte accounting: plane encoding versus indexed triangles.

    ``plane_bytes`` is 12 bytes per stored plane (three 4-byte numbers).
    ``indexed_bytes`` is 12V + 12T, or 12V + 48Q when quadrangle
    accounting is requested (Q maximal coplanar patches).  ``ratio`` is
    indexed_bytes / plane_bytes, and ``math.inf`` for a code with no
    planes.
    """

    def __init__(self, plane_count, vertex_count, triangle_count,
                 quad_count=None):
        self.plane_count = plane_count
        self.vertex_count = vertex_count
        self.triangle_count = triangle_count
        self.quad_count = quad_count
        self.plane_bytes = 12 * plane_count
        if quad_count is None:
            self.indexed_bytes = 12 * vertex_count + 12 * triangle_count
        else:
            self.indexed_bytes = 12 * vertex_count + 48 * quad_count
        if self.plane_bytes:
            self.ratio = self.indexed_bytes / self.plane_bytes
        else:
            self.ratio = math.inf

    def as_pairs(self):
        pairs = [
            ("plane_count", self.plane_count),
            ("vertex_count", self.vertex_count),
            ("triangle_count", self.triangle_count),
        ]
        if self.quad_count is not None:
            pairs.append(("quad_count", self.quad_count))
        pairs += [
            ("plane_bytes", self.plane_bytes),
            ("indexed_bytes", self.indexed_bytes),
            ("ratio", self.ratio),
        ]
        return pairs


def total_plane_count(code):
    """Stored planes in a convex or segmented code."""
    if isinstance(code, SegmentedCode):
        return sum(
            len(part.face_planes) + len(part.boundary_planes)
            for part in code.parts
        )
    return len(code)


def storage_report(mesh, code, quad_accounting=False):
    """Compare the plane code's byte cost against indexed triangles."""
    quads = None
    if quad_accounting:
        quads = count_coplanar_patches(mesh)
    return StorageReport(
        total_plane_count(code),
        len(mesh.vertices),
        len(mesh.triangles),
        quad_count=quads,
    )


def count_coplanar_patches(mesh):
    """Number of maximal edge-connected coplanar triangle patches."""
    normals, offsets = triangle_planes(*mesh.triangle_corners())
    eps = 1e-7 * max(1.0, mesh.bbox_diagonal())
    return len(coplanar_patches(mesh, normals, offsets, eps))
