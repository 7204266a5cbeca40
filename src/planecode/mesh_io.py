"""Triangle mesh file readers and writers, plus storage accounting.

Supports Wavefront OBJ (vertices and faces only) and STL in both ascii
and binary flavors.  Polygonal OBJ faces are fan-triangulated.  An OBJ
text of nothing but ``v x y z`` and ``f a b c`` lines, comments and
blank lines, as ``write_obj`` writes it, is read in one pass of a
regular expression over the whole text, its tokens converted by the
same ``float`` and ``int`` calls as the line parser's; any other text,
and any plain one that would fail, goes to the line parser, which gives
every error its text and line number.  STL
soups are welded on exact coordinate equality, which is enough for
files we wrote ourselves; use OBJ when vertex identity matters.  A NaN
or infinite vertex coordinate is a ParseError naming its line (OBJ,
ascii STL) or facet (binary STL); STL facet normals are ignored.
"""

import math
import operator
import re
import struct

import numpy as np

from .convex import face_table
from .errors import ParseError, UnsupportedFeature
from .geometry import cross
from .mesh import TriangleMesh, weld
from .polygonize import SegmentedCode

_OBJ_UNSUPPORTED = {
    "curv", "curv2", "surf", "l", "p", "cstype", "deg", "step", "bmat",
    "con", "trim", "hole", "scrv", "sp", "end",
}

_STL_FACET = np.dtype(
    [("normal", "<f4", (3,)), ("corners", "<f4", (3, 3)), ("attr", "<u2")]
)


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
    if isinstance(data, str):
        return "stl-ascii"
    if len(data) >= 84:
        (count,) = struct.unpack_from("<I", data, 80)
        if len(data) == 84 + 50 * count:
            return "stl-binary"
    head = data[:512].lstrip()
    if head.startswith(b"solid"):
        return "stl-ascii"
    return "stl-binary"


# a "v x y z" or "f a b c" line, a comment or a blank line, up to its LF
_PLAIN_OBJ_LINE = re.compile(
    r"^[ \t]*(?:([vf])([ \t]+\S+[ \t]+\S+[ \t]+\S+)[ \t]*|#.*)?\r?$", re.M
)
# the line breaks of str.splitlines other than LF and CR (which must start CR LF)
_ODD_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _parse_obj(text):
    mesh = _parse_plain_obj(text)
    return _parse_obj_lines(text) if mesh is None else mesh


def _parse_plain_obj(text):
    """The mesh of a plain OBJ text in one pass, or None for the line parser.

    Plain means every line is ``v x y z``, ``f a b c``, a comment or
    blank, the lines end in LF or CR LF, every vertex line comes
    before every face line, the coordinates are finite and the indices
    run from 1 to the vertex count.  Then the line parser would give
    the same arrays from the same ``float`` and ``int`` calls.
    """
    if text.count("\r") != text.count("\r\n") or any(c in text for c in _ODD_BREAKS):
        return None
    rows = _PLAIN_OBJ_LINE.findall(text)
    if len(rows) != text.count("\n") + 1:  # some line is not plain
        return None
    tags = "".join(map(operator.itemgetter(0), rows))
    nv = len(tags.rstrip("f"))
    if not nv or "f" in tags[:nv]:
        return None
    tokens = " ".join(map(operator.itemgetter(1), rows)).split()
    try:
        xyz = np.fromiter(map(float, tokens[:3 * nv]), dtype=float, count=3 * nv)
        idx = np.fromiter(map(int, tokens[3 * nv:]), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if not (np.isfinite(xyz).all() and (idx >= 1).all() and (idx <= nv).all()):
        return None
    return TriangleMesh(xyz.reshape(-1, 3), (idx - 1).reshape(-1, 3))


def _parse_obj_lines(text):
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


def write_obj(mesh, comment=None):
    """Mesh as OBJ text; float repr keeps coordinates round-trippable.

    All vertex lines come from one format string, and all face lines
    from another.
    """
    head = "# %s\n" % comment if comment else ""
    v = mesh.vertices.ravel().tolist()
    f = (mesh.triangles + 1).ravel().tolist()
    text = "v %r %r %r\n" * (len(v) // 3) % tuple(v) + "f %d %d %d\n" * (len(f) // 3) % tuple(f)
    return head + text or "\n"


def _coordinates(fields, lineno):
    """The three finite floats after a vertex tag."""
    try:
        xyz = [float(x) for x in fields[1:4]]
    except ValueError:
        raise ParseError("bad vertex coordinate", line=lineno)
    if not all(map(math.isfinite, xyz)):
        raise ParseError("non-finite vertex coordinate", line=lineno)
    return xyz


def _weld_soup(tri_points):
    """Mesh of a (T, 3, 3) corner soup, welded on exact coordinate equality."""
    corners = tri_points.reshape(-1, 3)
    labels, firsts = weld(corners, 0.0)
    return TriangleMesh(corners[firsts], labels.reshape(-1, 3))


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
            current.append(_coordinates(fields, lineno))
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
    with np.errstate(invalid="ignore"):  # a signalling NaN fails the finite check quietly
        tri_points = floats.astype(float).reshape(count, 4, 3)[:, 1:, :]
    bad = np.flatnonzero(~np.isfinite(tri_points).all(axis=(1, 2)))
    if len(bad):
        raise ParseError("facet %d has a non-finite vertex coordinate" % bad[0])
    return _weld_soup(tri_points)


def _facet_normals(p1, p2, p3):
    """Unit facet normals for STL; zero for degenerate triangles."""
    c = cross(p2 - p1, p3 - p2)
    norms = np.linalg.norm(c, axis=1)
    norms[norms == 0] = 1.0
    return c / norms[:, None]


def write_stl_binary(mesh, header=b""):
    head = (header or b"planecode mesh")[:80].ljust(80, b"\x00")
    p1, p2, p3 = mesh.triangle_corners()
    facets = np.zeros(len(mesh.triangles), dtype=_STL_FACET)
    facets["normal"] = _facet_normals(p1, p2, p3)
    facets["corners"] = np.stack([p1, p2, p3], axis=1)
    return head + struct.pack("<I", len(facets)) + facets.tobytes()


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
    """Number of maximal edge-connected coplanar triangle patches.

    Triangles are coplanar within ``mesh.slack()``, the slack that
    ``encode_convex`` and ``polygonize_part`` merge patches with; all
    three read the mesh's one face table (``convex.face_table``).
    """
    return len(face_table(mesh).patches)
