"""Exception taxonomy.

Three branches: geometric failures (bad input shapes, undecodable
regions), mesh file problems, and binary code format problems.  The CLI
maps each branch to its own exit code, so library code should raise the
most specific class that applies.
"""


class PlaneCodeError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(PlaneCodeError):
    """A geometric precondition failed or a construction is impossible."""


class DegenerateTriangle(GeometryError):
    """Triangle with (numerically) zero area, no well-defined plane."""


class NotUnitVector(GeometryError):
    pass


class NotConvex(GeometryError):
    """Mesh is not convex.

    Carries the first witness found: ``vertex_index`` lies strictly on
    the positive side of the plane of triangle ``triangle_index``.
    """

    def __init__(self, msg, vertex_index=None, triangle_index=None):
        super().__init__(msg)
        self.vertex_index = vertex_index
        self.triangle_index = triangle_index


class NotClosed(GeometryError):
    """Mesh has boundary edges where a watertight surface was required."""


class UnboundedRegion(GeometryError):
    """Half-space intersection is not bounded."""


class EmptyRegion(GeometryError):
    """Half-space intersection contains no points."""


class NotARotation(GeometryError):
    """Matrix is not a proper rotation (orthogonal, determinant +1)."""


class NonManifold(GeometryError):
    """An edge is shared by more than two triangles."""


class InconsistentOrientation(GeometryError):
    """Adjacent triangles traverse a shared edge in the same direction."""


class NonSimpleBoundary(GeometryError):
    """Part boundary does not decompose into simple closed loops."""


class BoundaryNotCuttable(GeometryError):
    """No separating plane exists for a boundary section of a part."""


class PartUndecodable(GeometryError):
    """A segmented part failed to decode.

    Wraps the underlying failure; ``part_index`` says which part.
    """

    def __init__(self, msg, part_index=None):
        super().__init__(msg)
        self.part_index = part_index


class WeldMismatch(GeometryError):
    """Decoded parts could not be welded into a valid surface."""


class OverSimplified(GeometryError):
    """Simplification removed so much that no solid remains."""


class MeshFileError(PlaneCodeError):
    """Problem reading or writing a mesh file."""


class ParseError(MeshFileError):
    def __init__(self, msg, line=None):
        if line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)
        self.line = line


class UnsupportedFeature(MeshFileError):
    """File uses a construct this reader deliberately does not handle."""


class CodeFormatError(PlaneCodeError):
    """Problem with the binary plane-code format."""


class BadMagic(CodeFormatError):
    pass


class UnsupportedVersion(CodeFormatError):
    pass


class TruncatedPayload(CodeFormatError):
    """Payload shorter or longer than the header promises."""


class AngleOutOfRange(CodeFormatError):
    """Stored direction angles outside their documented ranges."""
