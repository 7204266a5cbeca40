"""Meshes as collections of oriented planes.

A convex solid is the intersection of the closed negative half-spaces
of its face planes, so storing the planes (two spherical angles and an
offset each) is enough to rebuild it.  Non-convex meshes are first
segmented into pseudo-convex and pseudo-concave parts, each coded as a
plane group plus boundary cutting planes.
"""

from .convex import (
    ConvexPolyhedron,
    PlaneSet,
    check_rotation,
    decode_convex,
    encode_convex,
    rotate_planes,
    translate_planes,
)
from .codec import read_code, write_code
from .errors import (
    AngleOutOfRange,
    BadMagic,
    BoundaryNotCuttable,
    CodeFormatError,
    DegenerateTriangle,
    EmptyRegion,
    GeometryError,
    InconsistentOrientation,
    MeshFileError,
    NonManifold,
    NonSimpleBoundary,
    NotARotation,
    NotClosed,
    NotConvex,
    NotUnitVector,
    OverSimplified,
    ParseError,
    PartUndecodable,
    PlaneCodeError,
    TruncatedPayload,
    UnboundedRegion,
    UnsupportedFeature,
    UnsupportedVersion,
    WeldMismatch,
)
from .geometry import angle_between
from .mesh import TriangleMesh
from .mesh_io import (
    StorageReport,
    load_mesh,
    storage_report,
    write_obj,
    write_stl_ascii,
    write_stl_binary,
)
from .polygonize import (
    PartCode,
    PolygonFace,
    SegmentedCode,
    boundary_planes_for_part,
    decode_segmented,
    encode_segmented,
    polygonize_part,
)
from .segmentation import (
    MeshPart,
    MutualOrientation,
    PartKind,
    mutual_orientation,
    segment_mesh,
)
from .simplify import (
    SimplifyParams,
    simplify_code,
)

__version__ = "0.1.0"

__all__ = [
    "AngleOutOfRange",
    "BadMagic",
    "BoundaryNotCuttable",
    "CodeFormatError",
    "ConvexPolyhedron",
    "DegenerateTriangle",
    "EmptyRegion",
    "GeometryError",
    "InconsistentOrientation",
    "MeshFileError",
    "MeshPart",
    "MutualOrientation",
    "NonManifold",
    "NonSimpleBoundary",
    "NotARotation",
    "NotClosed",
    "NotConvex",
    "NotUnitVector",
    "OverSimplified",
    "ParseError",
    "PartCode",
    "PartKind",
    "PartUndecodable",
    "PlaneCodeError",
    "PlaneSet",
    "PolygonFace",
    "SegmentedCode",
    "SimplifyParams",
    "StorageReport",
    "TriangleMesh",
    "TruncatedPayload",
    "UnboundedRegion",
    "UnsupportedFeature",
    "UnsupportedVersion",
    "WeldMismatch",
    "angle_between",
    "boundary_planes_for_part",
    "check_rotation",
    "decode_convex",
    "decode_segmented",
    "encode_convex",
    "encode_segmented",
    "load_mesh",
    "mutual_orientation",
    "polygonize_part",
    "read_code",
    "rotate_planes",
    "segment_mesh",
    "simplify_code",
    "storage_report",
    "translate_planes",
    "write_code",
    "write_obj",
    "write_stl_ascii",
    "write_stl_binary",
]
