"""Command-line front end: encode, decode, segment, simplify, stats.

Exit codes: 0 success, 2 mesh file problem (or bad arguments),
3 geometry failure, 4 binary code format problem.
"""

import argparse
import functools
import math
import pathlib
import sys

from .codec import read_code, write_code
from .convex import PlaneSet, decode_convex, encode_convex
from .errors import (
    CodeFormatError,
    GeometryError,
    MeshFileError,
    NotClosed,
    NotConvex,
    ParseError,
)
from .mesh_io import (
    load_mesh,
    storage_report,
    total_plane_count,
    write_obj,
    write_stl_binary,
)
from .polygonize import (
    SegmentedCode,
    boundary_planes_for_part,
    decode_segmented,
    encode_segmented,
    polygonize_part,
)
from .segmentation import segment_mesh
from .simplify import SimplifyParams, simplify_code


@functools.cache
def build_parser():
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="planecode",
        description="Code triangle meshes as collections of oriented planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    slack = argparse.ArgumentParser(add_help=False)
    slack.add_argument("--eps", type=float,
                       help="point-to-plane slack (default 1e-7 x the bounding-box diagonal)")
    radius = argparse.ArgumentParser(add_help=False)
    radius.add_argument("--eps", type=float,
                        help="least inscribed-ball radius (default 1e-9 x max(1, |h|))")

    enc = sub.add_parser("encode", parents=[slack], help="mesh file to .plnc code")
    enc.add_argument("mesh", help="input mesh (.obj or .stl)")
    enc.add_argument("out", help="output .plnc path")
    enc.add_argument(
        "--degrees",
        action="store_true",
        help="list the planes with angles in degrees (display only)",
    )

    dec = sub.add_parser("decode", parents=[radius], help=".plnc code to mesh file")
    dec.add_argument("code", help="input .plnc path")
    dec.add_argument("out", help="output mesh path")
    dec.add_argument("--format", choices=("obj", "stl"), default=None)

    seg = sub.add_parser("segment", parents=[slack], help="print the part table of a mesh")
    seg.add_argument("mesh", help="input mesh (.obj or .stl)")
    seg.add_argument("--degrees", action="store_true")

    sim = sub.add_parser("simplify", parents=[radius], help="lossy .plnc to .plnc")
    sim.add_argument("code", help="input .plnc path")
    sim.add_argument("out", help="output .plnc path")
    sim.add_argument("--delta", type=float, default=0.0,
                     help="drop faces smaller than this area")
    sim.add_argument("--tau", type=float, default=0.0,
                     help="merge planes closer than this angle, in degrees")

    st = sub.add_parser("stats", help="storage accounting for mesh + code")
    st.add_argument("mesh", help="mesh the code was produced from")
    st.add_argument("code", help=".plnc path")
    st.add_argument("--quad-accounting", action="store_true",
                    help="charge the indexed form 48 bytes per coplanar patch")
    st.add_argument("--machine", action="store_true",
                    help="emit one key=value line per field")
    return parser


def _mesh_format(path):
    ext = pathlib.Path(path).suffix.lower()
    if ext == ".obj":
        return "obj"
    if ext == ".stl":
        return "stl"
    raise ParseError("cannot tell mesh format from extension %r" % ext)


def _load_mesh_file(path):
    data = pathlib.Path(path).read_bytes()
    return load_mesh(data, _mesh_format(path))


def _write_mesh_file(mesh, path, fmt=None):
    if fmt is None:
        fmt = _mesh_format(path)
    if fmt == "obj":
        pathlib.Path(path).write_text(write_obj(mesh))
    else:
        pathlib.Path(path).write_bytes(write_stl_binary(mesh))


def _print_planes(planes):
    print("      nu (deg)    phi (deg)            h")
    for nu, phi, h in planes:
        print("%12.6f %12.6f %12.6f" % (math.degrees(nu), math.degrees(phi), h))


def _cmd_encode(args):
    mesh = _load_mesh_file(args.mesh)
    try:
        code = encode_convex(mesh, eps=args.eps)
        kind = "convex"
    except (NotConvex, NotClosed):
        code = encode_segmented(mesh, eps=args.eps)
        kind = "segmented"
    payload = write_code(code)
    pathlib.Path(args.out).write_bytes(payload)
    if kind == "convex":
        print("convex code: %d planes, %d payload bytes" % (len(code), 12 * len(code)))
        if args.degrees:
            _print_planes(code)
    else:
        total = total_plane_count(code)
        print(
            "segmented code: %d parts, %d planes, %d payload bytes"
            % (len(code.parts), total, 12 * total)
        )
    return 0


def _cmd_decode(args):
    code = read_code(pathlib.Path(args.code).read_bytes())
    if isinstance(code, SegmentedCode):
        mesh = decode_segmented(code, eps=args.eps)
    else:
        mesh = decode_convex(code, eps=args.eps).to_mesh()
    _write_mesh_file(mesh, args.out, args.format)
    print(
        "decoded %d vertices, %d triangles -> %s"
        % (len(mesh.vertices), len(mesh.triangles), args.out)
    )
    return 0


def _cmd_segment(args):
    mesh = _load_mesh_file(args.mesh)
    parts = segment_mesh(mesh, eps=args.eps)
    total_planes = 0
    for i, part in enumerate(parts):
        faces = polygonize_part(mesh, part, eps=args.eps)
        boundary = boundary_planes_for_part(mesh, part, eps=args.eps)
        total_planes += len(faces) + len(boundary)
        print(
            "part %d: %s, %d triangles, %d face planes, %d boundary planes"
            % (i, part.kind.value, len(part.triangles), len(faces), len(boundary))
        )
        if args.degrees:
            _print_planes([f.plane for f in faces])
    print("total: %d parts, %d planes" % (len(parts), total_planes))
    return 0


def _cmd_simplify(args):
    code = read_code(pathlib.Path(args.code).read_bytes())
    params = SimplifyParams(delta=args.delta, tau=math.radians(args.tau))
    before = total_plane_count(code)
    out = simplify_code(code, params, eps=args.eps)
    if isinstance(out, PlaneSet):
        out = out.sorted_canonical()
    pathlib.Path(args.out).write_bytes(write_code(out))
    print("planes: %d -> %d" % (before, total_plane_count(out)))
    return 0


def _cmd_stats(args):
    mesh = _load_mesh_file(args.mesh)
    code = read_code(pathlib.Path(args.code).read_bytes())
    report = storage_report(mesh, code, quad_accounting=args.quad_accounting)
    if args.machine:
        for key, value in report.as_pairs():
            print("%s=%r" % (key, value))
    else:
        for key, value in report.as_pairs():
            if key == "ratio":
                print("%-15s %.4f" % (key, value))
            else:
                print("%-15s %d" % (key, value))
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "segment": _cmd_segment,
    "simplify": _cmd_simplify,
    "stats": _cmd_stats,
}


def main(argv=None):
    """Run one command; returns its exit code (see the module docstring).

    Every call parses with the same cached ``build_parser()``: parsing
    builds a fresh namespace each time, so no argument of one call
    carries over to the next, and the benchmark and the tests, which
    call ``main`` many times in one process, skip rebuilding it.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MeshFileError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print("OSError: %s" % exc, file=sys.stderr)
        return 2
    except GeometryError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    except CodeFormatError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    except ValueError as exc:
        print("ValueError: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
