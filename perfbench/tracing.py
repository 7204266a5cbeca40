"""Spans around planecode's public functions, and the per-layer metrics.

The benchmark never edits the library.  ``Tracer.installed()`` swaps
timing wrappers in at the module attributes the calls go through and
puts the originals back on exit.  Each wrapper records one span: name,
start, end, parent span, outcome (``"returned"`` or the exception class
name) and counters taken from the arguments and return value.  A span's
self time is its duration minus the durations of its direct children;
the code is single-threaded, so children never overlap.
"""

import contextlib
import math
import statistics
import time
import tracemalloc

import planecode.cli
import planecode.codec
import planecode.convex
import planecode.mesh_io
import planecode.polygonize
import planecode.simplify

MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "outcome", "tag",
                 "counts", "children_s", "peak_mb")

    def __init__(self, name, parent, tag):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.outcome = None
        self.counts = None
        self.children_s = 0.0
        self.peak_mb = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.children_s


def _decode_counts(args, result):
    return {
        "planes": len(args[0]),
        "vertices": len(result.vertices),
        "redundant": len(result.redundant_planes),
    }


def _segment_counts(args, result):
    kinds = [p.kind.value for p in result]
    return {
        "triangles": len(args[0].triangles),
        "convex": kinds.count("pseudo-convex"),
        "concave": kinds.count("pseudo-concave"),
    }


# (module, attribute, span name, counter function or None, tracemalloc peak)
WRAPPED = [
    (planecode.cli, "main", "cli.main", None, False),
    (planecode.cli, "load_mesh", "mesh_io.load", None, False),
    (planecode.cli, "encode_convex", "convex.encode", None, False),
    (planecode.cli, "encode_segmented", "polygonize.encode_segmented", None, False),
    (planecode.cli, "decode_convex", "convex.decode", _decode_counts, True),
    (planecode.cli, "decode_segmented", "polygonize.decode_segmented", None, False),
    (planecode.cli, "read_code", "codec.read", None, False),
    (planecode.cli, "write_code", "codec.write", lambda a, r: {"bytes": len(r)}, False),
    (planecode.cli, "write_obj", "mesh_io.write", None, False),
    (planecode.cli, "write_stl_binary", "mesh_io.write", None, False),
    (planecode.polygonize, "segment_mesh", "segmentation.segment", _segment_counts, True),
    (planecode.polygonize, "polygonize_part", "polygonize.polygonize",
     lambda a, r: {"faces": len(r)}, False),
    (planecode.polygonize, "boundary_planes_for_part", "polygonize.cut",
     lambda a, r: {"planes": len(r)}, False),
    (planecode.polygonize, "decode_convex", "polygonize.part_decode", _decode_counts, True),
    (planecode.simplify, "decode_convex", "convex.decode", _decode_counts, True),
    # the code_ops chain calls these through their home modules
    (planecode.codec, "read_code", "codec.read", None, False),
    (planecode.codec, "write_code", "codec.write", lambda a, r: {"bytes": len(r)}, False),
    (planecode.convex, "rotate_planes", "convex.rigid", None, False),
    (planecode.convex, "translate_planes", "convex.rigid", None, False),
    (planecode.convex, "decode_convex", "convex.decode", _decode_counts, True),
    (planecode.polygonize, "decode_segmented", "polygonize.decode_segmented", None, False),
    (planecode.simplify, "simplify_code", "simplify.simplify",
     lambda a, r: {"planes_in": planecode.mesh_io.total_plane_count(a[0]),
                   "planes_out": planecode.mesh_io.total_plane_count(r)},
     False),
    (planecode.mesh_io, "write_obj", "mesh_io.write", None, False),
]


class Tracer:
    """Collects spans in memory while its wrappers are installed.

    ``tag`` is copied onto every span; the runner sets it to the
    current item's size key.  With ``memory`` on, spans of wrappers
    flagged for it also record their tracemalloc peak; the caller
    starts and stops tracemalloc.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.tag = None
        self._stack = []

    def _wrap(self, fn, name, count, track_peak):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.tag)
            peak = self.memory and track_peak
            if peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            else:
                span.outcome = "returned"
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children_s += span.end - span.start
                if peak:
                    span.peak_mb = (tracemalloc.get_traced_memory()[1] - base) / MB
                self.spans.append(span)
                if count is not None and span.outcome == "returned":
                    span.counts = count(args, result)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, count, track_peak in WRAPPED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count, track_peak))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# Per-layer metrics: name, unit, better, and which end-to-end metric the
# layer should move on which workload.  BENCHMARK.json lists the same
# names; tests check that the two agree.
LAYER_METRICS = [
    ("mesh_io.load_s", "s", "lower",
     "encode_s: binary STL parse and exact weld on hull_roundtrip, OBJ parse on tessellated_nonconvex"),
    ("mesh_io.write_s", "s", "lower",
     "decode_s: OBJ on hull_roundtrip and code_ops, binary STL on tessellated_nonconvex"),
    ("mesh.topology_s", "s", "lower",
     "encode_s on tessellated_nonconvex (side measurement: first is_closed, neighbors and "
     "is_consistently_oriented on freshly loaded input meshes; decoded meshes on code_ops)"),
    ("cli.self_s", "s", "lower",
     "encode_s and decode_s on small items: cli.main minus its child spans"),
    ("cli.convex_fallbacks", "count", "lower",
     "encode_s on tessellated_nonconvex: encodes that first fail convex"),
    ("convex.encode_s", "s", "lower", "encode_s on hull_roundtrip"),
    ("convex.encode_reject_s", "s", "lower",
     "encode_s on tessellated_nonconvex: encode_convex calls that raise (wasted work)"),
    ("convex.decode_s", "s", "lower",
     "decode_s and peak_rss_mb on hull_roundtrip, encode_s on code_ops via simplify; "
     "nothing on tessellated_nonconvex"),
    ("convex.decode_calls", "count", "lower", "same as convex.decode_s; repeats exactly"),
    ("convex.decode_planes", "count", "lower", "same as convex.decode_s; repeats exactly"),
    ("convex.decode_vertices", "count", "lower", "same as convex.decode_s; repeats exactly"),
    ("convex.decode_redundant", "count", "lower", "same as convex.decode_s; repeats exactly"),
    ("convex.decode_s.n28", "s", "lower", "decode_s on hull_roundtrip, 28-plane hulls"),
    ("convex.decode_s.n60", "s", "lower", "decode_s on hull_roundtrip, 60-plane hulls"),
    ("convex.decode_s.n124", "s", "lower", "decode_s on hull_roundtrip, 124-plane hulls"),
    ("convex.decode_growth", "slope", "lower",
     "decode_s on hull_roundtrip: log-log slope of time per call against plane count"),
    ("convex.decode_peak_mb", "MB", "lower", "peak_rss_mb on hull_roundtrip (tracemalloc)"),
    ("convex.rigid_s", "s", "lower", "encode_s on code_ops: rotate_planes and translate_planes"),
    ("segmentation.segment_s", "s", "lower",
     "encode_s on tessellated_nonconvex; nothing on hull_roundtrip"),
    ("segmentation.segment_s.g1", "s", "lower", "encode_s on tessellated_nonconvex, g = 1"),
    ("segmentation.segment_s.g2", "s", "lower", "encode_s on tessellated_nonconvex, g = 2"),
    ("segmentation.segment_s.g3", "s", "lower", "encode_s on tessellated_nonconvex, g = 3"),
    ("segmentation.segment_s.g4", "s", "lower", "encode_s on tessellated_nonconvex, g = 4"),
    ("segmentation.growth", "slope", "lower",
     "encode_s on tessellated_nonconvex: log-log slope of time per call against triangle count"),
    ("segmentation.parts_convex", "count", "lower", "encode_s on tessellated_nonconvex"),
    ("segmentation.parts_concave", "count", "lower", "encode_s on tessellated_nonconvex"),
    ("segmentation.segment_peak_mb", "MB", "lower",
     "peak_rss_mb on tessellated_nonconvex (tracemalloc)"),
    ("polygonize.polygonize_s", "s", "lower", "encode_s on tessellated_nonconvex"),
    ("polygonize.faces", "count", "lower", "encode_s on tessellated_nonconvex"),
    ("polygonize.cut_s", "s", "lower", "encode_s on tessellated_nonconvex"),
    ("polygonize.cut_planes", "count", "lower", "encode_s on tessellated_nonconvex"),
    ("polygonize.part_decode_s", "s", "lower",
     "decode_s on tessellated_nonconvex: decode_convex calls under decode_segmented"),
    ("polygonize.weld_s", "s", "lower",
     "decode_s on tessellated_nonconvex: self time of decode_segmented"),
    ("simplify.simplify_s", "s", "lower", "encode_s on code_ops"),
    ("simplify.self_s", "s", "lower", "encode_s on code_ops: simplify_code minus its decodes"),
    ("simplify.planes_in", "count", "lower", "encode_s on code_ops"),
    ("simplify.planes_out", "count", "lower", "encode_s on code_ops"),
    ("codec.read_s", "s", "lower", "encode_s and decode_s on code_ops"),
    ("codec.write_s", "s", "lower", "encode_s on code_ops"),
    ("codec.bytes", "count", "lower", "storage_ratio on every workload"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced pass wall time over untraced pass wall time, minus one"),
]


def _sum(spans, name, pred=None):
    return sum(s.duration for s in spans if s.name == name and (pred is None or pred(s)))


def _self(spans, name):
    return sum(s.self_time for s in spans if s.name == name)


def _count(spans, name, key):
    return sum(s.counts[key] for s in spans if s.name == name and s.counts)


def _under_cli(span):
    return span.parent is not None and span.parent.name == "cli.main"


def growth(points):
    """Least-squares slope of log(time) against log(size); 0 with < 2 sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def pass_metrics(spans):
    """Layer values of one traced pass, except the growth slopes and peaks."""
    out = {
        "mesh_io.load_s": _sum(spans, "mesh_io.load"),
        "mesh_io.write_s": _sum(spans, "mesh_io.write"),
        "cli.self_s": _self(spans, "cli.main"),
        "cli.convex_fallbacks": sum(
            1 for s in spans if s.name == "convex.encode" and s.outcome != "returned"),
        "convex.encode_s": _sum(spans, "convex.encode", lambda s: s.outcome == "returned"),
        "convex.encode_reject_s": _sum(
            spans, "convex.encode", lambda s: s.outcome != "returned"),
        "convex.decode_s": _sum(spans, "convex.decode"),
        "convex.decode_calls": sum(1 for s in spans if s.name == "convex.decode"),
        "convex.decode_planes": _count(spans, "convex.decode", "planes"),
        "convex.decode_vertices": _count(spans, "convex.decode", "vertices"),
        "convex.decode_redundant": _count(spans, "convex.decode", "redundant"),
        "convex.rigid_s": _sum(spans, "convex.rigid"),
        "segmentation.segment_s": _sum(spans, "segmentation.segment"),
        "segmentation.parts_convex": _count(spans, "segmentation.segment", "convex"),
        "segmentation.parts_concave": _count(spans, "segmentation.segment", "concave"),
        "polygonize.polygonize_s": _sum(spans, "polygonize.polygonize"),
        "polygonize.faces": _count(spans, "polygonize.polygonize", "faces"),
        "polygonize.cut_s": _sum(spans, "polygonize.cut"),
        "polygonize.cut_planes": _count(spans, "polygonize.cut", "planes"),
        "polygonize.part_decode_s": _sum(spans, "polygonize.part_decode"),
        "polygonize.weld_s": _self(spans, "polygonize.decode_segmented"),
        "simplify.simplify_s": _sum(spans, "simplify.simplify"),
        "simplify.self_s": _self(spans, "simplify.simplify"),
        "simplify.planes_in": _count(spans, "simplify.simplify", "planes_in"),
        "simplify.planes_out": _count(spans, "simplify.simplify", "planes_out"),
        "codec.read_s": _sum(spans, "codec.read"),
        "codec.write_s": _sum(spans, "codec.write"),
        "codec.bytes": _count(spans, "codec.write", "bytes"),
    }
    for n in (28, 60, 124):
        out["convex.decode_s.n%d" % n] = _sum(
            spans, "convex.decode",
            lambda s: _under_cli(s) and s.counts and s.counts["planes"] == n)
    for g in (1, 2, 3, 4):
        out["segmentation.segment_s.g%d" % g] = _sum(
            spans, "segmentation.segment", lambda s: s.tag == "g%d" % g)
    return out


def size_points(spans):
    """(size, duration) per call for the two growth fits."""
    decode = [(s.counts["planes"], s.duration) for s in spans
              if s.name == "convex.decode" and s.counts and _under_cli(s)]
    segment = [(s.counts["triangles"], s.duration) for s in spans
               if s.name == "segmentation.segment" and s.counts]
    return decode, segment


def median_growth(passes_points):
    """Growth slope over per-size medians gathered across passes."""
    by_size = {}
    for points in passes_points:
        for size, t in points:
            by_size.setdefault(size, []).append(t)
    return growth([(size, statistics.median(ts)) for size, ts in by_size.items()])


def peak(spans, names):
    return max((s.peak_mb for s in spans if s.name in names and s.peak_mb is not None),
               default=0.0)
