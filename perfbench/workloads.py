"""The three benchmark workloads, their per-item checks and the pass runner.

Every workload is a closed loop with one caller: an item's next
operation starts when the previous one has finished.  ``encode`` turns
an item's input into ``.plnc`` bytes and ``decode`` turns those bytes
into mesh-file bytes; both return ``(seconds, payload, error)``, with
the clock around the library work only.
"""

import contextlib
import io
import math
import pathlib
import time

import numpy as np

import planecode.cli
import planecode.codec
import planecode.convex
import planecode.mesh_io
import planecode.polygonize
import planecode.simplify
from planecode import SimplifyParams, shapes
from planecode.mesh_io import load_mesh, write_obj, write_stl_binary

import corpus

# Relative volume and area tolerance for every decoded mesh.  float32
# storage of angles and offsets moves sphere hulls by up to ~6e-5; a
# real defect (l_prism at g = 3 decodes 7.8% too large) is far above.
REL_TOL = 1e-3
SIMPLIFY = SimplifyParams(delta=1e-3, tau=math.radians(20.0))


class Item:
    """One corpus entry with the reference measures its output must match."""

    def __init__(self, name, tag, ref_mesh=None, **fields):
        self.name = name
        self.tag = tag
        self.__dict__.update(fields)
        if ref_mesh is not None:
            self.set_reference(ref_mesh)

    def set_reference(self, mesh):
        self.ref_volume = mesh.volume()
        self.ref_area = mesh.surface_area()
        self.indexed_bytes = 12 * len(mesh.vertices) + 12 * len(mesh.triangles)


CHECKS = ("ran", "repeats", "closed", "manifold", "volume", "area")


def check_mesh(mesh, item):
    """Outcome of the four geometric checks on one decoded mesh, and a note."""
    vol_err = abs(mesh.volume() - item.ref_volume) / abs(item.ref_volume)
    area_err = abs(mesh.surface_area() - item.ref_area) / item.ref_area
    checks = {
        "closed": mesh.is_closed,
        "manifold": mesh.is_edge_manifold,
        "volume": vol_err <= REL_TOL,
        "area": area_err <= REL_TOL,
    }
    return checks, "volume error %.3g, area error %.3g" % (vol_err, area_err)


def _cli(argv):
    """planecode.cli.main with its output captured; (seconds, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = planecode.cli.main(argv)
        except Exception as exc:  # a failed item is counted, the run goes on
            rc, err = None, io.StringIO("%s: %s" % (type(exc).__name__, exc))
        seconds = time.perf_counter() - t0
    if rc == 0:
        return seconds, None
    return seconds, err.getvalue().strip() or "exit code %s" % rc


class CliWorkload:
    """Mesh files through ``planecode encode`` and ``planecode decode``."""

    def __init__(self, workdir):
        self.items = []
        self.probes = []
        self.workdir = workdir

    def add(self, name, tag, mesh, fmt, decode_fmt, probe=False):
        path = self.workdir / (name + "." + fmt)
        if fmt == "obj":
            path.write_text(write_obj(mesh))
        else:
            path.write_bytes(write_stl_binary(mesh))
        item = Item(name, tag, mesh, mesh_path=path, decode_fmt=decode_fmt,
                    code_path=self.workdir / (name + ".plnc"),
                    out_path=self.workdir / (name + ".out." + decode_fmt))
        (self.probes if probe else self.items).append(item)

    def encode(self, item):
        t, err = _cli(["encode", str(item.mesh_path), str(item.code_path)])
        return t, None if err else item.code_path.read_bytes(), err

    def decode(self, item, code):
        argv = ["decode", str(item.code_path), str(item.out_path)]
        if item.decode_fmt == "stl":
            argv += ["--format", "stl"]
        t, err = _cli(argv)
        return t, None if err else item.out_path.read_bytes(), err

    def load_output(self, item, data):
        return load_mesh(data, item.decode_fmt)

    def compute_references(self):
        """Nothing to do: the input meshes are the references."""

    def topology_meshes(self, outputs):
        """Freshly parsed input meshes, for the topology side measurement."""
        for item in self.items:
            yield load_mesh(item.mesh_path.read_bytes(), item.mesh_path.suffix[1:])


def _rigid(code, rotation, translation):
    convex = planecode.convex
    if hasattr(code, "parts"):
        return planecode.polygonize.SegmentedCode([
            planecode.polygonize.PartCode(
                part.kind,
                convex.translate_planes(
                    convex.rotate_planes(part.face_planes, rotation), translation),
                convex.translate_planes(
                    convex.rotate_planes(part.boundary_planes, rotation), translation),
            )
            for part in code.parts
        ])
    return convex.translate_planes(convex.rotate_planes(code, rotation), translation)


def _decode_mesh(code):
    if hasattr(code, "parts"):
        return planecode.polygonize.decode_segmented(code)
    return planecode.convex.decode_convex(code).to_mesh()


def _simplified(data, rotation=None, translation=None):
    code = planecode.codec.read_code(data)
    if rotation is not None:
        code = _rigid(code, rotation, translation)
    code = planecode.simplify.simplify_code(code, SIMPLIFY)
    return planecode.codec.write_code(code)


def _decoded_obj(data):
    return planecode.mesh_io.write_obj(
        _decode_mesh(planecode.codec.read_code(data))).encode()


class OpsWorkload:
    """Operations on stored codes: rigid motion and simplify, then decode."""

    probes = ()

    def __init__(self, items):
        self.items = items

    def encode(self, item):
        t0 = time.perf_counter()
        try:
            payload = _simplified(item.code_bytes, item.rotation, item.translation)
        except Exception as exc:  # a failed item is counted, the run goes on
            return time.perf_counter() - t0, None, "%s: %s" % (type(exc).__name__, exc)
        return time.perf_counter() - t0, payload, None

    def decode(self, item, code):
        t0 = time.perf_counter()
        try:
            payload = _decoded_obj(code)
        except Exception as exc:
            return time.perf_counter() - t0, None, "%s: %s" % (type(exc).__name__, exc)
        return time.perf_counter() - t0, payload, None

    def load_output(self, item, data):
        return load_mesh(data, "obj")

    def compute_references(self):
        """Measures of the same chain without the rigid motion.

        Rigid motions commute with coding, so the moved result must
        measure like the unmoved one.  This is checking work, done after
        set-up is timed.
        """
        for item in self.items:
            item.set_reference(load_mesh(_decoded_obj(_simplified(item.code_bytes)), "obj"))

    def topology_meshes(self, outputs):
        """Freshly parsed decoded meshes: this workload loads no input mesh."""
        for data in outputs.values():
            yield load_mesh(data, "obj")


def build_hull_roundtrip(rng, workdir):
    wl = CliWorkload(workdir)
    for n_points in (16, 32, 64):
        for k in range(3):
            mesh = corpus.sphere_hull(rng, n_points)
            wl.add("hull_p%d_%d" % (n_points, k), "n%d" % len(mesh.triangles),
                   mesh, "stl", "obj")
    return wl


def build_tessellated_nonconvex(rng, workdir):
    wl = CliWorkload(workdir)
    for g in (1, 2, 3, 4):
        for name, make in corpus.TESSELLATED_FIXTURES.items():
            mesh = corpus.moved(corpus.subdivide_quads(make(), g), corpus.axis_motion(rng))
            wl.add("%s_g%d" % (name, g), "g%d" % g, mesh, "obj", "stl")
    # Robustness probe: ordinary solids, most of which fail at the seed commit.
    # Untimed and left unmoved, so their outcomes do not depend on the
    # seed; they count only toward ok_frac.
    for k in (4, 5, 8):
        wl.add("star_k%d" % k, None, corpus.star_prism(k), "obj", "stl", probe=True)
    for k in (2, 3, 4):
        wl.add("staircase_k%d" % k, None, corpus.staircase(k), "obj", "stl", probe=True)
    for g in (2, 3, 4):
        wl.add("l_prism_g%d" % g, None, corpus.subdivide_quads(shapes.l_prism(), g),
               "obj", "stl", probe=True)
    for g in (3, 4):
        for name, make in corpus.TESSELLATED_FIXTURES.items():
            # reference measures come from the float32 coordinates actually stored
            mesh = load_mesh(write_stl_binary(corpus.subdivide_quads(make(), g)), "stl")
            wl.add("%s_g%d_f32" % (name, g), None, mesh, "stl", "stl", probe=True)
    return wl


def build_code_ops(rng, workdir):
    # Sizes are fixed and only shapes and motions depend on the seed, so
    # every seed asks for about the same work.
    codes = []
    for n in range(3, 29):
        codes.append(("prism_n%d" % n, shapes.ngon_prism_code(n)))
    for t in rng.uniform(0.02, 0.4, size=36):
        codes.append(("chamfer_t%.3f" % t, shapes.chamfered_cube_code(float(t))))
    for n in list(range(6, 13)) * 5:
        mesh = corpus.sphere_hull(rng, n)
        codes.append(("hull_p%d" % n, planecode.convex.encode_convex(mesh)))
    for name, make in corpus.SEGMENTED_FIXTURES.items():
        codes.append((name, planecode.polygonize.encode_segmented(make())))
    items = [
        Item("%03d_%s" % (k, name), None, code_bytes=planecode.codec.write_code(code),
             rotation=corpus.random_rotation(rng),
             translation=rng.uniform(-2.0, 2.0, size=3))
        for k, (name, code) in enumerate(codes)
    ]
    return OpsWorkload(items)


BUILDERS = {
    "hull_roundtrip": build_hull_roundtrip,
    "tessellated_nonconvex": build_tessellated_nonconvex,
    "code_ops": build_code_ops,
}


def build(name, seed, workdir):
    """Seeded corpus of one workload, input files written under ``workdir``."""
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](np.random.default_rng(seed), workdir)


class Runner:
    """Runs passes over a workload, timing and checking every operation.

    The first output of each item is checked against its reference;
    every later output must repeat it byte for byte, so traced and
    untraced passes are compared too.  Nothing is raised: an operation
    that errors, an output that repeats differently or measures off
    tolerance is a failure, and every check outcome lands in ``checks``.
    An output that is not closed or not edge-manifold is a defect: it
    fails its checks but not the run, because the seed's convex decoder
    already emits such meshes from float32 codes (see ``defects``).
    """

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.enc = {it.name: [] for it in workload.items}
        self.dec = {it.name: [] for it in workload.items}
        self.codes = {}
        self.outputs = {}
        self.checks = {it.name: {"ran": True, "repeats": True} for it in workload.items}
        self.attempted = 0
        self.failures = []
        self.defects = []

    def _fail(self, item, op, check, reason):
        self.checks[item.name][check] = False
        self.failures.append((item.name, op, reason))

    def _accept(self, store, item, op, payload):
        first = store.setdefault(item.name, payload)
        if first != payload:
            self._fail(item, op, "repeats", "bytes differ from the first pass")
            return False
        if op == "decode" and first is payload:
            checks, note = check_mesh(self.wl.load_output(item, payload), item)
            self.checks[item.name].update(checks)
            if not (checks["volume"] and checks["area"]):
                self.failures.append((item.name, op, note))
                return False
            if not (checks["closed"] and checks["manifold"]):
                self.defects.append((item.name, "closed" if checks["closed"] else "open",
                                     "manifold" if checks["manifold"] else "non-manifold"))
        return True

    def _run(self, item, op, call):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.tag = item.tag
        t, payload, err = call()
        if err is not None:
            self._fail(item, op, "ran", err)
            return None
        store = self.codes if op == "encode" else self.outputs
        if not self._accept(store, item, op, payload):
            return None
        (self.enc if op == "encode" else self.dec)[item.name].append(t)
        return t

    def encode(self, item):
        return self._run(item, "encode", lambda: self.wl.encode(item))

    def decode(self, item):
        code = self.codes.get(item.name)
        if code is None:
            return None
        return self._run(item, "decode", lambda: self.wl.decode(item, code))

    def _items(self, deadline):
        """The corpus in order, cut short once ``deadline`` has passed and
        every item has been timed at least once."""
        for item in self.wl.items:
            if (deadline is not None and time.perf_counter() >= deadline
                    and all(self.enc.values()) and all(self.dec.values())):
                return
            yield item

    def full_pass(self, deadline=None):
        """Encode then decode each item; (encode seconds, decode seconds)."""
        enc = dec = 0.0
        for item in self._items(deadline):
            t = self.encode(item)
            if t is not None:
                enc += t
                dec += self.decode(item) or 0.0
        return enc, dec

    def encode_pass(self, deadline=None):
        return sum(self.encode(item) or 0.0 for item in self._items(deadline))

    def decode_pass(self, deadline=None):
        return sum(self.decode(item) or 0.0 for item in self._items(deadline))

    def per_pass(self, times, percentile=0):
        """Seconds for one pass: the sum over items of a percentile of each
        item's repetitions, by default the fastest.  Shared hosts have
        slow phases lasting seconds that move medians by a third between
        runs; an item's fastest repetition moves far less."""
        return sum(float(np.percentile(ts, percentile)) for ts in times.values() if ts)

    def checks_passed(self):
        """Number of checks passed; every item counts all six checks."""
        return sum(
            sum(bool(c.get(name)) for name in CHECKS) for c in self.checks.values()
        )


def run_probe(wl):
    """Untimed: one encode and two decodes per probe item.

    Returns (name, checks, outcome); the outcome is the exception class
    or the volume and area errors.
    """
    results = []
    for item in wl.probes:
        _, code, err = wl.encode(item)
        if err is None:
            _, data, err = wl.decode(item, code)
        if err is None:
            _, again, err = wl.decode(item, code)
        if err is not None:
            results.append((item.name, dict.fromkeys(CHECKS, False),
                            err.split(":", 1)[0]))
            continue
        checks, note = check_mesh(wl.load_output(item, data), item)
        checks.update(ran=True, repeats=again == data)
        results.append((item.name, checks, note))
    return results
