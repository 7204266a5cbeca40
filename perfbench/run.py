"""planecode benchmark: one seeded workload per process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload hull_roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``tracing.LAYER_METRICS`` for which end-to-end
metric each layer should move, on which workload).  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.  ``attempted`` and ``failed`` count timed operations; the
robustness probe of ``tessellated_nonconvex`` is untimed and counts
only toward ``ok_frac``.

BLAS and OpenMP thread pools are capped at the CPUs this process may
use, before numpy loads; the cap is printed.  Temporary files live
under ``.perfbench_work/`` at the repository root and are removed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hull_roundtrip", "tessellated_nonconvex", "code_ops")
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("encode_s", "s", "lower"),
    ("decode_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("storage_ratio", "ratio", "higher"),
]
SETUP_SAMPLES = 3  # this process plus two fresh ones; the median is reported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the corpus, run the warm-up item, print setup_s")
    return p.parse_args(argv)


def cap_threads():
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_sources():
    src = ROOT / "src"
    if not (src / "planecode" / "__init__.py").is_file():
        print("perfbench: no planecode sources under %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import planecode

    if pathlib.Path(planecode.__file__).resolve().parent != src / "planecode":
        print("perfbench: imported planecode from outside %s" % src, file=sys.stderr)
        sys.exit(2)


def set_up(name, seed, workdir):
    """Build the seeded corpus, write its files, run one warm-up item."""
    import workloads

    wl = workloads.build(name, seed, workdir)
    first = wl.items[0]
    _, code, err = wl.encode(first)
    if err is None:
        wl.decode(first, code)
    return wl


def fresh_setup_seconds(args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(wl, seconds):
    """Closed loop of full passes, topped up with encode-only or
    decode-only passes so that the side with the cheaper pass gets a
    quarter of the run: it needs far less time to repeat many times."""
    import workloads

    runner = workloads.Runner(wl)
    deadline = time.perf_counter() + seconds
    enc_t = dec_t = 0.0
    while True:
        e, d = runner.full_pass(deadline)
        enc_t += e
        dec_t += d
        if e < d:
            while enc_t < dec_t / 3 and time.perf_counter() < deadline:
                enc_t += runner.encode_pass(deadline)
        else:
            while dec_t < enc_t / 3 and time.perf_counter() < deadline:
                dec_t += runner.decode_pass(deadline)
        if time.perf_counter() >= deadline:
            break
    probe = workloads.run_probe(wl)
    passed = runner.checks_passed() + sum(
        sum(checks.values()) for _, checks, _ in probe)
    made = len(workloads.CHECKS) * (len(wl.items) + len(probe))
    coded = [it for it in wl.items if it.name in runner.codes]
    plnc_bytes = sum(len(runner.codes[it.name]) for it in coded)
    metrics = {
        "encode_s": runner.per_pass(runner.enc),
        "decode_s": runner.per_pass(runner.dec),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": passed / made,
        "storage_ratio": (sum(it.indexed_bytes for it in coded) / plnc_bytes
                          if plnc_bytes else 0.0),
    }
    info = {"passes": (min(map(len, runner.enc.values())),
                       min(map(len, runner.dec.values()))),
            "probe": probe}
    info["percentiles"] = {
        op: (min(map(len, times.values())),
             runner.per_pass(times, 50), runner.per_pass(times, 90))
        for op, times in (("encode_s", runner.enc), ("decode_s", runner.dec))}
    return runner, metrics, info


def topology_seconds(wl, outputs):
    total = 0.0
    for mesh in wl.topology_meshes(outputs):
        t0 = time.perf_counter()
        mesh.is_closed
        mesh.neighbors
        mesh.is_consistently_oriented
        total += time.perf_counter() - t0
    return total


def run_traced(wl, seconds):
    """Untraced and traced full passes in turn, then one tracemalloc pass."""
    import tracemalloc

    import tracing
    import workloads

    runner = workloads.Runner(wl)
    plain, traced, layers, topo = [], [], [], []
    decode_pts, segment_pts = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(sum(runner.full_pass()))
        tracer = tracing.Tracer()
        runner.tracer = tracer
        with tracer.installed():
            traced.append(sum(runner.full_pass()))
        runner.tracer = None
        layers.append(tracing.pass_metrics(tracer.spans))
        d, s = tracing.size_points(tracer.spans)
        decode_pts.append(d)
        segment_pts.append(s)
        topo.append(topology_seconds(wl, runner.outputs))
        if time.perf_counter() >= deadline:
            break
    mem = tracing.Tracer(memory=True)
    runner.tracer = mem
    tracemalloc.start()
    try:
        with mem.installed():
            runner.full_pass()
    finally:
        tracemalloc.stop()
    metrics = {k: median([p[k] for p in layers]) for k in layers[0]}
    metrics["mesh.topology_s"] = median(topo)
    metrics["convex.decode_growth"] = tracing.median_growth(decode_pts)
    metrics["segmentation.growth"] = tracing.median_growth(segment_pts)
    metrics["convex.decode_peak_mb"] = tracing.peak(
        mem.spans, ("convex.decode", "polygonize.part_decode"))
    metrics["segmentation.segment_peak_mb"] = tracing.peak(
        mem.spans, ("segmentation.segment",))
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    info = {"passes": (len(plain), len(traced))}
    return runner, metrics, info


def report(name, runner, metrics, table, info, cap):
    print("workload %s: blas_threads_cap=%d passes=%s attempted=%d failed=%d"
          % (name, cap, info["passes"], runner.attempted, len(runner.failures)))
    for item, op, reason in runner.failures[:20]:
        print("  FAILED %s %s: %s" % (item, op, reason))
    for item, closed, manifold in runner.defects:
        print("  DEFECT %s: decoded mesh is %s and %s" % (item, closed, manifold))
    for item, checks, note in info.get("probe", ()):
        failed = [name for name, ok in checks.items() if not ok]
        print("  probe %-22s %-42s %s" % (
            item, "passes every check" if not failed else "fails " + ",".join(failed), note))
    out = {}
    for metric, unit, better in table:
        value = metrics[metric]
        print("  %-30s %14.6g %-6s (%s is better)" % (metric, value, unit, better))
        if metric in info.get("percentiles", {}):
            n, p50, p90 = info["percentiles"][metric]
            print("  %-30s %14s per item: >= %d samples, median pass %.6g s, p90 pass %.6g s"
                  % ("", "", n, p50, p90))
        out[metric] = {"value": value, "unit": unit}
    result = {
        "correct": not runner.failures and len(runner.outputs) == len(runner.wl.items),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": out,
    }
    print(json.dumps(result))
    return result


def run_all(args):
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    cap = cap_threads()
    if args.workload == "all":
        return run_all(args)
    import_sources()
    import tracing

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch))
    try:
        wl = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        wl.compute_references()
        if args.trace:
            runner, metrics, info = run_traced(wl, args.seconds)
            table = [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS]
        else:
            samples = [setup_s] + [fresh_setup_seconds(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
            runner, metrics, info = run_untraced(wl, args.seconds)
            metrics["setup_s"] = median(samples)
            table = END_TO_END
        report(args.workload, runner, metrics, table, info, cap)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
