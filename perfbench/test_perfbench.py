"""Tests of the benchmark's own code: python -m pytest perfbench -q"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from planecode import load_mesh, shapes  # noqa: E402


def _input_files(wl):
    return {it.name: it.mesh_path.read_bytes() for it in wl.items + wl.probes}


@pytest.mark.parametrize("name", ["hull_roundtrip", "tessellated_nonconvex"])
def test_every_input_mesh_is_closed_manifold_and_oriented(name, tmp_path):
    wl = workloads.build(name, 7, tmp_path)
    for item in wl.items + wl.probes:
        mesh = load_mesh(item.mesh_path.read_bytes(), item.mesh_path.suffix[1:])
        assert mesh.is_closed, item.name
        assert mesh.is_edge_manifold, item.name
        assert mesh.is_consistently_oriented, item.name
        assert mesh.volume() > 0, item.name


def test_corpus_sizes_match_the_workload_design(tmp_path):
    hulls = workloads.build("hull_roundtrip", 3, tmp_path / "h")
    assert sorted({it.tag for it in hulls.items}) == ["n124", "n28", "n60"]
    tess = workloads.build("tessellated_nonconvex", 3, tmp_path / "t")
    counts = sorted(it.indexed_bytes for it in tess.items)
    assert len(tess.items) == 8 and len(tess.probes) == 13
    assert counts == sorted(counts)
    ops = workloads.build("code_ops", 3, tmp_path / "o")
    assert len(ops.items) == 100


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    a = workloads.build(name, 11, tmp_path / "a")
    b = workloads.build(name, 11, tmp_path / "b")
    if name == "code_ops":
        for x, y in zip(a.items, b.items):
            assert x.code_bytes == y.code_bytes
            assert np.array_equal(x.rotation, y.rotation)
            assert np.array_equal(x.translation, y.translation)
        c = workloads.build(name, 12, tmp_path / "c")
        assert [x.code_bytes for x in a.items] != [x.code_bytes for x in c.items]
    else:
        assert _input_files(a) == _input_files(b)
        c = workloads.build(name, 12, tmp_path / "c")
        assert _input_files(a) != _input_files(c)


def test_one_step_subdivision_is_the_fixture_itself():
    mesh = shapes.notched_box()
    same = corpus.subdivide_quads(mesh, 1)
    assert np.array_equal(same.vertices, mesh.vertices)
    assert np.array_equal(same.triangles, mesh.triangles)


def test_axis_motions_are_the_24_proper_rotations():
    mats = {tuple(r.astype(int).ravel()) for r in corpus.AXIS_ROTATIONS}
    assert len(mats) == 24
    for r in corpus.AXIS_ROTATIONS:
        assert np.allclose(r @ r.T, np.eye(3)) and np.isclose(np.linalg.det(r), 1.0)


def test_traced_pass_repeats_untraced_bytes_and_restores_the_library(tmp_path):
    import planecode.cli
    import planecode.polygonize

    before = {(m, a): getattr(m, a) for m, a, *_ in tracing.WRAPPED}
    wl = workloads.build("tessellated_nonconvex", 5, tmp_path)
    wl.items = wl.items[:2]
    runner = workloads.Runner(wl)
    runner.full_pass()
    tracer = tracing.Tracer()
    runner.tracer = tracer
    with tracer.installed():
        assert planecode.cli.main is not before[(planecode.cli, "main")]
        runner.full_pass()
    assert {(m, a): getattr(m, a) for m, a, *_ in tracing.WRAPPED} == before
    assert not runner.failures and len(runner.outputs) == 2
    metrics = tracing.pass_metrics(tracer.spans)
    assert metrics["cli.convex_fallbacks"] == 2
    assert metrics["segmentation.segment_s.g1"] > 0
    mains = [s for s in tracer.spans if s.name == "cli.main"]
    assert len(mains) == 4
    for span in tracer.spans:
        assert 0 <= span.self_time <= span.duration
        if span.parent is not None:
            assert span.parent.start <= span.start <= span.end <= span.parent.end


def test_growth_slope_recovers_a_power_law():
    points = [(n, 3e-6 * n ** 2.5) for n in (28, 60, 124)]
    assert tracing.growth(points) == pytest.approx(2.5)
    assert tracing.growth([(10, 1.0)]) == 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS]


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "code_ops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
