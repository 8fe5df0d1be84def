"""The benchmark's own tests: every workload's generator and pipeline at a
tiny n, and the traced run's section bits against size_report.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import rltsketch as rs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, generate, query_pairs  # noqa: E402

TINY_N = {"lp-uniform-4k": 60, "lp-multiscale-2k": 60, "euclid-1k": 40}


def shrink(name: str):
    """The workload at a tiny size."""
    return dataclasses.replace(WORKLOADS[name], n=TINY_N[name], queries=50, passes=2)


def tiny_run(name: str, seed: int = 3) -> run.Run:
    w = shrink(name)
    return run.Run(rs, w, seed, generate(w, seed), query_pairs(w, seed))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    w = shrink(name)
    assert np.array_equal(generate(w, 5), generate(w, 5))
    assert not np.array_equal(generate(w, 5), generate(w, 6))
    pairs = query_pairs(w, 5)
    assert np.array_equal(pairs, query_pairs(w, 5))
    assert np.all(pairs[:, 0] != pairs[:, 1])
    assert pairs.min() >= 0 and pairs.max() < w.n


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_at_tiny_n_passes_every_check(name):
    r = tiny_run(name)
    metrics, info = run.measure(r, seconds=600.0)
    assert r.errors == []
    assert r.failed == 0 and r.attempted > 2 * r.w.queries
    assert set(metrics) == set(run.registry()["end_to_end"])
    assert all(np.isfinite(v) and v > 0 for v in metrics.values())
    assert metrics["max_err_over_band"] <= 1.0
    assert (info["passes"], info["capped"], info["query_sweeps"], info["query_pairs"]) == (
        2, False, 2 * run.QUERY_ROUNDS * run.QUERY_SWEEPS, r.w.queries)
    assert len(r.samples["import_s"]) == len(r.samples["ingest_s"]) == 4
    for name in run.TIMINGS:
        assert metrics[name] == pytest.approx(info[f"raw.{name}"] * info["speed_scale"])
    assert len(set(r.digests)) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_section_bits_equal_size_report(name, tmp_path):
    r = tiny_run(name)
    path = str(tmp_path / "trace.json")
    metrics, info = run.measure_traced(r, seconds=600.0, trace_path=path)
    assert r.errors == [] and r.failed == 0
    assert info["missing"] == []
    assert (info["traced_passes"], info["untraced_passes"], info["capped"]) == (1, 1, False)
    assert set(run.registry()["per_layer"]) <= set(metrics)

    report = rs.size_report(r.sketch)
    traced = {k[len("codec.bits."):]: v for k, v in metrics.items()
              if k.startswith("codec.bits.")}
    assert traced == {k: v["stored_bits"] for k, v in report["sections"].items()}
    assert report["header"]["stored_bits"] + sum(traced.values()) == 8 * metrics["codec.file_bytes"]

    with open(path) as fh:
        doc = json.load(fh)
    assert doc["spans_total"] == len(doc["spans"]) > 0
    assert doc["calls"]["codec.encode"] == 1


def test_tracer_restores_every_binding():
    from rltsketch import metric, tree

    before = (tree.round_to_net, metric.round_to_net, rs.QueryContext.estimate)
    tracer = Tracer()
    tracer.install()
    try:
        assert tree.round_to_net is metric.round_to_net is not before[0]
        assert "metric.round_to_net" in tracer.wrapped
        assert tracer.missing(["metric.round_to_net", "tree.gone"]) == ["tree.gone"]
    finally:
        tracer.uninstall()
    assert (tree.round_to_net, metric.round_to_net, rs.QueryContext.estimate) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "euclid-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_stage_span_outside_a_build_fails_the_check():
    from spans import Span

    tracer = Tracer()
    tracer.spans[:] = [Span(0, "codec.build_lp_sketch", 0.0, 1.0, -1),
                       Span(1, "tree.build_hierarchy", 0.1, 0.5, 0)]
    assert run.stages_inside_build(tracer)
    tracer.spans.append(Span(2, "tree.assign_ingresses", 2.0, 3.0, -1))
    assert not run.stages_inside_build(tracer)


def test_seconds_only_caps_the_pass_count():
    r = tiny_run("euclid-1k")
    r.w = dataclasses.replace(r.w, passes=3)
    metrics, info = run.measure(r, seconds=0.0)
    assert (info["passes"], info["capped"]) == (1, True)
    assert r.failed == 0
