#!/usr/bin/env python3
"""End-to-end benchmark of rltsketch: build, file, open and query.

    python3 perfbench/run.py --workload lp-uniform-4k --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ./src, never from
an installed copy. With --trace 0 the run measures the end-to-end metrics
with no tracing. With --trace 1 it alternates traced and untraced passes and
reports the per-layer metrics, the tracing overhead, and a span file under
perfbench/traces/. Either way it makes the workload's fixed number of
pipeline passes (--seconds only caps the run on a slow machine), checks the
program's outputs, counts every failed operation, and prints one JSON object
as its last line.
"""
from __future__ import annotations

import os

# One BLAS thread: steadier timings on a shared 2-CPU machine, and at or
# below nproc anywhere. Set before numpy is imported.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

from spans import Tracer, write_trace
from workloads import WORKLOADS, generate, query_pairs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Timings are the best (minimum) over repetitions spread through the run.
# On a shared machine the same code runs up to 2x slower while neighbours
# load the host, in stretches of seconds to minutes; such outliers only ever
# go slow, so the minimum is the steadiest estimate of the uncontended cost.
# Every run makes the same number of repetitions of each step (the
# workload's `passes` times the counts below), so a minimum is always taken
# over the same number of samples, whatever the other steps cost.
# Rounds of open -> single queries -> all_pairs per build, and repeats of
# the short steps per round: more samples of the steps that take milliseconds.
QUERY_ROUNDS = 2
OPENS_PER_ROUND = 2
QUERY_SWEEPS = 4

# The end-to-end timings are scaled to a reference machine speed. A fixed
# pure-Python loop (the probe) runs before every timed step; the timings are
# multiplied by REFERENCE_PROBE_S / (best probe time of the run). When
# neighbour load slows a whole run evenly, the probe slows with it and the
# scaling cancels the load; when the load comes in short bursts, the probe's
# best falls in a gap and the scaling changes little. REFERENCE_PROBE_S is
# the probe's best time on an uncontended 2.1 GHz Xeon vCPU, so scaled
# timings read as seconds on that machine. Raw timings are printed too.
PROBE_LOOPS = 100_000
REFERENCE_PROBE_S = 0.00525
TIMINGS = ("setup_s", "build_s", "open_s", "query_p50_us", "query_p99_us", "all_pairs_s")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rltsketch; "
                "print(time.perf_counter() - t)")

TREE_STAGES = ("build_hierarchy", "compress_paths", "assign_centers",
               "assign_ingresses", "compute_surrogates", "select_landmarks")
BUILD_SPANS = ("codec.build_lp_sketch", "euclid.build_euclidean_sketch")
# Span names the per-layer metrics read; any that no longer exists is
# reported as missing.
EXPECTED_SPANS = (
    ("harness.ingest_array", "metric.pairwise_distances", "metric.round_to_net",
     "metric.randomized_grid_round", "euclid.jl_transform",
     "euclid.build_augmentations", "codec.encode", "codec.decode",
     "bits.BitReader.read_gamma", "estimator.QueryContext.__init__")
    + BUILD_SPANS + tuple(f"tree.{s}" for s in TREE_STAGES))


class Run:
    """One benchmark run: the pipeline passes, their timings, and the count
    of attempted and failed operations."""

    def __init__(self, rs, workload, seed: int, x, pairs):
        self.rs = rs
        self.w = workload
        self.seed = seed
        self.x = x
        self.pairs = [(int(i), int(j)) for i, j in pairs]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.visits: list[int] = []
        # per query pair: its best latency over all sweeps of the run
        self.pair_best_ns = [math.inf] * len(self.pairs)
        self.query_sweeps = 0
        self.digests: list[str] = []
        self.sketch = None
        self.tree = None
        self.report = None  # size_report of the last file

    # -- bookkeeping -------------------------------------------------------

    def op(self, name: str, fn, *args):
        """Run one operation; a failure is counted and recorded, not raised."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
            return False, None

    def check(self, name: str, ok_fn, *args):
        def run():
            if not ok_fn(*args):
                raise AssertionError(f"check {name} failed")
        self.op(f"check {name}", run)

    def sample(self, key: str, value: float):
        self.samples.setdefault(key, []).append(value)

    def best(self, key: str) -> float:
        if not self.samples.get(key):
            raise SystemExit(f"no successful sample of {key}")
        return min(self.samples[key])

    # -- the pipeline ------------------------------------------------------

    def probe(self):
        self.sample("probe_s", probe_seconds())

    def time_import(self):
        self.probe()
        ok, seconds = self.op("import", import_seconds)
        if ok:
            self.sample("import_s", seconds)

    def setup(self):
        """One timed fresh-interpreter import and one timed ingest."""
        self.time_import()
        return self.ingest()

    def ingest(self):
        self.probe()
        t0 = time.perf_counter()
        ok, ps = self.op("ingest", self.rs.ingest_array, self.x, self.w.p)
        if ok:
            self.sample("ingest_s", time.perf_counter() - t0)
        return ps

    def build(self, ps):
        if self.w.flavor == "euclidean":
            return self.rs.build_euclidean_sketch(ps, self.w.eps, self.seed)
        return self.rs.build_lp_sketch(ps, self.w.eps)

    def open(self, data: bytes):
        tree = self.rs.decode(self.rs.SketchBits(data))
        return tree, self.rs.QueryContext(tree)

    def pipeline_pass(self, ps) -> bool:
        """One build, then QUERY_ROUNDS rounds of open -> single queries ->
        all_pairs on the built file, each step timed."""
        self.probe()
        t0 = time.perf_counter()
        ok, sk = self.op("build", self.build, ps)
        if not ok:
            return False
        self.sample("build_s", time.perf_counter() - t0)
        digest = hashlib.sha256(sk.data).hexdigest()
        if self.digests:
            self.check("repeated builds give the same sha256",
                       lambda: digest == self.digests[0])
        self.digests.append(digest)
        self.sketch = sk
        return all(self.query_round(sk) for _ in range(QUERY_ROUNDS))

    def query_round(self, sk) -> bool:
        """OPENS_PER_ROUND timed opens, QUERY_SWEEPS single-query sweeps (the
        first on the opened context, the rest on fresh ones), one all_pairs."""
        clock = time.perf_counter
        for _ in range(OPENS_PER_ROUND):
            self.probe()
            t0 = clock()
            ok, opened = self.op("open", self.open, sk.data)
            if not ok:
                return False
            self.sample("open_s", clock() - t0)
        tree, ctx = opened
        for sweep in range(QUERY_SWEEPS):
            values = self.query_sweep(ctx if sweep == 0 else self.rs.QueryContext(tree))

        fresh = self.rs.QueryContext(tree)
        self.probe()
        t0 = clock()
        ok, est = self.op("all_pairs", fresh.all_pairs)
        if not ok:
            return False
        self.sample("all_pairs_s", clock() - t0)
        self.check("single queries match all_pairs to 1e-12", single_matches_all,
                   self.pairs, values, est)
        self.tree = tree
        return True

    def query_sweep(self, ctx) -> list[float]:
        """Every query pair once, in order; keeps each pair's best latency."""
        values = []
        best, visits, ns = self.pair_best_ns, self.visits, time.perf_counter_ns
        for k, (i, j) in enumerate(self.pairs):
            self.attempted += 1
            try:
                t = ns()
                v = ctx.estimate(i, j)
                best[k] = min(best[k], ns() - t)
            except Exception:
                self.failed += 1
                self.errors.append(f"estimate({i}, {j}): {traceback.format_exc(limit=3)}")
                v = float("nan")
            values.append(v)
            visits.append(getattr(ctx, "visits_last", 0))
        self.query_sweeps += 1
        return values

    def final_checks(self):
        """Checks on the last pass's file and its error over all pairs."""
        rs, sk = self.rs, self.sketch
        self.check("encode(decode(bytes)) == bytes", roundtrips, rs, sk)
        ok, self.report = self.op("size_report", rs.size_report, sk)
        self.check("size_report total_stored_bits == 8 * file_bytes",
                   lambda: ok and self.report["total_stored_bits"] == 8 * len(sk.data))
        ok, err = self.op("max_err_over_band", self.max_err_over_band)
        self.err_over_band = err if ok else float("nan")
        self.check("max_err_over_band <= 1", lambda: ok and err <= 1.0)

    def max_err_over_band(self) -> float:
        """Worst error over all n^2 pairs, divided by the guarantee (harness's
        band: 4*eps on lp distances, 48*eps on squared Euclidean distances),
        against exact distances of the raw (unscaled) input."""
        exact = self.rs.pairwise_distances(self.x, self.w.p)
        report = self.rs.evaluate(self.sketch, exact)
        return float(report.band_err.max()) / report.band


def roundtrips(rs, sk) -> bool:
    tree = rs.decode(sk)
    return rs.encode(tree, tree.augmentations).data == sk.data


def single_matches_all(pairs, values, est) -> bool:
    for (i, j), v in zip(pairs, values):
        ref = float(est[i, j])
        if not abs(v - ref) <= 1e-12 * abs(ref):
            return False
    return True


def ingress_depth_max(tree) -> int:
    """Longest ingress chain from any node to its subtree root."""
    depth = {}
    for v in range(tree.node_count):
        chain, cur = [], v
        while cur not in depth and int(tree.subtree_root[cur]) != cur:
            chain.append(cur)
            cur = int(tree.ingress[cur])
            if len(chain) > tree.node_count:
                raise RuntimeError("ingress cycle")
        base = depth.get(cur, 0)
        for k, w in enumerate(reversed(chain), 1):
            depth[w] = base + k
    return max(depth.values(), default=0)


def tree_shape(tree) -> dict[str, int]:
    return {
        "tree.levels": len(np.unique(tree.level)),
        "tree.nodes": int(tree.node_count),
        "tree.long_edges": int(np.count_nonzero(tree.edge_long)),
        "tree.subtrees": len(np.unique(tree.subtree_root)),
        "tree.subtree_leaves": int(np.count_nonzero(tree.is_subtree_leaf)),
        "tree.landmarks": len(tree.landmarks),
        "tree.K": int(tree.K),
        "tree.max_ingress_depth": ingress_depth_max(tree),
    }


def probe_seconds() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Time to import rltsketch (numpy and scipy included) in a fresh
    interpreter, as a user's process pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass  # numpy without show_config(mode="dicts")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }


# -- the two kinds of run ----------------------------------------------------

def out_of_time(start: float, seconds: float, done: int) -> bool:
    """The safety cap: True when one more pass, at the mean pass time so
    far, would end more than `seconds` after start."""
    elapsed = time.perf_counter() - start
    return done > 0 and elapsed * (done + 1) / done > seconds


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics. Each of the workload's passes
    times a setup (import and ingest), the pipeline on the ingested input,
    and a second setup, so setup is sampled throughout the run, not only at
    its start."""
    start = time.perf_counter()
    passes = 0
    rss = None
    while passes < run.w.passes and not out_of_time(start, seconds, passes):
        ps = run.setup()
        if ps is not None:
            run.pipeline_pass(ps)
        del ps  # free the distance matrix before the next ingest
        if rss is None:
            rss = peak_rss_mb()  # later passes only add allocator noise
        run.setup()
        passes += 1
    if run.sketch is None:
        raise SystemExit("no pipeline pass completed")
    run.final_checks()
    lat_us = [t / 1e3 for t in run.pair_best_ns if t < math.inf]
    if not lat_us:
        raise SystemExit("no single query succeeded")

    raw = {
        "setup_s": run.best("import_s") + run.best("ingest_s"),
        "build_s": run.best("build_s"),
        "open_s": run.best("open_s"),
        "query_p50_us": statistics.median(lat_us),
        "query_p99_us": statistics.quantiles(lat_us, n=100, method="inclusive")[98],
        "all_pairs_s": run.best("all_pairs_s"),
        "sketch_bits_per_point": 8 * len(run.sketch.data) / run.w.n,
        "peak_rss_mb": rss,
        "max_err_over_band": run.err_over_band,
    }
    speed = REFERENCE_PROBE_S / run.best("probe_s")
    metrics = {k: v * speed if k in TIMINGS else v for k, v in raw.items()}
    info = {"passes": passes, "capped": passes < run.w.passes,
            "query_sweeps": run.query_sweeps, "query_pairs": len(lat_us),
            "probe_best_s": run.best("probe_s"), "speed_scale": speed,
            "import_best_s": run.best("import_s"), "ingest_best_s": run.best("ingest_s")}
    info.update({f"raw.{k}": raw[k] for k in TIMINGS})
    return metrics, info


def traced_metrics(run: Run, tracer, visits: list[int]) -> dict:
    """Per-layer metrics of one traced pass."""
    t = tracer
    m = {
        "harness.ingest_s": t.total_s("harness.ingest_array"),
        "metric.pairwise_distances_calls": t.calls.get("metric.pairwise_distances", 0),
        "metric.pairwise_distances_s": t.total_s("metric.pairwise_distances"),
        "metric.round_to_net_calls": t.calls.get("metric.round_to_net", 0),
        "metric.round_to_net_s": t.total_s("metric.round_to_net"),
        "metric.randomized_grid_round_calls": t.calls.get("metric.randomized_grid_round", 0),
    }
    for stage in TREE_STAGES:
        m[f"tree.{stage}_s"] = t.total_s(f"tree.{stage}")
    m["tree.rss_after_hierarchy_mb"] = (t.rss_mb.get("tree.build_hierarchy") or [0.0])[0]
    m["codec.encode_s"] = t.total_s("codec.encode")
    m["bits.write_calls"] = t.count("bits.BitWriter.write")
    # a pass opens the file several times; the read side is reported per decode
    decodes = max(t.calls.get("codec.decode", 0), 1)
    m["codec.decode_s"] = t.total_s("codec.decode") / decodes
    m["bits.read_calls"] = t.count("bits.BitReader.read") / decodes
    m["bits.gamma_reads"] = t.calls.get("bits.BitReader.read_gamma", 0) / decodes
    m["bits.read_s"] = t.top_level_s("bits.BitReader.read") / decodes
    inits = t.calls.get("estimator.QueryContext.__init__", 0)
    m["estimator.init_s"] = t.total_s("estimator.QueryContext.__init__") / max(inits, 1)
    m["estimator.visits_per_query_mean"] = statistics.fmean(visits) if visits else 0.0
    m["estimator.visits_per_query_max"] = max(visits, default=0)
    # Euclidean-only stages: zero on lp workloads, so printed, not registered
    m["euclid.jl_transform_s"] = t.total_s("euclid.jl_transform")
    m["euclid.build_augmentations_s"] = t.total_s("euclid.build_augmentations")
    m["metric.randomized_grid_round_s"] = t.total_s("metric.randomized_grid_round")
    return m


def stages_inside_build(tracer) -> bool:
    """Every tree stage span lies within the span of a sketch build."""
    stages = {f"tree.{stage}" for stage in TREE_STAGES}
    return all(
        any(a.name in BUILD_SPANS and a.start <= s.start and s.end <= a.end
            for a in tracer.ancestors(s))
        for s in tracer.spans if s.name in stages)


def measure_traced(run: Run, seconds: float, trace_path: str) -> tuple[dict, dict]:
    """Traced run: alternate traced and untraced passes (ingest included),
    half of the workload's passes each; per-layer values are the best
    (minimum) over traced passes."""
    tracer = Tracer()
    per_pass: list[dict] = []
    pass_s = {True: [], False: []}
    kept = None
    planned = 2 * max(run.w.passes // 2, 1)
    start = time.perf_counter()
    made = 0
    while made < planned and not (made >= 2 and out_of_time(start, seconds, made)):
        traced = made % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        v0 = len(run.visits)
        t0 = time.perf_counter()
        try:
            ps = run.ingest()
            done = ps is not None and run.pipeline_pass(ps)
            del ps
        finally:
            if traced:
                tracer.uninstall()
        if done:
            pass_s[traced].append(time.perf_counter() - t0)
        if traced:
            run.check("tree stage spans fall inside the build span",
                      stages_inside_build, tracer)
            if done:
                per_pass.append(traced_metrics(run, tracer, run.visits[v0:]))
                if kept is None:
                    kept = (list(tracer.spans), dict(tracer.calls))
        made += 1
    if not (pass_s[True] and pass_s[False]):
        raise SystemExit("no traced or no untraced pipeline pass completed")
    run.final_checks()

    metrics = {k: min(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(tree_shape(run.tree))
    metrics["euclid.target_dim"] = run.tree.d if run.w.flavor == "euclidean" else 0
    if run.report is not None:
        for name, section in run.report["sections"].items():
            metrics[f"codec.bits.{name}"] = section["stored_bits"]
    metrics["codec.file_bytes"] = len(run.sketch.data)
    metrics["codec.bound_ratio"] = 8 * len(run.sketch.data) / paper_bound_bits(run)
    missing = tracer.missing(EXPECTED_SPANS)
    metrics["trace.missing_functions"] = len(missing)
    metrics["trace.overhead_pct"] = 100.0 * (min(pass_s[True]) / min(pass_s[False]) - 1.0)

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    write_trace(trace_path, {"workload": run.w.name, "seed": run.seed, "missing": missing,
                             "environment": environment()}, *kept)
    return metrics, {"traced_passes": len(pass_s[True]), "capped": made < planned,
                     "untraced_passes": len(pass_s[False]), "missing": missing}


def paper_bound_bits(run: Run) -> float:
    """The paper's size bound with constant 1: n*(d*log2(1/eps) + log2 n +
    log2 log2 phi) for lp and n*(d' + log2 n + log2 log2 phi) for Euclidean.
    log2 phi is taken as the root level stored in the file, at least 2."""
    t = run.tree
    per_point = t.d if run.w.flavor == "euclidean" else t.d * math.log2(1.0 / t.eps)
    return t.n * (per_point + math.log2(t.n) + math.log2(max(int(t.phi_exponent), 2)))


# -- entry point -------------------------------------------------------------

def registry() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind, as registered in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rltsketch", "__init__.py")):
        print(f"rltsketch sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rltsketch as rs

    if not os.path.abspath(rs.__file__).startswith(SRC + os.sep):
        print(f"imported rltsketch from {rs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    units = registry()["per_layer" if args.trace else "end_to_end"]
    run = Run(rs, w, args.seed, generate(w, args.seed), query_pairs(w, args.seed))
    if args.trace:
        path = os.path.join(HERE, "traces", f"{w.name}-seed{args.seed}.json")
        metrics, info = measure_traced(run, args.seconds, path)
        info["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics, info = measure(run, args.seconds)

    unregistered = sorted(set(units) - set(metrics))
    if unregistered:
        print(f"no value for registered metrics {unregistered}", file=sys.stderr)
        return 1
    for err in run.errors[:20]:
        print(f"# failed {err}", file=sys.stderr)
    info.update(environment())
    print(f"sketch_sha256 {w.name} seed={args.seed} {run.digests[-1]}")
    print(f"failed_fraction {run.failed / run.attempted} "
          f"({run.failed}/{run.attempted} operations)")
    for key, val in info.items():
        print(f"{key} {val}")
    for name, val in metrics.items():
        print(f"{name} {val} {units.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
