"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins (visible with pytest -s; the -v test names mirror them).

Every expected value is recomputed here by brute force on the raw points (or
taken from the planted instance), independently of the sketch pipeline.
"""
import math
import time

import numpy as np

from rltsketch.codec import build_lp_sketch, decode, encode, size_report
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch, target_dimension
from rltsketch.harness import (
    embed_general_metric,
    gen_lowerbound_euclidean,
    gen_lowerbound_general,
    ingest_array,
    planted_bits,
    recover_bits,
)
from rltsketch.metric import INF, pairwise_distances, randomized_grid_round, scale_points
from rltsketch.tree import build_tree

from invariants import check_pair_floor, check_tree_invariants


def _report(line):
    print(line, flush=True)


def test_criterion_1_lp_correctness():
    """Every estimate within (1 +/- 4 eps), all pairs, all configurations."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.perf_counter()
    count = 0
    for n in (100, 500):
        for d in (5, 20):
            for p in (1, 2, INF):
                for eps in (0.25, 0.1):
                    for trial in range(20):
                        pts = rng.uniform(0.0, 100.0, size=(n, d))
                        ps = ingest_array(pts, p)
                        ctx = QueryContext(build_lp_sketch(ps, eps))
                        est = ctx.all_pairs()
                        exact = pairwise_distances(pts, p)
                        off = ~np.eye(n, dtype=bool)
                        assert (est[off] <= (1 + 4 * eps) * exact[off]).all(), \
                            (n, d, p, eps, trial)
                        assert (est[off] >= (1 - 4 * eps) * exact[off]).all(), \
                            (n, d, p, eps, trial)
                        rel = np.abs(est[off] - exact[off]) / exact[off]
                        worst = max(worst, rel.max() / (4 * eps))
                        count += 1
    _report(f"ACCEPTANCE 1 PASS: lp correctness on {count} instances; "
            f"worst error used {worst:.3f} of the 4*eps budget "
            f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_2_general_metrics():
    """l_inf-embedded random quantized metrics: banded estimates and exact
    recovery of every planted quantization step."""
    eps = 0.125
    n = 200
    for seed in (0, 1):
        metric = gen_lowerbound_general(n, eps, seed=seed)
        ps = embed_general_metric(metric)
        off = ~np.eye(n, dtype=bool)

        ctx = QueryContext(build_lp_sketch(ps, eps))
        est = ctx.all_pairs()
        assert (est[off] <= (1 + 4 * eps) * metric.matrix[off]).all()
        assert (est[off] >= (1 - 4 * eps) * metric.matrix[off]).all()

        # a (1 +/- eps/4) sketch separates the quantization steps exactly
        ctx_fine = QueryContext(build_lp_sketch(ps, eps / 16))
        est_fine = ctx_fine.all_pairs()
        steps = np.round((est_fine - 1.0) / eps).astype(np.int64)
        want = np.round((metric.matrix - 1.0) / eps).astype(np.int64)
        assert np.array_equal(steps[off], want[off])
    _report(f"ACCEPTANCE 2 PASS: general metrics n={n}, eps={eps}: banded "
            f"estimates and exact step recovery on 2 seeds")


def test_criterion_3_tree_invariants():
    """Proved structural bounds, node by node, on 100 random instances."""
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    sizes = []
    for trial in range(100):
        n = int(rng.integers(5, 301)) if trial % 3 == 0 else int(rng.integers(5, 80))
        d = int(rng.choice([1, 2, 3, 5, 8, 16]))
        p = [1, 2, 3, INF][trial % 4]
        eps = [0.5, 0.25, 0.1, 0.05][trial % 4 - 1]
        kind = trial % 3
        if kind == 0:
            pts = rng.uniform(0.0, 100.0, size=(n, d))
        elif kind == 1:
            pts = rng.normal(size=(n, d)) * 50.0
        else:
            k = int(rng.integers(2, 6))
            centers = rng.uniform(0.0, 1e5, size=(k, d))
            pts = np.concatenate(
                [c + rng.uniform(0.0, 40.0, size=(max(2, n // k), d)) for c in centers])
        ps = scale_points(pts, p)
        tree = build_tree(ps, eps)
        check_tree_invariants(tree, ps)
        check_pair_floor(tree, ps, rng, samples=20)
        sizes.append(tree.node_count / ps.n)
    _report(f"ACCEPTANCE 3 PASS: invariant suite on 100 instances; tree sizes "
            f"{min(sizes):.2f}n..{max(sizes):.2f}n ({time.perf_counter() - t0:.1f}s)")


def test_criterion_4_euclidean_concentration():
    """|Z1.Z2 - exact^2| <= 48 eps exact^2 for >= 99.9% of pairs, 5 seeds."""
    n, eps = 1000, 0.2
    d = target_dimension(n, eps)
    t0 = time.perf_counter()
    total = 0
    good = 0
    worst_fraction = 1.0
    for seed in range(5):
        rng = np.random.default_rng(9000 + seed)
        pts = rng.normal(size=(n, d))
        ps = ingest_array(pts, 2)
        sk = build_euclidean_sketch(ps, eps, seed=seed)
        sq = QueryContext(sk).all_pairs_squared()
        exact_sq = pairwise_distances(pts, 2) ** 2
        off = ~np.eye(n, dtype=bool)
        ok = np.abs(sq[off] - exact_sq[off]) <= 48 * eps * exact_sq[off]
        total += ok.size
        good += int(ok.sum())
        worst_fraction = min(worst_fraction, ok.mean())
    fraction = good / total
    assert fraction >= 0.999
    _report(f"ACCEPTANCE 4 PASS: euclidean concentration n={n}, eps={eps}, "
            f"d'={d}: fraction {fraction:.6f} (worst seed {worst_fraction:.6f}) "
            f"over 5 seeds ({time.perf_counter() - t0:.1f}s)")


def test_criterion_5_rounding_unbiased():
    """Mean randomized corner equals the displacement, coordinate-wise,
    within 4 standard errors over 1e5 shifts."""
    rng = np.random.default_rng(55)
    vectors = [
        np.array([0.3]), np.array([-0.7]), np.array([0.0]),
        np.array([1.25, -0.4]), np.array([10.01, 0.5, -3.3]),
        np.array([0.125, 0.875]), np.array([-5.0, 5.0]),
        rng.uniform(-2, 2, size=4), rng.uniform(-20, 20, size=6),
        np.array([1e6 + 0.3, -1e6 + 0.7]),
    ]
    draws = 100_000
    worst_z = 0.0
    for y in vectors:
        cell = 0.5
        d = len(y)
        tiled = np.tile(y, draws)
        corners = randomized_grid_round(tiled, cell, rng.random(draws * d))
        samples = corners.reshape(draws, d) * cell
        mean = samples.mean(axis=0)
        se = samples.std(axis=0) / math.sqrt(draws)
        dev = np.abs(mean - y)
        assert np.all(dev <= 4 * se + 1e-12)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(se > 0, dev / se, 0.0)
        worst_z = max(worst_z, float(z.max()))
    _report(f"ACCEPTANCE 5 PASS: unbiased rounding, 10 vectors x {draws} shifts, "
            f"worst |z| = {worst_z:.2f} (limit 4)")


def test_criterion_6_codec():
    """Field-exact round trips (both flavors), exact bit accounting, and
    sub-2.3x growth when n doubles."""
    from test_codec import assert_trees_equal  # field-by-field comparison

    rng = np.random.default_rng(66)
    t0 = time.perf_counter()
    # 140 lp + 60 euclidean random trees
    for trial in range(140):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 7))
        p = [1, 2, 3, INF][trial % 4]
        eps = [0.5, 0.25, 0.1][trial % 3]
        ps = scale_points(rng.uniform(0, 10.0 ** rng.integers(1, 5), size=(n, d)), p)
        tree = build_tree(ps, eps)
        sk = encode(tree)
        assert_trees_equal(tree, decode(sk))
        rep = size_report(sk)
        stored = rep["header"]["stored_bits"] + sum(
            s["stored_bits"] for s in rep["sections"].values())
        assert stored == 8 * rep["file_bytes"]
    for trial in range(60):
        n = int(rng.integers(4, 25))
        ps = scale_points(rng.normal(size=(n, 5)) * 30, 2)
        sk = build_euclidean_sketch(ps, [0.5, 0.3][trial % 2], seed=trial)
        dec = decode(sk)
        sk2 = encode(dec, dec.augmentations)
        assert sk2.data == sk.data  # re-encoding the decoded tree is identical
        rep = size_report(sk)
        stored = rep["header"]["stored_bits"] + sum(
            s["stored_bits"] for s in rep["sections"].values())
        assert stored == 8 * rep["file_bytes"]

    # growth: doubling n at fixed d, eps and (near-)fixed aspect ratio
    bits = []
    for n in (250, 500, 1000):
        pts = rng.integers(0, 4001, size=(n, 8)).astype(np.float64)
        while len(np.unique(pts, axis=0)) < n:
            pts = rng.integers(0, 4001, size=(n, 8)).astype(np.float64)
        sk = build_lp_sketch(ingest_array(pts, 2), 0.25)
        bits.append(size_report(sk)["total_data_bits"])
    ratios = [b / a for a, b in zip(bits, bits[1:])]
    assert all(r <= 2.3 for r in ratios), ratios
    _report(f"ACCEPTANCE 6 PASS: 200 exact round trips, bit accounting, "
            f"growth ratios {[f'{r:.2f}' for r in ratios]} <= 2.3 "
            f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_7_lowerbound_recovery():
    """All 4096 planted bits recovered exactly from sketches at eps/8."""
    n, eps = 64, 0.25  # k = 16
    t0 = time.perf_counter()
    for seed in range(3):
        pts = gen_lowerbound_euclidean(n, eps, seed=seed)
        want = planted_bits(pts)
        ps = ingest_array(pts, 2)
        sk = build_euclidean_sketch(ps, eps / 8, seed=seed)
        got = recover_bits(sk, n, eps)
        assert np.array_equal(got, want), f"seed {seed}"
    _report(f"ACCEPTANCE 7 PASS: {n * n} planted bits recovered exactly on "
            f"3 seeds ({time.perf_counter() - t0:.1f}s)")


def test_criterion_8_query_cost():
    """Instrumented estimator visits <= 4K nodes per query on a deep chain."""
    coords = [0.0]
    for k in range(41):
        coords.append(coords[-1] + 2.0 ** k)  # geometric chain up to ~2^40
    while len(coords) < 500:
        coords.append(-float(len(coords)))  # unit-spaced tail
    pts = np.array(coords).reshape(-1, 1)
    ps = ingest_array(pts, 2)
    assert ps.phi >= 2.0 ** 40
    sk = build_lp_sketch(ps, 0.25)
    ctx = QueryContext(sk)
    K = ctx.tree.K
    rng = np.random.default_rng(88)
    worst = 0
    # all pairs among the geometric spine plus random pairs into the tail
    spine = list(range(42))
    pairs = [(i, j) for i in spine for j in spine if i < j]
    for _ in range(2000):
        i, j = rng.choice(500, size=2, replace=False)
        pairs.append((int(i), int(j)))
    for i, j in pairs:
        ctx.estimate(i, j)
        worst = max(worst, ctx.visits_last)
    assert worst <= 4 * K, (worst, K)
    _report(f"ACCEPTANCE 8 PASS: deep-chain query cost: worst {worst} visits "
            f"<= 4K = {4 * K} over {len(pairs)} queries")
