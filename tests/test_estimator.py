import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from invariants import fine_surrogate_units
from reference_estimator import reference_all_pairs, reference_lca_entries
from test_tree import _multiscale_clusters, _reference_inputs

import rltsketch
from rltsketch.codec import build_lp_sketch, decode, encode
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch
from rltsketch.harness import ingest_array
from rltsketch.metric import INF, pairwise_distances, scale_points
from rltsketch.tree import build_tree, surrogate_units


def pointset_1d(coords, p=2):
    return scale_points(np.array(coords, dtype=float).reshape(-1, 1), p)


def random_pointset(rng, n, d, p, spread=100.0):
    return scale_points(rng.uniform(0.0, spread, size=(n, d)), p)


def test_two_point_estimate_in_band():
    ps = pointset_1d([0, 5])
    ctx = QueryContext(build_lp_sketch(ps, 0.05))
    est = ctx.estimate(0, 1)
    assert 5 * 0.8 <= est <= 5 * 1.2  # far inside the (1 +/- 4*eps) band


def test_estimate_rejects_bad_indices():
    ctx = QueryContext(build_lp_sketch(pointset_1d([0, 5]), 0.1))
    with pytest.raises(ValueError):
        ctx.estimate(0, 0)
    with pytest.raises(IndexError):
        ctx.estimate(0, 2)


def test_estimate_symmetric_and_deterministic():
    rng = np.random.default_rng(2)
    ps = random_pointset(rng, 25, 3, 2)
    sk = build_lp_sketch(ps, 0.2)
    ctx = QueryContext(sk)
    ctx2 = QueryContext(sk)
    for i, j in ((0, 1), (3, 17), (24, 5)):
        assert ctx.estimate(i, j) == ctx.estimate(j, i)
        assert ctx.estimate(i, j) == ctx2.estimate(i, j)


def test_a_warm_memo_changes_no_estimate_and_no_visit_count():
    rng = np.random.default_rng(3)
    centers = rng.uniform(0, 1e5, size=(4, 2))
    pts = np.concatenate([c + rng.uniform(0, 30, size=(10, 2)) for c in centers])
    ps = scale_points(pts, 2)
    for sk in (build_lp_sketch(ps, 0.1), build_euclidean_sketch(ps, 0.3, seed=7)):
        warm = QueryContext(sk)
        for i, j in itertools.combinations(range(40), 2):
            warm.estimate(i, j)
        for i, j in ((0, 39), (5, 22), (11, 12), (30, 31)):
            fresh = QueryContext(sk)
            assert warm.estimate(i, j) == fresh.estimate(i, j)
            assert warm.visits_last == fresh.visits_last


def test_a_euclidean_query_counts_each_ingress_hop_once():
    # as on the lp flavor: the chain steps, plus the hops from each entry
    # leaf down to its nearest stored surrogate, whatever the two copies
    t = decode(build_euclidean_sketch(_multiscale_clusters(), 0.3, seed=7))
    stored = set(t.subtree_roots().tolist()) | set(t.landmarks.tolist())

    def hops(v):
        k = 0
        while v not in stored:
            v, k = int(t.ingress[v]), k + 1
        return k

    ctx, total = QueryContext(t), 0
    for i, j in itertools.combinations(range(0, t.n, 9), 2):
        ctx.inner_estimate(i, j)
        walk = QueryContext(t)
        ci, a, cj, b = walk._common(i, j)
        extra = hops(ci[a][1]) + hops(cj[b][1])
        assert ctx.visits_last == walk.visits_last + extra
        total += extra
    assert total > 0


def _deep_chain():
    """The criterion 8 input: a geometric chain up to ~2^40, then a
    unit-spaced tail, 500 points."""
    coords = [0.0]
    for k in range(41):
        coords.append(coords[-1] + 2.0 ** k)
    coords += [-float(k) for k in range(len(coords), 500)]
    return pointset_1d(coords)


@pytest.mark.parametrize("build", [
    lambda: build_lp_sketch(_deep_chain(), 0.25),
    lambda: build_lp_sketch(_multiscale_clusters(), 0.05),
    lambda: build_euclidean_sketch(_multiscale_clusters(), 0.3, seed=7),
], ids=["deep-chain", "multiscale", "multiscale-euclidean"])
def test_stored_landmarks_change_no_estimate(build):
    t = decode(build())
    assert len(t.landmarks) > 0  # decode admits only non-root landmarks
    roots = t.subtree_roots()
    bare = dataclasses.replace(t, landmarks=roots, landmark_units=np.zeros((len(roots), t.d)))
    stored, replayed = QueryContext(t), QueryContext(bare)
    rng = np.random.default_rng(9)
    hops = [0, 0]
    for _ in range(1000):
        i, j = (int(k) for k in rng.choice(t.n, size=2, replace=False))
        assert stored.estimate(i, j) == replayed.estimate(i, j)
        hops[0] += stored.visits_last
        hops[1] += replayed.visits_last
    assert hops[0] < hops[1]


def test_bulk_matches_single_queries():
    rng = np.random.default_rng(5)
    for p in (1, 2, INF):
        ps = random_pointset(rng, 30, 3, p)
        ctx = QueryContext(build_lp_sketch(ps, 0.25))
        bulk = ctx.all_pairs()
        for _ in range(40):
            i, j = rng.choice(30, size=2, replace=False)
            single = ctx.estimate(int(i), int(j))
            assert bulk[i, j] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("name,ps", list(_reference_inputs()))
def test_all_pairs_matches_reference_lp(name, ps):
    ctx = QueryContext(build_lp_sketch(ps, 0.1))
    assert np.array_equal(ctx.all_pairs(), reference_all_pairs(ctx))


def _euclidean_inputs():
    rng = np.random.default_rng(21)
    yield "two-points", rng.normal(size=(2, 6))
    # spreads over several scales: many subtrees, chains of two
    for n in (25, 60):
        pts = rng.normal(size=(n, 6))
        yield f"spread-{n}", pts * np.ldexp(1.0, rng.integers(-2, 6, size=(n, 1)))
    # clusters inside clusters at three scales 2^6 apart: chains of four
    yield "nested", sum(rng.normal(size=(k, 6)).repeat(36 // k, axis=0) * 2.0 ** (6 * i)
                        for i, k in enumerate((36, 9, 3)))


@pytest.mark.parametrize("name,pts", list(_euclidean_inputs()))
def test_all_pairs_matches_reference_euclidean(name, pts):
    ctx = QueryContext(build_euclidean_sketch(scale_points(pts, 2), 0.3, seed=7))
    aug = ctx.tree.augmentations
    rng = np.random.default_rng(len(pts))
    for random_corners in (False, True):
        if random_corners:
            # the builder's long-edge corners are zero on these inputs;
            # random ones make every step of the chains count
            aug.b1[:] = rng.integers(-3, 4, size=aug.b1.shape)
            aug.b2[:] = rng.integers(-3, 4, size=aug.b2.shape)
        assert np.array_equal(ctx.all_pairs_squared(), reference_all_pairs(ctx, squared=True))
        assert np.array_equal(ctx.all_pairs(), reference_all_pairs(ctx))


def _deep_chain_pointset():
    # the instance of acceptance criterion 8: a geometric spine up to ~2^40
    # and a unit-spaced tail
    coords = [0.0]
    for k in range(41):
        coords.append(coords[-1] + 2.0 ** k)
    while len(coords) < 500:
        coords.append(-float(len(coords)))
    return scale_points(np.array(coords).reshape(-1, 1), 2)


def test_common_subtree_matches_lca_reference():
    # the lowest common subtree read off the two chains holds the LCA, and
    # its entry leaves are those of the node-by-node climb
    cases = [(name, build_tree(ps, 0.1)) for name, ps in _reference_inputs()]
    cases.append(("deep-chain", build_tree(_deep_chain_pointset(), 0.25)))
    nested = dict(_euclidean_inputs())["nested"]
    cases.append(("nested-euclidean",
                  QueryContext(build_euclidean_sketch(scale_points(nested, 2), 0.3, seed=7)).tree))
    for name, t in cases:
        ctx = QueryContext(t)
        for i, j in itertools.combinations(range(t.n), 2):
            lca, ea, eb = reference_lca_entries(t, i, j)
            ci, a, cj, b = ctx._common(i, j)
            assert ci[a][0] == cj[b][0] == t.subtree_root[lca], (name, i, j)
            assert (ci[a][1], cj[b][1]) == (ea, eb), (name, i, j)


def test_all_pairs_memory_peak():
    # the result is the root subtree's block itself: no zeroed n x n matrix
    # and no gathered copy beside it
    n = 1500
    ps = random_pointset(np.random.default_rng(1), n, 20, 2, spread=80.0)
    ctx = QueryContext(build_lp_sketch(ps, 0.1))
    tracemalloc.start()
    try:
        ctx.all_pairs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


def test_lp_guarantee_on_random_instances():
    rng = np.random.default_rng(7)
    for p in (1, 2, 3, INF):
        for eps in (0.25, 0.1):
            pts = rng.normal(size=(60, 8)) * 40
            ps = scale_points(pts, p)
            ctx = QueryContext(build_lp_sketch(ps, eps))
            est = ctx.all_pairs()
            exact = pairwise_distances(pts, p)
            off = ~np.eye(60, dtype=bool)
            assert (est[off] <= (1 + 4 * eps) * exact[off]).all()
            assert (est[off] >= (1 - 4 * eps) * exact[off]).all()


def test_estimate_equals_builder_fine_surrogate_difference():
    # the from-sketch estimate is exactly the norm between the builder-side
    # fine surrogates at the pair's entry leaves (shifts cancel)
    from rltsketch.metric import lp_norm

    rng = np.random.default_rng(19)
    for p in (1, 2):
        ps = random_pointset(rng, 24, 3, p)
        t = build_tree(ps, 0.2)
        ctx = QueryContext(encode(t))
        s = surrogate_units(t)
        for _ in range(30):
            i, j = (int(x) for x in rng.choice(24, size=2, replace=False))
            ci, a, cj, b = ctx._common(i, j)
            vi, vj = ci[a][1], cj[b][1]
            diff = fine_surrogate_units(t, s, vi) - fine_surrogate_units(t, s, vj)
            want = (lp_norm(diff, p) * t.unit()) * math.ldexp(1.0, t.scale_exponent)
            assert ctx.estimate(i, j) == want


def test_lp_guarantee_gaussian_500_points():
    # n=500, d=20, p=1, eps=0.1: every pair within (1 +/- 0.4) of brute force
    rng = np.random.default_rng(500)
    pts = rng.normal(size=(500, 20))
    ps = scale_points(pts, 1)
    est = QueryContext(build_lp_sketch(ps, 0.1)).all_pairs()
    exact = pairwise_distances(pts, 1)
    off = ~np.eye(500, dtype=bool)
    assert (est[off] <= 1.4 * exact[off]).all()
    assert (est[off] >= 0.6 * exact[off]).all()


def test_shifted_surrogate_root_and_identity():
    rng = np.random.default_rng(9)
    ps = random_pointset(rng, 20, 3, 2)
    t = build_tree(ps, 0.25)
    ctx = QueryContext(encode(t))
    for r in t.subtree_roots():
        assert np.all(ctx.shifted_surrogate(int(r)) == 0.0)
    # s(v) equals the builder-side surrogate minus the subtree root's center
    s = surrogate_units(t)
    for v in range(t.node_count):
        x_root = ps.points[t.center[int(t.subtree_root[v])]]
        s_star = x_root + s[v] * t.unit()
        assert np.allclose(ctx.shifted_surrogate(v) + x_root, s_star, rtol=0, atol=0)
        if t.is_subtree_leaf[v] and t.subtree_root[v] != v:
            assert np.array_equal(ctx.shifted_surrogate(v, fine=True),
                                  fine_surrogate_units(t, s, v) * t.unit())


def test_fine_surrogate_requires_subtree_leaf():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    ctx = QueryContext(encode(t))
    internal = [v for v in range(t.node_count) if not t.is_subtree_leaf[v]][0]
    with pytest.raises(ValueError):
        ctx.shifted_surrogate(internal, fine=True)


def test_shifted_surrogate_rejects_a_node_out_of_range():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    ctx = QueryContext(encode(t))
    for v in (-1, t.node_count):  # -1 must not wrap around to the last node
        with pytest.raises(ValueError, match=f"node {v} out of range"):
            ctx.shifted_surrogate(v)


def test_lp_estimation_rejects_euclidean_sketch():
    rng = np.random.default_rng(11)
    ps = random_pointset(rng, 10, 4, 2)
    sk = build_euclidean_sketch(ps, 0.4, seed=0)
    ctx = QueryContext(sk)
    with pytest.raises(ValueError):
        ctx.shifted_surrogate(0, fine=True)
    # and the reverse
    ctx2 = QueryContext(build_lp_sketch(ps, 0.25))
    with pytest.raises(ValueError):
        ctx2.inner_estimate(0, 1)


@pytest.mark.parametrize("call,kind,message", [
    (lambda ctx: QueryContext(42), TypeError, "expected SketchBits or a decoded tree"),
    (lambda ctx: ctx.probabilistic_surrogate(0, 0), ValueError,
     "probabilistic surrogates require a Euclidean sketch"),
    (lambda ctx: ctx.all_pairs_squared(), ValueError,
     "squared estimates require a Euclidean sketch"),
], ids=["not-a-sketch", "probabilistic-surrogate", "all-pairs-squared"])
def test_queries_outside_the_sketch_flavor_are_rejected(call, kind, message):
    ctx = QueryContext(build_lp_sketch(pointset_1d([0, 1, 10]), 0.25))
    with pytest.raises(kind, match=message):
        call(ctx)


def test_euclidean_estimate_symmetric():
    rng = np.random.default_rng(13)
    ps = random_pointset(rng, 16, 6, 2)
    ctx = QueryContext(build_euclidean_sketch(ps, 0.3, seed=4))
    for i, j in ((0, 1), (2, 15), (7, 9)):
        assert ctx.estimate(i, j) == ctx.estimate(j, i)


def test_euclidean_bulk_matches_single():
    rng = np.random.default_rng(15)
    ps = random_pointset(rng, 18, 5, 2)
    ctx = QueryContext(build_euclidean_sketch(ps, 0.3, seed=6))
    bulk = ctx.all_pairs()
    bulk_sq = ctx.all_pairs_squared()
    for _ in range(25):
        i, j = (int(x) for x in rng.choice(18, size=2, replace=False))
        assert bulk[i, j] == pytest.approx(ctx.estimate(i, j), rel=1e-12)
        assert bulk_sq[i, j] == pytest.approx(ctx.inner_estimate(i, j), rel=1e-9, abs=1e-12)


def test_negative_inner_product_clamps_to_zero():
    rng = np.random.default_rng(17)
    ps = random_pointset(rng, 6, 4, 2)
    ctx = QueryContext(build_euclidean_sketch(ps, 0.4, seed=1))
    # force the two copies apart so the cross inner product goes negative
    aug = ctx.tree.augmentations
    aug.a1[:] = 50
    aug.a2[:] = -50
    found = False
    for i in range(6):
        for j in range(i + 1, 6):
            if ctx.inner_estimate(i, j) < 0:
                assert ctx.estimate(i, j) == 0.0
                found = True
    assert found


def test_visit_budget_on_deep_chain():
    coords = [0.0]
    for k in range(18):
        coords.append(coords[-1] + 2.0 ** k)
    ps = pointset_1d(coords)
    sk = build_lp_sketch(ps, 0.25)
    ctx = QueryContext(sk)
    n = len(coords)
    worst = 0
    for i in range(n):
        for j in range(i + 1, n):
            ctx.estimate(i, j)
            worst = max(worst, ctx.visits_last)
    assert worst <= 4 * ctx.tree.K


def test_descaling_round_trip():
    # points far from unit scale: estimates come back in original units
    pts = np.array([[0.0], [40.0], [400.0]])
    ps = scale_points(pts, 2)
    assert ps.scale_exponent == 5  # divisor 32 in (20, 40]
    ctx = QueryContext(build_lp_sketch(ps, 0.05))
    exact = pairwise_distances(pts, 2)
    for i in range(3):
        for j in range(i + 1, 3):
            est = ctx.estimate(i, j)
            assert abs(est - exact[i, j]) <= 4 * 0.05 * exact[i, j]


_READ_SIDE_SCRIPT = """\
import pathlib
import sys
import numpy as np
from rltsketch import (QueryContext, SketchBits, build_lp_sketch, decode, ingest_array,
                       read_header, size_report)
from rltsketch import cli

folder = pathlib.Path(sys.argv[1])
paths = {name: folder / f"{name}.rlt" for name in ("lp2", "lpinf", "euclid")}
for name, path in paths.items():
    sk = SketchBits(path.read_bytes())
    read_header(sk.data)
    decode(sk)
    size_report(sk)
    ctx = QueryContext(sk)
    print(name, repr(ctx.estimate(0, 1)))
    assert cli.main(["info", "--sketch", str(path)]) == 0
    assert cli.main(["estimate", "--sketch", str(path), "--i", "0", "--j", "1"]) == 0
ctx.inner_estimate(0, 1)  # the Euclidean sketch, opened last
ctx.probabilistic_surrogate(0, 0)
ctx.all_pairs()
assert "scipy" not in sys.modules

pts = np.load(folder / "points.npy")
for name, p in (("lp2", 2), ("lpinf", float("inf"))):
    assert build_lp_sketch(ingest_array(pts, p), 0.2).data == paths[name].read_bytes()
assert "scipy" in sys.modules
print("ok")
"""


def test_opening_and_querying_loads_no_scipy(tmp_path):
    # scipy serves only the exact distance matrix of a build; a process that
    # opens a sketch and queries it must not pay its import
    pts = np.random.default_rng(61).normal(size=(60, 5)) * 30
    np.save(tmp_path / "points.npy", pts)
    builds = {"lp2": build_lp_sketch(ingest_array(pts, 2), 0.2),
              "lpinf": build_lp_sketch(ingest_array(pts, INF), 0.2),
              "euclid": build_euclidean_sketch(ingest_array(pts, 2), 0.3, seed=4)}
    for name, sk in builds.items():
        (tmp_path / f"{name}.rlt").write_bytes(sk.data)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rltsketch.__file__)))
    out = subprocess.run([sys.executable, "-c", _READ_SIDE_SCRIPT, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "ok"
    for name, sk in builds.items():
        assert f"{name} {QueryContext(sk).estimate(0, 1)!r}" in lines
