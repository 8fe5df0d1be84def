import math

import numpy as np
import pytest

from rltsketch.codec import EUCLIDEAN_TREE_EPS, decode, size_report
from rltsketch.estimator import QueryContext
from rltsketch.euclid import (
    JlConfig,
    build_augmentations,
    build_euclidean_sketch,
    jl_transform,
    target_dimension,
)
from rltsketch.metric import pairwise_distances, scale_points
from rltsketch.tree import build_tree


def random_pointset(rng, n, d, spread=100.0):
    return scale_points(rng.uniform(0.0, spread, size=(n, d)), 2)


def test_target_dimension():
    assert target_dimension(1000, 0.2) == math.ceil(3 * 25 * math.log2(1000))
    assert target_dimension(2, 0.9) >= 1
    with pytest.raises(ValueError):
        target_dimension(1, 0.5)


def test_jl_requires_p2():
    ps = scale_points(np.array([[0.0], [1.0]]), 1)
    with pytest.raises(ValueError):
        jl_transform(ps, JlConfig(4, 0))


def test_projection_is_linear_on_duplicates():
    # equal inputs project to equal outputs (zero distance is preserved)
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(12, 4)) / math.sqrt(12)
    pts = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    proj = pts @ mat.T
    assert np.array_equal(proj[0], proj[1])
    with pytest.raises(ValueError):
        jl_transform(scale_points(np.array([[0.0], [1.0]]), 2),
                     JlConfig(0, 1))  # target dimension must be >= 1


def test_jl_deterministic_given_seed():
    rng = np.random.default_rng(1)
    ps = random_pointset(rng, 10, 8)
    a = jl_transform(ps, JlConfig(16, 42))
    b = jl_transform(ps, JlConfig(16, 42))
    assert np.array_equal(a.points, b.points)
    assert a.scale_exponent == b.scale_exponent


def test_jl_distortion_at_prescribed_dimension():
    # d' = ceil(3 eps^-2 log2 n) keeps all pairs within (1 +/- eps) for
    # nearly every seed at desk scale
    rng = np.random.default_rng(3)
    n, d, eps = 200, 100, 0.25
    pts = rng.normal(size=(n, d))
    ps = scale_points(pts, 2)
    dprime = target_dimension(n, eps)
    exact = ps.distance_matrix()
    off = ~np.eye(n, dtype=bool)
    good = 0
    seeds = 100
    for seed in range(seeds):
        proj = jl_transform(ps, JlConfig(dprime, seed))
        dm = proj.distance_matrix() * math.ldexp(1.0, proj.scale_exponent - ps.scale_exponent)
        ratio = dm[off] / exact[off]
        if ratio.max() <= 1 + eps and ratio.min() >= 1 - eps:
            good += 1
    assert good >= 0.99 * seeds


def test_jl_norm_scaling_unbiased():
    # E||Mx||^2 = ||x||^2 over the matrix ensemble
    rng = np.random.default_rng(5)
    x = rng.normal(size=32)
    x /= math.sqrt(float(x @ x))
    dprime = 64
    seeds = 400
    sq = np.empty(seeds)
    for seed in range(seeds):
        mat = np.random.default_rng(seed).normal(0.0, 1.0, size=(dprime, 32)) / math.sqrt(dprime)
        y = mat @ x
        sq[seed] = y @ y
    se = sq.std() / math.sqrt(seeds)
    assert abs(sq.mean() - 1.0) <= 4 * se


def _fixed_tree(seed=0, n=14, d=6, dprime=40):
    rng = np.random.default_rng(seed)
    ps = random_pointset(rng, n, d)
    proj = jl_transform(ps, JlConfig(dprime, 7))
    tree = build_tree(proj, EUCLIDEAN_TREE_EPS)
    tree.flags_euclidean = True
    return tree, proj


def test_two_point_pipeline_band_over_seeds():
    # squared estimate within (1 +/- 48*eps) of the true squared distance for
    # nearly every seed
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(2, 10)) * 5
    ps = scale_points(pts, 2)
    exact_sq = float(pairwise_distances(pts, 2)[0, 1]) ** 2
    eps = 0.2
    bad = 0
    trials = 400
    for seed in range(trials):
        ctx = QueryContext(build_euclidean_sketch(ps, eps, seed))
        if abs(ctx.inner_estimate(0, 1) - exact_sq) > 48 * eps * exact_sq:
            bad += 1
    assert bad <= max(1, trials // 1000)


def test_augmentation_corner_mean_matches_displacement():
    tree, proj = _fixed_tree()
    rng = np.random.default_rng(13)
    d = tree.d
    unit = tree.unit()
    leaves = np.flatnonzero(tree.is_subtree_leaf)
    draws = 3000
    acc = np.zeros((len(leaves), d))
    for _ in range(draws):
        aug = build_augmentations(tree, proj.points, rng.random(d), rng.random(d))
        for k, v in enumerate(leaves):
            cell = math.pow(2.0, int(tree.level[v])) * unit
            acc[k] += aug.a1[k] * cell
    acc /= draws
    for k, v in enumerate(leaves):
        v = int(v)
        root = int(tree.subtree_root[v])
        target = proj.points[tree.center[v]] - (
            proj.points[tree.center[root]] + tree.s_units[v] * unit)
        cell = math.pow(2.0, int(tree.level[v])) * unit
        se = cell * 0.5 / math.sqrt(draws)  # corner std is at most cell/2
        assert np.all(np.abs(acc[k] - target) <= 4 * se + 1e-12)


def test_long_edge_corner_support_length():
    tree, proj = _fixed_tree(seed=2, n=24)
    rng = np.random.default_rng(17)
    d = tree.d
    unit = tree.unit()
    samples = []
    for _ in range(400):
        aug = build_augmentations(tree, proj.points, rng.random(d), rng.random(d))
        if len(aug.b1):
            samples.append(aug.b1.astype(np.float64))
    if not samples:
        pytest.skip("instance produced no long-edge corners")
    stack = np.stack(samples)  # draws x nodes x d, in cell units
    spread = stack.max(axis=0) - stack.min(axis=0)
    assert spread.max() <= 1.0  # one cell: interval length 2^level(u)/sqrt(d)


def test_corner_offsets_within_one_cell_of_unshifted_floor():
    # relative to the cell of the unshifted displacement, a dithered corner
    # moves each coordinate up by at most one grid step
    tree, proj = _fixed_tree(seed=8, n=18)
    rng = np.random.default_rng(41)
    d = tree.d
    unit = tree.unit()
    aug = build_augmentations(tree, proj.points, rng.random(d), rng.random(d))
    leaves = np.flatnonzero(tree.is_subtree_leaf)
    for k, v in enumerate(leaves):
        v = int(v)
        root = int(tree.subtree_root[v])
        cell = math.pow(2.0, int(tree.level[v])) * unit
        y = proj.points[tree.center[v]] - (
            proj.points[tree.center[root]] + tree.s_units[v] * unit)
        base = np.floor(y / cell).astype(np.int64)
        for mat in (aug.a1, aug.a2):
            off = mat[k] - base
            assert set(np.unique(off)) <= {0, 1}


def test_copy_one_never_reads_copy_two():
    rng = np.random.default_rng(43)
    ps = random_pointset(rng, 12, 4)
    sk = build_euclidean_sketch(ps, 0.3, seed=2)
    ctx = QueryContext(sk)
    before = [ctx.probabilistic_surrogate(i, 0, copy=1) for i in range(12)]
    ctx.tree.augmentations.a2[:] = 5  # trample the second copy
    ctx.tree.augmentations.b2[:] = 3
    after = [ctx.probabilistic_surrogate(i, 0, copy=1) for i in range(12)]
    for x, y in zip(before, after):
        assert np.array_equal(x, y)


def test_copy_independence():
    tree, proj = _fixed_tree(seed=3)
    rng = np.random.default_rng(19)
    d = tree.d
    s1 = rng.random(d)
    a = build_augmentations(tree, proj.points, s1, rng.random(d))
    b = build_augmentations(tree, proj.points, s1, rng.random(d))
    assert np.array_equal(a.a1, b.a1)
    assert np.array_equal(a.b1, b.b1)
    assert not np.array_equal(a.a2, b.a2)  # second copy saw a different shift


def test_euclidean_sketch_bytes_deterministic():
    rng = np.random.default_rng(47)
    ps = random_pointset(rng, 15, 6)
    a = build_euclidean_sketch(ps, 0.25, seed=3)
    b = build_euclidean_sketch(ps, 0.25, seed=3)
    c = build_euclidean_sketch(ps, 0.25, seed=4)
    assert a.data == b.data
    assert a.data != c.data


def test_sigmas_never_serialized():
    rng = np.random.default_rng(23)
    ps = random_pointset(rng, 10, 5)
    sk = build_euclidean_sketch(ps, 0.3, seed=5)
    dec = decode(sk)
    assert dec.augmentations.sigma1 is None and dec.augmentations.sigma2 is None


def test_probabilistic_surrogate_expectation_and_support():
    tree, proj = _fixed_tree(seed=4, n=20)
    rng = np.random.default_rng(29)
    d = tree.d
    unit = tree.unit()
    i = 0
    draws = 2500
    vals = np.empty((draws, d))
    ctx0 = QueryContext(tree)
    chain = ctx0._chain(i)
    r, v_i = chain[-1][0], chain[-1][1]  # topmost subtree (global root)
    for k in range(draws):
        tree.augmentations = build_augmentations(
            tree, proj.points, rng.random(d), rng.random(d))
        ctx = QueryContext(tree)
        vals[k] = ctx.probabilistic_surrogate(i, r, copy=1)
    target = proj.points[i] - proj.points[tree.center[r]]
    se = vals.std(axis=0) / math.sqrt(draws)
    assert np.all(np.abs(vals.mean(axis=0) - target) <= 4 * se + 1e-12)
    spread = vals.max(axis=0) - vals.min(axis=0)
    assert spread.max() <= 3.0 * math.pow(2.0, int(tree.level[v_i])) * unit + 1e-12


def test_probabilistic_surrogate_requires_membership():
    tree, proj = _fixed_tree(seed=6)
    rng = np.random.default_rng(31)
    tree.augmentations = build_augmentations(
        tree, proj.points, rng.random(tree.d), rng.random(tree.d))
    ctx = QueryContext(tree)
    # a leaf holding a different point is never on point 0's subtree chain
    other = [v for v in range(tree.node_count)
             if not tree.children[v] and tree.center[v] != 0][0]
    with pytest.raises(ValueError):
        ctx.probabilistic_surrogate(0, other, copy=1)
    with pytest.raises(ValueError):
        ctx.probabilistic_surrogate(0, 0, copy=3)


def test_bit_growth_scales_with_inverse_eps_squared():
    rng = np.random.default_rng(37)
    n = 256
    pts = rng.normal(size=(n, 16)) * 50
    ps = scale_points(pts, 2)
    bits = []
    for eps in (0.4, 0.2, 0.1):
        sk = build_euclidean_sketch(ps, eps, seed=1)
        bits.append(size_report(sk)["total_data_bits"])
    for a, b in zip(bits, bits[1:]):
        ratio = b / a
        assert 4 * 0.8 <= ratio <= 4 * 1.2, ratio
