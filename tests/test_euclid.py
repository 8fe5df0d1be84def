import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rltsketch
from rltsketch.codec import decode, encode, size_report
from rltsketch.estimator import QueryContext
from rltsketch.euclid import (
    EUCLIDEAN_TREE_EPS,
    build_augmentations,
    build_euclidean_sketch,
    jl_transform,
    target_dimension,
)
from rltsketch.metric import PointSet, pairwise_distances, scale_points
from rltsketch.tree import build_coarse_tree, build_hierarchy, surrogate_units


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
        jl_transform(ps, 4, 0)


def test_projection_is_linear_on_duplicates():
    # equal inputs project to equal outputs (zero distance is preserved)
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(12, 4)) / math.sqrt(12)
    pts = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    proj = pts @ mat.T
    assert np.array_equal(proj[0], proj[1])
    with pytest.raises(ValueError):
        jl_transform(scale_points(np.array([[0.0], [1.0]]), 2), 0, 1)  # target dimension >= 1


def test_jl_deterministic_given_seed():
    rng = np.random.default_rng(1)
    ps = random_pointset(rng, 10, 8)
    a = jl_transform(ps, 16, 42)
    b = jl_transform(ps, 16, 42)
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
        proj = jl_transform(ps, dprime, seed)
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


def _frame_inputs(seed):
    """Normal points, clusters at scale 2^8 with spreads 2^-2..2^6, and an
    integer grid with exact ties, each in fewer dimensions than d'."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(8, 8)) * 2.0 ** 8
    spread = np.ldexp(1.0, rng.integers(-2, 7, size=120))[:, None]
    clusters = centers[rng.integers(0, 8, size=120)] + rng.normal(size=(120, 8)) * spread
    grid = np.unique(rng.integers(0, 6, size=(150, 5)), axis=0).astype(float)
    return {"normal": rng.normal(size=(120, 12)) * 10, "clusters": clusters, "grid": grid}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projected_distances_match_the_projected_points(seed):
    # the distance matrix comes from the R factor's frame (d columns), but
    # it is the projected points' own distance matrix up to rounding, and
    # the tree and file built on either are the same
    for name, pts in _frame_inputs(seed).items():
        ps = scale_points(pts, 2)
        dprime = target_dimension(ps.n, 0.3)
        assert ps.d < dprime, name
        proj = jl_transform(ps, dprime, seed)
        want = pairwise_distances(proj.points, 2)
        off = ~np.eye(ps.n, dtype=bool)
        rel = np.abs(proj.distance_matrix() - want)[off] / want[off]
        assert rel.max() <= 1e-12, name

        own = PointSet(proj.points, 2, proj.scale_exponent, float(want.max()), dist=want)
        sigma = np.random.default_rng(seed).random((2, dprime))
        sketches, merges = [], []
        for q in (proj, own):
            tree, _ = build_coarse_tree(q, EUCLIDEAN_TREE_EPS)
            tree.augmentations = build_augmentations(tree, q.points, *sigma)
            sketches.append(encode(tree).data)
            merges.append(build_hierarchy(q))
        assert sketches[0] == sketches[1], name
        for field in ("level", "children", "near"):
            assert getattr(merges[0], field) == getattr(merges[1], field), name


@pytest.mark.parametrize("dprime", [20, 30])
def test_projected_distances_at_d_not_below_dprime(dprime):
    # where d >= d' no frame is taken: the distances are the projected
    # points' own, bit for bit
    ps = scale_points(np.random.default_rng(dprime).normal(size=(40, 30)) * 10, 2)
    proj = jl_transform(ps, dprime, 3)
    assert np.array_equal(proj.distance_matrix(), pairwise_distances(proj.points, 2))


def test_projected_distances_over_wide_scales():
    # clusters at 2^14 with spreads 2^-6..2^13: both ways of computing a
    # small distance between large points cancel, so they agree to the
    # rounding of the points' norms rather than of the distance itself
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(8, 8)) * 2.0 ** 14
    spread = np.ldexp(1.0, rng.integers(-6, 14, size=120))[:, None]
    pts = centers[rng.integers(0, 8, size=120)] + rng.normal(size=(120, 8)) * spread
    proj = jl_transform(scale_points(pts, 2), 231, 5)
    want = pairwise_distances(proj.points, 2)
    norms = np.sqrt((proj.points ** 2).sum(axis=1))
    err = np.abs(proj.distance_matrix() - want)
    assert (err <= 1e-13 * (norms[:, None] + norms[None, :])).all()


def test_euclidean_bytes_do_not_depend_on_blas_threads():
    # the build's products and its QR run in BLAS / LAPACK, whose summation
    # order may follow the thread count; the file must not
    script = ("import hashlib, numpy as np\n"
              "from rltsketch import build_euclidean_sketch, scale_points\n"
              "pts = np.random.default_rng(53).normal(size=(300, 50)) * 20\n"
              "sk = build_euclidean_sketch(scale_points(pts, 2), 0.2, seed=9)\n"
              "print(hashlib.sha256(sk.data).hexdigest())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rltsketch.__file__)))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        digests.add(out.strip())
    assert len(digests) == 1


def _fixed_tree(seed=0, n=14, d=6, dprime=40):
    rng = np.random.default_rng(seed)
    ps = random_pointset(rng, n, d)
    proj = jl_transform(ps, dprime, 7)
    return build_coarse_tree(proj, EUCLIDEAN_TREE_EPS)[0], proj


def _clustered_tree(seed=2, clusters=4, size=6, d=6, dprime=40):
    """A tree over unit cubes of points in a row, 6 apart: each cube hangs
    under a long edge (a point alone would be one leaf, with no corner), and
    its diameter is near enough the long edge's cell for nonzero corners."""
    rng = np.random.default_rng(seed)
    centers = np.arange(clusters)[:, None] * np.full(d, 6.0 / math.sqrt(d))
    pts = np.concatenate([c + rng.uniform(0, 1, size=(size, d)) for c in centers])
    proj = jl_transform(scale_points(pts, 2), dprime, 7)
    tree, _ = build_coarse_tree(proj, EUCLIDEAN_TREE_EPS)
    assert tree.edge_long.any()
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
    s = surrogate_units(tree)
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
            proj.points[tree.center[root]] + s[v] * unit)
        cell = math.pow(2.0, int(tree.level[v])) * unit
        se = cell * 0.5 / math.sqrt(draws)  # corner std is at most cell/2
        assert np.all(np.abs(acc[k] - target) <= 4 * se + 1e-12)


def test_long_edge_corner_support_length():
    tree, proj = _clustered_tree()
    rng = np.random.default_rng(17)
    d = tree.d
    samples = []
    for _ in range(400):
        aug = build_augmentations(tree, proj.points, rng.random(d), rng.random(d))
        samples.append(aug.b1.astype(np.float64))
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
    s = surrogate_units(tree)
    aug = build_augmentations(tree, proj.points, rng.random(d), rng.random(d))
    leaves = np.flatnonzero(tree.is_subtree_leaf)
    for k, v in enumerate(leaves):
        v = int(v)
        root = int(tree.subtree_root[v])
        cell = math.pow(2.0, int(tree.level[v])) * unit
        y = proj.points[tree.center[v]] - (
            proj.points[tree.center[root]] + s[v] * unit)
        base = np.floor(y / cell).astype(np.int64)
        for mat in (aug.a1, aug.a2):
            off = mat[k] - base
            assert set(np.unique(off)) <= {0, 1}


def test_copy_one_never_reads_copy_two():
    rng = np.random.default_rng(43)
    ps = random_pointset(rng, 12, 4)
    sk = build_euclidean_sketch(ps, 0.3, seed=2)
    ctx = QueryContext(sk)
    before = [ctx.probabilistic_surrogate(i, 0)[0] for i in range(12)]
    ctx.tree.augmentations.a2[:] = 5  # trample the second copy
    ctx.tree.augmentations.b2[:] = 3
    after = [ctx.probabilistic_surrogate(i, 0)[0] for i in range(12)]
    for x, y in zip(before, after):
        assert np.array_equal(x, y)


def test_copy_independence():
    tree, proj = _clustered_tree(seed=3)
    rng = np.random.default_rng(19)
    d = tree.d
    s1 = rng.random(d)
    a = build_augmentations(tree, proj.points, s1, rng.random(d))
    b = build_augmentations(tree, proj.points, s1, rng.random(d))
    assert a.b1.any()  # long-edge corners that are not all zero
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


def test_probabilistic_surrogate_expectation_and_support():
    # point 2 sits in a subtree below a long edge and is not its subtree's
    # center, so its surrogate relative to the global root carries a
    # long-edge corner of a nonzero displacement
    tree, proj = _clustered_tree(seed=4)
    rng = np.random.default_rng(29)
    d = tree.d
    unit = tree.unit()
    i = 2
    draws = 2500
    vals = np.empty((draws, d))
    ctx0 = QueryContext(tree)
    chain = ctx0._chain(i)
    assert len(chain) >= 2 and tree.center[chain[0][0]] != i
    r, v_i = chain[-1][0], chain[-1][1]  # topmost subtree (global root)
    for k in range(draws):
        tree.augmentations = build_augmentations(
            tree, proj.points, rng.random(d), rng.random(d))
        ctx = QueryContext(tree)
        vals[k] = ctx.probabilistic_surrogate(i, r)[0]
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
             if v not in tree.parent and tree.center[v] != 0][0]
    with pytest.raises(ValueError):
        ctx.probabilistic_surrogate(0, other)
    # -1 must not wrap around to the last point
    for i in (-1, tree.n):
        with pytest.raises(IndexError, match="point index out of range"):
            ctx.probabilistic_surrogate(i, 0)


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


def test_first_long_edge_corner_row_of_each_subtree_is_derived():
    # a subtree's first leaf holds the subtree's center, which is the long
    # edge's top center too: its long-edge displacement, and so its corner
    # rows, are zero, and the file does not store them
    tree, proj = _clustered_tree(seed=4)
    rng = np.random.default_rng(7)
    tree.augmentations = build_augmentations(tree, proj.points, rng.random(tree.d),
                                             rng.random(tree.d))
    sk = encode(tree)
    dec = decode(sk)
    corners = np.flatnonzero(dec.corner_row >= 0)
    _, first = np.unique(dec.subtree_root[corners], return_index=True)
    assert len(first) >= 2  # non-root subtrees
    fields = size_report(sk)["sections"]["augmentations"]["fields"]
    for name in ("b1", "b2"):
        built, back = getattr(tree.augmentations, name), getattr(dec.augmentations, name)
        assert np.array_equal(built, back)
        assert not back[first].any()
        stored = np.delete(back, first, axis=0)
        width = int(stored.max() - stored.min()).bit_length()
        # d' values of this width fewer per non-root subtree, per copy
        assert fields[name] == 70 + (len(back) - len(first)) * dec.d * width


def test_euclidean_sketches_require_p2():
    with pytest.raises(ValueError, match="euclidean sketches require p = 2"):
        build_euclidean_sketch(scale_points(np.array([[0.0], [1.0]]), 1), 0.5, seed=0)


def test_a_surrogate_displacement_past_its_cell_is_a_construction_bug():
    # one non-root subtree leaf's coarse eta moved by 3 in every coordinate:
    # its surrogate moves 3 * 2^level, so its center lies outside the ball
    # its corners are drawn in
    tree, proj = _fixed_tree(seed=6)
    fine = tree.is_subtree_leaf & (tree.subtree_root != np.arange(tree.node_count))
    v = int(np.flatnonzero(fine)[0])
    tree.eta[v] += 3
    rng = np.random.default_rng(31)
    with pytest.raises(AssertionError, match=rf"^surrogate displacement .* at node {v}$"):
        build_augmentations(tree, proj.points, rng.random(tree.d), rng.random(tree.d))
