"""Euclidean pipeline: Gaussian random projection, a base tree at constant
precision, and the two dithered grid-corner augmentations.

Randomness is split into three named streams from one seed (projection
matrix, shift copy 1, shift copy 2), so the two augmentation copies are
structurally independent.
"""
from __future__ import annotations

import math

import numpy as np

from .codec import SketchBits, encode
from .metric import PointSet, _scale_points, lp_norms, norm_root, randomized_grid_round
from .tree import (Augmentations, RelativeLocationTree, build_coarse_tree, quantize_eps,
                   surrogate_units)

EUCLIDEAN_TREE_EPS = 0.5  # the base tree's precision; the user's eps sets d' and the band


def target_dimension(n: int, eps: float) -> int:
    """ceil(3 * eps^-2 * log2 n), floored at 1."""
    if n < 2:
        raise ValueError("need at least two points")
    return max(1, int(math.ceil(3.0 * eps ** -2 * math.log2(n))))


def jl_transform(ps: PointSet, target_dim: int, seed) -> PointSet:
    """Project onto target_dim dimensions with an i.i.d. Gaussian matrix of
    entry deviation 1/sqrt(d'), then renormalize the scale so the projected
    minimum distance is in [1, 2). The diameter bound is recomputed from the
    projected points. With mat = QR, the rows of points @ R.T (min(d, d')
    columns) have the projected distances; where d < d', they give the
    distance matrix, in O(n^2 d) rather than O(n^2 d'), equal up to rounding.
    Where d >= d', the projected points are as narrow as that frame, and the
    QR and the product would only add to the build (n = 1000, d = 1500,
    d' = 748: 68 + 46 ms, on a 225 ms distance step that stays as it is)."""
    if ps.p != 2:
        raise ValueError("random projection applies to p = 2 only")
    if target_dim < 1:
        raise ValueError("target dimension must be >= 1")
    rng = np.random.default_rng(seed)  # seed: an int or a numpy SeedSequence
    mat = rng.normal(0.0, 1.0, size=(target_dim, ps.d)) / math.sqrt(target_dim)
    projected = ps.points @ mat.T
    frame = ps.points @ np.linalg.qr(mat, mode="r").T if ps.d < target_dim else None
    try:
        return _scale_points(projected, 2, ps.scale_exponent, frame)
    except ValueError as exc:
        raise ValueError(f"projection collapsed two points ({exc}); retry with a new seed")


def build_augmentations(
    tree: RelativeLocationTree,
    points: np.ndarray,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
) -> Augmentations:
    """Randomized grid corners per subtree leaf: the displacement of the leaf's
    center from its coarse surrogate at cell side 2^level/sqrt(d), and (at
    long-edge corner nodes, whose subtree hangs under a long edge) the
    displacement from the long edge's top center at the top node's cell side."""
    dp = norm_root(tree.d, 2)

    def corners(what, nodes, y, two_l):
        nrm = lp_norms(y, 2)
        over = nrm > two_l * (1 + 1e-9)
        if over.any():
            raise AssertionError(
                f"{what} displacement {nrm[over][0]} > 2^level at node {nodes[over][0]}")
        return (randomized_grid_round(y, two_l / dp, sigma1),
                randomized_grid_round(y, two_l / dp, sigma2))

    leaves = np.flatnonzero(tree.is_subtree_leaf)  # in leaf_row order
    unit = 1.0 / dp
    s_star = points[tree.center[tree.subtree_root[leaves]]] + surrogate_units(tree)[leaves] * unit
    a1, a2 = corners("surrogate", leaves, points[tree.center[leaves]] - s_star,
                     np.ldexp(1.0, tree.level[leaves]))

    nodes = np.flatnonzero(tree.corner_row >= 0)  # in corner_row order
    u = tree.parent[tree.subtree_root[nodes]]  # outside the root's subtree: a long edge's top
    b1, b2 = corners("long-edge", nodes, points[tree.center[nodes]] - points[tree.center[u]],
                     np.ldexp(1.0, tree.level[u]))

    return Augmentations(a1=a1, a2=a2, b1=b1, b2=b2)


def build_euclidean_sketch(ps: PointSet, eps: float, seed: int) -> SketchBits:
    """Randomized Euclidean pipeline: project to d' = ceil(3 eps^-2 log2 n)
    dimensions, build the tree at EUCLIDEAN_TREE_EPS (no fine etas: the
    Euclidean estimator never reads them), attach two independently shifted
    augmentation copies, and serialize with eps as the tree's eps. The shift
    vectors are discarded; only data derived from them is stored."""
    if ps.p != 2:
        raise ValueError("euclidean sketches require p = 2")
    eps_d = quantize_eps(eps)
    dprime = target_dimension(ps.n, eps_d)
    seq = np.random.SeedSequence(seed)
    seed_mat, seed_s1, seed_s2 = seq.spawn(3)
    proj = jl_transform(ps, dprime, seed_mat)
    tree, _ = build_coarse_tree(proj, EUCLIDEAN_TREE_EPS)
    sigma1 = np.random.default_rng(seed_s1).random(dprime)
    sigma2 = np.random.default_rng(seed_s2).random(dprime)
    tree.augmentations = build_augmentations(tree, proj.points, sigma1, sigma2)
    tree.eps = eps_d
    return encode(tree)
