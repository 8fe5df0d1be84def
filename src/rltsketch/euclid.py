"""Euclidean pipeline: Gaussian random projection, a base tree at constant
precision, and the two dithered grid-corner augmentations.

Randomness is split into three named streams from one seed (projection
matrix, shift copy 1, shift copy 2), so the two augmentation copies are
structurally independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import EUCLIDEAN_TREE_EPS, SketchBits, corner_bound, encode
from .metric import PointSet, norm_root, randomized_grid_round, scale_points
from .tree import Augmentations, RelativeLocationTree, build_tree, quantize_eps


@dataclass
class JlConfig:
    target_dim: int
    seed: object  # int or numpy SeedSequence


def target_dimension(n: int, eps: float) -> int:
    """ceil(3 * eps^-2 * log2 n), floored at 1."""
    if n < 2:
        raise ValueError("need at least two points")
    return max(1, int(math.ceil(3.0 * eps ** -2 * math.log2(n))))


def jl_transform(ps: PointSet, cfg: JlConfig) -> PointSet:
    """Project onto cfg.target_dim dimensions with an i.i.d. Gaussian matrix of
    entry deviation 1/sqrt(d'), then renormalize the scale so the projected
    minimum distance is in [1, 2). The diameter bound is recomputed from the
    projected points."""
    if ps.p != 2:
        raise ValueError("random projection applies to p = 2 only")
    if cfg.target_dim < 1:
        raise ValueError("target dimension must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    mat = rng.normal(0.0, 1.0, size=(cfg.target_dim, ps.d)) / math.sqrt(cfg.target_dim)
    projected = ps.points @ mat.T
    try:
        return scale_points(projected, 2, base_exponent=ps.scale_exponent)
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
    d = tree.d
    dp = norm_root(d, 2)
    unit = 1.0 / dp
    bound = corner_bound(d)
    leaves = np.flatnonzero(tree.is_subtree_leaf)
    a1 = np.zeros((len(leaves), d), dtype=np.int64)
    a2 = np.zeros_like(a1)
    b1 = np.zeros((np.count_nonzero(tree.corner_row >= 0), d), dtype=np.int64)
    b2 = np.zeros_like(b1)

    for v in leaves.tolist():
        lv = int(tree.level[v])
        two_l = math.pow(2.0, lv)
        root = int(tree.subtree_root[v])
        s_star = points[tree.center[root]] + tree.s_units[v] * unit
        y = points[tree.center[v]] - s_star
        nrm = math.sqrt(float(np.dot(y, y)))
        if nrm > two_l * (1 + 1e-9):
            raise AssertionError(f"surrogate displacement {nrm} > 2^level at node {v}")
        cell = two_l / dp
        c1 = randomized_grid_round(y, cell, sigma1)
        c2 = randomized_grid_round(y, cell, sigma2)
        if max(np.abs(c1).max(), np.abs(c2).max()) > bound:
            raise AssertionError(f"corner outside the encodable ball at node {v}")
        k = tree.leaf_row[v]
        a1[k], a2[k] = c1, c2

        kb = int(tree.corner_row[v])
        if kb >= 0:
            u = int(tree.parent[root])
            if not tree.edge_long[root]:
                raise AssertionError("subtree root without a long parent edge")
            lu = int(tree.level[u])
            two_lu = math.pow(2.0, lu)
            yb = points[tree.center[v]] - points[tree.center[u]]
            nrm = math.sqrt(float(np.dot(yb, yb)))
            if nrm > two_lu * (1 + 1e-9):
                raise AssertionError(f"long-edge displacement {nrm} > 2^level at node {v}")
            cell_b = two_lu / dp
            c1 = randomized_grid_round(yb, cell_b, sigma1)
            c2 = randomized_grid_round(yb, cell_b, sigma2)
            if max(np.abs(c1).max(), np.abs(c2).max()) > bound:
                raise AssertionError(f"corner outside the encodable ball at node {v}")
            b1[kb], b2[kb] = c1, c2

    return Augmentations(a1=a1, a2=a2, b1=b1, b2=b2, sigma1=sigma1, sigma2=sigma2)


def build_euclidean_sketch(ps: PointSet, eps: float, seed: int) -> SketchBits:
    """Randomized Euclidean pipeline: project to d' = ceil(3 eps^-2 log2 n)
    dimensions, build the tree at the fixed constant precision 1/2, attach two
    independently shifted augmentation copies, and serialize. The shift
    vectors are discarded; only data derived from them is stored."""
    if ps.p != 2:
        raise ValueError("euclidean sketches require p = 2")
    eps_d = quantize_eps(eps)
    dprime = target_dimension(ps.n, eps_d)
    seq = np.random.SeedSequence(seed)
    seed_mat, seed_s1, seed_s2 = seq.spawn(3)
    proj = jl_transform(ps, JlConfig(target_dim=dprime, seed=seed_mat))
    tree = build_tree(proj, EUCLIDEAN_TREE_EPS)
    tree.flags_euclidean = True
    tree.header_eps = eps_d
    sigma1 = np.random.default_rng(seed_s1).random(dprime)
    sigma2 = np.random.default_rng(seed_s2).random(dprime)
    aug = build_augmentations(tree, proj.points, sigma1, sigma2)
    tree.augmentations = aug
    return encode(tree, aug)
