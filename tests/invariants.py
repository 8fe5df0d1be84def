"""Node-by-node proved-bound checks for built trees.

Every check recomputes its quantities from the raw points and the finished
tree (brute force where the bound is about the metric), independently of the
construction path.
"""
from __future__ import annotations

import math

import numpy as np

from rltsketch.estimator import QueryContext
from rltsketch.metric import PointSet, lp_distance, lp_norm, norm_root
from rltsketch.tree import RelativeLocationTree, fine_surrogate_units, ingress_layers


def level_partitions(t: RelativeLocationTree):
    """Point labels for every hierarchy level, reconstructed from the
    compressed tree: a node's cluster covers levels [level(v), level(parent)-1]."""
    top = int(t.phi_exponent)
    labels = np.full((top + 1, t.n), -1, dtype=np.int64)
    for v in range(t.node_count):
        lo = int(t.level[v])
        hi = top if t.parent[v] < 0 else int(t.level[t.parent[v]]) - 1
        for lvl in range(lo, hi + 1):
            labels[lvl, t.members[v]] = v
    assert (labels >= 0).all(), "levels do not cover all points"
    return labels


def check_tree_invariants(t: RelativeLocationTree, ps: PointSet, full_separation: bool = True):
    """Raises AssertionError with a named bound on any violation."""
    n, x, eps = t.n, ps.points, t.eps
    dm = ps.distance_matrix()

    # structure: children partition parents, levels decrease correctly
    for v in range(t.node_count):
        if t.children[v]:
            parts = np.sort(np.concatenate([t.members[c] for c in t.children[v]]))
            assert np.array_equal(parts, t.members[v]), "children do not partition parent"
        if t.parent[v] >= 0:
            gap = int(t.level[t.parent[v]]) - int(t.level[v])
            if t.edge_long[v]:
                assert gap == int(t.edge_len[v]) - 1 >= 1, "long edge level gap"
            else:
                assert gap == 1, "short edge level gap"

    # separation: distinct clusters at level l are >= 2^l apart
    if full_separation and n > 1:
        labels = level_partitions(t)
        for lvl in range(labels.shape[0]):
            lab = labels[lvl]
            cross = lab[:, None] != lab[None, :]
            if cross.any():
                assert dm[cross].min() >= math.pow(2.0, lvl), f"separation at level {lvl}"

    # diameter budget over the uncompressed hierarchy
    budget = float(np.sum(np.ldexp(t.tstar_delta, -t.tstar_level)))
    assert budget <= 4.0 * n, "hierarchy diameter budget"

    # compressed tree size
    assert t.node_count <= 2 * n * (2 + math.log2(1.0 / eps)), "tree size bound"

    # subtree leaves have small diameters
    for v in np.flatnonzero(t.is_subtree_leaf):
        assert t.delta[v] <= math.pow(2.0, int(t.level[v])) * eps, "subtree-leaf diameter"

    # ingress distance and level bounds
    for v in range(t.node_count):
        inn = int(t.ingress[v])
        dist = lp_distance(x[t.center[v]], x[t.center[inn]], t.p)
        assert dist <= 3.0 * math.pow(2.0, int(t.level[v])) + t.delta[v], "ingress distance"
        assert int(t.level[inn]) <= int(t.level[v]) + 1, "ingress level"

    # surrogate errors, net membership, and the shift identity
    for v in range(t.node_count):
        root = int(t.subtree_root[v])
        x_root = x[t.center[root]]
        s_star = x_root + t.s_units[v] * t.unit()
        err = lp_distance(x[t.center[v]], s_star, t.p)
        assert err <= math.pow(2.0, int(t.level[v])), "coarse surrogate error"
        if root != v:
            vec = t.eta[v] * ((1.0 / t.g[v]) * t.unit())  # coords * cell side
            assert lp_norm(vec, t.p) <= 2.0 + 1e-12, "net membership"
        if t.is_subtree_leaf[v] and root != v:
            s_fine = x_root + fine_surrogate_units(t, v) * t.unit()
            err = lp_distance(x[t.center[v]], s_fine, t.p)
            assert err <= math.pow(2.0, int(t.level[v])) * eps, "fine surrogate error"

    # long-edge and subtree-leaf counts
    assert int(t.edge_long.sum()) <= 2 * n, "long edge count"
    assert int(t.is_subtree_leaf.sum()) <= 3 * n, "subtree leaf count"

    # centers: leaf rule and min-of-children recursion
    for v in range(t.node_count):
        if t.children[v]:
            assert t.center[v] == min(int(t.center[c]) for c in t.children[v]), "center recursion"
        else:
            assert t.members[v].shape == (1,) and t.center[v] == t.members[v][0], "leaf center"

    # decoded replay reproduces the builder's shifted surrogates exactly
    ctx = QueryContext(t, use_landmarks=True, memoize=True)
    for v in range(t.node_count):
        assert np.array_equal(ctx._s_units(v), t.s_units[v]), "shifted surrogate replay"

    # literal-formula oracle: accumulating s*(v) = s*(in(v)) + (2^l/gamma)*eta
    # in plain float arithmetic agrees with the grid-unit accumulation
    dp = norm_root(t.d, t.p)
    s_alt: dict[int, np.ndarray] = {}
    for layer in ingress_layers(t):
        for v in layer.tolist():
            r = int(t.subtree_root[v])
            if v == r:
                s_alt[v] = x[t.center[v]].astype(np.float64)
            else:
                gamma = 1.0 / float(t.g[v])
                step = (math.pow(2.0, int(t.level[v])) / gamma) * (t.eta[v] * (gamma / dp))
                s_alt[v] = s_alt[int(t.ingress[v])] + step
            direct = x[t.center[r]] + t.s_units[v] * t.unit()
            np.testing.assert_allclose(s_alt[v], direct, rtol=1e-9, atol=1e-9,
                                       err_msg="literal surrogate recursion")

    # landmark walk budget: every node reaches a stored surrogate or its
    # subtree root within K ingress hops
    landmarks = set(t.landmarks.tolist())
    for v in range(t.node_count):
        cur, hops = v, 0
        while cur not in landmarks and int(t.subtree_root[cur]) != cur:
            cur = int(t.ingress[cur])
            hops += 1
            assert hops <= t.K, "landmark hop budget"

    # landmark coordinates are integers (in d^(-1/p) units) bounded by the
    # shifted-surrogate magnitude 2^(root level) + diameter
    bound = (math.pow(2.0, t.phi_exponent) + ps.phi) / t.unit()
    for vals in t.landmark_units:
        assert np.array_equal(vals, np.round(vals)), "landmark integrality"
        assert np.abs(vals).max(initial=0.0) <= bound * (1 + 1e-9), "landmark magnitude"


def check_pair_floor(t: RelativeLocationTree, ps: PointSet, rng, samples: int = 50):
    """Sampled check: 2^max(level(v_i), level(v_j)) never exceeds the true
    distance (the separation floor the estimators rely on)."""
    if t.n < 2:
        return
    ctx = QueryContext(t)
    dm = ps.distance_matrix()
    for _ in range(samples):
        i, j = rng.choice(t.n, size=2, replace=False)
        _, vi, vj = ctx._lca_entries(int(i), int(j))
        lij = max(int(t.level[vi]), int(t.level[vj]))
        assert math.pow(2.0, lij) <= dm[i, j] * (1 + 1e-12), "pair level floor"
