"""Node-by-node proved-bound checks for built trees.

Every check recomputes its quantities from the raw points and the finished
tree (brute force where the bound is about the metric), independently of the
construction path: a node's members are the points of the leaves below it,
its diameter the largest distance among them, and the shifted surrogates
are replayed from the tree's annotations.
"""
from __future__ import annotations

import math

import numpy as np

from rltsketch.estimator import QueryContext
from rltsketch.metric import PointSet, lp_distance, lp_norm, norm_root
from rltsketch.tree import RelativeLocationTree, ingress_layers, surrogate_units


def fine_surrogate_units(t: RelativeLocationTree, s: np.ndarray, v: int) -> np.ndarray:
    """Shifted fine surrogate in grid units, given the coarse ones s
    (surrogate_units): one fine increment on the coarse prefix (the fine net
    is not accumulated inductively)."""
    inn = int(t.ingress[v])
    return s[inn] + (math.pow(2.0, int(t.level[v])) * t.eps) * t.eta_eps[v]


def tree_children(t: RelativeLocationTree) -> list[list[int]]:
    """Each node's children, ascending."""
    children: list[list[int]] = [[] for _ in range(t.node_count)]
    for v, u in enumerate(t.parent[1:].tolist(), 1):
        children[u].append(v)
    return children


def node_members(t: RelativeLocationTree) -> list[np.ndarray]:
    """Each node's points, sorted: the centers of the leaves below it. A
    node's subtree is the run of preorder ids from the node on, as long as
    its subtree size."""
    m = t.node_count
    size = np.ones(m, dtype=np.int64)
    for v in range(m - 1, 0, -1):
        size[t.parent[v]] += size[v]
    is_leaf = np.bincount(t.parent[1:], minlength=m) == 0
    return [np.sort(t.center[v:v + size[v]][is_leaf[v:v + size[v]]]) for v in range(m)]


def node_diameters(members: list[np.ndarray], dm: np.ndarray) -> np.ndarray:
    """Each node's diameter: the largest distance among its members."""
    return np.array([dm[np.ix_(mem, mem)].max() for mem in members])


def level_spans(t: RelativeLocationTree):
    """(lo, hi) arrays: the hierarchy levels lo..hi each node's cluster
    stands for. A node covers level(v)..level(parent) - 1 and the root its
    own level; a leaf, one point, covers every level from 0 up."""
    hi = t.level.copy()
    hi[1:] = t.level[t.parent[1:]] - 1
    lo = np.where(np.bincount(t.parent[1:], minlength=t.node_count) == 0, 0, t.level)
    return lo, hi


def level_partitions(t: RelativeLocationTree, members: list[np.ndarray]):
    """Point labels for every hierarchy level, reconstructed from the
    compressed tree's level spans."""
    labels = np.full((int(t.phi_exponent) + 1, t.n), -1, dtype=np.int64)
    for v, (lo, hi) in enumerate(zip(*level_spans(t))):
        labels[lo:hi + 1, members[v]] = v
    assert (labels >= 0).all(), "levels do not cover all points"
    return labels


def check_tree_invariants(t: RelativeLocationTree, ps: PointSet, full_separation: bool = True):
    """Raises AssertionError with a named bound on any violation."""
    n, x, eps = t.n, ps.points, t.eps
    dm = ps.distance_matrix()
    children, members = tree_children(t), node_members(t)
    delta, s = node_diameters(members, dm), surrogate_units(t)

    # facts the build relies on without checking them: subtrees start at the
    # root and at the long-edge bottoms only; a node's first short child
    # holds its center and enters by it; a later short child enters by a
    # subtree leaf of its own subtree
    ids = np.arange(t.node_count)
    assert np.array_equal(t.subtree_root == ids, (ids == 0) | t.edge_long), \
        "subtree roots are the root and the long-edge bottoms"
    for v in range(t.node_count):
        short = [c for c in children[v] if not t.edge_long[c]]
        if short:
            assert t.ingress[short[0]] == v and t.center[short[0]] == t.center[v], \
                "first child holds the parent's center"
        for u in t.ingress[short[1:]].tolist():
            assert t.is_subtree_leaf[u] and t.subtree_root[u] == t.subtree_root[short[0]], \
                "ingress target is a subtree leaf"

    # structure: children partition parents, levels decrease correctly
    for v in range(t.node_count):
        if children[v]:
            parts = np.sort(np.concatenate([members[c] for c in children[v]]))
            assert np.array_equal(parts, members[v]), "children do not partition parent"
        if t.parent[v] >= 0:
            gap = int(t.level[t.parent[v]]) - int(t.level[v])
            if t.edge_long[v]:
                assert gap == int(t.edge_len[v]) - 1 >= 1, "long edge level gap"
            else:
                assert gap == 1, "short edge level gap"

    # separation: distinct clusters at level l are >= 2^l apart
    if full_separation and n > 1:
        labels = level_partitions(t, members)
        for lvl in range(labels.shape[0]):
            lab = labels[lvl]
            cross = lab[:, None] != lab[None, :]
            if cross.any():
                assert dm[cross].min() >= math.pow(2.0, lvl), f"separation at level {lvl}"

    # diameter budget over the uncompressed hierarchy: node v stands for the
    # levels of its span, each with diameter delta(v);
    # sum_{l=lo}^{hi} 2^-l = 2^(1-lo) - 2^-hi
    lo, hi = level_spans(t)
    budget = float(np.sum(delta * (np.ldexp(2.0, -lo) - np.ldexp(1.0, -hi))))
    assert budget <= 4.0 * n, "hierarchy diameter budget"

    # compressed tree size
    assert t.node_count <= 2 * n * (2 + math.log2(1.0 / eps)), "tree size bound"

    # subtree leaves have small diameters
    for v in np.flatnonzero(t.is_subtree_leaf):
        assert delta[v] <= math.pow(2.0, int(t.level[v])) * eps, "subtree-leaf diameter"

    # ingress distance and level bounds
    for v in range(t.node_count):
        inn = int(t.ingress[v])
        dist = lp_distance(x[t.center[v]], x[t.center[inn]], t.p)
        assert dist <= 3.0 * math.pow(2.0, int(t.level[v])) + delta[v], "ingress distance"
        assert int(t.level[inn]) <= int(t.level[v]) + 1, "ingress level"

    # surrogate errors, net membership, and the shift identity
    for v in range(t.node_count):
        root = int(t.subtree_root[v])
        x_root = x[t.center[root]]
        s_star = x_root + s[v] * t.unit()
        err = lp_distance(x[t.center[v]], s_star, t.p)
        assert err <= math.pow(2.0, int(t.level[v])), "coarse surrogate error"
        if root != v:
            vec = t.eta[v] * ((1.0 / t.g[v]) * t.unit())  # coords * cell side
            assert lp_norm(vec, t.p) <= 2.0 + 1e-12, "net membership"
        if t.is_subtree_leaf[v] and root != v:
            s_fine = x_root + fine_surrogate_units(t, s, v) * t.unit()
            err = lp_distance(x[t.center[v]], s_fine, t.p)
            assert err <= math.pow(2.0, int(t.level[v])) * eps, "fine surrogate error"

    # long-edge and subtree-leaf counts
    assert int(t.edge_long.sum()) <= 2 * n, "long edge count"
    assert int(t.is_subtree_leaf.sum()) <= 3 * n, "subtree leaf count"

    # centers: leaf rule and min-of-children recursion
    for v in range(t.node_count):
        if children[v]:
            assert t.center[v] == min(int(t.center[c]) for c in children[v]), "center recursion"
        else:
            assert members[v].shape == (1,) and t.center[v] == members[v][0], "leaf center"

    # the query path's replay reproduces the layered replay exactly
    ctx = QueryContext(t)
    for v in range(t.node_count):
        assert np.array_equal(ctx._s_units(v), s[v]), "shifted surrogate replay"

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
            direct = x[t.center[r]] + s[v] * t.unit()
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
        ci, a, cj, b = ctx._common(int(i), int(j))
        vi, vj = ci[a][1], cj[b][1]
        lij = max(int(t.level[vi]), int(t.level[vj]))
        assert math.pow(2.0, lij) <= dm[i, j] * (1 + 1e-12), "pair level floor"
