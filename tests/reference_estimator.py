"""Reference all-pairs estimates: the per-subtree gather-and-scatter.

`reference_all_pairs` lists the points below every node from the children
lists, computes each subtree's distances between its entry leaves only, and
copies them into an n x n matrix with one gather and one scatter per
subtree, shallowest subtree first, so each pair keeps the block of its
deepest common subtree. For the Euclidean flavor it builds every point's
probabilistic surrogates one point and one subtree at a time from the
single-query functions. The library computes each block directly in point
order from one replay of the ingress layers instead; the tests use this
module to check that both give identical matrices.

`reference_lca_entries` finds a pair's lowest common ancestor by climbing
the tree one parent at a time; the library reads the pair's lowest common
subtree off the two points' subtree chains instead.
"""
import numpy as np
from invariants import tree_children

from rltsketch.metric import pairwise_distances


def points_under(t) -> list[np.ndarray]:
    """Point indices below each node (leaf centers of its T-subtree)."""
    pts: list = [None] * t.node_count
    children = tree_children(t)
    for v in range(t.node_count - 1, -1, -1):
        if not children[v]:
            pts[v] = np.array([t.center[v]], dtype=np.int64)
        else:
            pts[v] = np.concatenate([pts[c] for c in children[v]])
    return pts


def reference_lca_entries(t, i: int, j: int):
    """Lowest common ancestor of the leaves of points i and j plus the entry
    leaves of its subtree over each point (the last long-edge top crossed, or
    the leaf itself)."""
    leaf_of = t.leaf_of_point()
    a = int(leaf_of[i])
    b = int(leaf_of[j])
    ea, eb = a, b
    da, db = int(t.depth[a]), int(t.depth[b])
    while da > db:
        if t.edge_long[a]:
            ea = int(t.parent[a])
        a = int(t.parent[a])
        da -= 1
    while db > da:
        if t.edge_long[b]:
            eb = int(t.parent[b])
        b = int(t.parent[b])
        db -= 1
    while a != b:
        if t.edge_long[a]:
            ea = int(t.parent[a])
        if t.edge_long[b]:
            eb = int(t.parent[b])
        a = int(t.parent[a])
        b = int(t.parent[b])
    # the last crossing's top lands in the LCA's subtree (the remaining
    # edges up to the LCA are short)
    return a, ea, eb


def reference_all_pairs(ctx, squared: bool = False) -> np.ndarray:
    """What `ctx.all_pairs()` returns (or `ctx.all_pairs_squared()` when
    squared is set, Euclidean sketches only)."""
    t = ctx.tree
    est = np.zeros((t.n, t.n), dtype=np.float64)
    if t.flags_euclidean:
        _all_pairs_euclidean(ctx, est, points_under(t))
        return est if squared else np.sqrt(np.maximum(0.0, est))
    _all_pairs_lp(ctx, est, points_under(t))
    return est


def _all_pairs_lp(ctx, est: np.ndarray, pts: list):
    t = ctx.tree
    by_subtree: dict[int, list[int]] = {}
    for v in np.flatnonzero(t.is_subtree_leaf):
        v = int(v)
        if int(t.subtree_root[v]) != v:  # singleton subtrees host no pairs
            by_subtree.setdefault(int(t.subtree_root[v]), []).append(v)
    # shallow-to-deep: the pair's own (deepest) subtree writes last
    roots = sorted(by_subtree, key=lambda r: (int(t.depth[r]), r))
    pos = np.empty(t.n, dtype=np.int64)
    for r in roots:
        leaves = by_subtree[r]
        if len(leaves) < 2:
            continue
        S = np.stack([ctx._fine_units(v) for v in leaves])
        dmat = pairwise_distances(S, t.p)
        dmat *= ctx.unit
        dmat *= ctx.scale
        for a, w in enumerate(leaves):
            pos[pts[w]] = a
        group = pts[r]
        labs = pos[group]
        est[np.ix_(group, group)] = dmat[np.ix_(labs, labs)]
    np.fill_diagonal(est, 0.0)


def _all_pairs_euclidean(ctx, est_sq_out: np.ndarray, pts: list):
    t = ctx.tree
    sq_scale = ctx.scale * ctx.scale
    # chains once per point
    chains = [ctx._chain(i) for i in range(t.n)]
    f1: list[dict[int, np.ndarray]] = [dict() for _ in range(t.n)]
    f2: list[dict[int, np.ndarray]] = [dict() for _ in range(t.n)]
    for i in range(t.n):
        for idx, (r, _) in enumerate(chains[i]):
            f1[i][r], f2[i][r] = ctx._x_units(chains[i], idx)
    # process subtree roots shallow-to-deep so the lowest overwrites
    roots = sorted(t.subtree_roots().tolist(), key=lambda r: (int(t.depth[r]), r))
    for r in roots:
        group = pts[r]
        if len(group) < 2:
            continue
        F1 = np.stack([f1[int(i)][r] for i in group])
        F2 = np.stack([f2[int(i)][r] for i in group])
        gram = F1 @ F2.T
        diag = np.einsum("ij,ij->i", F1, F2)
        block = ((diag[:, None] + diag[None, :] - gram - gram.T) / t.d) * sq_scale
        np.fill_diagonal(block, 0.0)
        est_sq_out[np.ix_(group, group)] = block
