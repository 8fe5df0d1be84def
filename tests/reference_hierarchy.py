"""Reference level hierarchy, path compression, ingresses and landmarks:
the direct constructions.

At every level `reference_hierarchy` builds the matrix of minimum distances
between the current clusters and merges the clusters closer than 2^level
transitively, with one node per cluster per level. This costs
O(levels * n^2) time and several n^2 copies, so the library reads only the
merges off one minimum spanning tree instead. `reference_compress` then
walks each non-branching path of that per-level hierarchy and folds it into
one leaf over a single point, or into a long edge where it qualifies, where
the library makes each chain when it emits the merge node below it.
`reference_ingresses` copies the rows and columns of each branching node's
points to get its children's neighbor graph and nearest points, where the
library fills that graph while it reads the cross-child blocks for the
diameters and picks the nearest points at the merge.
`reference_landmarks` runs the greedy landmark rule node by node, where the
library makes one bottom-up pass over the ingress layers.
`reference_prim` is Prim's algorithm with a fresh mask of the closer
vertices outside the tree at every step, where the library compares each
row once against a copy of the best edges that holds -1 in the tree. The
tests use this module to check that both give identical results.
"""
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from invariants import node_members, tree_children


def cluster_min_matrix(dm: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-cluster-pair minimum point distance (diagonal holds in-cluster mins)."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    sub = dm[np.ix_(order, order)]
    red = np.minimum.reduceat(sub, starts, axis=0)
    red = np.minimum.reduceat(red, starts, axis=1)
    return red


def reference_prim(dm: np.ndarray):
    """(parent, weight) of Prim's minimum spanning tree from point 0: a
    vertex's parent changes only to a strictly lighter edge, and the next
    vertex is the first index of the least edge."""
    n = dm.shape[0]
    best = np.full(n, np.inf)  # lightest edge from the tree to each vertex
    parent = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    v = 0
    for _ in range(n - 1):
        done[v] = True
        best[v] = np.inf
        row = dm[v]
        closer = (row < best) & ~done
        best[closer] = row[closer]
        parent[closer] = v
        v = int(np.argmin(best))
    return parent, dm[parent, np.arange(n)]


def reference_hierarchy(dm: np.ndarray):
    """(level, parent, children, members, delta, root) of the per-level
    hierarchy: nodes by level, then by ascending min member."""
    n = dm.shape[0]
    level = [0] * n
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    members = [np.array([i], dtype=np.int64) for i in range(n)]
    delta = [0.0] * n

    current = list(range(n))
    lvl = 0
    while len(current) > 1:
        lvl += 1
        k = len(current)
        labels = np.empty(n, dtype=np.int64)
        for ci, node in enumerate(current):
            labels[members[node]] = ci
        cm = cluster_min_matrix(dm, labels)
        adj = (cm < math.pow(2.0, lvl)) & ~np.eye(k, dtype=bool)
        ncomp, comp = connected_components(csr_matrix(adj), directed=False)

        # canonical component order: ascending min member index
        groups: list[list[int]] = [[] for _ in range(ncomp)]
        for ci, node in enumerate(current):
            groups[comp[ci]].append(node)
        groups.sort(key=lambda grp: min(int(members[x][0]) for x in grp))

        nxt = []
        for grp in groups:
            grp.sort(key=lambda x: int(members[x][0]))
            node = len(level)
            level.append(lvl)
            parent.append(-1)
            children.append(list(grp))
            for ch in grp:
                parent[ch] = node
            if len(grp) == 1:
                members.append(members[grp[0]])
                delta.append(delta[grp[0]])
            else:
                mem = np.sort(np.concatenate([members[ch] for ch in grp]))
                members.append(mem)
                delta.append(float(dm[np.ix_(mem, mem)].max()))
            nxt.append(node)
        current = nxt
    return level, parent, children, members, delta, current[0]


def reference_compress(level, parent, children, members, delta, root, eps: float) -> dict:
    """Fold each maximal non-branching path v_0..v_k (interior nodes of one
    child) of a per-level hierarchy into one leaf v_0 where v_k is a point,
    else into a long edge v_0 -> v_k annotated with the length k, where
    k >= 2 and delta(v_k) <= 2^level(v_0) * eps; otherwise keep the path.
    Returns the compressed tree's parent, edge_len (0 for short edges),
    level, members and delta in preorder, children in ascending min
    member."""
    out_parent: list[int] = []
    edge_len: list[int] = []
    raw_id: list[int] = []

    def new_node(rid: int, par: int, length: int = 0) -> int:
        raw_id.append(rid)
        out_parent.append(par)
        edge_len.append(length)
        return len(out_parent) - 1

    root_new = new_node(root, -1)
    stack = [(ch, root_new) for ch in reversed(children[root])]
    while stack:
        raw_top, par = stack.pop()
        chain = [raw_top]
        while len(children[chain[-1]]) == 1:
            chain.append(children[chain[-1]][0])
        k = len(chain)
        bottom = chain[-1]
        if not children[bottom]:
            bot_new = new_node(chain[0], par)  # a point alone: one leaf
        elif k >= 2 and delta[bottom] <= math.pow(2.0, level[chain[0]]) * eps:
            bot_new = new_node(bottom, new_node(chain[0], par), k)
        else:
            bot_new = par
            for node in chain:
                bot_new = new_node(node, bot_new)
        stack.extend((ch, bot_new) for ch in reversed(children[bottom]))

    return dict(
        parent=np.array(out_parent, dtype=np.int64),
        edge_len=np.array(edge_len, dtype=np.int64),
        level=np.array([level[r] for r in raw_id], dtype=np.int64),
        members=[members[r] for r in raw_id],
        delta=np.array(delta, dtype=np.float64)[raw_id],
    )


def reference_ingresses(t, dm: np.ndarray):
    """(near, ingress) of a built tree, from its shape and leaf centers alone.
    At every node with two or more short children, a BFS of their neighbor
    graph (min distance between child clusters <= 2^level) gives each later
    child a parent sibling; near maps the later child to that sibling's
    point nearest to it (ties: smallest point index), and ingress follows
    `rltsketch.tree.assign_ingresses`."""
    near = {}
    ingress = np.full(t.node_count, -1, dtype=np.int64)
    roots = t.subtree_roots()
    ingress[roots] = roots
    leaf_of = t.leaf_of_point()
    children, members = tree_children(t), node_members(t)

    for v in range(t.node_count):
        us = [c for c in children[v] if not t.edge_long[c]]
        if not us:
            continue
        ingress[us[0]] = v
        k = len(us)
        if k == 1:
            continue
        blocks = [members[u] for u in us]
        starts = np.cumsum([0] + [len(b) for b in blocks])
        order_pts = np.concatenate(blocks)
        sub = dm[np.ix_(order_pts, order_pts)]
        cm = cluster_min_matrix(sub, np.repeat(np.arange(k), np.diff(starts)))
        adj = (cm <= math.pow(2.0, int(t.level[v]))) & ~np.eye(k, dtype=bool)

        # BFS from the center-holding child, neighbors in ascending index
        tau_parent = [-1] * k
        queue = [0]
        for a in queue:
            for b in range(1, k):
                if adj[a, b] and tau_parent[b] < 0:
                    tau_parent[b] = a
                    queue.append(b)
        assert len(queue) == k

        for i in range(1, k):
            j = tau_parent[i]
            block = sub[starts[j]:starts[j + 1], starts[i]:starts[i + 1]]
            near[us[i]] = x = int(blocks[j][int(np.argmin(block.min(axis=1)))])
            u_x = int(leaf_of[x])
            while t.subtree_root[u_x] != t.subtree_root[v]:
                u_x = int(t.parent[t.subtree_root[u_x]])
            ingress[us[i]] = u_x
    return near, ingress


def reference_landmarks(t, K: int) -> np.ndarray:
    """Sorted landmark ids by the greedy rule: repeatedly take a deepest node
    of the ingress forest not yet dropped (ties: smallest id), climb K
    ingress steps or to its subtree root, store that node, and drop it with
    its ingress descendants. The subtrees' ingress trees are disjoint, so
    one pass over all nodes handles each subtree as if alone."""
    m = t.node_count
    ingress = t.ingress.tolist()
    depth = []
    in_children: list[list[int]] = [[] for _ in range(m)]
    for v in range(m):
        cur, hops = v, 0
        while ingress[cur] != cur:
            cur, hops = ingress[cur], hops + 1
        depth.append(hops)
        if ingress[v] != v:
            in_children[ingress[v]].append(v)
    removed = set()
    chosen = []
    for v in sorted(range(m), key=lambda v: (-depth[v], v)):
        if v in removed:
            continue
        cur = v
        for _ in range(K):
            if ingress[cur] == cur:
                break
            cur = ingress[cur]
        chosen.append(cur)
        stack = [cur]
        while stack:
            w = stack.pop()
            if w not in removed:
                removed.add(w)
                stack.extend(in_children[w])
    assert len(removed) == m
    return np.array(sorted(chosen), dtype=np.int64)
