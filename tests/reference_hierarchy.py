"""Reference level hierarchy and ingresses: the direct dense constructions.

At every level `reference_hierarchy` builds the matrix of minimum distances
between the current clusters and merges the clusters closer than 2^level
transitively. This costs O(levels * n^2) time and several n^2 copies, so the
library builds the same hierarchy from one minimum spanning tree instead.
`reference_ingresses` copies the rows and columns of each branching node's
points to get its children's neighbor graph, where the library fills that
graph while it reads the cross-child blocks for the diameters. The tests use
this module to check that both give identical results.
"""
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def cluster_min_matrix(dm: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-cluster-pair minimum point distance (diagonal holds in-cluster mins)."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    sub = dm[np.ix_(order, order)]
    red = np.minimum.reduceat(sub, starts, axis=0)
    red = np.minimum.reduceat(red, starts, axis=1)
    return red


def reference_hierarchy(dm: np.ndarray):
    """(level, parent, children, members, delta, root) lists, in the node
    order of `rltsketch.tree.build_hierarchy`."""
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


def reference_ingresses(t, dm: np.ndarray):
    """(graphs, ingress, child_order) of a built tree, from its shape and
    members alone: graphs maps every node with two or more short children
    to their neighbor graph (min distance between child clusters <= 2^level),
    and ingress and child_order follow `rltsketch.tree.assign_ingresses`."""
    graphs = {}
    ingress = np.full(t.node_count, -1, dtype=np.int64)
    child_order: list[list[int]] = [[] for _ in range(t.node_count)]
    roots = t.subtree_roots()
    ingress[roots] = roots
    leaf_of = t.leaf_of_point()

    for v in range(t.node_count):
        us = [c for c in t.children[v] if not t.edge_long[c]]
        if not us:
            continue
        ingress[us[0]] = v
        child_order[v] = [us[0]]
        k = len(us)
        if k == 1:
            continue
        blocks = [t.members[u] for u in us]
        starts = np.cumsum([0] + [len(b) for b in blocks])
        order_pts = np.concatenate(blocks)
        sub = dm[np.ix_(order_pts, order_pts)]
        cm = cluster_min_matrix(sub, np.repeat(np.arange(k), np.diff(starts)))
        adj = (cm <= math.pow(2.0, int(t.level[v]))) & ~np.eye(k, dtype=bool)
        graphs[v] = adj

        # BFS from the center-holding child, neighbors in ascending index
        tau_parent = [-1] * k
        tau_children: list[list[int]] = [[] for _ in range(k)]
        queue = [0]
        for a in queue:
            for b in range(1, k):
                if adj[a, b] and tau_parent[b] < 0:
                    tau_parent[b] = a
                    tau_children[a].append(b)
                    queue.append(b)
        assert len(queue) == k

        for i in range(1, k):
            j = tau_parent[i]
            block = sub[starts[j]:starts[j + 1], starts[i]:starts[i + 1]]
            x = int(blocks[j][int(np.argmin(block.min(axis=1)))])
            u_x = int(leaf_of[x])
            while t.subtree_root[u_x] != t.subtree_root[v]:
                u_x = int(t.parent[t.subtree_root[u_x]])
            ingress[us[i]] = u_x

        order: list[int] = []
        stack = [0]
        while stack:
            a = stack.pop()
            order.append(us[a])
            stack.extend(reversed(tau_children[a]))
        child_order[v] = order
    return graphs, ingress, child_order
