"""Reference level hierarchy: the direct per-level construction.

At every level it builds the matrix of minimum distances between the current
clusters and merges the clusters closer than 2^level transitively. This costs
O(levels * n^2) time and several n^2 copies, so the library builds the same
hierarchy from one minimum spanning tree instead; the tests use this module
to check that both give identical nodes.
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
