"""Relative location tree construction.

Pipeline: read the hierarchy's merges off the minimum spanning tree, emit
the compressed tree with each idle cluster's non-branching path as one leaf
(a single point), one annotated long edge or a run of unary nodes, then
annotate the compressed tree with centers, ingresses, quantized
displacements (coarse, and fine on the lp flavor), and landmark shortcuts.
The finished tree is immutable and safe to share.

Level l of the hierarchy merges, transitively, the clusters closer than
2^l. Those clusters are the single-linkage clusters at threshold 2^l, i.e.
the connected components of the minimum spanning tree's edges lighter than
2^l (Gower & Ross 1969), so each MST edge merges at the least level l with
weight < 2^l, and the merges of one level form one node each. Prim gives
the MST as each point's parent in it, and a level's clusters are the chain
ends of the forest of its edges up to that level, each named by its min
member. A cluster that merges with nothing at a level gets no node there:
its chain is made when the tree is emitted. A merge's diameter comes from
its cross-child pairs, and the BFS spanning tree of its children's
neighbor graph (children within 2^l) fixes, right there, the point each
later child's ingress enters by. A level's merges whose members fit
metric.ROW_BLOCK are read with one gather of all their cross-child pairs,
which gives their diameters and one child graph for one BFS. Each larger
merge reads its diameter in row blocks, and its BFS reads only its fronts'
rows, round by round, against the children not reached yet, with no child
graph; the root, a merge of all n points, takes the diameter ingest
measured. One gather per level gives every later child's entry point. The
members of the clusters not merged yet are one array, cluster by cluster;
a block of the cached matrix is read as a row take, then a column take.

Layout: a tree is a set of flat arrays indexed by node id in preorder (root
0), the same for built and decoded trees. Its shape is `parent` and
`edge_len` (the edge above a node is long where it is > 0: `edge_long`)
plus the root level; `tree_structure` derives everything else (depth,
levels, subtree roots, the subtree leaves L(T), and the row of each subtree
leaf and of each long-edge corner node). Each annotation is one
array: `center`, `ingress`, `g`, and the (m, d) int64 matrices `eta` (rows
meaningful where subtree_root[v] != v) and `eta_eps` (rows meaningful at
subtree leaves that are not subtree roots, lp flavor only), zero elsewhere.
Landmarks are the sorted node ids `landmarks`, with their shifted
surrogates in the rows of `landmark_units`. The builder's hierarchy stays outside the tree: the
stages read it through `src[v]`, the merge node each tree node stands for.

Order: the builder's one order is the ingress layers (`ingress_layers`).
Layer 0 holds the subtree roots and layer k the nodes whose ingress is in
layer k - 1. Surrogates and landmarks depend on the ingress forest only, not
on a visiting order of children, so their stages take one array step per
layer. One pointer-doubling routine, `_chain_sums`, walks the MST for the
hierarchy's levels, and the parent and ingress forests for the tree's shape,
the layers and check_finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metric
from .metric import PointSet, norm_root, round_to_net

# Quantized eps denominators: eps is a dyadic rational num/2^32 so encoder and
# decoder reproduce fine-net cell widths exactly.
EPS_EXPONENT = 32


def quantize_eps(eps: float) -> float:
    """Round eps down to a dyadic rational num/2^32 (num >= 1).

    Rounding down nests the effective guarantee band inside the requested one.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    num = int(math.floor(eps * (1 << EPS_EXPONENT)))
    if num < 1:
        raise ValueError(f"eps too small to quantize: {eps}")
    return num / float(1 << EPS_EXPONENT)


@dataclass(eq=False)
class Augmentations:
    """Euclidean sketch augmentations: two independently shifted grid corners
    per subtree leaf (surrogate displacement), plus corners for the long-edge
    displacement at every long-edge corner node (a subtree leaf whose subtree
    hangs under a long edge). Rows follow the tree's leaf_row and corner_row.
    """

    a1: np.ndarray  # (|L|, d) int64 corner coords, copy 1
    a2: np.ndarray
    b1: np.ndarray  # (corner nodes, d) int64
    b2: np.ndarray


def _rank(mask: np.ndarray) -> np.ndarray:
    """Row of each set entry among the set entries, -1 elsewhere."""
    row = np.full(len(mask), -1, dtype=np.int64)
    row[mask] = np.arange(np.count_nonzero(mask))
    return row


def _chain_sums(up: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling (Wyllie 1979) over pointers up whose chain ends
    point to themselves: each node's sum of value (last axis by node, 0 at
    the chain ends) up its chain, and the node its chain ends at. Rounds add
    to each sum the one its pointer reaches and double the pointer, until no
    pointer moves (at most ceil(log2 m)); a chain into a cycle ends on it."""
    for _ in range(max(len(up) - 1, 1).bit_length()):
        value = value + value[..., up]
        up, prev = up[up], up
        if np.array_equal(up, prev):
            break
    return value, up


def tree_structure(parent: np.ndarray, edge_len: np.ndarray, root_level: int) -> dict:
    """Every field derived from the shape of a tree (root 0) and its long
    edges (edge_len > 0): depth, level (a long edge spans edge_len - 1
    levels, a short one 1), subtree_root (the root and long-edge bottoms
    start subtrees), is_subtree_leaf (no short-edge children: L(T)), and the
    rows of the subtree leaves and of the long-edge corner nodes (subtree
    leaves outside the root's subtree), -1 elsewhere. Depth and level sum up the parent chains (_chain_sums), and
    subtree_root ends them at the subtree tops.
    """
    m = len(parent)
    ids = np.arange(m)
    up = np.where(ids > 0, parent, 0)
    edge_long = edge_len > 0
    # per node: one edge and the levels it drops, summed up to the root
    drops = np.stack([ids > 0, np.where(edge_long, edge_len - 1, 1)]).astype(np.int64)
    drops[:, 0] = 0
    sums, _ = _chain_sums(up, drops)
    _, top = _chain_sums(np.where(edge_long | (ids == 0), ids, up), np.zeros(m, dtype=np.int64))
    is_leaf = np.ones(m, dtype=bool)
    is_leaf[parent[1:][~edge_long[1:]]] = False
    return dict(
        depth=sums[0],
        level=int(root_level) - sums[1],
        subtree_root=top,
        is_subtree_leaf=is_leaf,
        leaf_row=_rank(is_leaf),
        corner_row=_rank(is_leaf & (top != 0)),
    )


def leaves(parent: np.ndarray) -> np.ndarray:
    """The nodes without children, ascending."""
    return np.flatnonzero(np.bincount(parent[1:], minlength=len(parent)) == 0)


def first_leaves(parent: np.ndarray) -> np.ndarray:
    """The first leaf at or after each node in preorder, its first leaf: its
    subtree is a run of ids. Children ascend by min member, so that leaf's
    point is the node's min member, which is its center."""
    leaf = leaves(parent)
    return leaf[np.searchsorted(leaf, np.arange(len(parent)))]


@dataclass(eq=False)
class RelativeLocationTree:
    """Compressed, annotated tree in the flat layout of the module docstring.
    Built and decoded trees carry the same fields, all stored in the file
    or derived from it; nothing about the points beyond the annotations.
    """

    n: int
    d: int
    p: object
    eps: float  # dyadic: the sketch's eps, the header's
    scale_exponent: int

    parent: np.ndarray  # int64, -1 at root
    edge_len: np.ndarray  # int64: annotated original path length k (0 if short)

    # derived by tree_structure
    depth: np.ndarray  # int64
    level: np.ndarray  # int64
    subtree_root: np.ndarray  # int64
    is_subtree_leaf: np.ndarray  # bool, membership in L(T)
    leaf_row: np.ndarray  # int64 row among subtree leaves, -1 elsewhere
    corner_row: np.ndarray  # int64 row among long-edge corner nodes, -1 elsewhere

    center: np.ndarray  # int64 point index
    ingress: np.ndarray  # int64 node id (self for subtree roots)
    g: np.ndarray  # int64, 5 + ceil(delta/2^level); 0 for subtree roots
    eta: np.ndarray  # (m, d) int64 coarse net elements
    eta_eps: np.ndarray  # (m, d) int64 fine net elements

    landmarks: np.ndarray  # sorted int64 node ids
    landmark_units: np.ndarray  # (len(landmarks), d) integer-valued float64 s(v) units
    K: int

    augmentations: Augmentations | None = None  # the Euclidean flavor's corners

    @property
    def edge_long(self) -> np.ndarray:
        """bool: the edge above each node is long."""
        return self.edge_len > 0

    @property
    def phi_exponent(self) -> int:
        return int(self.level[0])

    @property
    def flags_euclidean(self) -> bool:
        return self.augmentations is not None

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def subtree_roots(self) -> np.ndarray:
        return np.flatnonzero(self.subtree_root == np.arange(self.node_count))

    def leaf_of_point(self) -> np.ndarray:
        """Map point index -> leaf node (leaves carry their point as center)."""
        leaf = leaves(self.parent)
        out = np.full(self.n, -1, dtype=np.int64)
        out[self.center[leaf]] = leaf
        return out

    def unit(self) -> float:
        """Grid unit d^(-1/p): every shifted surrogate is an integer multiple."""
        return 1.0 / norm_root(self.d, self.p)


def _mst_edges(dm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm over the rows of a dense distance matrix: a minimum
    spanning tree as each point's parent in it (point 0 is its own) and the
    weight of the edge to that parent (0 at point 0).

    Weights are entries of dm, so they compare exactly against power-of-two
    thresholds. Each step compares the new row once with cap and updates
    only the vertices strictly closer; ties go to the first index.
    """
    n = dm.shape[0]
    best = np.full(n, np.inf)  # lightest edge from the tree to each vertex
    cap = best.copy()  # best, but -1 at the tree's vertices: no row is below
    parent = np.zeros(n, dtype=np.int64)
    v = 0
    for _ in range(n - 1):
        best[v], cap[v] = np.inf, -1.0
        row = dm[v]
        closer = (row < cap).nonzero()[0]
        best[closer] = cap[closer] = row[closer]
        parent[closer] = v
        v = int(best.argmin())
    return parent, dm[parent, np.arange(n)]


class Merges(NamedTuple):
    """The hierarchy without its idle chains: the n leaves (ids 0..n-1) and
    one node per merge, ordered by level and then by min member, root last."""

    level: list[int]
    children: list[list[int]]  # ascending min member
    delta: list[float]  # exact cluster diameter
    # the point of c's spanning-tree parent sibling nearest to c, for each
    # child c after the first of its merge; -1 elsewhere
    near: list[int]


def build_hierarchy(ps: PointSet) -> Merges:
    """Bottom-up hierarchy: level 0 singletons; level l transitively merges
    clusters at distance < 2^l; stops when one cluster remains.

    The level-l clusters are the connected components of the minimum spanning
    tree's edges of weight < 2^l (single linkage), so an MST edge of weight w
    merges at the least level l with w < 2^l, the exponent of frexp(w). Every
    MST gives the same components, so ties between edge weights do not matter.
    With the MST as each point's parent (_mst_edges), a level's clusters are
    the chain ends (_chain_sums) of the parents whose edge merges at or below
    it, each named by its min member. The clusters that share a name form that
    level's merge nodes, ordered by that name, their children by theirs; a
    cluster that merges with nothing gets no node until its next merge, and
    compress_paths makes its chain. A merged cluster's diameter is the max of
    its children's diameters and of the distances across children, so each
    point pair is read at most once, at the level where its two points first
    share a cluster; the root's is ps.phi. A BFS of the children's neighbor
    graph (child pairs with some points within 2^level, `<=`) from the first
    child gives each later child a parent sibling, whose point nearest to the
    child (ties: smallest index) is the child's `near`. _read_level reads
    each level, its small merges through one child graph and one BFS, each
    merge above metric.ROW_BLOCK members through a BFS on demand.
    """
    n = ps.n
    dm = ps.distance_matrix()
    parent, weight = _mst_edges(dm)
    if np.any(weight[1:] <= 0.0):
        raise ValueError("duplicate points (pairwise distance 0) are not supported")
    ids = np.arange(n)
    edge_level = np.maximum(np.frexp(weight)[1], 1)  # where each point's edge merges

    # room for the n leaves and at most n - 1 merges
    level, delta = np.zeros(2 * n - 1, dtype=np.int64), np.zeros(2 * n - 1)
    near = np.full(2 * n - 1, -1)
    children: list[list[int]] = [[] for _ in range(n)]
    # each point's cluster and each cluster's current node, by its min
    # member, and the points cluster by cluster in ascending min member
    name, node_of, order = ids, ids.copy(), ids
    for lvl in np.unique(edge_level[1:]).tolist():
        # the level's clusters: the MST's chain ends through the edges at or
        # below it, each named by its min member
        _, end = _chain_sums(np.where(edge_level <= lvl, parent, ids), np.zeros((0, n)))
        least = np.full(n, n)
        np.minimum.at(least, end, ids)
        new = least[end]
        below = np.flatnonzero(name == ids)  # the clusters one level down
        count = np.bincount(new[below], minlength=n)
        tops = np.flatnonzero(count > 1)  # the merges
        roots = below[count[new[below]] > 1]  # the clusters that merge
        kids = node_of[roots[np.argsort(new[roots], kind="stable")]]  # merge by merge
        # a stable sort by new cluster puts each merge's children side by side
        order = order[np.argsort(new[order], kind="stable")]

        thr = math.pow(2.0, lvl)
        size = count[tops]
        first = size.cumsum() - size
        v = len(children) + np.arange(len(tops))
        level[v] = lvl
        cross, near[kids] = _read_level(dm, order, name[order], new[order], tops, thr, ps.phi)
        delta[v] = np.maximum(cross, np.maximum.reduceat(delta[kids], first))
        kids = kids.tolist()
        children += [kids[a:a + k] for a, k in zip(first.tolist(), size.tolist())]
        node_of[tops] = v
        name = new

    m = len(children)
    return Merges(level[:m].tolist(), children, delta[:m].tolist(), near[:m].tolist())


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length), one per entry, concatenated."""
    return np.repeat(start - length.cumsum() + length, length) + np.arange(length.sum())


def _read_level(dm: np.ndarray, order: np.ndarray, was: np.ndarray, label: np.ndarray,
                tops: np.ndarray, thr: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """One read of one level's merges: the new clusters tops, whose
    positions in order hold their children side by side (label: each
    position's new cluster, was: its child). Returns for each merge a
    distance whose max with its children's diameters is its diameter, and
    for each child, merge by merge, the point of its BFS parent
    (_bfs_parents over the neighbor graph, pairs within thr, `<=`) nearest
    to it, ties to the smallest index; -1 at first children.

    The merges whose members fit metric.ROW_BLOCK are read together: one
    gather of all their cross-child pairs gives their largest, and a child
    graph over their children only, with one BFS from every merge's first
    child. Each larger merge gets its BFS on demand (_read_bfs) and a
    row-block read for its diameter (_read_cross), but a merge of all the
    points, the root, takes phi, the diameter ingest measured. Then one
    read gives every later child's nearest point (_nearest).
    """
    cstart = np.flatnonzero(np.diff(was, prepend=-1))  # every child's positions
    cend = np.append(cstart[1:], len(order))
    gs, ge = np.searchsorted(label, tops), np.searchsorted(label, tops, side="right")
    first = np.searchsorted(cstart, gs)
    count = np.searchsorted(cstart, ge) - first  # children per merge
    kid = _ranges(first, count)
    cs, ce = cstart[kid], cend[kid]
    k0 = count.cumsum() - count  # each merge's first child
    cross = np.empty(len(tops))
    parent = np.empty(len(kid), dtype=np.int64)

    small = np.flatnonzero(ge - gs <= metric.ROW_BLOCK)
    sk = _ranges(k0[small], count[small])  # their children
    size = ge[small] - gs[small]
    pos = _ranges(gs[small], size)  # their members' positions
    child = np.searchsorted(cs[sk], pos, side="right") - 1
    # each position against the positions of the later children of its merge
    after = ce[sk[child]]
    span = np.repeat(ge[small], size) - after
    rows = np.repeat(pos, span)
    cols = _ranges(after, span)
    dist = dm[order[rows], order[cols]]
    pairs = np.add.reduceat(span, size.cumsum() - size)
    cross[small] = np.maximum.reduceat(dist, pairs.cumsum() - pairs)
    close = dist <= thr
    a = np.repeat(child, span)[close]
    b = np.searchsorted(cs[sk], cols[close], side="right") - 1
    adj = np.zeros((len(sk), len(sk)), dtype=bool)  # their children's graph
    adj[a, b] = adj[b, a] = True
    parent[sk] = sk[_bfs_parents(adj, count[small].cumsum() - count[small])]

    for g in np.flatnonzero(ge - gs > metric.ROW_BLOCK).tolist():
        c = slice(k0[g], k0[g] + count[g])
        cross[g] = phi if ge[g] - gs[g] == len(dm) else _read_cross(dm, order, cs[c], ce[c])
        parent[c] = k0[g] + _read_bfs(dm, order, cs[c], ce[c], thr)

    near = np.full(len(kid), -1)
    later = np.flatnonzero(parent != np.arange(len(kid)))
    near[later] = _nearest(dm, order, cs, ce, later, parent[later])
    return cross, near


def _read_cross(dm: np.ndarray, order: np.ndarray, cs: np.ndarray, ce: np.ndarray) -> float:
    """The largest distance from a point of a merge's children (positions
    [cs, ce) in order) to the points after its child: row blocks of at most
    metric.ROW_BLOCK, each with its columns of the points after its first
    row's child. That takes every cross-child pair, and a block's rows past
    that child read their own child's points too, at most its diameter, so
    the merge's diameter is the max of this and its children's."""
    rb, end = metric.ROW_BLOCK, ce[-1]
    cross = 0.0
    for a in range(cs[0], cs[-1], rb):
        c = np.searchsorted(cs, a, side="right") - 1
        block = dm.take(order[a:min(a + rb, cs[-1])], 0).take(order[ce[c]:end], 1)
        cross = max(cross, float(block.max()))
    return cross


def _read_bfs(dm: np.ndarray, order: np.ndarray, cs: np.ndarray, ce: np.ndarray,
              thr: float) -> np.ndarray:
    """The BFS parents of one merge's children (positions [cs, ce) in
    order) in their neighbor graph (pairs within thr, `<=`) from child 0,
    as _bfs_parents gives them, by child index (child 0 is its own).

    The BFS runs on demand. Each round reads its front's points in queue
    order, at most metric.ROW_BLOCK rows per block (a child may span
    blocks), against the points of the children not reached yet. A newly
    reached child's parent is its first neighbor in the front, and the next
    front is sorted over the whole round by parent, then by child. Reading
    stops once every child is reached."""
    k, rb = len(cs), metric.ROW_BLOCK
    size = ce - cs
    parent = np.zeros(k, dtype=np.int64)
    reached = np.zeros(k, dtype=bool)
    pts = order[ce[0]:ce[-1]]  # the points of the children not reached yet
    own = np.repeat(np.arange(1, k), size[1:])  # and their children
    front = np.zeros(1, dtype=np.int64)
    while len(pts):
        rows = order[_ranges(cs[front], size[front])]  # the front's points, queue order
        at = np.repeat(np.arange(len(front)), size[front])  # each row's queue position
        by, got = [], []
        for a in range(0, len(rows), rb):
            if not len(pts):
                break
            close = dm.take(rows[a:a + rb], 0).take(pts, 1) <= thr
            col = close.any(axis=0).nonzero()[0]
            new = own[col]
            run = np.flatnonzero(np.diff(new, prepend=0))  # each new child's first column
            by.append(at[a + np.minimum.reduceat(close[:, col].argmax(axis=0), run)])
            got.append(new[run])
            reached[new] = True
            keep = ~reached[own]
            pts, own = pts[keep], own[keep]
        by, got = np.concatenate(by), np.concatenate(got)
        if not len(got):
            raise AssertionError("child neighbor graph is disconnected (construction bug)")
        parent[got] = front[by]
        front = got[np.lexsort((got, by))]
    return parent


def _bfs_parents(adj: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Each node's parent in the BFS forest of the symmetric graph adj from
    roots (ascending; a root is its own parent). The BFS goes level by
    level: a node's parent is its first neighbor, in queue order, in the
    level above, and the next level's queue order is by parent, then by
    node. On a disjoint union of graphs, one root each (a level's merges),
    every graph gets the forest it would get alone."""
    parent = np.arange(len(adj))
    seen = np.zeros(len(adj), dtype=bool)
    seen[roots] = True
    front = roots
    while not seen.all():
        hit = adj[front] & ~seen
        new = hit.any(axis=0).nonzero()[0]
        if not len(new):
            raise AssertionError("child neighbor graph is disconnected (construction bug)")
        by = hit[:, new].argmax(axis=0)
        parent[new] = front[by]
        seen[new] = True
        front = new[by.argsort(kind="stable")]
    return parent


def _nearest(dm: np.ndarray, order: np.ndarray, cs: np.ndarray, ce: np.ndarray,
             b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """For each child b[i], the point of child a[i] nearest to it, ties to
    the smallest index (children: positions [cs, ce) in order): one take
    of all their pairs from the flat dm, row by row of b, and the smallest
    point of a at each block's least distance."""
    na, nb = ce[a] - cs[a], ce[b] - cs[b]
    cnt = na * nb
    off = cnt.cumsum() - cnt
    span = np.repeat(na, nb)
    x = order[_ranges(np.repeat(cs[a], nb), span)]
    at = np.repeat(order[_ranges(cs[b], nb)] * len(dm), span)
    at += x  # the pairs' flat indices
    dist = dm.take(at)
    at = dist == np.repeat(np.minimum.reduceat(dist, off), cnt)
    return np.minimum.reduceat(np.where(at, x, len(order)), off)


def compress_paths(h: Merges, ps: PointSet, eps: float) -> tuple[RelativeLocationTree, np.ndarray]:
    """The compressed tree in preorder. Below a merge node at level l, a
    child c idles at levels level(c)..l - 1, a non-branching path of
    k = l - level(c) edges. A single point is one leaf at level l - 1,
    whatever k: a subtree of one point would hold nothing a query reads.
    Otherwise, where k >= 2 and delta(c) <= 2^(l-1) * eps, the path becomes
    a long edge from a node at level l - 1 down to c, annotated with its
    length k, so the subtree-leaf diameter bound holds with no slack; else
    it stays k - 1 unary nodes above c. Returns the unannotated tree over ps
    and src: the merge node of h each tree node stands for, c for every node
    of c's chain, so a leaf's src is its point.
    """
    root = len(h.level) - 1
    parent, edge_len = [-1], [0]  # edge_len 0 for short edges
    src = [root]
    stack = [(c, 0) for c in reversed(h.children[root])]
    while stack:
        c, par = stack.pop()
        lvl = h.level[src[par]]
        k = lvl - h.level[c]
        if not h.children[c]:
            lens = [0]  # a point alone: one leaf at level lvl - 1
        elif k >= 2 and h.delta[c] <= math.pow(2.0, lvl - 1) * eps:
            lens = [0, k]  # a node at level lvl - 1, then c under a long edge
        else:
            lens = [0] * k  # k - 1 unary nodes, then c
        for length in lens:
            parent.append(par)
            edge_len.append(length)
            src.append(c)
            par = len(parent) - 1
        stack.extend((ch, par) for ch in reversed(h.children[c]))

    m = len(parent)
    parent_a = np.array(parent, dtype=np.int64)
    edge_len_a = np.array(edge_len, dtype=np.int64)
    t = RelativeLocationTree(
        n=ps.n, d=ps.d, p=ps.p, eps=eps, scale_exponent=ps.scale_exponent,
        parent=parent_a, edge_len=edge_len_a,
        **tree_structure(parent_a, edge_len_a, h.level[root]),
        center=np.full(m, -1, dtype=np.int64),
        ingress=np.full(m, -1, dtype=np.int64),
        g=np.zeros(m, dtype=np.int64),
        eta=np.zeros((m, ps.d), dtype=np.int64),
        eta_eps=np.zeros((m, ps.d), dtype=np.int64),
        landmarks=np.zeros(0, dtype=np.int64),
        landmark_units=np.zeros((0, ps.d)),
        K=0,
    )
    return t, np.array(src, dtype=np.int64)


def assign_centers(t: RelativeLocationTree, src: np.ndarray):
    """Each node's center is the point of its first leaf in preorder, its
    min member (first_leaves)."""
    t.center[:] = src[first_leaves(t.parent)]


def later_children(parent: np.ndarray, subtree_root: np.ndarray) -> np.ndarray:
    """Short children after their parent's first one (ascending ids): the
    nodes whose ingress is a subtree leaf, picked at their merge and stored.
    Every node but a subtree root is a short child."""
    short = np.flatnonzero(subtree_root != np.arange(len(parent)))
    _, first = np.unique(parent[short], return_index=True)
    return np.delete(short, first)


def assign_ingresses(t: RelativeLocationTree, h: Merges, src: np.ndarray):
    """Subtree roots are their own ingress; each first short child, which
    holds its parent's center (first_leaves), points to the parent. A later
    child u stands for a child of the merge at its parent, the bottom of that
    merge's chain, and points to the entry leaf of h.near[src[u]] in its
    subtree: the first ancestor of that point's leaf inside the subtree, found
    by climbing from subtree root to subtree root, all later children at once.
    The climb ends at the leaf or at a long edge's top, whose only child hangs
    under the long edge: a subtree leaf either way.
    """
    ids = np.arange(t.node_count)
    t.ingress[:] = np.where(t.subtree_root == ids, ids, t.parent)
    later = later_children(t.parent, t.subtree_root)
    u = t.leaf_of_point()[np.array(h.near)[src[later]]]
    target = t.subtree_root[later]
    out = np.flatnonzero(t.subtree_root[u] != target)
    while len(out):
        u[out] = t.parent[t.subtree_root[u[out]]]
        out = out[t.subtree_root[u[out]] != target[out]]
    t.ingress[later] = u


def ingress_layers(t: RelativeLocationTree) -> list[np.ndarray]:
    """The ingress forest by depth: layer 0 holds the subtree roots, layer k
    the nodes whose ingress is in layer k - 1 (ascending node ids): the nodes
    sorted stably by ingress depth (_chain_sums), cut where it changes. Every
    stage that needs a node's ingress handled first walks these layers."""
    depth, end = _chain_sums(t.ingress, (t.ingress != np.arange(t.node_count)).astype(np.int64))
    if np.any(t.subtree_root[end] != end):
        raise AssertionError("ingress cycle: some node never reaches a subtree root")
    order = np.argsort(depth, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(depth[order])) + 1)


def surrogate_units(t: RelativeLocationTree) -> np.ndarray:
    """(m, d) shifted surrogates in grid units d^(-1/p), replayed from the
    tree alone, one array step per ingress layer: s(v) = s(ingress(v)) +
    2^level(v) eta(v), zero at the subtree roots. Integers below 2^53, so
    exact, and equal to the ones compute_surrogates accumulates."""
    s = np.zeros((t.node_count, t.d))
    for vs in ingress_layers(t)[1:]:
        s[vs] = s[t.ingress[vs]] + np.ldexp(1.0, t.level[vs])[:, None] * t.eta[vs]
    return s


def _displacement(t: RelativeLocationTree, ps: PointSet, s: np.ndarray, vs: np.ndarray,
                  scale: np.ndarray) -> np.ndarray:
    """The centers of nodes vs minus their ingress surrogates, row v times
    scale[v] (gamma / 2^level: the unit lp ball then holds it)."""
    s_in = ps.points[t.center[t.subtree_root[vs]]] + s[t.ingress[vs]] * (1.0 / norm_root(t.d, t.p))
    return (ps.points[t.center[vs]] - s_in) * scale[:, None]


def compute_surrogates(t: RelativeLocationTree, ps: PointSet, h: Merges, src: np.ndarray,
                       layers: list[np.ndarray]) -> np.ndarray:
    """Layer by layer over the ingress forest: quantize each center's
    displacement from its ingress surrogate onto the coarse grid net and
    accumulate shifted surrogates in exact grid units. The roots' surrogates
    are their centers (units 0). Returns the (m, d) shifted surrogates, as
    surrogate_units replays them; raises OverflowError where check_finite
    does.
    """
    delta = np.array(h.delta)[src]
    s = np.zeros((t.node_count, t.d))
    for vs in layers[1:]:
        two_l = np.ldexp(1.0, t.level[vs])
        g = 5 + np.ceil(delta[vs] / two_l).astype(np.int64)
        t.g[vs] = g
        gamma = 1.0 / g
        eta_star = _displacement(t, ps, s, vs, gamma / two_l)
        t.eta[vs] = round_to_net(eta_star, gamma, t.p)
        s[vs] = s[t.ingress[vs]] + two_l[:, None] * t.eta[vs].astype(np.float64)
    check_finite(t)
    return s


def compute_fine_etas(t: RelativeLocationTree, ps: PointSet, s: np.ndarray):
    """The lp flavor's fine net elements: at each non-root subtree leaf, the
    displacement compute_surrogates rounds onto the coarse net, rounded onto
    the finer net at eps / g. s holds the shifted surrogates
    compute_surrogates returned."""
    vs = np.flatnonzero(t.is_subtree_leaf & (t.subtree_root != np.arange(t.node_count)))
    gamma = 1.0 / t.g[vs]
    eta_star = _displacement(t, ps, s, vs, gamma / np.ldexp(1.0, t.level[vs]))
    t.eta_eps[vs] = round_to_net(eta_star, gamma * t.eps, t.p)


def _abs_row_max(a: np.ndarray) -> np.ndarray:
    """Largest |entry| of each row, as float64 (exact for int64 -2^63)."""
    return np.maximum(a.max(axis=1, initial=0).astype(np.float64),
                      -a.min(axis=1, initial=0).astype(np.float64))


def check_finite(t: RelativeLocationTree):
    """Raise ValueError on an ingress cycle, and OverflowError unless every
    shifted surrogate a query replays is an exact float64 integer and every
    estimate read from t is finite.

    One _chain_sums pass over the ingress forest checks that each chain ends
    at its node's subtree root and bounds |s(v)| by b(v) = b(ingress v) +
    2^level(v) max|eta[v]| (0 at the subtree roots), and, on the lp flavor, a
    fine surrogate by b(ingress v) + 2^level(v) eps max|eta_eps[v]|. The
    Euclidean flavor has no fine etas (encode rejects them, decode reads
    none), so there that bound is b(ingress v) and adds nothing. Both, and
    the stored landmark units, must stay below 2^53. A replay from a landmark
    stays below their sum X, plus, on the Euclidean flavor, the largest
    surrogate corner term and the sum of all long-edge corner terms.
    Coordinate differences stay below 2X; their p-th powers (products,
    Euclidean) summed over d coordinates, and the estimate scaled by
    2^scale_exponent (squared, Euclidean), must stay far from 2^1024.
    """
    ids = np.arange(t.node_count)
    squares = t.augmentations is not None
    with np.errstate(over="ignore", invalid="ignore"):
        two_l = np.ldexp(1.0, t.level)
        b, end = _chain_sums(t.ingress, np.where(t.subtree_root == ids, 0.0,
                                                 two_l * _abs_row_max(t.eta)))
        if np.any(end != t.subtree_root):
            raise ValueError("ingress links form a cycle")
        coarse = b.max(initial=0.0)
        if not squares:
            fine = b[t.ingress] + two_l * t.eps * _abs_row_max(t.eta_eps)
            coarse = max(coarse, fine.max(initial=0.0))
        landmark = _abs_row_max(t.landmark_units).max(initial=0.0)
        if not max(coarse, landmark) < 2.0**53:
            raise OverflowError("surrogate units exceed exact float64 integer range")
        x = coarse + landmark
        if squares:
            aug = t.augmentations
            leaf = np.flatnonzero(t.is_subtree_leaf)
            corner = np.flatnonzero(t.corner_row >= 0)
            x += (two_l[leaf] * np.maximum(_abs_row_max(aug.a1), _abs_row_max(aug.a2))).max(
                initial=0.0)
            x += (two_l[t.parent[t.subtree_root[corner]]]
                  * np.maximum(_abs_row_max(aug.b1), _abs_row_max(aug.b2))).sum()
    e = math.log2(max(2.0 * x, 1.0))
    power = 1 if t.p == math.inf else t.p
    times = 2 if squares else 1
    if not (math.log2(t.d) + power * e < 1020
            and math.log2(t.d) + times * (e + t.scale_exponent) < 1020):
        raise OverflowError("estimates exceed the float64 range")


def select_landmarks(t: RelativeLocationTree, K: int, s: np.ndarray, layers: list[np.ndarray]):
    """Bottom-up over the ingress layers: reach[v] counts the ingress hops
    down to the farthest node below v that no stored node covers yet. Store
    v when that reaches K, or when v is a subtree root; otherwise pass
    reach + 1 up to v's ingress. Every node then reaches a stored surrogate
    or its subtree root within K ingress hops. This stores the nodes that
    the greedy "climb K hops from a deepest uncovered node, store, drop its
    ingress descendants" stores. s holds every node's shifted surrogate.
    """
    t.K = K
    reach = np.zeros(t.node_count, dtype=np.int64)
    store = np.zeros(t.node_count, dtype=bool)
    store[layers[0]] = True
    for vs in reversed(layers[1:]):
        full = reach[vs] >= K
        store[vs[full]] = True
        rest = vs[~full]
        np.maximum.at(reach, t.ingress[rest], reach[rest] + 1)
    t.landmarks = np.flatnonzero(store)
    t.landmark_units = s[t.landmarks]


def landmark_step_budget(phi: float, d: int, p) -> int:
    """K = ceil(log2(2 * phi * d^(1/p))), at least 1."""
    return max(1, int(math.ceil(math.log2(2.0 * phi * norm_root(d, p)))))


def build_coarse_tree(ps: PointSet, eps: float) -> tuple[RelativeLocationTree, np.ndarray]:
    """Every stage but the fine etas, over a scaled point set at eps
    quantized to dyadic: the Euclidean flavor's tree. Returns the tree and
    its shifted surrogates."""
    h = build_hierarchy(ps)
    t, src = compress_paths(h, ps, quantize_eps(eps))
    assign_centers(t, src)
    assign_ingresses(t, h, src)
    layers = ingress_layers(t)
    s = compute_surrogates(t, ps, h, src, layers)
    select_landmarks(t, landmark_step_budget(ps.phi, ps.d, ps.p), s, layers)
    return t, s


def build_tree(ps: PointSet, eps: float) -> RelativeLocationTree:
    """Full lp construction over a scaled point set; eps is quantized to dyadic."""
    t, s = build_coarse_tree(ps, eps)
    compute_fine_etas(t, ps, s)
    return t
