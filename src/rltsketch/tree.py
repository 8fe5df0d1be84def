"""Relative location tree construction.

Pipeline: build the level hierarchy by transitive merging, compress
non-branching paths into annotated long edges, then annotate the compressed
tree with centers, ingresses, quantized displacements (coarse and fine), and
landmark shortcuts. The finished tree is immutable and safe to share.

Level l of the hierarchy merges, transitively, the clusters closer than 2^l.
Those clusters are the single-linkage clusters at threshold 2^l, i.e. the
connected components of the minimum spanning tree's edges lighter than 2^l
(Gower & Ross 1969), so the whole hierarchy is read off one MST. When
clusters merge, one read of each cross-child block of the distance matrix
gives both the merged diameter and the children's neighbor graph (children
within 2^l), on which the ingresses' spanning trees are built; no per-node
copy of the members' distances is made.

Layout: a tree is a set of flat arrays indexed by node id in preorder (root
0). Its shape is `parent`, `edge_long` and `edge_len` plus the root level;
`tree_structure` derives everything else from them (children, depth, levels,
subtree roots, the subtree leaves L(T), and the row of each subtree leaf and
of each long-edge corner node), for built and decoded trees alike. Each
annotation is one array: `center`, `ingress`, `g`, and the (m, d) int64
matrices `eta` (rows meaningful where subtree_root[v] != v) and `eta_eps`
(rows meaningful at subtree leaves that are not subtree roots), zero
elsewhere. Landmarks are the sorted node ids `landmarks`, with their shifted
surrogates in the rows of `landmark_units`.

Order: the builder's one order is the ingress layers (`ingress_layers`).
Layer 0 holds the subtree roots and layer k the nodes whose ingress is in
layer k - 1. Surrogates and landmarks depend on the ingress forest only, not
on a visiting order of children, so their stages take one array step per
layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import PointSet, lp_norms, norm_root, round_to_net

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
class RawHierarchy:
    """The uncompressed level hierarchy (one node per cluster per level)."""

    level: list[int]
    parent: list[int]
    children: list[list[int]]
    members: list[np.ndarray]  # sorted point indices
    delta: list[float]  # exact cluster diameter
    root: int
    # (k, k) bool per node with k >= 2 children: children i, j have points
    # within 2^level of each other; None for other nodes
    child_graph: list[np.ndarray | None]

    @property
    def node_count(self) -> int:
        return len(self.level)


@dataclass(eq=False)
class Augmentations:
    """Euclidean sketch augmentations: two independently shifted grid corners
    per subtree leaf (surrogate displacement), plus corners for the long-edge
    displacement at every long-edge corner node (a subtree leaf whose subtree
    hangs under a long edge). Rows follow the tree's leaf_row and corner_row.

    The shift vectors sigma1/sigma2 are transient and never serialized.
    """

    a1: np.ndarray  # (|L|, d) int64 corner coords, copy 1
    a2: np.ndarray
    b1: np.ndarray  # (corner nodes, d) int64
    b2: np.ndarray
    sigma1: np.ndarray | None = None
    sigma2: np.ndarray | None = None


def _rank(mask: np.ndarray) -> np.ndarray:
    """Row of each set entry among the set entries, -1 elsewhere."""
    row = np.full(len(mask), -1, dtype=np.int64)
    row[mask] = np.arange(np.count_nonzero(mask))
    return row


def tree_structure(parent: np.ndarray, edge_long: np.ndarray, edge_len: np.ndarray,
                   root_level: int) -> dict:
    """Every field derived from the shape of a preorder tree (parent[v] < v):
    children (ascending), depth, level (a long edge spans edge_len - 1
    levels, a short one 1), subtree_root (the root and long-edge bottoms
    start subtrees), is_subtree_leaf (no short-edge children: L(T)), and the
    rows of the subtree leaves and of the long-edge corner nodes (subtree
    leaves outside the root's subtree), -1 elsewhere.
    """
    m = len(parent)
    par, long_, length = parent.tolist(), edge_long.tolist(), edge_len.tolist()
    children: list[list[int]] = [[] for _ in range(m)]
    depth = [0] * m
    level = [int(root_level)] * m
    sub = list(range(m))
    for v in range(1, m):
        u = par[v]
        children[u].append(v)
        depth[v] = depth[u] + 1
        if long_[v]:
            level[v] = level[u] - (length[v] - 1)
        else:
            level[v] = level[u] - 1
            sub[v] = sub[u]
    subtree_root = np.array(sub, dtype=np.int64)
    is_leaf = np.ones(m, dtype=bool)
    is_leaf[parent[1:][~edge_long[1:]]] = False
    return dict(
        children=children,
        depth=np.array(depth, dtype=np.int64),
        level=np.array(level, dtype=np.int64),
        subtree_root=subtree_root,
        is_subtree_leaf=is_leaf,
        leaf_row=_rank(is_leaf),
        corner_row=_rank(is_leaf & (subtree_root != 0)),
    )


@dataclass(eq=False)
class RelativeLocationTree:
    """Compressed, annotated tree in the flat layout of the module docstring.
    Children keep construction order (ascending center index).

    Decoded trees carry the same annotation fields but no point-side data
    (members, delta, s_units are None).
    """

    n: int
    d: int
    p: object
    eps: float  # dyadic
    scale_exponent: int
    phi: float | None
    phi_exponent: int

    parent: np.ndarray  # int64, -1 at root
    edge_long: np.ndarray  # bool: the edge above this node is long
    edge_len: np.ndarray  # int64: annotated original path length k (0 if short)

    # derived by tree_structure
    children: list[list[int]]
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

    flags_euclidean: bool = False
    augmentations: Augmentations | None = None
    # query-time eps from the header; equals eps for the lp flavor, the user's
    # eps (not the fixed tree constant) for the Euclidean flavor
    header_eps: float | None = None

    # builder-side only (None on decoded trees)
    members: list[np.ndarray] | None = None
    delta: np.ndarray | None = None
    s_units: np.ndarray | None = None  # (m, d) shifted surrogates, d^(-1/p) units
    child_graph: list[np.ndarray | None] | None = None  # of the short children
    tstar_level: np.ndarray | None = None
    tstar_delta: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def subtree_roots(self) -> np.ndarray:
        return np.flatnonzero(self.subtree_root == np.arange(self.node_count))

    def leaf_of_point(self) -> np.ndarray:
        """Map point index -> leaf node (leaves carry their point as center)."""
        leaves = np.flatnonzero(np.bincount(self.parent[1:], minlength=self.node_count) == 0)
        out = np.full(self.n, -1, dtype=np.int64)
        out[self.center[leaves]] = leaves
        return out

    def unit(self) -> float:
        """Grid unit d^(-1/p): every shifted surrogate is an integer multiple."""
        return 1.0 / norm_root(self.d, self.p)

    def increment_units(self, v: int) -> np.ndarray:
        """Surrogate increment 2^level * eta for node v, in grid units."""
        return math.pow(2.0, int(self.level[v])) * self.eta[v].astype(np.float64)


def _mst_edges(dm: np.ndarray) -> list[tuple[float, int, int]]:
    """Prim's algorithm over the rows of a dense distance matrix: the n - 1
    edges (weight, u, v) of a minimum spanning tree, heaviest first.

    Weights are entries of dm, so they compare exactly against power-of-two
    thresholds.
    """
    n = dm.shape[0]
    best = np.full(n, np.inf)  # lightest edge from the tree to each vertex
    src = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    edges = []
    v = 0
    for _ in range(n - 1):
        done[v] = True
        best[v] = np.inf
        row = dm[v]
        closer = (row < best) & ~done
        best[closer] = row[closer]
        src[closer] = v
        v = int(np.argmin(best))
        edges.append((float(best[v]), int(src[v]), v))
    return sorted(edges, reverse=True)


def build_hierarchy(ps: PointSet) -> RawHierarchy:
    """Bottom-up hierarchy: level 0 singletons; level l transitively merges
    clusters at distance < 2^l; stops when one cluster remains.

    The level-l clusters are the connected components of the minimum spanning
    tree's edges of weight < 2^l (single linkage), so one MST replaces a
    cluster-distance matrix per level. Every MST gives the same components,
    so ties between edge weights do not matter. A merged cluster's diameter
    is the max of its children's diameters and of the distances across
    children, so each point pair is read once, at the level where its two
    points first share a cluster. The same read of the block between one
    child and the later children fills that child's row of the neighbor
    graph (child pairs with some points within 2^level, `<=`), kept per node
    in child_graph for assign_ingresses.
    """
    n = ps.n
    dm = ps.distance_matrix()
    edges = _mst_edges(dm)  # popped lightest first
    if edges and edges[-1][0] <= 0.0:
        raise ValueError("duplicate points (pairwise distance 0) are not supported")

    level = [0] * n
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    members: list[np.ndarray] = [np.array([i], dtype=np.int64) for i in range(n)]
    delta: list[float] = [0.0] * n
    child_graph: list[np.ndarray | None] = [None] * n

    # union-find over points; a set's root is its min point index, which is
    # also lead[node], the min member of the cluster node holding it
    uf = list(range(n))
    lead = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    current = list(range(n))  # node ids of the current level's clusters
    lvl = 0
    while len(current) > 1:
        lvl += 1
        thr = math.pow(2.0, lvl)
        while edges and edges[-1][0] < thr:
            _, a, b = edges.pop()
            a, b = find(a), find(b)
            uf[max(a, b)] = min(a, b)

        # current is sorted by min member, so first-seen order of the roots
        # is the canonical order (ascending min member) of groups and children
        groups: dict[int, list[int]] = {}
        for node in current:
            groups.setdefault(find(lead[node]), []).append(node)

        nxt = []
        for grp in groups.values():
            node = len(level)
            level.append(lvl)
            parent.append(-1)
            children.append(grp)
            lead.append(lead[grp[0]])
            for ch in grp:
                parent[ch] = node
            if len(grp) == 1:
                members.append(members[grp[0]])
                delta.append(delta[grp[0]])
                child_graph.append(None)
            else:
                parts = [members[ch] for ch in grp]
                mem = np.concatenate(parts)
                ends = np.cumsum([len(part) for part in parts])
                k = len(grp)
                adj = np.zeros((k, k), dtype=bool)
                diam = max(delta[ch] for ch in grp)
                # block: child i against all later children, one read for
                # the diameter and for row i of the neighbor graph
                for i, part in enumerate(parts[:-1]):
                    start = ends[i]
                    block = dm[part[:, None], mem[start:]]
                    diam = max(diam, float(block.max()))
                    near = (block <= thr).any(axis=0)
                    adj[i, i + 1:] = np.logical_or.reduceat(near, ends[i:-1] - start)
                members.append(np.sort(mem))
                delta.append(diam)
                child_graph.append(adj | adj.T)
            nxt.append(node)
        current = nxt

    root = current[0]
    return RawHierarchy(level, parent, children, members, delta, root, child_graph)


def compress_paths(raw: RawHierarchy, ps: PointSet, eps: float) -> RelativeLocationTree:
    """Replace qualifying maximal non-branching paths v_0..v_k (interior nodes
    degree 1) with a long edge v_1 -> v_k annotated with the original length k.

    Compression requires k >= 2 and delta(v_k) <= 2^level(v_1) * eps, so the
    resulting subtree-leaf diameter bound holds with no slack. delta = 0 always
    compresses (threshold -inf). Returns the unannotated tree over ps.
    """
    # preorder construction of the compressed tree
    parent: list[int] = []
    edge_len: list[int] = []  # 0 for short edges
    raw_id: list[int] = []

    def new_node(rid: int, par: int, length: int = 0) -> int:
        raw_id.append(rid)
        parent.append(par)
        edge_len.append(length)
        return len(parent) - 1

    # iterative DFS: (raw child id, new parent id)
    root_new = new_node(raw.root, -1)
    stack = [(ch, root_new) for ch in reversed(raw.children[raw.root])]
    while stack:
        raw_top, par = stack.pop()
        # walk the chain of degree-1 nodes below raw_top
        chain = [raw_top]
        while len(raw.children[chain[-1]]) == 1:
            chain.append(raw.children[chain[-1]][0])
        k = len(chain)  # edge count of the maximal path v_0..v_k
        bottom = chain[-1]
        if k >= 2 and raw.delta[bottom] <= math.pow(2.0, raw.level[chain[0]]) * eps:
            bot_new = new_node(bottom, new_node(chain[0], par), k)
        else:
            bot_new = par
            for node in chain:
                bot_new = new_node(node, bot_new)
        stack.extend((ch, bot_new) for ch in reversed(raw.children[bottom]))

    m = len(parent)
    parent_a = np.array(parent, dtype=np.int64)
    edge_len_a = np.array(edge_len, dtype=np.int64)
    edge_long = edge_len_a > 0
    root_level = int(raw.level[raw.root])
    return RelativeLocationTree(
        n=ps.n, d=ps.d, p=ps.p, eps=eps, scale_exponent=ps.scale_exponent, phi=ps.phi,
        phi_exponent=root_level, parent=parent_a, edge_long=edge_long, edge_len=edge_len_a,
        **tree_structure(parent_a, edge_long, edge_len_a, root_level),
        center=np.full(m, -1, dtype=np.int64),
        ingress=np.full(m, -1, dtype=np.int64),
        g=np.zeros(m, dtype=np.int64),
        eta=np.zeros((m, ps.d), dtype=np.int64),
        eta_eps=np.zeros((m, ps.d), dtype=np.int64),
        landmarks=np.zeros(0, dtype=np.int64),
        landmark_units=np.zeros((0, ps.d)),
        K=0,
        members=[raw.members[r] for r in raw_id],
        child_graph=[raw.child_graph[r] for r in raw_id],
        delta=np.array(raw.delta, dtype=np.float64)[raw_id],
        s_units=np.zeros((m, ps.d)),
        tstar_level=np.array(raw.level, dtype=np.int64),
        tstar_delta=np.array(raw.delta, dtype=np.float64),
    )


def assign_centers(t: RelativeLocationTree):
    """Leaf of x_i gets center i; internal nodes the min of children's centers,
    which is their min member, as children partition the parent's members."""
    t.center[:] = [int(mem[0]) for mem in t.members]  # members are sorted


def assign_ingresses(t: RelativeLocationTree, ps: PointSet):
    """Per subtree: the root is its own ingress; each child holding its
    parent's center points to the parent; every other child points to the
    entry leaf (in this subtree) of the nearest point in its spanning-tree
    parent's cluster.

    The spanning tree is a BFS of the children's neighbor graph (clusters
    within 2^level), which build_hierarchy filled in its one read of the
    cross-child blocks; only the block of each child against its
    spanning-tree parent is read again here.
    """
    dm = ps.distance_matrix()
    leaf_of = t.leaf_of_point()

    roots = t.subtree_roots()
    t.ingress[roots] = roots

    for v in range(t.node_count):
        us = [c for c in t.children[v] if not t.edge_long[c]]
        if not us:
            continue
        if t.center[us[0]] != t.center[v]:
            raise AssertionError("first child must hold the parent's center")
        k = len(us)
        if k == 1:
            t.ingress[us[0]] = v
            continue
        adj = t.child_graph[v]
        blocks = [t.members[u] for u in us]

        # BFS spanning tree rooted at the center-holding child, neighbors in
        # ascending child index for determinism
        tau_parent = np.full(k, -1, dtype=np.int64)
        seen = np.zeros(k, dtype=bool)
        seen[0] = True
        queue = [0]
        for a in queue:
            nb = np.flatnonzero(adj[a] & ~seen)
            seen[nb] = True
            tau_parent[nb] = a
            queue.extend(nb.tolist())
        if not seen.all():
            raise AssertionError("child neighbor graph is disconnected (construction bug)")

        t.ingress[us[0]] = v
        for i in range(1, k):
            j = int(tau_parent[i])
            near = dm[np.ix_(blocks[i], blocks[j])].min(axis=0)
            x = int(blocks[j][int(np.argmin(near))])  # ties: smallest point index
            # entry leaf of this subtree over x: first ancestor of leaf(x)
            # inside the subtree of v
            target = t.subtree_root[v]
            u_x = int(leaf_of[x])
            while t.subtree_root[u_x] != target:
                u_x = int(t.parent[t.subtree_root[u_x]])
            if not t.is_subtree_leaf[u_x]:
                raise AssertionError("ingress target is not a subtree leaf")
            t.ingress[us[i]] = u_x


def ingress_layers(t: RelativeLocationTree) -> list[np.ndarray]:
    """The ingress forest by depth: layer 0 holds the subtree roots, layer k
    the nodes whose ingress is in layer k - 1 (ascending node ids). Every
    stage that needs a node's ingress handled first walks these layers."""
    depth = np.full(t.node_count, -1, dtype=np.int64)
    layer = t.subtree_roots()
    layers = []
    while len(layer):
        depth[layer] = len(layers)
        layers.append(layer)
        layer = np.flatnonzero((depth < 0) & (depth[t.ingress] >= 0))
    if np.any(depth < 0):
        raise AssertionError("ingress cycle: some node never reaches a subtree root")
    return layers


def compute_surrogates(t: RelativeLocationTree, ps: PointSet, eps: float):
    """Layer by layer over the ingress forest: quantize each center's
    displacement from its ingress surrogate onto the grid net (coarse
    everywhere, fine at subtree leaves) and accumulate shifted surrogates in
    exact grid units. The roots' surrogates are their centers (s_units 0).
    """
    x = ps.points
    unit = 1.0 / norm_root(t.d, t.p)
    for vs in ingress_layers(t)[1:]:
        two_l = np.ldexp(1.0, t.level[vs])
        g = 5 + np.ceil(t.delta[vs] / two_l).astype(np.int64)
        t.g[vs] = g
        gamma = 1.0 / g
        inn = t.ingress[vs]
        s_in = x[t.center[t.subtree_root[vs]]] + t.s_units[inn] * unit
        eta_star = (x[t.center[vs]] - s_in) * (gamma / two_l)[:, None]
        nrm = lp_norms(eta_star, t.p)
        if np.any(nrm > 1.0 + 1e-9):
            bad = int(np.argmax(nrm))
            raise AssertionError(
                f"displacement norm {nrm[bad]} > 1 at node {vs[bad]} (ingress/level bug)")
        t.eta[vs] = round_to_net(eta_star, gamma, t.p)
        t.s_units[vs] = t.s_units[inn] + two_l[:, None] * t.eta[vs].astype(np.float64)
        fine = t.is_subtree_leaf[vs]
        t.eta_eps[vs[fine]] = round_to_net(eta_star[fine], gamma[fine] * eps, t.p)

    if np.abs(t.s_units).max(initial=0.0) >= math.pow(2.0, 53):
        raise OverflowError("surrogate units exceed exact float64 integer range")


def fine_surrogate_units(t: RelativeLocationTree, v: int) -> np.ndarray:
    """Shifted fine surrogate in grid units: one fine increment on the coarse
    prefix (the fine net is not accumulated inductively)."""
    inn = int(t.ingress[v])
    return t.s_units[inn] + (math.pow(2.0, int(t.level[v])) * t.eps) * t.eta_eps[v]


def select_landmarks(t: RelativeLocationTree, K: int):
    """Bottom-up over the ingress layers: reach[v] counts the ingress hops
    down to the farthest node below v that no stored node covers yet. Store
    v when that reaches K, or when v is a subtree root; otherwise pass
    reach + 1 up to v's ingress. Every node then reaches a stored surrogate
    or its subtree root within K ingress hops. This stores the nodes that
    the greedy "climb K hops from a deepest uncovered node, store, drop its
    ingress descendants" stores.
    """
    t.K = K
    layers = ingress_layers(t)
    reach = np.zeros(t.node_count, dtype=np.int64)
    store = np.zeros(t.node_count, dtype=bool)
    store[layers[0]] = True
    for vs in reversed(layers[1:]):
        full = reach[vs] >= K
        store[vs[full]] = True
        rest = vs[~full]
        np.maximum.at(reach, t.ingress[rest], reach[rest] + 1)
    t.landmarks = np.flatnonzero(store)
    t.landmark_units = t.s_units[t.landmarks]


def landmark_step_budget(phi: float, d: int, p) -> int:
    """K = ceil(log2(2 * phi * d^(1/p))), at least 1."""
    return max(1, int(math.ceil(math.log2(2.0 * phi * norm_root(d, p)))))


def build_tree(ps: PointSet, eps: float) -> RelativeLocationTree:
    """Full construction over a scaled point set; eps is quantized to dyadic."""
    eps_d = quantize_eps(eps)
    t = compress_paths(build_hierarchy(ps), ps, eps_d)
    assign_centers(t)
    assign_ingresses(t, ps)
    compute_surrogates(t, ps, eps_d)
    select_landmarks(t, landmark_step_budget(ps.phi, ps.d, ps.p))
    return t
