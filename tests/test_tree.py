import numpy as np
import pytest

from rltsketch import metric
from rltsketch.codec import build_lp_sketch
from rltsketch.harness import evaluate, ingest_array
from rltsketch.metric import INF, PointSet, scale_points
from rltsketch.tree import (
    _bfs_parents,
    _chain_sums,
    _mst_edges,
    _nearest,
    _read_root,
    assign_centers,
    assign_ingresses,
    build_hierarchy,
    build_tree,
    check_finite,
    compress_paths,
    compute_surrogates,
    ingress_layers,
    landmark_step_budget,
    quantize_eps,
    select_landmarks,
    surrogate_units,
)

from invariants import check_pair_floor, check_tree_invariants, node_members, tree_children
from reference_hierarchy import (
    reference_compress,
    reference_hierarchy,
    reference_ingresses,
    reference_landmarks,
    reference_prim,
)


def pointset_1d(coords, p=2):
    return scale_points(np.array(coords, dtype=float).reshape(-1, 1), p)


def random_pointset(rng, n, d, p, spread=100.0):
    return scale_points(rng.uniform(0.0, spread, size=(n, d)), p)


def _built(ps, eps):
    """build_tree's tree, the hierarchy, and the merge node each tree node
    stands for (compress_paths' src)."""
    h = build_hierarchy(ps)
    t = build_tree(ps, eps)
    _, src = compress_paths(h, ps, quantize_eps(eps))
    assert len(src) == t.node_count
    return t, h, src


def test_hierarchy_merge_schedule():
    # {0,1,10}: level 1 merges {0},{1}; {10} joins only at level 4, so the
    # merge nodes after the three leaves are {0,1} and the root; the later
    # children's nearest points in their first sibling are 0 and 1
    h = build_hierarchy(pointset_1d([0, 1, 10]))
    assert h.level == [0, 0, 0, 1, 4]
    assert h.children[3:] == [[0, 1], [3, 2]]
    assert h.near == [-1, 0, 1, -1, -1]


def test_hierarchy_strict_inequality_at_power_of_two():
    # cluster distance exactly 2^2 = 4 is not merged at level 2
    h = build_hierarchy(pointset_1d([0, 1, 5]))
    assert h.level[3:] == [1, 3]


def test_hierarchy_singleton():
    ps = PointSet(np.zeros((1, 3)), 2, 0, 1.0, dist=np.zeros((1, 1)))
    h = build_hierarchy(ps)
    assert h.level == [0] and h.children == [[]]


def test_hierarchy_rejects_duplicates():
    ps = PointSet(np.array([[1.0], [1.0]]), 2, 0, 1.0)
    with pytest.raises(ValueError):
        build_hierarchy(ps)


def _reference_inputs():
    rng = np.random.default_rng(41)
    for p in (1, 2, INF):
        for n, d in ((2, 1), (17, 2), (60, 4)):
            yield f"uniform-p{p}-n{n}", scale_points(rng.uniform(0, 100, size=(n, d)), p)
        # clusters at widely different scales: many levels and chain nodes
        centers = rng.uniform(0, 1e5, size=(5, 3))
        spread = np.ldexp(1.0, rng.integers(-4, 8, size=50))
        pts = centers[rng.integers(0, 5, size=50)] + rng.normal(size=(50, 3)) * spread[:, None]
        yield f"clustered-p{p}", scale_points(pts, p)
        # integer grids: many pairwise distances are exact powers of two
        grid = np.stack(np.meshgrid(np.arange(0, 16, 2), np.arange(0, 12, 4), [0, 1, 8]),
                        axis=-1).reshape(-1, 3)
        yield f"grid-p{p}", scale_points(grid.astype(float), p)
        yield f"line-p{p}", pointset_1d([0, 1, 3, 4, 8, 16, 17, 33, 64], p)


@pytest.mark.parametrize("name,ps", list(_reference_inputs()))
def test_hierarchy_matches_per_level_reference(name, ps):
    raw = reference_hierarchy(ps.distance_matrix())
    parent, weight = _mst_edges(ps.distance_matrix())
    want_parent, want_weight = reference_prim(ps.distance_matrix())
    assert np.array_equal(parent, want_parent) and np.array_equal(weight, want_weight)
    h = build_hierarchy(ps)
    for eps in (quantize_eps(0.1), 0.5):
        want = reference_compress(*raw, eps)
        t, src = compress_paths(h, ps, eps)
        assign_centers(t, src)
        for field in ("parent", "edge_len", "level"):
            assert np.array_equal(getattr(t, field), want[field])
        assert np.array_equal(np.array(h.delta)[src], want["delta"])  # exact float equality
        members = node_members(t)
        assert len(members) == len(want["members"])
        for got, exp in zip(members, want["members"]):
            assert np.array_equal(got, exp) and got.dtype == exp.dtype


@pytest.mark.parametrize("name,ps", [c for c in _reference_inputs() if "clustered" in c[0]])
def test_hierarchy_has_a_node_per_merge_only(name, ps):
    # clusters idle across many levels here; they get no node of their own
    h = build_hierarchy(ps)
    assert len(h.level) <= 2 * ps.n - 1
    assert all(len(ch) >= 2 for ch in h.children[ps.n:])


@pytest.mark.parametrize("name,ps", list(_reference_inputs()))
def test_ingresses_match_dense_reference(name, ps):
    t, h, src = _built(ps, 0.1)
    near, ingress = reference_ingresses(t, ps.distance_matrix())
    assert {u: h.near[src[u]] for u in near} == near
    assert np.array_equal(t.ingress, ingress)


def _line_of_mixed_children():
    """225 clusters on a line, in a shuffled line order: triples (points 1
    apart) as children 0, 22, 44 and 210, pairs as the other children
    3 mod 7 outside 60..199, single points elsewhere, so the root merge
    (level 4) holds a run of 140 single-point children, longer than
    metric.ROW_BLOCK, between runs that interleave with multi-point ones.
    Gaps are 10, or 15.5 before a multi-point cluster, whose min-index
    point is its rightmost: its left neighbor is within 2^4 of its other
    points only, and the child graph is a path, so a single missed
    neighbor pair disconnects it."""
    kinds = [3 if c in (0, 22, 44, 210) else 2 if c % 7 == 3 and not 60 <= c < 200 else 1
             for c in range(225)]
    coords, x = {}, 0.0
    for c in np.random.default_rng(3).permutation(225):
        x += 15.5 if kinds[c] > 1 else 10.0
        coords[c] = [x + kinds[c] - 1 - o for o in range(kinds[c])]
        x += kinds[c] - 1
    return np.array([v for c in range(225) for v in coords[c]])[:, None]


@pytest.mark.parametrize("row_block", [metric.ROW_BLOCK, 3])
def test_a_merge_of_singleton_runs_and_larger_children_matches_the_references(
        monkeypatch, row_block):
    monkeypatch.setattr(metric, "ROW_BLOCK", row_block)
    ps = scale_points(_line_of_mixed_children(), 2)
    h = build_hierarchy(ps)
    single = [c < ps.n for c in h.children[-1]]
    assert len(single) == 225 and not all(single[:60]) and not all(single[200:])
    assert all(single[60:200]) and 140 > metric.ROW_BLOCK

    raw = reference_hierarchy(ps.distance_matrix())
    want = reference_compress(*raw, 0.5)
    t, src = compress_paths(h, ps, 0.5)
    for field in ("parent", "edge_len", "level"):
        assert np.array_equal(getattr(t, field), want[field])
    assert np.array_equal(np.array(h.delta)[src], want["delta"])  # exact float equality
    t, h, src = _built(ps, 0.1)
    near, ingress = reference_ingresses(t, ps.distance_matrix())
    assert {u: h.near[src[u]] for u in near} == near
    assert np.array_equal(t.ingress, ingress)


def _assert_matches_the_references(ps):
    """The hierarchy, its compressed tree at eps 0.5, and the nearest points
    and ingresses at eps 0.1 match the direct constructions of
    reference_hierarchy."""
    h = build_hierarchy(ps)
    want = reference_compress(*reference_hierarchy(ps.distance_matrix()), 0.5)
    t, src = compress_paths(h, ps, 0.5)
    for field in ("parent", "edge_len", "level"):
        assert np.array_equal(getattr(t, field), want[field])
    assert np.array_equal(np.array(h.delta)[src], want["delta"])  # exact float equality
    t, h, src = _built(ps, 0.1)
    near, ingress = reference_ingresses(t, ps.distance_matrix())
    assert {u: h.near[src[u]] for u in near} == near
    assert np.array_equal(t.ingress, ingress)


def _merge_sizes_by_level(h):
    """Members of each merge, by level."""
    size, by_level = [], {}
    for v, ch in enumerate(h.children):
        size.append(sum(size[c] for c in ch) or 1)
        if ch:
            by_level.setdefault(h.level[v], []).append(size[v])
    return by_level


def _multiscale_clusters():
    """300 points in 20 clusters at scale 2^12, each point's spread 2^k with
    k in -4..10, like the multiscale benchmark: 18 levels, most with ten or
    more merges of at most metric.ROW_BLOCK members, and one where a larger
    merge sits beside small ones."""
    rng = np.random.default_rng(2)
    centers = rng.normal(0.0, 2.0**12, size=(20, 3))
    which = rng.integers(0, 20, size=300)
    spread = np.ldexp(1.0, rng.integers(-4, 11, size=300))
    return scale_points(centers[which] + rng.normal(size=(300, 3)) * spread[:, None], 2)


@pytest.mark.parametrize("row_block", [metric.ROW_BLOCK, 3])
def test_batched_levels_match_the_references(monkeypatch, row_block):
    ps = _multiscale_clusters()
    by_level = _merge_sizes_by_level(build_hierarchy(ps))
    small = [sum(size <= metric.ROW_BLOCK for size in sizes) for sizes in by_level.values()]
    assert sum(k >= 10 for k in small) > len(by_level) / 2
    assert any(max(sizes) > metric.ROW_BLOCK >= min(sizes) for sizes in by_level.values())
    monkeypatch.setattr(metric, "ROW_BLOCK", row_block)
    _assert_matches_the_references(ps)


# One copy of an L1 pattern on the integer grid: a cluster A of a0, a1 (1
# apart) and a2 (3 from a0), and single points B, C and D, each at least 4
# from the others and within 8 of a neighbor, so each copy is one merge of
# 6 points at level 3. B is 4 from a1 and from a2 and 5 from a0: its nearest
# point in A is a tie. A holds its points child by child, {a0, a1} before a2
# where that child holds A's smallest index, so the first of a1 and a2 in A
# need not be the smaller index. D is within 8 of B and of C and more than 8
# from A, so the BFS from A has two equal candidates for D's parent.
_TIE_PATTERN = [(0, 0), (0, 1), (-3, 0), (-2, 3), (-9, -1), (-9, 3)]


def _tie_copies(copies=30):
    """Copies of _TIE_PATTERN 64 apart, each listing its points in its own
    order, so the child order, the BFS root and the order of A's points
    vary by copy."""
    rng = np.random.default_rng(5)
    pattern = np.array(_TIE_PATTERN, dtype=float)
    return np.concatenate([pattern[rng.permutation(6)] + [64 * i, 0] for i in range(copies)])


@pytest.mark.parametrize("row_block", [metric.ROW_BLOCK, 3])
def test_ties_on_a_batched_level_match_the_references(monkeypatch, row_block):
    pts = _tie_copies()
    ps = scale_points(pts, 1)
    dm = ps.distance_matrix() * 2.0**ps.scale_exponent
    a0, a1, a2, b, c, d = (np.flatnonzero((pts == p).all(axis=1))[0] for p in _TIE_PATTERN)
    assert dm[b, a1] == dm[b, a2] < dm[b, a0]
    assert max(dm[d, b], dm[d, c]) <= 8 < min(dm[d, a0], dm[d, a1], dm[d, a2])
    assert _merge_sizes_by_level(build_hierarchy(ps))[3] == [6] * 30
    monkeypatch.setattr(metric, "ROW_BLOCK", row_block)
    _assert_matches_the_references(ps)


def _line_of_pairs(clusters=300):
    """Two-point clusters on a line (points 1 apart, clusters 3 apart), in a
    shuffled index order but with point 0 at one end: the MST is one path
    from point 0, so the top level's clusters are chain ends of a chain of
    2 * clusters - 1 edges."""
    x = np.arange(2 * clusters) // 2 * 3.0 + np.arange(2 * clusters) % 2
    order = np.concatenate([[0], 1 + np.random.default_rng(6).permutation(2 * clusters - 1)])
    return scale_points(x[order][:, None], 2)


@pytest.mark.parametrize("row_block", [metric.ROW_BLOCK, 3])
def test_levels_of_a_one_path_mst_match_the_references(monkeypatch, row_block):
    ps = _line_of_pairs()
    parent, _ = _mst_edges(ps.distance_matrix())
    depth, _ = _chain_sums(parent, (np.arange(ps.n) > 0).astype(np.int64))
    assert depth.max() == ps.n - 1 >= 2**9  # ten doubling rounds
    assert _merge_sizes_by_level(build_hierarchy(ps)) == {1: [2] * 300, 2: [600]}
    monkeypatch.setattr(metric, "ROW_BLOCK", row_block)
    _assert_matches_the_references(ps)


@pytest.mark.parametrize("seed", range(6))
def test_prim_gives_a_minimum_spanning_tree_under_ties(seed):
    # small integer distances, so many edges tie and sums are exact
    from scipy.sparse.csgraph import minimum_spanning_tree

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    dm = rng.integers(1, 4, size=(n, n)).astype(float)
    dm = np.triu(dm, 1) + np.triu(dm, 1).T
    parent, weight = _mst_edges(dm)
    ids = np.arange(n)
    assert parent[0] == 0 and weight[0] == 0.0
    assert np.count_nonzero(parent != ids) == n - 1
    assert np.array_equal(weight, dm[parent, ids])
    _, end = _chain_sums(parent, np.zeros(n, dtype=np.int64))
    assert np.all(end == 0)  # one tree, no cycle
    assert weight.sum() == minimum_spanning_tree(dm).sum()
    want_parent, want_weight = reference_prim(dm)
    assert np.array_equal(parent, want_parent) and np.array_equal(weight, want_weight)


def test_bfs_of_a_disjoint_union_is_each_graph_alone():
    rng = np.random.default_rng(8)
    graphs = []
    for k in (7, 1, 12, 5):
        adj = rng.random((k, k)) < 0.4
        adj |= adj.T
        adj[np.arange(k - 1), np.arange(1, k)] = adj[np.arange(1, k), np.arange(k - 1)] = True
        graphs.append(adj)
    k = sum(len(g) for g in graphs)
    union = np.zeros((k, k), dtype=bool)
    roots = np.cumsum([0] + [len(g) for g in graphs[:-1]])
    want = []
    for r, g in zip(roots, graphs):
        union[r:r + len(g), r:r + len(g)] = g
        want.append(r + _bfs_parents(g, np.zeros(1, dtype=np.int64)))
    assert np.array_equal(_bfs_parents(union, roots), np.concatenate(want))


def test_bfs_of_a_disconnected_child_graph_raises():
    adj = np.zeros((5, 5), dtype=bool)
    adj[0, 1] = adj[1, 0] = True  # graph 0..1, then 2..4 with 4 cut off
    adj[2, 3] = adj[3, 2] = True
    with pytest.raises(AssertionError, match="disconnected"):
        _bfs_parents(adj, np.array([0, 2]))
    with pytest.raises(AssertionError, match="disconnected"):
        _bfs_parents(np.zeros((2, 2), dtype=bool), np.zeros(1, dtype=np.int64))
    # the root reader's on-demand BFS: cut off after a round, then at once
    x = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    for was in ([0, 0, 1, 2, 2], [0, 0, 0, 1, 1]):
        with pytest.raises(AssertionError, match="disconnected"):
            _read_root(np.abs(x[:, None] - x), np.arange(5), np.array(was), 4.0)


def _assert_root_matches_the_dense_bfs(dm, order, was, thr):
    """_read_root against the full child graph's BFS (_bfs_parents) from
    child 0 and _nearest: the same near points, each in the same parent
    child. Returns the parents."""
    cs = np.flatnonzero(np.diff(was, prepend=-1))
    ce = np.append(cs[1:], len(order))
    k = len(cs)
    child = np.repeat(np.arange(k), ce - cs)
    a, b = np.nonzero(dm[np.ix_(order, order)] <= thr)
    adj = np.zeros((k, k), dtype=bool)
    adj[child[a], child[b]] = True
    np.fill_diagonal(adj, False)
    parent = _bfs_parents(adj, np.zeros(1, dtype=np.int64))
    got = _read_root(dm, order, was, thr)
    assert got[0] == -1
    assert np.array_equal(got[1:], _nearest(dm, order, cs, ce, np.arange(1, k), parent[1:]))
    child_of = np.empty(len(order), dtype=np.int64)
    child_of[order] = child
    assert np.array_equal(child_of[got[1:]], parent[1:])
    return parent


def _split_front_root():
    """A root read at threshold 4 over points on a line, listed in a
    shuffled index order. Child 0, the BFS root, is 130 points 1 apart, so
    its rows span two or more blocks at any ROW_BLOCK up to 129. Child 2 (at
    -3) is within 4 of child 0's first two points only, and child 1 (at 132)
    of its last two only, so child 0 reaches the higher id in an earlier
    block. Child 3 (at -6 and 135) neighbors children 1 and 2 only: its BFS
    parent is child 1 only if the next front is sorted over the whole round,
    not block by block. Child 4, 140 points 1 apart from 138 on, is child
    3's only neighbor after that, and child 5 (at 281) neighbors its last
    point only."""
    groups = [np.arange(130.0), [132.0], [-3.0], [-6.0, 135.0], 138.0 + np.arange(140), [281.0]]
    x = np.concatenate(groups)
    ids = np.random.default_rng(9).permutation(len(x))
    dm = np.zeros((len(x), len(x)))
    dm[np.ix_(ids, ids)] = np.abs(x[:, None] - x[None, :])
    return dm, ids, np.repeat(np.arange(len(groups)), [len(g) for g in groups])


@pytest.mark.parametrize("row_block", [1, 2, 3, metric.ROW_BLOCK])
def test_root_reader_matches_the_dense_bfs(monkeypatch, row_block):
    assert 130 > metric.ROW_BLOCK
    monkeypatch.setattr(metric, "ROW_BLOCK", row_block)
    parent = _assert_root_matches_the_dense_bfs(*_split_front_root(), 4.0)
    assert parent.tolist() == [0, 0, 0, 1, 3, 4]
    # children of random sizes over shuffled point ids; the threshold is the
    # child graph's bottleneck, so some pairs sit on it
    from scipy.sparse.csgraph import minimum_spanning_tree

    rng = np.random.default_rng(10)
    for n in (40, 400):
        pts = rng.uniform(0, 30, size=(n, 2))
        dm = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
        cut = np.sort(rng.choice(np.arange(1, n), size=n // 8, replace=False))
        was = np.cumsum(np.isin(np.arange(n), cut))
        order = rng.permutation(n)
        k = was[-1] + 1
        cm = np.full((k, k), np.inf)
        np.minimum.at(cm, (was[:, None], was[None, :]), dm[np.ix_(order, order)])
        np.fill_diagonal(cm, 0.0)
        thr = minimum_spanning_tree(cm).toarray().max()
        _assert_root_matches_the_dense_bfs(dm, order, was, thr)


@pytest.mark.parametrize("name,ps", list(_reference_inputs()))
def test_landmarks_match_greedy_reference(name, ps):
    t = build_tree(ps, 0.1)
    assert np.array_equal(t.landmarks, reference_landmarks(t, t.K))
    s = surrogate_units(t)
    # small budgets store landmarks below the subtree roots on these inputs
    for K in (1, 2, 3):
        select_landmarks(t, K, s, ingress_layers(t))
        assert np.array_equal(t.landmarks, reference_landmarks(t, K))
        assert np.array_equal(t.landmark_units, s[t.landmarks])


def _leaf_levels(t):
    """(level of the parent, level) of each point's leaf, in point order."""
    leaves = t.leaf_of_point()
    return [(int(t.level[t.parent[v]]), int(t.level[v])) for v in leaves]


def test_compression_on_three_points():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    # chain above the {0,1} merge compresses with annotated length 3; the
    # far point's 4-edge chain is one leaf right under the root
    longs = [(int(t.level[t.parent[v]]), int(t.level[v]), int(t.edge_len[v]))
             for v in range(t.node_count) if t.edge_long[v]]
    assert longs == [(3, 1, 3)]
    assert _leaf_levels(t) == [(1, 0), (1, 0), (4, 3)]
    assert t.node_count == 6


def test_plain_edges_never_compress():
    # a parent-child edge (no interior) stays short even with delta = 0
    t = build_tree(pointset_1d([0, 1]), 0.25)
    assert not t.edge_long.any()
    assert t.node_count == 3


def test_leaf_chains_always_compress():
    # a point alone needs no subtree: even a length-2 chain over it is one
    # leaf, at the level just below its merge
    t = build_tree(pointset_1d([0, 2, 3]), 0.25)
    assert not t.edge_long.any()
    assert _leaf_levels(t) == [(2, 1), (1, 0), (1, 0)]
    assert t.node_count == 5


def test_compression_boundary_preserves_leaf_diameter_bound():
    # a unit chain {0..12} plus a point at 28, eps = 1/2: the chain cluster
    # (diameter 12) idles from level 1 to the level-5 merge. Folding its
    # 4-edge run would leave a subtree leaf at level 4 with diameter
    # 12 > 2^4 * eps = 8, so the run must stay short; the far point's
    # chain still folds, into one leaf at level 4.
    coords = list(range(13)) + [28]
    ps = pointset_1d(coords)
    t = build_tree(ps, 0.5)
    chain_nodes = [v for v, mem in enumerate(node_members(t))
                   if len(mem) == 13 and 1 <= t.level[v] <= 4]
    assert len(chain_nodes) == 4
    assert not t.edge_long.any()
    assert _leaf_levels(t) == [(1, 0)] * 13 + [(5, 4)]
    check_tree_invariants(t, ps)


def test_long_edge_at_the_diameter_tie():
    # {0, 1} (delta = 1) idles from level 1 to the level-3 merge with 6:
    # k = 2 and delta equals 2^(3-1) * eps exactly, so the run folds into
    # one long edge of length 2, and every estimate stays in the band
    pts = np.array([[0.0], [1.0], [6.0]])
    ps = ingest_array(pts, 2)
    t = build_tree(ps, 0.25)
    assert t.edge_len.tolist() == [0, 0, 2, 0, 0, 0]
    check_tree_invariants(t, ps)
    rep = evaluate(build_lp_sketch(ps, 0.25), metric.pairwise_distances(pts, 2))
    assert rep.fraction_in_band == 1.0


def test_tree_structure_matches_per_node_definitions():
    # every derived field against its definition, node by node, on built
    # trees with long edges (so several subtrees and corner rows)
    rng = np.random.default_rng(13)
    centers = rng.uniform(0, 1e6, size=(5, 2))
    pts = np.concatenate([c + rng.uniform(0, 20, size=(7, 2)) for c in centers])
    for p, eps in ((2, 0.2), (1, 0.5), (INF, 0.1)):
        t = build_tree(scale_points(pts, p), eps)
        m = t.node_count
        assert t.edge_long.any()
        leaves, corners = [], []
        for v in range(m):
            children = [c for c in range(m) if t.parent[c] == v]
            path = [v]
            while t.parent[path[-1]] >= 0:
                path.append(int(t.parent[path[-1]]))
            assert t.depth[v] == len(path) - 1
            gaps = [int(t.edge_len[u]) - 1 if t.edge_long[u] else 1 for u in path[:-1]]
            assert t.level[v] == t.phi_exponent - sum(gaps)
            top = next((u for u in path if t.parent[u] < 0 or t.edge_long[u]))
            assert t.subtree_root[v] == top
            is_leaf = all(t.edge_long[c] for c in children)
            assert t.is_subtree_leaf[v] == is_leaf
            leaves += [v] if is_leaf else []
            corners += [v] if is_leaf and top != 0 else []
        assert corners
        # the leaves found from the parent array are the childless nodes,
        # each holding its point as center
        leaf_of = t.leaf_of_point()
        assert sorted(leaf_of.tolist()) == [v for v in range(m) if v not in t.parent]
        assert np.array_equal(t.center[leaf_of], np.arange(t.n))
        for rows, nodes in ((t.leaf_row, leaves), (t.corner_row, corners)):
            expect = np.full(m, -1)
            expect[nodes] = np.arange(len(nodes))
            assert np.array_equal(rows, expect)


def test_centers():
    t, h, src = _built(pointset_1d([3, 1, 10, 0]), 0.5)
    children = tree_children(t)
    assert int(t.center[0]) == 0  # root holds the global minimum index
    for v in range(t.node_count):
        if not children[v]:
            assert t.center[v] == src[v]  # a leaf's merge node is its point
        else:
            assert t.center[v] == min(int(t.center[c]) for c in children[v])


def test_ingress_center_child_points_to_parent():
    t = build_tree(pointset_1d([0, 3]), 0.5)
    children = tree_children(t)
    for v in range(t.node_count):
        short = [c for c in children[v] if not t.edge_long[c]]
        for c in short:
            if t.center[c] == t.center[v]:
                assert t.ingress[c] == v


def test_ingress_entry_leaf_case():
    # two clusters {0} and {3}: the non-center child's ingress is the leaf
    # holding the closest point of the center child's cluster
    t = build_tree(pointset_1d([0, 3]), 0.5)
    leaf0 = [v for v in range(t.node_count)
             if v not in t.parent and t.center[v] == 0][0]
    side = [v for v in range(t.node_count)
            if t.parent[v] == 0 and t.center[v] == 1][0]
    assert int(t.ingress[side]) == leaf0


def test_ingress_level_bound_and_order():
    rng = np.random.default_rng(11)
    for trial in range(10):
        ps = random_pointset(rng, 40, 3, [1, 2, INF][trial % 3])
        t = build_tree(ps, 0.3)
        for v in range(t.node_count):
            assert t.level[t.ingress[v]] <= t.level[v] + 1
        layers = ingress_layers(t)
        assert np.array_equal(layers[0], t.subtree_roots())
        for k in range(1, len(layers)):
            assert np.isin(t.ingress[layers[k]], layers[k - 1]).all()
        assert np.array_equal(np.sort(np.concatenate(layers)), np.arange(t.node_count))


def test_gamma_examples():
    # delta = 0 leaves get precision 1/5
    t, h, src = _built(pointset_1d([0, 4]), 0.5)
    for v in range(t.node_count):
        if t.subtree_root[v] != v and h.delta[src[v]] == 0.0:
            assert t.g[v] == 5
    # a unit chain {0..5} merges at level 1 with diameter 5: ceil(5/2) = 3 -> 1/8
    t = build_tree(pointset_1d([0, 1, 2, 3, 4, 5, 40]), 0.5)
    tight = [v for v, mem in enumerate(node_members(t)) if t.level[v] == 1 and len(mem) == 6]
    assert tight and all(t.g[v] == 8 for v in tight if t.subtree_root[v] != v)


def test_surrogate_roots_exact():
    rng = np.random.default_rng(3)
    ps = random_pointset(rng, 30, 4, 2)
    h = build_hierarchy(ps)
    t, src = compress_paths(h, ps, 0.25)
    assign_centers(t, src)
    assign_ingresses(t, h, src)
    s = compute_surrogates(t, ps, h, src, ingress_layers(t))
    assert np.array_equal(s, surrogate_units(t))  # the replay from the tree alone
    for r in t.subtree_roots():
        assert np.all(s[int(r)] == 0.0)


def test_landmark_budget_values():
    assert landmark_step_budget(10.0, 1, 2) == 5   # ceil(log2 20)
    assert landmark_step_budget(1.0, 1, INF) == 1
    assert landmark_step_budget(8.0, 16, 2) == 6   # ceil(log2(2*8*4))


def test_landmark_chain_coverage():
    # geometric chain: deep caterpillar; every node reaches a stored
    # surrogate or subtree root within K ingress hops (checked in invariants)
    coords = [0.0]
    for k in range(12):
        coords.append(coords[-1] + 2.0 ** k)
    ps = pointset_1d(coords)
    t = build_tree(ps, 0.25)
    check_tree_invariants(t, ps)


def test_small_subtrees_get_one_landmark_at_their_root():
    # K = 5 here and every subtree has <= 3 nodes: climbing always reaches
    # the subtree root, which becomes the single stored landmark
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    assert t.K == 5
    assert sorted(t.landmarks) == sorted(int(r) for r in t.subtree_roots())


def _chain_tree(length):
    """Minimal synthetic tree whose ingress structure is one chain."""
    from rltsketch.tree import RelativeLocationTree, tree_structure

    m = length
    parent = np.arange(-1, m - 1)
    edge_len = np.zeros(m, dtype=np.int64)
    return RelativeLocationTree(
        n=m, d=1, p=2, eps=0.5, scale_exponent=0,
        parent=parent, edge_len=edge_len,
        **tree_structure(parent, edge_len, m - 1),
        center=np.zeros(m, dtype=np.int64),
        ingress=np.maximum(np.arange(-1, m - 1), 0),
        g=np.zeros(m, dtype=np.int64), eta=np.zeros((m, 1), dtype=np.int64),
        eta_eps=np.zeros((m, 1), dtype=np.int64),
        landmarks=np.zeros(0, dtype=np.int64), landmark_units=np.zeros((0, 1)), K=0,
    )


def test_ingress_layers_reject_a_cycle():
    t = _chain_tree(5)
    assert [layer.tolist() for layer in ingress_layers(t)] == [[0], [1], [2], [3], [4]]
    t.ingress[2] = 4  # 2 -> 4 -> 3 -> 2 never reaches the root
    with pytest.raises(AssertionError, match="ingress cycle"):
        ingress_layers(t)


@pytest.mark.parametrize("links", [{2: 4}, {3: 4, 4: 3}, {4: 4}])
def test_ingress_cycles_are_rejected_by_layers_and_check_finite(links):
    # a 3-cycle, a 2-cycle (doubled pointers stand still on it) and a
    # non-root that is its own ingress
    t = _chain_tree(5)
    check_finite(t)
    for v, w in links.items():
        t.ingress[v] = w
    with pytest.raises(AssertionError, match="ingress cycle"):
        ingress_layers(t)
    with pytest.raises(ValueError, match="ingress links form a cycle"):
        check_finite(t)


def test_check_finite_bounds_fine_etas_on_the_lp_flavor():
    # the only overflow is a fine eta: 2^level(4) * eps * 2^60 = 2^59 units
    t = _chain_tree(5)
    check_finite(t)
    t.eta_eps[4] = 1 << 60
    with pytest.raises(OverflowError, match="surrogate units"):
        check_finite(t)


def test_check_finite_keeps_estimates_below_2_to_the_1020():
    # one coordinate difference below 2x = 2^51 at p = 20: its p-th power
    # reaches 2^1020 exactly, and a little less stays inside
    t = _chain_tree(5)
    t.p = 20
    t.eta[4, 0] = 2**50
    with pytest.raises(OverflowError, match="estimates exceed"):
        check_finite(t)
    t.eta[4, 0] = 2**50 - 2**44
    check_finite(t)


def _layers_by_walk(t):
    """ingress_layers by definition: each node's ingress chain walked to its
    subtree root, the nodes grouped by its length in ascending id."""
    ingress, root = t.ingress.tolist(), t.subtree_root.tolist()
    layers = {}
    for v in range(t.node_count):
        u, k = v, 0
        while u != root[u]:
            u, k = ingress[u], k + 1
        layers.setdefault(k, []).append(v)
    return [layers[k] for k in sorted(layers)]


@pytest.mark.parametrize("name,ps", [*_reference_inputs(),
                                     ("line-3000", pointset_1d(np.arange(3000.0)))])
def test_ingress_layers_match_a_walk_per_node(name, ps):
    t = build_tree(ps, 0.1)
    assert [layer.tolist() for layer in ingress_layers(t)] == _layers_by_walk(t)


def test_landmark_chain_of_exactly_k_plus_one():
    # climbing K steps from the lowest node of a (K+1)-node ingress chain
    # reaches the root, which becomes the single landmark
    K = 6
    t = _chain_tree(K + 1)
    select_landmarks(t, K, surrogate_units(t), ingress_layers(t))
    assert sorted(t.landmarks) == [0]
    # one node longer: the first landmark sits one step below the root, and a
    # second round covers the root itself
    t = _chain_tree(K + 2)
    select_landmarks(t, K, surrogate_units(t), ingress_layers(t))
    assert sorted(t.landmarks) == [0, 1]


def test_landmark_count_bound():
    # every selection round except the last removes more than K nodes
    rng = np.random.default_rng(21)
    for trial in range(6):
        ps = random_pointset(rng, 80, 2, 2)
        t = build_tree(ps, 0.25)
        sizes = {}
        for v in range(t.node_count):
            sizes[int(t.subtree_root[v])] = sizes.get(int(t.subtree_root[v]), 0) + 1
        counts = {}
        for v in t.landmarks:
            counts[int(t.subtree_root[v])] = counts.get(int(t.subtree_root[v]), 0) + 1
        for r, c in counts.items():
            assert c <= sizes[r] // (t.K + 1) + 1


def test_quantize_eps_rounds_down():
    for eps in (0.1, 0.25, 1 / 3, 0.999):
        q = quantize_eps(eps)
        assert q <= eps
        assert eps - q < 2.0 ** -31
    with pytest.raises(ValueError):
        quantize_eps(0.0)
    with pytest.raises(ValueError):
        quantize_eps(1.0)


def test_invariants_on_random_instances():
    rng = np.random.default_rng(99)
    cases = [
        (5, 1, 1, 0.5), (12, 2, 2, 0.25), (30, 3, INF, 0.1),
        (50, 5, 2, 0.25), (64, 4, 1, 0.4), (25, 2, 3, 0.2),
    ]
    for n, d, p, eps in cases:
        ps = random_pointset(rng, n, d, p)
        t = build_tree(ps, eps)
        check_tree_invariants(t, ps)
        check_pair_floor(t, ps, rng)


def test_invariants_on_clustered_instances():
    # clusters at several scales produce long edges and nontrivial ingresses
    rng = np.random.default_rng(5)
    centers = rng.uniform(0, 1e6, size=(6, 3))
    pts = np.concatenate([c + rng.uniform(0, 50, size=(8, 3)) for c in centers])
    for p, eps in ((2, 0.25), (1, 0.1), (INF, 0.5)):
        ps = scale_points(pts, p)
        t = build_tree(ps, eps)
        check_tree_invariants(t, ps)
        check_pair_floor(t, ps, rng)
