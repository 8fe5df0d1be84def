import numpy as np
import pytest

from rltsketch.metric import INF, PointSet, scale_points
from rltsketch.tree import (
    build_hierarchy,
    build_tree,
    ingress_layers,
    landmark_step_budget,
    quantize_eps,
    select_landmarks,
)

from invariants import check_pair_floor, check_tree_invariants
from reference_hierarchy import reference_hierarchy, reference_ingresses, reference_landmarks


def pointset_1d(coords, p=2):
    return scale_points(np.array(coords, dtype=float).reshape(-1, 1), p)


def random_pointset(rng, n, d, p, spread=100.0):
    return scale_points(rng.uniform(0.0, spread, size=(n, d)), p)


def test_hierarchy_merge_schedule():
    # {0,1,10}: level 1 merges {0},{1}; {10} joins only at level 4
    raw = build_hierarchy(pointset_1d([0, 1, 10]))
    by_level = {}
    for v in range(raw.node_count):
        by_level.setdefault(raw.level[v], []).append(sorted(raw.members[v].tolist()))
    assert sorted(by_level[1]) == [[0, 1], [2]]
    assert sorted(by_level[3]) == [[0, 1], [2]]
    assert by_level[4] == [[0, 1, 2]]
    assert raw.level[raw.root] == 4


def test_hierarchy_strict_inequality_at_power_of_two():
    # cluster distance exactly 2^2 = 4 is not merged at level 2
    raw = build_hierarchy(pointset_1d([0, 1, 5]))
    counts = {}
    for v in range(raw.node_count):
        counts[raw.level[v]] = counts.get(raw.level[v], 0) + 1
    assert counts[2] == 2
    assert raw.level[raw.root] == 3


def test_hierarchy_singleton():
    ps = PointSet(np.zeros((1, 3)), 2, 0, 1.0, dist=np.zeros((1, 1)))
    raw = build_hierarchy(ps)
    assert raw.node_count == 1 and raw.root == 0 and raw.level[0] == 0


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
    level, parent, children, members, delta, root = reference_hierarchy(ps.distance_matrix())
    raw = build_hierarchy(ps)
    assert raw.level == level
    assert raw.parent == parent
    assert raw.children == children
    assert len(raw.members) == len(members)
    for got, want in zip(raw.members, members):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    assert raw.delta == delta  # exact float equality
    assert raw.root == root


@pytest.mark.parametrize("name,ps", list(_reference_inputs()))
def test_ingresses_match_dense_reference(name, ps):
    t = build_tree(ps, 0.1)
    graphs, ingress = reference_ingresses(t, ps.distance_matrix())
    for v in range(t.node_count):
        if v in graphs:
            assert np.array_equal(t.child_graph[v], graphs[v])
        else:
            assert t.child_graph[v] is None
    assert np.array_equal(t.ingress, ingress)


@pytest.mark.parametrize("name,ps", list(_reference_inputs()))
def test_landmarks_match_greedy_reference(name, ps):
    t = build_tree(ps, 0.1)
    assert np.array_equal(t.landmarks, reference_landmarks(t, t.K))
    # small budgets store landmarks below the subtree roots on these inputs
    for K in (1, 2, 3):
        select_landmarks(t, K)
        assert np.array_equal(t.landmarks, reference_landmarks(t, K))
        assert np.array_equal(t.landmark_units, t.s_units[t.landmarks])


def test_compression_on_three_points():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    # chain above the {0,1} merge compresses with annotated length 3; the
    # singleton chain over the far point compresses with length 4
    longs = [(int(t.level[t.parent[v]]), int(t.level[v]), int(t.edge_len[v]))
             for v in range(t.node_count) if t.edge_long[v]]
    assert sorted(longs) == [(3, 0, 4), (3, 1, 3)]
    assert t.node_count == 7


def test_plain_edges_never_compress():
    # a parent-child edge (no interior) stays short even with delta = 0
    t = build_tree(pointset_1d([0, 1]), 0.25)
    assert not t.edge_long.any()
    assert t.node_count == 3


def test_leaf_chains_always_compress():
    # delta = 0 gives threshold -inf: even a length-2 chain over a leaf folds
    t = build_tree(pointset_1d([0, 2, 3]), 0.25)
    longs = [(int(t.level[t.parent[v]]), int(t.level[v]), int(t.edge_len[v]))
             for v in range(t.node_count) if t.edge_long[v]]
    assert longs == [(1, 0, 2)]


def test_compression_boundary_preserves_leaf_diameter_bound():
    # a unit chain {0..12} plus a point at 28, eps = 1/2: the chain cluster
    # (diameter 12) idles from level 1 to the level-5 merge. Folding its
    # 4-edge run would leave a subtree leaf at level 4 with diameter
    # 12 > 2^4 * eps = 8, so the run must stay short; the far point's
    # zero-diameter chain still folds.
    coords = list(range(13)) + [28]
    ps = pointset_1d(coords)
    t = build_tree(ps, 0.5)
    chain_nodes = [v for v in range(t.node_count)
                   if len(t.members[v]) == 13 and 1 <= t.level[v] <= 4]
    assert len(chain_nodes) == 4
    assert not any(t.edge_long[v] for v in chain_nodes)
    longs = [(int(t.level[t.parent[v]]), int(t.level[v]), int(t.edge_len[v]))
             for v in range(t.node_count) if t.edge_long[v]]
    assert longs == [(4, 0, 5)]
    check_tree_invariants(t, ps)


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
            assert t.children[v] == [c for c in range(m) if t.parent[c] == v]
            path = [v]
            while t.parent[path[-1]] >= 0:
                path.append(int(t.parent[path[-1]]))
            assert t.depth[v] == len(path) - 1
            gaps = [int(t.edge_len[u]) - 1 if t.edge_long[u] else 1 for u in path[:-1]]
            assert t.level[v] == t.phi_exponent - sum(gaps)
            top = next((u for u in path if t.parent[u] < 0 or t.edge_long[u]))
            assert t.subtree_root[v] == top
            is_leaf = all(t.edge_long[c] for c in t.children[v])
            assert t.is_subtree_leaf[v] == is_leaf
            leaves += [v] if is_leaf else []
            corners += [v] if is_leaf and top != 0 else []
        assert corners
        for rows, nodes in ((t.leaf_row, leaves), (t.corner_row, corners)):
            expect = np.full(m, -1)
            expect[nodes] = np.arange(len(nodes))
            assert np.array_equal(rows, expect)


def test_centers():
    t = build_tree(pointset_1d([3, 1, 10, 0]), 0.5)
    assert int(t.center[0]) == 0  # root holds the global minimum index
    for v in range(t.node_count):
        if not t.children[v]:
            assert t.center[v] == t.members[v][0]
        else:
            assert t.center[v] == min(int(t.center[c]) for c in t.children[v])


def test_ingress_center_child_points_to_parent():
    t = build_tree(pointset_1d([0, 3]), 0.5)
    for v in range(t.node_count):
        short = [c for c in t.children[v] if not t.edge_long[c]]
        for c in short:
            if t.center[c] == t.center[v]:
                assert t.ingress[c] == v


def test_ingress_entry_leaf_case():
    # two clusters {0} and {3}: the non-center child's ingress is the leaf
    # holding the closest point of the center child's cluster
    t = build_tree(pointset_1d([0, 3]), 0.5)
    leaf0 = [v for v in range(t.node_count)
             if not t.children[v] and t.center[v] == 0][0]
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
    t = build_tree(pointset_1d([0, 4]), 0.5)
    for v in range(t.node_count):
        if t.subtree_root[v] != v and t.delta[v] == 0.0:
            assert t.g[v] == 5
    # a unit chain {0..5} merges at level 1 with diameter 5: ceil(5/2) = 3 -> 1/8
    t = build_tree(pointset_1d([0, 1, 2, 3, 4, 5, 40]), 0.5)
    tight = [v for v in range(t.node_count)
             if t.level[v] == 1 and len(t.members[v]) == 6]
    assert tight and all(t.g[v] == 8 for v in tight if t.subtree_root[v] != v)


def test_surrogate_roots_exact():
    rng = np.random.default_rng(3)
    ps = random_pointset(rng, 30, 4, 2)
    t = build_tree(ps, 0.25)
    for r in t.subtree_roots():
        assert np.all(t.s_units[int(r)] == 0.0)


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
    edge_long, edge_len = np.zeros(m, dtype=bool), np.zeros(m, dtype=np.int64)
    return RelativeLocationTree(
        n=m, d=1, p=2, eps=0.5, scale_exponent=0, phi=1.0, phi_exponent=m - 1,
        parent=parent, edge_long=edge_long, edge_len=edge_len,
        **tree_structure(parent, edge_long, edge_len, m - 1),
        center=np.zeros(m, dtype=np.int64),
        ingress=np.maximum(np.arange(-1, m - 1), 0),
        g=np.zeros(m, dtype=np.int64), eta=np.zeros((m, 1), dtype=np.int64),
        eta_eps=np.zeros((m, 1), dtype=np.int64),
        landmarks=np.zeros(0, dtype=np.int64), landmark_units=np.zeros((0, 1)), K=0,
        s_units=np.zeros((m, 1)),
    )


def test_ingress_layers_reject_a_cycle():
    t = _chain_tree(5)
    assert [layer.tolist() for layer in ingress_layers(t)] == [[0], [1], [2], [3], [4]]
    t.ingress[2] = 4  # 2 -> 4 -> 3 -> 2 never reaches the root
    with pytest.raises(AssertionError, match="ingress cycle"):
        ingress_layers(t)


def test_landmark_chain_of_exactly_k_plus_one():
    # climbing K steps from the lowest node of a (K+1)-node ingress chain
    # reaches the root, which becomes the single landmark
    K = 6
    t = _chain_tree(K + 1)
    select_landmarks(t, K)
    assert sorted(t.landmarks) == [0]
    # one node longer: the first landmark sits one step below the root, and a
    # second round covers the root itself
    t = _chain_tree(K + 2)
    select_landmarks(t, K)
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
