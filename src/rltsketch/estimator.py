"""Distance estimation from a decoded sketch.

A QueryContext walks the decoded tree only: shifted surrogates are replayed
from ingress links (with landmark shortcuts bounding the walk), the lp
estimate is the norm between fine shifted surrogates at the query pair's
lowest-common-ancestor subtree, and the Euclidean estimate is the cross inner
product of two independently dithered probabilistic surrogates.

Estimates are returned in the original (pre-scaling) units.
"""
from __future__ import annotations

import math

import numpy as np

from .codec import SketchBits, decode
from .metric import lp_norm, pairwise_distances
from .tree import RelativeLocationTree

# entries per block in which all_pairs copies a subtree's estimates into the
# n x n result: bounds the temporary beside it
ALL_PAIRS_CHUNK = 1 << 20


class QueryContext:
    """Read-only query state over a decoded sketch.

    use_landmarks: walk ingress links only to the nearest stored landmark
    (or subtree root). memoize: cache shifted surrogates across queries; an
    optimization with no observable effect on values, and idempotent (every
    replay of a node folds the same increments in the same order), so
    concurrent queries are safe. visits_last counts tree and ingress edges
    traversed by the most recent single query (meaningful with memoize=False;
    racy under concurrency).
    """

    def __init__(self, sketch, use_landmarks: bool = True, memoize: bool = True):
        if isinstance(sketch, SketchBits):
            self.tree = decode(sketch)
        elif isinstance(sketch, RelativeLocationTree):
            self.tree = sketch
        else:
            raise TypeError("expected SketchBits or a decoded tree")
        t = self.tree
        self.use_landmarks = use_landmarks
        self.memoize = memoize
        self.scale = math.ldexp(1.0, int(t.scale_exponent))
        self.unit = t.unit()
        self.leaf_of = t.leaf_of_point()
        row = np.full(t.node_count, -1, dtype=np.int64)
        row[t.landmarks] = np.arange(len(t.landmarks))
        self._landmark_row = row.tolist()
        self._s_memo: dict[int, np.ndarray] = {}
        self.visits_last = 0

    # -- shifted surrogates ------------------------------------------------

    def _s_units(self, v: int) -> np.ndarray:
        """Shifted surrogate of v in grid units (integer-valued float64),
        replayed along the ingress chain from the nearest cached value,
        landmark, or subtree root (decode rejects ingress cycles)."""
        t = self.tree
        chain = []
        cur = int(v)
        while True:
            if self.memoize and cur in self._s_memo:
                base = self._s_memo[cur]
                break
            if self.use_landmarks and self._landmark_row[cur] >= 0:
                base = t.landmark_units[self._landmark_row[cur]]
                break
            if int(t.subtree_root[cur]) == cur:
                base = np.zeros(t.d, dtype=np.float64)
                break
            chain.append(cur)
            self.visits_last += 1
            cur = int(t.ingress[cur])
        for w in reversed(chain):
            base = base + t.increment_units(w)
            if self.memoize:
                self._s_memo[w] = base
        return base

    def _fine_units(self, v: int) -> np.ndarray:
        t = self.tree
        inn = int(t.ingress[v])
        return self._s_units(inn) + (math.pow(2.0, int(t.level[v])) * t.eps) * t.eta_eps[v]

    def shifted_surrogate(self, v: int, fine: bool = False) -> np.ndarray:
        """s(v) (or the fine s_eps(v), defined for non-root subtree leaves)."""
        t = self.tree
        if not 0 <= v < t.node_count:
            raise ValueError(f"node {v} out of range")
        if fine:
            if not t.is_subtree_leaf[v] or t.subtree_root[v] == v:
                raise ValueError(f"fine surrogate undefined at node {v}")
            return self._fine_units(v) * self.unit
        return self._s_units(v) * self.unit

    # -- pair resolution ----------------------------------------------------

    def _check_pair(self, i: int, j: int):
        if not (0 <= i < self.tree.n and 0 <= j < self.tree.n):
            raise IndexError("point index out of range")
        if i == j:
            raise ValueError("estimates require two distinct indices")

    def _lca_entries(self, i: int, j: int):
        """Lowest common ancestor of the two leaves plus the entry leaves of
        its subtree over each point (the last long-edge top crossed, or the
        leaf itself)."""
        t = self.tree
        a = int(self.leaf_of[i])
        b = int(self.leaf_of[j])
        ea, eb = a, b
        da, db = int(t.depth[a]), int(t.depth[b])
        while da > db:
            if t.edge_long[a]:
                ea = int(t.parent[a])
            a = int(t.parent[a])
            da -= 1
            self.visits_last += 1
        while db > da:
            if t.edge_long[b]:
                eb = int(t.parent[b])
            b = int(t.parent[b])
            db -= 1
            self.visits_last += 1
        while a != b:
            if t.edge_long[a]:
                ea = int(t.parent[a])
            if t.edge_long[b]:
                eb = int(t.parent[b])
            a = int(t.parent[a])
            b = int(t.parent[b])
            self.visits_last += 2
        # the last crossing's top lands in the LCA's subtree (the remaining
        # edges up to the LCA are short)
        return a, ea, eb

    # -- lp estimation -------------------------------------------------------

    def estimate_lp(self, i: int, j: int) -> float:
        """Deterministic lp estimate, within (1 +/- 4*eps) of the true distance."""
        t = self.tree
        if t.flags_euclidean:
            raise ValueError("lp estimation requires an lp-flavor sketch")
        self._check_pair(i, j)
        self.visits_last = 0
        _, vi, vj = self._lca_entries(i, j)
        diff = self._fine_units(vi) - self._fine_units(vj)
        return (lp_norm(diff, t.p) * self.unit) * self.scale

    # -- Euclidean estimation -------------------------------------------------

    def _chain(self, i: int):
        """Bottom-up list of (subtree root, entry leaf) pairs over point i."""
        t = self.tree
        out = []
        w = int(self.leaf_of[i])
        while True:
            r = int(t.subtree_root[w])
            out.append((r, w))
            if t.parent[r] < 0:
                return out
            w = int(t.parent[r])  # long-edge top: the next subtree's entry leaf

    def _x_units(self, chain, upto: int, copy: int) -> np.ndarray:
        """Probabilistic surrogate in grid units for the subtree at chain
        position `upto`: coarse surrogate of the entry leaf, its dithered
        surrogate corner, and the dithered long-edge corners below it."""
        t = self.tree
        aug = t.augmentations
        amat = aug.a1 if copy == 1 else aug.a2
        bmat = aug.b1 if copy == 1 else aug.b2
        r, w = chain[upto]
        x = self._s_units(w) + math.pow(2.0, int(t.level[w])) * amat[t.leaf_row[w]]
        for s in range(upto):
            w_low = chain[s][1]
            w_up = chain[s + 1][1]
            x = x + math.pow(2.0, int(t.level[w_up])) * bmat[t.corner_row[w_low]]
        return x

    def probabilistic_surrogate(self, i: int, r: int, copy: int = 1) -> np.ndarray:
        """Unbiased randomized stand-in for point i relative to subtree root r,
        in the sketch's (projected, scaled) coordinate space."""
        t = self.tree
        if not t.flags_euclidean or t.augmentations is None:
            raise ValueError("probabilistic surrogates require a Euclidean sketch")
        if copy not in (1, 2):
            raise ValueError("copy must be 1 or 2")
        chain = self._chain(i)
        for idx, (root, _) in enumerate(chain):
            if root == r:
                return self._x_units(chain, idx, copy) * self.unit
        raise ValueError(f"point {i} is not in the cluster of node {r}")

    def inner_estimate(self, i: int, j: int) -> float:
        """Unclamped squared-distance estimate Z1.Z2 (original units squared)."""
        t = self.tree
        if not t.flags_euclidean or t.augmentations is None:
            raise ValueError("euclidean estimation requires a Euclidean sketch")
        self._check_pair(i, j)
        self.visits_last = 0
        chain_i = self._chain(i)
        chain_j = self._chain(j)
        roots_j = {r: idx for idx, (r, _) in enumerate(chain_j)}
        for idx_i, (r, _) in enumerate(chain_i):
            if r in roots_j:
                idx_j = roots_j[r]
                break
        else:
            raise RuntimeError("no common subtree root (corrupt tree)")
        z1 = self._x_units(chain_i, idx_i, 1) - self._x_units(chain_j, idx_j, 1)
        z2 = self._x_units(chain_i, idx_i, 2) - self._x_units(chain_j, idx_j, 2)
        return (float(np.dot(z1, z2)) / t.d) * self.scale * self.scale

    def estimate_euclidean(self, i: int, j: int) -> float:
        """Randomized Euclidean estimate sqrt(max(0, Z1.Z2)) from the two
        independently shifted surrogate copies."""
        return math.sqrt(max(0.0, self.inner_estimate(i, j)))

    def estimate(self, i: int, j: int) -> float:
        if self.tree.flags_euclidean:
            return self.estimate_euclidean(i, j)
        return self.estimate_lp(i, j)

    # -- bulk all-pairs -------------------------------------------------------

    def _points_under(self) -> list[np.ndarray]:
        """Point indices below each node (leaf centers of its T-subtree)."""
        t = self.tree
        pts: list = [None] * t.node_count
        for v in range(t.node_count - 1, -1, -1):
            if not t.children[v]:
                pts[v] = np.array([t.center[v]], dtype=np.int64)
            else:
                pts[v] = np.concatenate([pts[c] for c in t.children[v]])
        return pts

    def all_pairs(self) -> np.ndarray:
        """n x n matrix of estimates (original units, zero diagonal).

        Vectorized evaluation path; may differ from single queries in the
        last ulp (summation order), never beyond.
        """
        t = self.tree
        if t.flags_euclidean:
            return np.sqrt(np.maximum(0.0, self.all_pairs_squared()))
        est = np.zeros((t.n, t.n), dtype=np.float64)
        self._all_pairs_lp(est, self._points_under())
        return est

    def all_pairs_squared(self) -> np.ndarray:
        """Unclamped squared-distance estimates for a Euclidean sketch."""
        t = self.tree
        if not t.flags_euclidean:
            raise ValueError("squared estimates require a Euclidean sketch")
        est_sq = np.zeros((t.n, t.n), dtype=np.float64)
        self._all_pairs_euclidean(est_sq, self._points_under())
        return est_sq

    def _all_pairs_lp(self, est: np.ndarray, pts: list):
        t = self.tree
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
            S = np.stack([self._fine_units(v) for v in leaves])
            dmat = pairwise_distances(S, t.p)
            dmat *= self.unit
            dmat *= self.scale
            for a, w in enumerate(leaves):
                pos[pts[w]] = a
            group = pts[r]
            labs = pos[group]
            step = max(1, ALL_PAIRS_CHUNK // len(group))
            for lo in range(0, len(group), step):
                rows = slice(lo, lo + step)
                est[np.ix_(group[rows], group)] = dmat[np.ix_(labs[rows], labs)]
        np.fill_diagonal(est, 0.0)

    def _all_pairs_euclidean(self, est_sq_out: np.ndarray, pts: list):
        t = self.tree
        sq_scale = self.scale * self.scale
        # chains once per point
        chains = [self._chain(i) for i in range(t.n)]
        f1: list[dict[int, np.ndarray]] = [dict() for _ in range(t.n)]
        f2: list[dict[int, np.ndarray]] = [dict() for _ in range(t.n)]
        for i in range(t.n):
            for idx, (r, _) in enumerate(chains[i]):
                f1[i][r] = self._x_units(chains[i], idx, 1)
                f2[i][r] = self._x_units(chains[i], idx, 2)
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
