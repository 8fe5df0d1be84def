"""Distance estimation from a decoded sketch.

A QueryContext walks the decoded tree only. Every point has a chain of
(subtree root, entry leaf) pairs, from its leaf's subtree up to the root's.
A single query walks both points' chains and aligns them from the top to
find the pair's lowest common subtree, then replays shifted surrogates along
ingress links (landmarks bound the walk): lp estimates are norms between the
fine shifted surrogates of the two entry leaves, Euclidean ones inner
products of two independently dithered surrogates. all_pairs replays the
ingress layers once, steps all points' chains as arrays, and computes each
block in point order: the root's is the result.

Estimates are returned in the original (pre-scaling) units.
"""
from __future__ import annotations

import math

import numpy as np

from .codec import SketchBits, decode
from .metric import _pairwise, lp_norm
from .tree import RelativeLocationTree, surrogate_units


class QueryContext:
    """Read-only query state over a decoded sketch.

    One entry per quantity, single and bulk alike: estimate / all_pairs give
    distances on either flavor, inner_estimate / all_pairs_squared the
    unclamped Euclidean squared distances Z1.Z2.

    Shifted surrogates are replayed along ingress links from the nearest
    stored one (a landmark or a subtree root) and kept in a memo across
    queries. The memo has no observable effect, on values or on
    visits_last, and is idempotent (every replay of a node folds the same
    increments in the same order), so concurrent queries are safe.
    visits_last counts the chain steps and the landmark-bounded ingress
    hops of the most recent single query, the same on both flavors (racy
    under concurrency).
    """

    def __init__(self, sketch):
        if isinstance(sketch, SketchBits):
            self.tree = decode(sketch)
        elif isinstance(sketch, RelativeLocationTree):
            self.tree = sketch
        else:
            raise TypeError("expected SketchBits or a decoded tree")
        t = self.tree
        self.scale = math.ldexp(1.0, int(t.scale_exponent))
        self.unit = t.unit()
        self.leaf_of = t.leaf_of_point()
        # the next subtree's entry leaf (a long edge's top); -1 in the root's subtree
        self.entry_above = t.parent[t.subtree_root]
        self._leaf, self._root, self._above, self._ingress, self._level = (
            a.tolist() for a in (self.leaf_of, t.subtree_root, self.entry_above, t.ingress, t.level)
        )
        # node -> (s units, ingress hops down to its nearest stored surrogate)
        zero = np.zeros(t.d)
        self._s_memo = {r: (zero, 0) for r in t.subtree_roots().tolist()}
        self._s_memo.update((v, (s, 0)) for v, s in zip(t.landmarks.tolist(), t.landmark_units))
        self.visits_last = 0

    # -- shifted surrogates ------------------------------------------------

    def _s_units(self, v: int) -> np.ndarray:
        """Shifted surrogate of v in grid units (integer-valued float64),
        replayed along the ingress chain from the nearest memo entry (decode
        rejects ingress cycles)."""
        chain, cur = [], int(v)
        while cur not in self._s_memo:
            chain.append(cur)
            cur = self._ingress[cur]
        base, hops = self._s_memo[cur]
        self.visits_last += len(chain) + hops
        for w in reversed(chain):
            base = base + math.pow(2.0, self._level[w]) * self.tree.eta[w].astype(np.float64)
            hops += 1
            self._s_memo[w] = (base, hops)
        return base

    def _fine_units(self, v: int) -> np.ndarray:
        t = self.tree
        fine = (math.pow(2.0, self._level[v]) * t.eps) * t.eta_eps[v]
        return self._s_units(self._ingress[v]) + fine

    def shifted_surrogate(self, v: int, fine: bool = False) -> np.ndarray:
        """s(v) (or the fine s_eps(v), defined for non-root subtree leaves of
        an lp sketch)."""
        t = self.tree
        if not 0 <= v < t.node_count:
            raise ValueError(f"node {v} out of range")
        if fine:
            if t.flags_euclidean:
                raise ValueError("a Euclidean sketch holds no fine surrogates")
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

    def _chain(self, i: int):
        """Bottom-up list of (subtree root, entry leaf) pairs over point i."""
        out, w = [], self._leaf[i]
        while w >= 0:
            out.append((self._root[w], w))
            self.visits_last += 1
            w = self._above[w]
        return out

    def _common(self, i: int, j: int):
        """Both points' chains and the position in each of the pair's lowest
        common subtree. Both chains end in the root's subtree, so they agree
        from the top down to it and differ below."""
        self._check_pair(i, j)
        self.visits_last = 0
        ci, cj = self._chain(i), self._chain(j)
        k = 1
        while k < min(len(ci), len(cj)) and ci[-k - 1][0] == cj[-k - 1][0]:
            k += 1
        return ci, len(ci) - k, cj, len(cj) - k

    # -- estimation -----------------------------------------------------------

    def estimate(self, i: int, j: int) -> float:
        """Distance estimate. lp: deterministic, within (1 +/- 4*eps) of the
        true distance, the norm between the fine surrogates of the pair's
        entry leaves into their lowest common subtree. Euclidean: randomized,
        sqrt(max(0, Z1.Z2)) from inner_estimate."""
        t = self.tree
        if t.flags_euclidean:
            return math.sqrt(max(0.0, self.inner_estimate(i, j)))
        ci, a, cj, b = self._common(i, j)
        diff = self._fine_units(ci[a][1]) - self._fine_units(cj[b][1])
        return (lp_norm(diff, t.p) * self.unit) * self.scale

    # -- Euclidean estimation -------------------------------------------------

    def _x_units(self, chain, upto: int):
        """Both probabilistic surrogates (copies 1 and 2) in grid units for the
        subtree at chain position `upto`, from one walk: coarse surrogate of
        the entry leaf, its dithered surrogate corner, and the dithered
        long-edge corners below it."""
        t = self.tree
        aug = t.augmentations
        w = chain[upto][1]
        s, f, row = self._s_units(w), math.pow(2.0, self._level[w]), t.leaf_row[w]
        x1, x2 = s + f * aug.a1[row], s + f * aug.a2[row]
        for (_, w_low), (_, w_up) in zip(chain[:upto], chain[1:upto + 1]):
            f, row = math.pow(2.0, self._level[w_up]), t.corner_row[w_low]
            x1, x2 = x1 + f * aug.b1[row], x2 + f * aug.b2[row]
        return x1, x2

    def probabilistic_surrogate(self, i: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Both unbiased randomized stand-ins (x1, x2) for point i relative to
        subtree root r, in the sketch's (projected, scaled) coordinate space."""
        t = self.tree
        if not t.flags_euclidean:
            raise ValueError("probabilistic surrogates require a Euclidean sketch")
        if not 0 <= i < t.n:
            raise IndexError("point index out of range")
        chain = self._chain(i)
        for idx, (root, _) in enumerate(chain):
            if root == r:
                x1, x2 = self._x_units(chain, idx)
                return x1 * self.unit, x2 * self.unit
        raise ValueError(f"point {i} is not in the cluster of node {r}")

    def inner_estimate(self, i: int, j: int) -> float:
        """Unclamped squared-distance estimate Z1.Z2 (original units squared)."""
        t = self.tree
        if not t.flags_euclidean:
            raise ValueError("euclidean estimation requires a Euclidean sketch")
        ci, a, cj, b = self._common(i, j)
        (x1, x2), (y1, y2) = self._x_units(ci, a), self._x_units(cj, b)
        return (float(np.dot(x1 - y1, x2 - y2)) / t.d) * self.scale * self.scale

    # -- bulk all-pairs -------------------------------------------------------

    def _bulk_inputs(self):
        """Every node's _s_units; every point's chain of (subtree root, entry
        leaf) pairs, bottom-up, one array step per nesting level; and the
        positions of each subtree with two or more leaves, in runs by (root
        depth, root, point)."""
        t = self.tree
        s = surrogate_units(t)
        pt, e, chain = np.arange(t.n), self.leaf_of, []
        while len(pt):
            chain.append((pt, e))
            e = self.entry_above[e]
            up = e >= 0
            pt, e = pt[up], e[up]
        ends = np.cumsum([len(p) for p, _ in chain]).tolist()
        pt, e = (np.concatenate(a) for a in zip(*chain))
        keep = np.bincount(t.subtree_root[t.is_subtree_leaf], minlength=t.node_count) >= 2
        r = t.subtree_root[e]
        idx = np.flatnonzero(keep[r])
        idx = idx[np.lexsort((pt[idx], r[idx], t.depth[r[idx]]))]
        cuts = [0, *(np.flatnonzero(np.diff(r[idx])) + 1).tolist(), len(idx)]
        return s, pt, e, list(map(slice, [0] + ends, ends)), idx, list(map(slice, cuts, cuts[1:]))

    def _assemble(self, pts, runs, block_of) -> np.ndarray:
        """n x n matrix of block_of(run) over pts[run], deeper runs written over
        shallower ones, zero diagonal. The root's block is the result itself."""
        t = self.tree
        whole = runs and runs[0].stop - runs[0].start == t.n
        est = block_of(runs.pop(0)) if whole else np.zeros((t.n, t.n))
        for run in runs:
            est[np.ix_(pts[run], pts[run])] = block_of(run)
        np.fill_diagonal(est, 0.0)
        return est

    def all_pairs(self) -> np.ndarray:
        """n x n matrix of estimates (original units, zero diagonal). An lp
        block holds the distances between fine surrogates, computed and
        scaled in row blocks on every CPU (pairwise_distances); entries may
        differ from single queries in the last ulp (lp_norm and cdist sum
        in different orders), never beyond."""
        t = self.tree
        if t.flags_euclidean:
            est = self.all_pairs_squared()
            return np.sqrt(np.maximum(0.0, est, out=est), out=est)
        s, pt, e, _, idx, runs = self._bulk_inputs()
        v = e[idx]  # entry leaves; rows are their fine surrogates, as _fine_units
        rows = s[t.ingress[v]] + (np.ldexp(1.0, t.level[v]) * t.eps)[:, None] * t.eta_eps[v]

        def block_of(run):
            return _pairwise(rows[run], t.p, (self.unit, self.scale))

        return self._assemble(pt[idx], runs, block_of)

    def all_pairs_squared(self) -> np.ndarray:
        """Unclamped squared-distance estimates for a Euclidean sketch. At
        chain step k a point's surrogate (per copy) is s(e_k) + 2^level(e_k)
        a(e_k) plus the corners 2^level(e_j+1) b(e_j) of the steps j < k:
        integers in grid units, so the order of the sums changes no bit."""
        t = self.tree
        if not t.flags_euclidean:
            raise ValueError("squared estimates require a Euclidean sketch")
        aug = t.augmentations
        s, pt, e, steps, idx, runs = self._bulk_inputs()
        v = e[idx]
        x = np.empty((2, len(v), t.d))  # copies 1 and 2, in run order
        for c, amat in enumerate((aug.a1, aug.a2)):
            np.multiply(np.ldexp(1.0, t.level[v])[:, None], amat[t.leaf_row[v]], out=x[c])
            x[c] += s[v]
        slot = np.full(len(e), -1)
        slot[idx] = np.arange(len(idx))
        below = np.zeros((2, t.n, t.d))  # corners below each point's current step
        for prev, sl in zip(steps, steps[1:]):
            p, q = pt[sl], slot[sl]
            w = t.corner_row[e[prev][np.searchsorted(pt[prev], p)]]  # entries one step down
            below[:, p] += np.ldexp(1.0, t.level[e[sl]])[:, None] * np.stack([aug.b1[w], aug.b2[w]])
            x[:, q[q >= 0]] += below[:, p[q >= 0]]
        sq_scale = self.scale * self.scale

        def block_of(run):
            F1, F2 = x[0, run], x[1, run]
            gram = F1 @ F2.T
            diag = np.einsum("ij,ij->i", F1, F2)
            return ((diag[:, None] + diag[None, :] - gram - gram.T) / t.d) * sq_scale

        return self._assemble(pt[idx], runs, block_of)
