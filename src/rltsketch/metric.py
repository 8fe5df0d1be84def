"""Norms, grid nets, and rounding primitives.

Everything here is a pure function over immutable inputs: lp norms and
distance matrices, the grid net of the radius-2 lp ball, deterministic
floor-rounding onto that net, and the randomized (dithered) grid rounding
used by the Euclidean augmentations. Distance matrices are computed in row
blocks on every CPU the process may run on (cdist releases the GIL); the
result is the same bits at any CPU count, and there is no option for it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

# Rows per cdist call in pairwise_distances; each worker reuses one buffer
# of ROW_BLOCK x n distances (4 MB at n = 4000).
ROW_BLOCK = 128
# Threads pairwise_distances spreads its row blocks over: the CPUs this
# process may run on. A call with one block, or on one CPU, starts none.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def norm_root(d: int, p) -> float:
    """d**(1/p) as float64, with the convention d**(1/p) = 1 for p = inf.

    Computed in one place so every caller shares the same 64-bit constant.
    """
    if p == INF:
        return 1.0
    return float(d) ** (1.0 / p)


def lp_norm(v: np.ndarray, p) -> float:
    v = np.asarray(v, dtype=np.float64)
    if p == INF:
        return float(np.max(np.abs(v))) if v.size else 0.0
    if p == 1:
        return float(np.sum(np.abs(v)))
    if p == 2:
        return float(math.sqrt(np.dot(v, v)))
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def lp_distance(x, y, p) -> float:
    """(sum |x_j - y_j|^p)^(1/p); max coordinate difference for p = inf."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return lp_norm(x - y, p)


def pairwise_distances(points: np.ndarray, p) -> np.ndarray:
    """Exact all-pairs lp distance matrix (n x n, float64), computed once per
    unordered pair.

    Rows are taken ROW_BLOCK at a time: the block of rows [a, b) against
    columns [a, n) is one cdist call, and its part right of column b is
    mirrored into rows [b, n). The blocks run on up to WORKERS threads and
    write disjoint parts of the result. cdist computes each entry from its
    pair alone, with an arithmetic symmetric in the pair, so the result is
    bitwise cdist(points, points) and exactly symmetric (the build reads
    each pair in one direction only), whatever the thread count.
    """
    return _pairwise(points, p)


def _pairwise(points: np.ndarray, p, factors=()) -> np.ndarray:
    """pairwise_distances with every entry multiplied by each of `factors` in
    turn, block by block while the block is in cache: the same roundings as
    multiplying the whole matrix afterwards, without its passes over n^2."""
    from concurrent.futures import ThreadPoolExecutor
    from scipy.spatial.distance import cdist  # only building loads scipy

    points = np.ascontiguousarray(points, dtype=np.float64)
    if p == INF:
        kind, kw = "chebyshev", {}
    elif p == 1:
        kind, kw = "cityblock", {}
    elif p == 2:
        kind, kw = "euclidean", {}
    else:
        kind, kw = "minkowski", {"p": p}
    n = points.shape[0]
    out = np.empty((n, n))
    workers = max(1, min(WORKERS, -(-n // ROW_BLOCK)))

    def rows(k):
        """Worker k's blocks: every workers-th one, from the k-th."""
        buf = np.empty(min(ROW_BLOCK, n) * n)  # cdist's out= must be contiguous
        for a in range(k * ROW_BLOCK, n, workers * ROW_BLOCK):
            b = min(a + ROW_BLOCK, n)
            block = buf[: (b - a) * (n - a)].reshape(b - a, n - a)
            cdist(points[a:b], points[a:], kind, out=block, **kw)
            for f in factors:
                block *= f
            out[a:b, a:] = block
            out[b:, a:b] = block[:, b - a:].T

    if workers == 1:
        rows(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(rows, range(workers)))
    return out


@dataclass(eq=False)
class PointSet:
    """n points in d dimensions under a fixed lp norm, scaled so the minimum
    pairwise distance is in [1, 2).

    scale_exponent records the power-of-two divisor applied at ingestion (and,
    for the Euclidean pipeline, after projection); phi is the measured diameter
    after scaling. dist caches the scaled distance matrix: on ingest, cdist of
    the raw rows divided by 2^e, bit for bit; on the Euclidean projection, the
    distances of a smaller frame (jl_transform), equal to cdist up to rounding.
    """

    points: np.ndarray
    p: object  # int >= 1 or math.inf
    scale_exponent: int = 0
    phi: float = 1.0
    dist: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def distance_matrix(self) -> np.ndarray:
        if self.dist is None:
            self.dist = pairwise_distances(self.points, self.p)
        return self.dist

    def validate(self):
        """Desk-scale invariant check: pairwise distances in [1, phi]."""
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if self.n == 1:
            return
        dm = self.distance_matrix()
        off = dm[~np.eye(self.n, dtype=bool)]
        if off.min() < 1.0 - 1e-9:
            raise ValueError(f"min pairwise distance {off.min()} < 1 after scaling")
        if off.max() > self.phi * (1 + 1e-9):
            raise ValueError(f"max pairwise distance {off.max()} > phi={self.phi}")


def scale_points(points: np.ndarray, p) -> PointSet:
    """Normalize a raw point array into a PointSet: divide by the power of two
    M' in (M/2, M] (M = min pairwise distance) so the scaled minimum lands in
    [1, 2) exactly; the cached distance matrix is scaled alongside. Raises
    ValueError on duplicates, on distinct points whose distance underflows
    to 0, and on non-finite points, distances or scaled coordinates.
    """
    return _scale_points(points, p, 0, None)


def _scale_points(points: np.ndarray, p, base_exponent: int, frame) -> PointSet:
    """scale_points, adding base_exponent to the scale exponent, with the
    distance matrix computed from `frame` if given: the points' rows in fewer
    columns, at the same distances up to rounding (jl_transform's R frame)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise ValueError("points must be a non-empty 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain NaN or infinite coordinates")
    n = points.shape[0]
    if n == 1:
        return PointSet(points, p, base_exponent, 1.0, dist=np.zeros((1, 1)))
    dmat = pairwise_distances(points if frame is None else frame, p)
    np.fill_diagonal(dmat, np.inf)  # in place: no n^2 copies
    m = float(dmat.min())
    if m <= 0.0:
        i, j = divmod(int(dmat.argmin()), n)
        if np.array_equal(points[i], points[j]):
            raise ValueError(f"duplicate points (pairwise distance 0): rows {i} and {j}")
        raise ValueError(f"points {i} and {j} are distinct, but their distance "
                         f"underflows to 0 in float64")
    e = math.frexp(m)[1] - 1  # 2^e in (m/2, m]
    scale = math.ldexp(1.0, e)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        scaled = points / scale
        dmat /= scale
    np.fill_diagonal(dmat, 0.0)
    phi = float(dmat.max())
    if not (math.isfinite(phi) and np.isfinite(scaled).all()):
        raise ValueError("distances or scaled coordinates overflow float64")
    return PointSet(scaled, p, base_exponent + e, phi, dist=dmat)


def lp_norms(v: np.ndarray, p) -> np.ndarray:
    """lp norm along the last axis: one norm per row of a matrix. It may sum
    in another order than lp_norm, so it serves the rounding checks, not the
    estimates."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    if p == INF:
        return a.max(axis=-1)
    if p == 1:
        return a.sum(axis=-1)
    if p == 2:
        return np.sqrt((a * a).sum(axis=-1))
    return (a ** p).sum(axis=-1) ** (1.0 / p)


def round_to_net(v: np.ndarray, gamma, p) -> np.ndarray:
    """Floor-round a vector of the unit lp ball onto the grid net N_gamma =
    2*B_p^d intersected with the grid of cell side gamma/d^(1/p); returns the
    int64 grid coordinates. A matrix is rounded row by row, with one gamma
    per row (or one for all).

    Each coordinate is divided by the cell side gamma/d^(1/p) and floored
    (exact multiples map to themselves). The result is within lp distance
    gamma of v and lies in the radius-2 ball.
    """
    v = np.asarray(v, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if not np.all((0.0 < gamma) & (gamma <= 1.0)):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    nrm = lp_norms(v, p)
    if not np.all(nrm <= 1.0 + 1e-9):  # NaN fails too
        raise ValueError(f"norm precondition violated: ||v||_p = {nrm.max()} > 1")
    dp = norm_root(v.shape[-1], p)
    return np.floor(v / (gamma / dp)[..., None]).astype(np.int64)


def randomized_grid_round(y: np.ndarray, cell_side, sigma: np.ndarray) -> np.ndarray:
    """Int64 grid coordinates of the coordinate-wise minimal ("bottom-left")
    corner of the grid cell containing y + cell_side*sigma. A matrix is
    rounded row by row, with one cell side per row (or one for all) and the
    same sigma.

    For fixed y and sigma uniform on [0,1]^d, each corner coordinate is an
    unbiased estimator of y_j, supported on the two corners of y's own cell.
    """
    y = np.asarray(y, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    cell = np.asarray(cell_side, dtype=np.float64)
    if np.any(cell <= 0):
        raise ValueError("cell_side must be positive")
    if sigma.shape != y.shape[-1:]:
        raise ValueError("y and sigma must have the same dimension")
    if np.any(sigma < 0) or np.any(sigma > 1):
        raise ValueError("sigma coordinates must lie in [0, 1]")
    cell = cell[..., None]
    return np.floor((y + cell * sigma) / cell).astype(np.int64)
