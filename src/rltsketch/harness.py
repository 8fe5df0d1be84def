"""Data ingestion, general-metric embedding, exact oracles, distortion
evaluation, and lower-bound instance generators.

File formats:
  text    one point per line, whitespace-separated decimal coordinates
  binary  two u64 little-endian (n, d) then n*d float64 row-major
  metric  first token n, then n*n matrix entries (whitespace separated)
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .codec import SketchBits, decode_with_report
from .estimator import QueryContext
from .metric import INF, PointSet, scale_points


class InputError(Exception):
    """Unparseable, inconsistent, or out-of-contract input data."""


# -- ingestion ----------------------------------------------------------------

def ingest_array(points: np.ndarray, p) -> PointSet:
    """Scale raw points so the minimum pairwise distance is in [1, 2),
    recording the power-of-two scale; rejects duplicates and non-finite data."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise InputError("need at least two points")
    try:
        return scale_points(points, p)
    except ValueError as exc:
        raise InputError(str(exc))


def load_points_text(path: str) -> np.ndarray:
    try:
        pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except Exception as exc:
        raise InputError(f"cannot parse point file {path}: {exc}")
    return pts


def save_points_text(path: str, points: np.ndarray):
    np.savetxt(path, np.asarray(points, dtype=np.float64), fmt="%.17g")


def load_points_binary(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16:
                raise InputError(f"truncated binary header in {path}")
            n = int.from_bytes(head[:8], "little")
            d = int.from_bytes(head[8:], "little")
            if n < 1 or d < 1:
                raise InputError(f"binary point file {path} declares shape ({n}, {d})")
            if 8 * n * d > os.fstat(fh.fileno()).st_size - len(head):
                raise InputError(f"truncated binary point data in {path}")
            body = np.fromfile(fh, dtype="<f8", count=n * d)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return body.reshape(n, d)


def save_points_binary(path: str, points: np.ndarray):
    points = np.ascontiguousarray(points, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(points.shape[0].to_bytes(8, "little"))
        fh.write(points.shape[1].to_bytes(8, "little"))
        points.tofile(fh)


def load_metric_text(path: str) -> "GeneralMetric":
    try:
        with open(path) as fh:
            vals = np.array(fh.read().split(), dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot parse metric file {path}: {exc}")
    if vals.size < 1:
        raise InputError("empty metric file")
    if not (vals[0] >= 0 and float(vals[0]).is_integer()):
        raise InputError(f"metric file declares n = {vals[0]:g}, not a non-negative integer")
    n = int(vals[0])
    if vals.size != 1 + n * n:
        raise InputError(f"metric file should hold n then n^2 entries, got {vals.size - 1}")
    return GeneralMetric(n, vals[1:].reshape(n, n))


def save_metric_text(path: str, metric: "GeneralMetric"):
    with open(path, "w") as fh:
        fh.write(f"{metric.n}\n")
        np.savetxt(fh, metric.matrix, fmt="%.17g")


def ingest_points(path: str, format: str = "text", p=2) -> PointSet:
    """Parse a point file and normalize it (see ingest_array)."""
    if format == "text":
        pts = load_points_text(path)
    elif format == "binary":
        pts = load_points_binary(path)
    else:
        raise InputError(f"unknown point format {format!r}")
    return ingest_array(pts, p)


# -- general metrics ----------------------------------------------------------

TRIANGLE_CHECK_MAX_N = 500  # the O(n^3) triangle check runs up to this n


@dataclass(eq=False)
class GeneralMetric:
    """A finite metric given by its distance matrix (entries in [1, phi])."""

    n: int
    matrix: np.ndarray

    def validate(self):
        m = self.matrix
        if m.shape != (self.n, self.n):
            raise InputError("metric matrix shape mismatch")
        if not np.all(np.isfinite(m)):
            raise InputError("metric contains non-finite entries")
        if np.any(np.abs(np.diag(m)) > 0):
            raise InputError("metric diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise InputError("metric must be symmetric")
        off = m[~np.eye(self.n, dtype=bool)]
        if off.size and off.min() < 1.0:
            raise InputError("metric distances must be >= 1")
        if self.n <= TRIANGLE_CHECK_MAX_N:
            for k in range(self.n):
                if np.any(m > m[:, k][:, None] + m[k, :][None, :] + 1e-9):
                    raise InputError("triangle inequality violated")


def embed_general_metric(metric: GeneralMetric) -> PointSet:
    """Isometric embedding into l_inf^n: x_i = (d(i,1), ..., d(i,n))."""
    if metric.n < 2:
        raise InputError("need at least two points")
    metric.validate()
    ps = scale_points(metric.matrix, INF)
    # the max coordinate difference of rows i, j is attained at column j.
    # ps.dist is cdist of the unscaled rows divided by 2^scale_exponent, so
    # this is their chebyshev matrix bit for bit, without a second n^3 pass
    check = np.ldexp(ps.distance_matrix(), ps.scale_exponent)
    if not np.allclose(check, metric.matrix, rtol=1e-12, atol=0.0):
        raise InputError("embedding is not isometric (invalid metric)")
    return ps


# -- lower-bound instance generators -------------------------------------------

def _check_eps(eps: float):
    if not 0.0 < eps < 1.0:  # NaN fails too
        raise InputError(f"eps must be in (0, 1), got {eps}")


def gen_lowerbound_euclidean(n: int, eps: float, seed: int) -> np.ndarray:
    """2n unit vectors in R^n: n vectors with exactly k = 1/eps^2 coordinates
    set to 1 (scaled by 1/sqrt(k)) plus the n standard basis vectors. Squared
    distances obey ||a_i/sqrt(k) - e_j||^2 = 2 - 2*eps*a_i(j)."""
    _check_eps(eps)
    k_real = 1.0 / (eps * eps)
    k = int(round(k_real))
    if abs(k_real - k) > 1e-9:
        raise InputError(f"1/eps^2 = {k_real} must be an integer")
    if k > n:
        raise InputError(f"k = {k} exceeds n = {n}")
    if math.comb(n, k) < n:
        raise InputError("not enough distinct k-sparse supports")
    rng = np.random.default_rng(seed)
    supports: set[tuple[int, ...]] = set()
    rows = np.zeros((n, n), dtype=np.float64)
    while len(supports) < n:
        sup = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if sup in supports:
            continue
        rows[len(supports), list(sup)] = 1.0
        supports.add(sup)
    a = rows / math.sqrt(k)
    b = np.eye(n, dtype=np.float64)
    return np.vstack([a, b])


def planted_bits(points: np.ndarray) -> np.ndarray:
    """Recover the planted 0/1 matrix from a generated lower-bound instance."""
    n = points.shape[1]
    a = points[:n]
    k = int(round(1.0 / float(np.max(a[0])) ** 2))
    return (a * math.sqrt(k) > 0.5).astype(np.int8)


def recover_bits(sketch: SketchBits, n: int, eps: float) -> np.ndarray:
    """Read every planted bit back out of a sketch of the paired instance:
    bit = 1 iff the squared estimate falls below the midpoint threshold
    2 - eps - eps^2/2 separating the two guaranteed intervals."""
    ctx = QueryContext(sketch)
    if ctx.tree.n != 2 * n:
        raise InputError(f"sketch holds {ctx.tree.n} points, expected {2 * n}")
    est = ctx.all_pairs()[:n, n:]
    threshold = 2.0 - eps - eps * eps / 2.0
    return (est * est <= threshold).astype(np.int8)


def gen_lowerbound_general(n: int, eps: float, seed: int) -> GeneralMetric:
    """Random metric with entries 1 + k*eps, k uniform in {0..1/eps - 1}:
    distances lie in [1, 2), so the triangle inequality is automatic."""
    _check_eps(eps)
    inv = 1.0 / eps
    levels = int(round(inv))
    if abs(inv - levels) > 1e-9:
        raise InputError(f"1/eps = {inv} must be an integer")
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, levels, size=(n, n))
    ks = np.triu(ks, 1)
    ks = ks + ks.T
    mat = 1.0 + ks * eps
    np.fill_diagonal(mat, 0.0)
    return GeneralMetric(n, mat)


# -- evaluation -----------------------------------------------------------------

@dataclass(eq=False)
class DistortionReport:
    """Exact vs estimated distances with aggregates and the size breakdown.

    For lp sketches the band applies to |est - exact| / exact; for Euclidean
    sketches it applies to |est^2 - exact^2| / exact^2 (the concentration
    guarantee is on squared distances). query_seconds times the query
    context's set-up plus all_pairs over the already decoded tree.
    """

    n: int
    flavor: str  # "lp" or "euclidean"
    p: object
    eps: float
    band: float
    exact: np.ndarray = field(repr=False)
    estimates: np.ndarray = field(repr=False)
    rel_err: np.ndarray = field(repr=False)
    band_err: np.ndarray = field(repr=False)  # the banded error measure
    max_rel_err: float = 0.0
    mean_rel_err: float = 0.0
    p99_rel_err: float = 0.0
    fraction_in_band: float = 0.0
    size: dict = field(default_factory=dict)
    query_seconds: float = 0.0

    def summary(self) -> dict:
        return {
            "n": self.n,
            "flavor": self.flavor,
            "p": "inf" if self.p == INF else self.p,
            "eps": self.eps,
            "band": self.band,
            "max_rel_err": self.max_rel_err,
            "mean_rel_err": self.mean_rel_err,
            "p99_rel_err": self.p99_rel_err,
            "fraction_in_band": self.fraction_in_band,
            "total_stored_bits": self.size.get("total_stored_bits"),
            "total_data_bits": self.size.get("total_data_bits"),
            "section_data_bits": {
                k: v["data_bits"] for k, v in self.size.get("sections", {}).items()},
            "query_seconds": self.query_seconds,
        }

    def pair_records(self):
        n = self.n
        for i in range(n):
            for j in range(i + 1, n):
                yield {
                    "i": i, "j": j,
                    "exact": float(self.exact[i, j]),
                    "estimate": float(self.estimates[i, j]),
                    "rel_err": float(self.rel_err[i, j]),
                }

    def write(self, summary_path: str, pairs_path: str | None = None):
        with open(summary_path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")
        if pairs_path:
            with open(pairs_path, "w") as fh:
                for rec in self.pair_records():
                    fh.write(json.dumps(rec) + "\n")


def evaluate(
    sketch: SketchBits,
    exact: np.ndarray,
    band: float | None = None,
) -> DistortionReport:
    """Compare every pairwise estimate against the exact distance matrix
    (original units). Raises InputError on a header/data mismatch."""
    tree, size = decode_with_report(sketch)
    n = tree.n
    exact = np.asarray(exact, dtype=np.float64)
    if exact.shape != (n, n):
        raise InputError(f"exact matrix is {exact.shape}, sketch holds n = {n}")
    eps = tree.eps
    flavor = "euclidean" if tree.flags_euclidean else "lp"
    if band is None:
        band = 48.0 * eps if flavor == "euclidean" else 4.0 * eps

    t0 = time.perf_counter()
    ctx = QueryContext(tree)
    est = ctx.all_pairs()
    query_seconds = time.perf_counter() - t0

    # each error matrix is built in place; the diagonal's 0/0 is zeroed
    with np.errstate(invalid="ignore"):
        rel = np.subtract(est, exact)
        np.abs(rel, out=rel)
        rel /= exact
        np.fill_diagonal(rel, 0.0)
        band_err = rel
        if flavor == "euclidean":
            band_err = np.square(est)
            band_err -= np.square(exact)
            np.abs(band_err, out=band_err)
            band_err /= np.square(exact)
            np.fill_diagonal(band_err, 0.0)
    vals = rel[~np.eye(n, dtype=bool)]
    in_band = np.count_nonzero(band_err <= band) - np.count_nonzero(band_err.diagonal() <= band)
    max_rel = float(vals.max()) if vals.size else 0.0
    mean_rel = float(vals.mean()) if vals.size else 0.0
    # last: the quantile partially sorts vals in place
    p99_rel = float(np.quantile(vals, 0.99, overwrite_input=True)) if vals.size else 0.0
    return DistortionReport(
        n=n, flavor=flavor, p=tree.p, eps=eps, band=band,
        exact=exact, estimates=est, rel_err=rel, band_err=band_err,
        max_rel_err=max_rel, mean_rel_err=mean_rel, p99_rel_err=p99_rel,
        fraction_in_band=float(in_band / vals.size) if vals.size else 1.0,
        size=size,
        query_seconds=query_seconds,
    )
