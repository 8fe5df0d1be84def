"""Benchmark workloads: each one is generated in-process from a seed.

The program only ever sees the generated array. Why each workload exists is
recorded in README.md and in BENCHMARK.json.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    flavor: str  # "lp" or "euclidean"
    n: int
    d: int
    p: object
    eps: float
    generator: str  # key of GENERATORS
    queries: int  # single-query pairs per context
    passes: int  # pipeline passes per run, sized to fit in BENCHMARK.json's run_seconds


def uniform_cube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform points in [0, 80]^d: few levels, dense n^2 work dominates.

    The side is 80, not 100: at n=4000, d=20 the minimum distance of a
    [0, 100] cube (56-67) straddles 64, so the power-of-two scale and with it
    the tree's shape would flip between seeds. With side 80 it sits at 45-53.
    """
    return rng.uniform(0.0, 80.0, size=(n, d))


def multiscale_clusters(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """40 Gaussian centers at scale 2^14; each point's spread is 2^k with k
    uniform in [-6, 13], so the hierarchy has about 22 levels."""
    centers = rng.normal(0.0, 2.0**14, size=(40, d))
    which = rng.integers(0, len(centers), size=n)
    spread = np.ldexp(1.0, rng.integers(-6, 14, size=n))
    return centers[which] + rng.normal(0.0, 1.0, size=(n, d)) * spread[:, None]


def standard_normal(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=(n, d))


GENERATORS = {
    "uniform": uniform_cube,
    "multiscale": multiscale_clusters,
    "normal": standard_normal,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp-uniform-4k", "lp", 4000, 20, 2, 0.1, "uniform", 2000, 3),
        Workload("lp-multiscale-2k", "lp", 2000, 8, 2, 0.05, "multiscale", 2000, 5),
        Workload("euclid-1k", "euclidean", 1000, 50, 2, 0.2, "normal", 2000, 7),
    )
}


def generate(w: Workload, seed: int) -> np.ndarray:
    """The workload's input array; the same seed gives the same array."""
    rng = np.random.default_rng([seed, name_key(w.name)])
    return GENERATORS[w.generator](rng, w.n, w.d)


def query_pairs(w: Workload, seed: int) -> np.ndarray:
    """A fixed list of random distinct pairs (i, j), i != j, from the seed."""
    rng = np.random.default_rng([seed, name_key(w.name), 1])
    i = rng.integers(0, w.n, size=w.queries)
    j = (i + rng.integers(1, w.n, size=w.queries)) % w.n
    return np.stack([i, j], axis=1)


def name_key(name: str) -> int:
    """A stable integer per workload name, so workloads do not share streams."""
    return zlib.crc32(name.encode())
