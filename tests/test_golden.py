"""Golden SHA-256 digests of fixed small sketches and of their estimates.

Each case is generated from a fixed seed, built, and hashed. A change that
alters any byte of any of these files changes the format or the construction
and has to say so; a pure refactor or speed-up must leave every digest as is.

The estimates read from each sketch (`all_pairs`, and for the Euclidean case
the unclamped squared estimates as well) are hashed separately: they depend
on the tree only, not on its file layout, so they must hold across a format
change that leaves the tree as it is.
"""
import hashlib

import numpy as np
import pytest

from rltsketch.codec import build_lp_sketch, decode
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch
from rltsketch.metric import INF, scale_points


def _uniform(seed, n, d, p):
    return scale_points(np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, d)), p)


def _multiscale(seed):
    # 6 centers far apart, per-point spreads 2^-3 .. 2^6: about 15 levels
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 2.0**10, size=(6, 4))
    which = rng.integers(0, 6, size=120)
    spread = np.ldexp(1.0, rng.integers(-3, 7, size=120))
    pts = centers[which] + rng.normal(0.0, 1.0, size=(120, 4)) * spread[:, None]
    return scale_points(pts, 2)


def _int_grid():
    # integer points: many distances are exact powers of two
    g = np.stack(np.meshgrid(np.arange(0, 12, 3), np.arange(0, 16, 4)), axis=-1)
    return scale_points(g.reshape(-1, 2).astype(float), 1)


def _deep_grid():
    # 30 x 30 unit grid: ingress chains 30 deep, so landmarks below the
    # subtree roots (K = 8)
    g = np.stack(np.meshgrid(np.arange(30.0), np.arange(30.0)), axis=-1)
    return scale_points(g.reshape(-1, 2), 1)


CASES = {
    "lp-p1": (lambda: build_lp_sketch(_uniform(101, 60, 3, 1), 0.1),
              "068cee7efe5dfe36cdbb879139099a65668d2b84f0ce71160b0df6553f38437d"),
    "lp-p2": (lambda: build_lp_sketch(_uniform(102, 80, 5, 2), 0.05),
              "cadd4d6f845e54cad799c2d7245659a96170cea0f56c168b47cec02f361ea886"),
    "lp-pinf": (lambda: build_lp_sketch(_uniform(103, 70, 4, INF), 0.2),
                "7e2455c35135c62b6f342ccd9889978c286eefa73c71dd45d04b4853899a7075"),
    "lp-multiscale": (lambda: build_lp_sketch(_multiscale(104), 0.05),
                      "b94520949be2b85c738b6425633196b8ec6468343b47d13d2dea1b7052d4eb0d"),
    "lp-int-grid": (lambda: build_lp_sketch(_int_grid(), 0.125),
                    "c34cf73c8c6c214b5d4c761ce9792a6fdfa1cef9916b714696726d2b5aef4ff0"),
    "lp-deep-ingress": (lambda: build_lp_sketch(_deep_grid(), 0.125),
                        "58c27f9d42027524ef58d1f860f7fc9de278808e42f843409430e3ce4aa4c7ee"),
    "euclidean": (lambda: build_euclidean_sketch(
        scale_points(np.random.default_rng(105).normal(size=(40, 10)), 2), 0.3, seed=7),
                  "4cabc0f4c927df73ebee77ac8c128a8503053d0359ff10d660e41174f697e142"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sketch_digest(name):
    build, digest = CASES[name]
    assert hashlib.sha256(build().data).hexdigest() == digest


ESTIMATE_DIGESTS = {
    "lp-p1": "5abd619542b51ed197cc2f56e086b38e59c1d5e2927588f3948d78e616e69129",
    "lp-p2": "414f5b7b87725eab7484adb02d8f4adf7728b7a246f9273963e2daa3f7193d8e",
    "lp-pinf": "9a7d5d2960a2cd29be34ef1ac11139a0f93b6b754d765b7bdeaba472022ebf28",
    "lp-multiscale": "ad29aa781b76e795484b6fe9493b124bb00afa4d52910d7dad24a27f9c739b6b",
    "lp-int-grid": "5a16d78466912e96b4c806785718870bdfbb469ded7d3d1da1be91e7430a7e20",
    "lp-deep-ingress": "f65f007b62ddfb09a2290334d7cfbfa8e962afd3965aff75ca04d7a77c7a5ee4",
    "euclidean": "83989887af539238181c59ec0554932069fe1b4c3fb94ac392c8859989059f56",
}
SQUARED_DIGESTS = {
    "euclidean": "345fee9995c10084a6e6a18d1bf6cd4452ff1d3e101841c98242a25e33f0fa7a",
}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_estimate_digest(name):
    ctx = QueryContext(decode(CASES[name][0]()))
    assert _sha(ctx.all_pairs()) == ESTIMATE_DIGESTS[name]
    if name in SQUARED_DIGESTS:
        assert _sha(ctx.all_pairs_squared()) == SQUARED_DIGESTS[name]
