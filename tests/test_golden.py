"""Golden SHA-256 digests of fixed small sketches and of their estimates.

Each case is generated from a fixed seed, built, and hashed. A change that
alters any byte of any of these files changes the format or the construction
and has to say so; a pure refactor or speed-up must leave every digest as is.

The hierarchy each golden sketch's tree is built from (`tree.Merges`) is
hashed too, so a change to how the merges are read shows there first.
Its delta values are distances, so they may move in the last bits when the
distance kernel changes; the sketch and estimate digests may not.

The estimates read from each sketch (`all_pairs`, and for the Euclidean case
the unclamped squared estimates as well) are hashed separately: they depend
on the tree only, not on its file layout, so they must hold across a format
change that leaves the tree as it is. The `all_pairs` estimates of the tree
tests' reference inputs are pinned the same way. Single queries are pinned
apart from `all_pairs`, since they run another code path: each case's
estimates and visit counts over the first 25 points and, on the Euclidean
cases, their inner estimates and probabilistic surrogates.
"""
import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from rltsketch import bits, metric, tree
from rltsketch.codec import build_lp_sketch, decode, encode, size_report
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch
from rltsketch.metric import INF, scale_points
from test_tree import _reference_inputs


def _sha(a) -> str:
    return hashlib.sha256(a.tobytes() if isinstance(a, np.ndarray) else a).hexdigest()


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
    "lp-p1": lambda: build_lp_sketch(_uniform(101, 60, 3, 1), 0.1),
    "lp-p2": lambda: build_lp_sketch(_uniform(102, 80, 5, 2), 0.05),
    "lp-pinf": lambda: build_lp_sketch(_uniform(103, 70, 4, INF), 0.2),
    "lp-multiscale": lambda: build_lp_sketch(_multiscale(104), 0.05),
    "lp-int-grid": lambda: build_lp_sketch(_int_grid(), 0.125),
    "lp-deep-ingress": lambda: build_lp_sketch(_deep_grid(), 0.125),
    "euclidean": lambda: build_euclidean_sketch(
        scale_points(np.random.default_rng(105).normal(size=(40, 10)), 2), 0.3, seed=7),
    # long edges over multi-point subtrees, so the corner chains are pinned
    "euclidean-multiscale": lambda: build_euclidean_sketch(_multiscale(104), 0.3, seed=7),
}
SKETCH_DIGESTS = {
    "lp-p1": "7fac80ff55451d870a9004fd2acb28b7388514770bcddee363f0fb152d386cba",
    "lp-p2": "4b9c4ed145bb3f9d36e994dd3878ce257627f7181566a75db81496e1dcc3c352",
    "lp-pinf": "9bca644d93efee85e88f73600eb7d442a2b0cca3db1d2e6e9332c8025e0938cd",
    "lp-multiscale": "c5193f466c6b5ed3e2e97c708a26334e0f85442a08d908d4da227dad2faf8619",
    "lp-int-grid": "cc7b9abd1185a8f0ea930085a792314686ffdc19e8978028d1d18f5e7d5af9d8",
    "lp-deep-ingress": "cf329d5e0ad2f229925af5e07031583d2e5c53c6d325c7c51ef1516a34365fc0",
    "euclidean": "d4086e88e82ca8dbaf7e13e9a00a1c00f015e80fcaed9eeb7b0ecbb3bb1fe6d5",
    "euclidean-multiscale": "3a528958c49d35220067a8afd786cfb0a76c651fc35509a6d32d31bae21fc9a0",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_sketch_digest(name):
    assert _sha(CASES[name]().data) == SKETCH_DIGESTS[name]


ESTIMATE_DIGESTS = {
    "lp-p1": "5abd619542b51ed197cc2f56e086b38e59c1d5e2927588f3948d78e616e69129",
    "lp-p2": "414f5b7b87725eab7484adb02d8f4adf7728b7a246f9273963e2daa3f7193d8e",
    "lp-pinf": "9a7d5d2960a2cd29be34ef1ac11139a0f93b6b754d765b7bdeaba472022ebf28",
    "lp-multiscale": "ad29aa781b76e795484b6fe9493b124bb00afa4d52910d7dad24a27f9c739b6b",
    "lp-int-grid": "5a16d78466912e96b4c806785718870bdfbb469ded7d3d1da1be91e7430a7e20",
    "lp-deep-ingress": "f65f007b62ddfb09a2290334d7cfbfa8e962afd3965aff75ca04d7a77c7a5ee4",
    "euclidean": "83989887af539238181c59ec0554932069fe1b4c3fb94ac392c8859989059f56",
    "euclidean-multiscale": "ce72ca7aae9effad21d0f8d1689666e1fa73e1d097fbc0886448fefdef3e3c07",
}
SQUARED_DIGESTS = {
    "euclidean": "345fee9995c10084a6e6a18d1bf6cd4452ff1d3e101841c98242a25e33f0fa7a",
    "euclidean-multiscale": "663c6fffd4673ffb077ac0ade4a8fd007e968337f09034aa7d12944c3f3ebf76",
}


# all_pairs at eps 0.1 of the tree tests' reference inputs: clustered, grid
# and line cases whose subtrees hold several points
REFERENCE_ESTIMATE_DIGESTS = {
    "uniform-p1-n2": "44c3f0ae3e6ffe0d6e25acd00408923096981613daf33e7c6f021b34fcd3449b",
    "uniform-p1-n17": "3850990715a291e8e0d80c0ef235cfbc7138d0ad0099cee79d974f2bbcb1d13c",
    "uniform-p1-n60": "f2425970bdf32f98b770066c9de29e6e07b0c64f2ec01fc5b5484d7c9f710cad",
    "clustered-p1": "55878fcd4d566fbdf97fe849b41b5cf22f584e7737da30feaa93e02946bcb097",
    "grid-p1": "b24594df177e69715aaf9d9c22cee3ebe3084cb7d9694fd37c20649aad79a55b",
    "line-p1": "f42dadf1f1eed0e5c873c78e4a0d6327f1d3119c68f469c7ef8da2214bfef7ea",
    "uniform-p2-n2": "8fbadb19bee0c7716ba295eb6b365951342d341e982f791b9ed81d8c1c4e7630",
    "uniform-p2-n17": "ab0e39ab4b7f1b110d157f38ae961c3eb77993a43cbef78945ec4f1f6c840802",
    "uniform-p2-n60": "a09f631042d06dd500797fc9b86699c52de1c2bdfc9a3329dd031bcbd240d0f9",
    "clustered-p2": "c7d6a269ae9c7b7371154c114cbe365dd94c523f9928f54894be9513e1ae8b40",
    "grid-p2": "76557f7e4eba5b61337e0024ab6d03d5d27b9e3f8ba73e83b225fa16c4a9303b",
    "line-p2": "f42dadf1f1eed0e5c873c78e4a0d6327f1d3119c68f469c7ef8da2214bfef7ea",
    "uniform-pinf-n2": "44c3f0ae3e6ffe0d6e25acd00408923096981613daf33e7c6f021b34fcd3449b",
    "uniform-pinf-n17": "77f27cd6b5d0dff0266884e31b3808e7c9a95fd4c3a67b1d3fa2d063b90c828f",
    "uniform-pinf-n60": "98626fccd1d1831628b23081a85a44ce53b081fd3ce764a11348638f25b96d54",
    "clustered-pinf": "efd78a38f76ee44094bce37e054c6e5de352ce28531f88b6e2238095391c900f",
    "grid-pinf": "c23ec9b628799387605755f62d785bd3d9945748409356b65f532b09a143a433",
    "line-pinf": "f42dadf1f1eed0e5c873c78e4a0d6327f1d3119c68f469c7ef8da2214bfef7ea",
}
REFERENCE_INPUTS = dict(_reference_inputs())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_estimate_digest(name):
    ctx = QueryContext(decode(CASES[name]()))
    assert _sha(ctx.all_pairs()) == ESTIMATE_DIGESTS[name]
    if name in SQUARED_DIGESTS:
        assert _sha(ctx.all_pairs_squared()) == SQUARED_DIGESTS[name]


def _single_sha(sketch) -> str:
    """estimate(i, j) over every pair i < j of the first 25 points, then the
    sum of their visits_last; on a Euclidean sketch also inner_estimate over
    the same pairs and both copies' probabilistic surrogates of each of those
    points at the root and at its leaf's subtree root. On a fresh context."""
    ctx = QueryContext(decode(sketch))
    t = ctx.tree
    m = min(t.n, 25)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    out, visits = [], 0
    for i, j in pairs:
        out.append(np.float64(ctx.estimate(i, j)).tobytes())
        visits += ctx.visits_last
    out.append(np.int64(visits).tobytes())
    if t.flags_euclidean:
        out += [np.float64(ctx.inner_estimate(i, j)).tobytes() for i, j in pairs]
        out += [x.tobytes() for i in range(m) for r in (0, int(t.subtree_root[ctx.leaf_of[i]]))
                for x in ctx.probabilistic_surrogate(i, r)]
    return _sha(b"".join(out))


SINGLE_DIGESTS = {
    "lp-p1": "acbeafb7f1220767ae4071d9597749c462bad7d88f5e113143730fe25f4ac96a",
    "lp-p2": "55c19d73e983a38065b379a90b9a6d19157ab876bc1dfa95b33ca944ea98ad70",
    "lp-pinf": "bcf73f80284fb09cb3affd7e98c412ac296474d334b91eb72b81db2001612698",
    "lp-multiscale": "7a2b9b777970349c06a85a68d135cc3ea579b2d7c994c7d928671df2654c8401",
    "lp-int-grid": "50e9c8fa183d17700063140ef001e5da449d2743b2ed1bc53cf71b3580c2eb4c",
    "lp-deep-ingress": "5512bcb6e623e5da28d0954e34acc55efd4681dee87433211281cad66fa3cee2",
    "euclidean": "47d42484a68c4c0e840653d7c48cdc1b0318b214af63b9b194779e59f255ffdd",
    "euclidean-multiscale": "7c97795ab21de49d9d500d7d4e7adf6878b49665693e1a712af63afcfeffc10f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_single_query_digest(name):
    assert _single_sha(CASES[name]()) == SINGLE_DIGESTS[name]


@pytest.mark.parametrize("name", list(REFERENCE_INPUTS))
def test_reference_input_estimate_digest(name):
    ctx = QueryContext(build_lp_sketch(REFERENCE_INPUTS[name], 0.1))
    assert _sha(ctx.all_pairs()) == REFERENCE_ESTIMATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES) + list(REFERENCE_INPUTS))
def test_no_subtree_holds_a_single_point(name):
    # a point alone is one leaf, never a subtree below a long edge
    sketch = CASES[name]() if name in CASES else build_lp_sketch(REFERENCE_INPUTS[name], 0.1)
    t = decode(sketch)
    points = (np.bincount(t.parent[1:], minlength=t.node_count) == 0).astype(np.int64)
    for v in range(t.node_count - 1, 0, -1):  # preorder: children after parents
        points[t.parent[v]] += points[v]
    assert (points[t.subtree_roots()[1:]] >= 2).all()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_file_reencodes_and_its_fields_sum_to_its_sections(name):
    sketch = CASES[name]()
    t = decode(sketch)
    assert encode(t, t.augmentations).data == sketch.data
    for section in size_report(sketch)["sections"].values():
        assert sum(section["fields"].values()) == section["data_bits"]


def _built_with_merges(name):
    """The case's sketch and the Merges its tree was built from."""
    merges = []
    build_hierarchy = tree.build_hierarchy

    def recorded(ps):
        merges.append(build_hierarchy(ps))
        return merges[-1]

    with mock.patch.object(tree, "build_hierarchy", recorded):
        sketch = CASES[name]()
    return sketch, merges[0]


def _merges_sha(h: tree.Merges) -> str:
    """Level, children, delta as float hex and near, as one JSON string."""
    return _sha(json.dumps([h.level, h.children, [x.hex() for x in h.delta], h.near]).encode())


MERGES_DIGESTS = {
    "lp-p1": "c626c8d4da667f819772c4393968466e2ee5ea4d28227f3102479a849f632605",
    "lp-p2": "af4eb1ea311f7e65ebf78a0270ce655130bf8bafd2039c30910561dcc5b40a5e",
    "lp-pinf": "05cab0b6e409c8666b6db2c156e71ac6cfe7090e775ccab0e3b037ab5c5670e8",
    "lp-multiscale": "2ad31c73eec2322898b5e91d0a4da635d9e2c0df2b3faf9266a6cd564baef70b",
    "lp-int-grid": "93f707cc9b38d2493b1326c2a49bcb101f37455f5247eb80c2091d1225523c90",
    "lp-deep-ingress": "c9223ce5acbde6b1732aab24d2810a8b8868c35815807bb5138dcd96f7fb4c3a",
    "euclidean": "d15654b6f8837e9b6e6db2b6af34908796a4e2e860780731ba61b17a9fc46580",
    "euclidean-multiscale": "0f4c8d62923b2155af44cef01b49f32cee3603305c40ea16690bc2687c683c85",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_merges_digest(name):
    assert _merges_sha(_built_with_merges(name)[1]) == MERGES_DIGESTS[name]


def _current_digests() -> dict:
    """Every digest above as the code now computes it, by dict name."""
    built = {name: _built_with_merges(name) for name in CASES}
    sketches = {name: sk for name, (sk, _) in built.items()}
    contexts = {name: QueryContext(decode(sk)) for name, sk in sketches.items()}
    return {
        "SKETCH_DIGESTS": {name: _sha(sk.data) for name, sk in sketches.items()},
        "ESTIMATE_DIGESTS": {name: _sha(ctx.all_pairs()) for name, ctx in contexts.items()},
        "SQUARED_DIGESTS": {name: _sha(contexts[name].all_pairs_squared())
                            for name in SQUARED_DIGESTS},
        "SINGLE_DIGESTS": {name: _single_sha(sk) for name, sk in sketches.items()},
        "REFERENCE_ESTIMATE_DIGESTS": {
            name: _sha(QueryContext(build_lp_sketch(ps, 0.1)).all_pairs())
            for name, ps in REFERENCE_INPUTS.items()},
        "MERGES_DIGESTS": {name: _merges_sha(h) for name, (_, h) in built.items()},
    }


def test_block_sizes_change_no_byte(monkeypatch):
    # scaling the build must not change a byte: distance row blocks and
    # codec chunks far smaller than the inputs, spread over 1 or 3 worker
    # threads, give the same files and estimates
    want = _current_digests()
    monkeypatch.setattr(metric, "ROW_BLOCK", 3)
    monkeypatch.setattr(bits, "CHUNK", 5)
    for workers in (1, 3):
        monkeypatch.setattr(metric, "WORKERS", workers)
        assert _current_digests() == want


if __name__ == "__main__":
    # Print every digest in the dicts' own format, to re-capture them after
    # a change meant to alter them:
    #   PYTHONPATH=src python tests/test_golden.py
    for title, digests in _current_digests().items():
        print(f"{title} = {{")
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
        print("}")
