import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rltsketch.bits import CHUNK, BitReader, BitWriter, width_for_bound, width_for_count
from rltsketch.codec import (
    _HEADER,
    SECTION_NAMES,
    DecodeError,
    SketchBits,
    build_lp_sketch,
    decode,
    encode,
    size_report,
)
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch
from rltsketch.metric import INF, PointSet, scale_points
from rltsketch.tree import build_tree


def pointset_1d(coords, p=2):
    return scale_points(np.array(coords, dtype=float).reshape(-1, 1), p)


def random_pointset(rng, n, d, p, spread=100.0):
    return scale_points(rng.uniform(0.0, spread, size=(n, d)), p)


# -- bit level ------------------------------------------------------------------

def test_bit_roundtrip_scalar_and_array():
    w = BitWriter()
    w.write_uint(5, 3)
    w.write_bit(1)
    w.write_uint_array(np.array([0, 7, 3, 4]), 3)
    w.write_gamma(1)
    w.write_gamma(13)
    payload = w.getvalue()
    r = BitReader(payload, w.bit_length)
    assert r.read_uint(3) == 5
    assert r.read_bit() == 1
    assert r.read_uint_array(4, 3).tolist() == [0, 7, 3, 4]
    assert r.read_gamma() == 1
    assert r.read_gamma() == 13
    with pytest.raises(EOFError):
        r.read_uint(64)


def test_gamma_lengths():
    # value v costs 2*floor(log2 v) + 1 bits
    for v in (1, 2, 3, 4, 7, 8, 255, 256, 12345):
        w = BitWriter()
        w.write_gamma(v)
        assert w.bit_length == 2 * int(math.floor(math.log2(v))) + 1
        assert BitReader(w.getvalue(), w.bit_length).read_gamma() == v
    with pytest.raises(ValueError):
        BitWriter().write_gamma(0)


def _packed(bitstring: str) -> bytes:
    """MSB-first bytes of a '0'/'1' string, zero-padded to whole bytes."""
    return bytes(int(bitstring[i:i + 8].ljust(8, "0"), 2)
                 for i in range(0, len(bitstring), 8))


_width_and_value = st.integers(0, 64).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_width_and_value, max_size=40))
def test_array_write_with_per_value_widths(pairs):
    # one array write equals the per-value scalar writes and the plain binary
    # strings, and one array read gives the values back
    widths = np.array([w for w, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.uint64)
    scalar = BitWriter()
    for w, v in pairs:
        scalar.write_uint(v, w)
    array = BitWriter()
    array.write_uint_array(values, widths)
    expect = "".join(format(v, "b").zfill(w) if w else "" for w, v in pairs)
    assert array.bit_length == scalar.bit_length == len(expect)
    assert array.getvalue() == scalar.getvalue() == _packed(expect)
    back = BitReader(array.getvalue(), array.bit_length).read_uint_array(len(pairs), widths)
    assert back.view(np.uint64).tolist() == [v for _, v in pairs]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, (1 << 32) - 1))  # codes of at most 63 bits
def test_gamma_code_is_its_fixed_width_write(v):
    gamma = BitWriter()
    gamma.write_gamma(v)
    fixed = BitWriter()
    fixed.write_uint(v, 2 * v.bit_length() - 1)
    expect = "0" * (v.bit_length() - 1) + format(v, "b")
    assert gamma.getvalue() == fixed.getvalue() == _packed(expect)
    assert BitReader(fixed.getvalue(), fixed.bit_length).read_gamma() == v


def test_array_calls_span_chunks_and_broadcast_row_widths():
    # more values than one chunk, widths broadcast per row, and a write that
    # starts mid-byte
    rng = np.random.default_rng(7)
    row_w = rng.integers(0, 65, size=(3 * CHUNK // 100 + 7, 1))
    vals = rng.integers(0, 1 << 63, size=(len(row_w), 100), dtype=np.uint64)
    vals = np.where(row_w < 64, vals & ((np.uint64(1) << row_w.astype(np.uint64)) - 1), vals)
    vals[row_w[:, 0] == 0] = 0
    w = BitWriter()
    w.write_uint(5, 3)
    w.write_uint_array(vals, row_w)
    one_by_one = BitWriter()
    one_by_one.write_uint(5, 3)
    for row, wd in zip(vals, row_w[:, 0]):
        one_by_one.write_uint_array(row, wd)
    assert w.getvalue() == one_by_one.getvalue()
    r = BitReader(w.getvalue(), w.bit_length)
    assert r.read_uint(3) == 5
    assert np.array_equal(r.read_uint_array(vals.shape, row_w).view(np.uint64), vals)
    assert r.pos == r.bit_length


def test_width_helpers():
    assert width_for_count(1) == 0
    assert width_for_count(2) == 1
    assert width_for_count(5) == 3
    assert width_for_bound(0) == 1
    assert width_for_bound(1) == 2   # values -1..1
    assert width_for_bound(4) == 4   # values -4..4 (9 of them)


# -- tree equality ---------------------------------------------------------------

def assert_trees_equal(a, b):
    assert a.n == b.n and a.d == b.d and a.p == b.p
    assert a.eps == b.eps
    assert (a.header_eps or a.eps) == (b.header_eps or b.eps)
    assert a.scale_exponent == b.scale_exponent
    assert a.phi_exponent == b.phi_exponent
    assert np.array_equal(a.level, b.level)
    assert np.array_equal(a.parent, b.parent)
    assert a.children == b.children
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.edge_long, b.edge_long)
    assert np.array_equal(a.edge_len, b.edge_len)
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.ingress, b.ingress)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.subtree_root, b.subtree_root)
    assert np.array_equal(a.is_subtree_leaf, b.is_subtree_leaf)
    assert np.array_equal(a.leaf_row, b.leaf_row)
    assert np.array_equal(a.corner_row, b.corner_row)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.eta_eps, b.eta_eps)
    assert np.array_equal(a.landmarks, b.landmarks)
    assert np.array_equal(a.landmark_units, b.landmark_units)
    assert a.K == b.K
    assert a.flags_euclidean == b.flags_euclidean
    if a.augmentations is not None or b.augmentations is not None:
        ag, bg = a.augmentations, b.augmentations
        assert np.array_equal(ag.a1, bg.a1) and np.array_equal(ag.a2, bg.a2)
        assert np.array_equal(ag.b1, bg.b1) and np.array_equal(ag.b2, bg.b2)


def test_roundtrip_three_points():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    dec = decode(encode(t))
    assert_trees_equal(t, dec)
    assert dec.members is None and dec.delta is None  # no raw point data


def test_roundtrip_single_point():
    ps = PointSet(np.zeros((1, 2)), 2, 0, 1.0, dist=np.zeros((1, 1)))
    t = build_tree(ps, 0.25)
    sk = encode(t)
    rep = size_report(sk)
    assert rep["sections"]["topology"]["data_bits"] == 2   # "()"
    assert rep["sections"]["centers"]["data_bits"] == 0    # ceil(log2 1) = 0
    assert rep["sections"]["etas"]["data_bits"] == 0
    dec = decode(sk)
    assert dec.node_count == 1 and dec.center[0] == 0


def test_roundtrip_random_lp():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        p = [1, 2, 3, INF][trial % 4]
        eps = [0.5, 0.25, 0.1][trial % 3]
        ps = random_pointset(rng, n, d, p)
        t = build_tree(ps, eps)
        assert_trees_equal(t, decode(encode(t)))


def test_roundtrip_euclidean():
    rng = np.random.default_rng(23)
    for trial in range(6):
        n = int(rng.integers(4, 20))
        ps = random_pointset(rng, n, 5, 2)
        sk = build_euclidean_sketch(ps, 0.3, seed=trial)
        dec = decode(sk)
        assert dec.flags_euclidean and dec.augmentations is not None
        assert dec.eps == 0.5                        # fixed tree precision
        assert dec.header_eps <= 0.3                 # quantized user eps
        assert 0.3 - dec.header_eps < 2.0 ** -31


def test_roundtrip_euclidean_field_exact_vs_builder():
    # drive the pipeline stages by hand so the builder tree is available
    from rltsketch.codec import EUCLIDEAN_TREE_EPS
    from rltsketch.euclid import JlConfig, build_augmentations, jl_transform, target_dimension
    from rltsketch.tree import quantize_eps

    rng = np.random.default_rng(29)
    ps = random_pointset(rng, 16, 4, 2)
    eps_d = quantize_eps(0.3)
    seq = np.random.SeedSequence(11)
    seed_mat, seed_s1, seed_s2 = seq.spawn(3)
    dprime = target_dimension(ps.n, eps_d)
    proj = jl_transform(ps, JlConfig(dprime, seed_mat))
    tree = build_tree(proj, EUCLIDEAN_TREE_EPS)
    tree.flags_euclidean = True
    tree.header_eps = eps_d
    sig1 = np.random.default_rng(seed_s1).random(dprime)
    sig2 = np.random.default_rng(seed_s2).random(dprime)
    aug = build_augmentations(tree, proj.points, sig1, sig2)
    tree.augmentations = aug
    sk = encode(tree, aug)
    assert sk.data == build_euclidean_sketch(ps, 0.3, seed=11).data
    assert_trees_equal(tree, decode(sk))


def test_size_report_accounts_for_every_bit():
    rng = np.random.default_rng(31)
    for trial in range(10):
        ps = random_pointset(rng, int(rng.integers(2, 50)), 3, 2)
        sk = build_lp_sketch(ps, 0.25)
        rep = size_report(sk)
        stored = rep["header"]["stored_bits"] + sum(
            s["stored_bits"] for s in rep["sections"].values())
        assert stored == rep["total_stored_bits"] == 8 * rep["file_bytes"]
        assert rep["total_data_bits"] <= rep["total_stored_bits"]


def test_center_section_width():
    rng = np.random.default_rng(41)
    ps = random_pointset(rng, 20, 2, 2)
    t = build_tree(ps, 0.25)
    rep = size_report(encode(t))
    assert rep["sections"]["centers"]["data_bits"] == t.node_count * math.ceil(math.log2(20))


def test_topology_is_two_bits_per_node():
    rng = np.random.default_rng(43)
    ps = random_pointset(rng, 30, 2, 1)
    t = build_tree(ps, 0.25)
    rep = size_report(encode(t))
    assert rep["sections"]["topology"]["data_bits"] == 2 * t.node_count


def test_long_edge_budget():
    rng = np.random.default_rng(47)
    ps = random_pointset(rng, 60, 2, 2, spread=1e7)
    t = build_tree(ps, 0.25)
    n_long = int(t.edge_long.sum())
    assert n_long <= 2 * t.n
    rep = size_report(encode(t))
    max_code = 2 * int(math.floor(math.log2(max(1, int(t.edge_len.max()))))) + 1
    assert rep["sections"]["long_edges"]["data_bits"] <= (t.node_count - 1) + n_long * max_code


def test_augmentation_section_iff_euclidean():
    rng = np.random.default_rng(53)
    ps = random_pointset(rng, 12, 4, 2)
    rep_lp = size_report(build_lp_sketch(ps, 0.25))
    assert rep_lp["sections"]["augmentations"]["data_bits"] == 0

    sk = build_euclidean_sketch(ps, 0.4, seed=9)
    dec = decode(sk)
    rep = size_report(sk)
    n_leaf = int(dec.is_subtree_leaf.sum())
    n_b = int((dec.corner_row >= 0).sum())
    from rltsketch.codec import corner_bound
    wa = width_for_bound(corner_bound(dec.d))
    # two independent copies of every corner
    assert rep["sections"]["augmentations"]["data_bits"] == 2 * (n_leaf + n_b) * dec.d * wa


def test_fine_net_section_growth_under_eps_halving():
    # halving eps widens each fine coordinate by exactly one bit, so the
    # fine-net section grows by at most one bit per stored coordinate
    rng = np.random.default_rng(61)
    ps = random_pointset(rng, 60, 4, 2)
    reps = {}
    trees = {}
    for eps in (0.25, 0.125):
        t = build_tree(ps, eps)
        trees[eps] = t
        reps[eps] = size_report(encode(t))["sections"]["leaf_etas"]["data_bits"]
    t = trees[0.125]
    fine = t.is_subtree_leaf & (t.subtree_root != np.arange(t.node_count))
    coords = int(fine.sum()) * t.d
    assert np.array_equal(trees[0.25].level, t.level)  # same tree shape here
    assert reps[0.125] - reps[0.25] == coords


def test_decode_rejects_corruption():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    sk = encode(t)
    bad = bytearray(sk.data)
    bad[0] = ord("X")
    with pytest.raises(DecodeError):
        decode(SketchBits(bytes(bad)))
    bad = bytearray(sk.data)
    bad[4] = 99  # version
    with pytest.raises(DecodeError):
        decode(SketchBits(bytes(bad)))
    with pytest.raises(DecodeError):
        decode(SketchBits(sk.data[: len(sk.data) // 2]))
    with pytest.raises(DecodeError):
        decode(SketchBits(sk.data + b"\x00"))


def test_decode_survives_random_bit_flips():
    # corruption decodes to garbage or raises DecodeError, never crashes
    rng = np.random.default_rng(67)
    ps = random_pointset(rng, 25, 3, 2)
    sk = build_lp_sketch(ps, 0.25)
    base = bytearray(sk.data)
    for _ in range(300):
        bad = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(bad)))
            bad[pos] ^= 1 << int(rng.integers(0, 8))
        try:
            decode(SketchBits(bytes(bad)))
        except DecodeError:
            pass


def test_eps_quantization_monotone():
    ps = pointset_1d([0, 1, 10])
    t = build_tree(ps, 0.1)
    dec = decode(encode(t))
    assert dec.eps <= 0.1
    assert 0.1 - dec.eps < 2.0 ** -31


def test_level_recovery_under_long_edges():
    rng = np.random.default_rng(59)
    centers = rng.uniform(0, 1e6, size=(5, 2))
    pts = np.concatenate([c + rng.uniform(0, 20, size=(6, 2)) for c in centers])
    ps = scale_points(pts, 2)
    t = build_tree(ps, 0.2)
    dec = decode(encode(t))
    assert dec.level[0] == t.phi_exponent
    for v in range(1, dec.node_count):
        gap = int(dec.edge_len[v]) - 1 if dec.edge_long[v] else 1
        assert dec.level[v] == dec.level[dec.parent[v]] - gap
    assert np.array_equal(dec.level, t.level)


def _section_span(data: bytes, name: str) -> tuple[int, int]:
    """Byte range of a section in a sketch file, 64-bit length prefix included."""
    def end(start):
        return start + 8 + (int.from_bytes(data[start:start + 8], "little") + 7) // 8

    lo = _HEADER.size
    for _ in range(SECTION_NAMES.index(name)):
        lo = end(lo)
    return lo, end(lo)


def test_decode_rejects_zero_landmark_width():
    sk = build_lp_sketch(random_pointset(np.random.default_rng(5), 20, 2, 2), 0.25)
    lo, _ = _section_span(sk.data, "landmarks")
    bad = bytearray(sk.data)
    bad[lo + 16:lo + 18] = b"\x00\x00"  # payload bits 64..79: the value width
    with pytest.raises(DecodeError):
        decode(SketchBits(bytes(bad)))


def test_decode_single_bit_flips_of_header_and_ingresses():
    # every single-bit flip of the header and of the ingresses section
    # (length prefix included) decodes or raises DecodeError, nothing else
    rng = np.random.default_rng(71)
    ps = random_pointset(rng, 40, 3, 2)
    sk = build_lp_sketch(ps, 0.25)
    base = bytes(sk.data)
    lo, hi = _section_span(base, "ingresses")
    assert hi > lo + 8
    for byte in list(range(_HEADER.size)) + list(range(lo, hi)):
        for bit in range(8):
            bad = bytearray(base)
            bad[byte] ^= 1 << bit
            try:
                decode(SketchBits(bytes(bad)))
            except DecodeError:
                pass


def test_every_single_bit_flip_decodes_to_a_queryable_tree_or_raises():
    # the decoder's structural checks: whatever a one-bit flip leaves that
    # still decodes must survive a context, a single query and all_pairs
    ps = random_pointset(np.random.default_rng(3), 24, 3, 2, spread=50.0)
    sk = build_lp_sketch(ps, 0.1)
    decoded = 0
    for bit in range(8 * len(sk.data)):
        bad = bytearray(sk.data)
        bad[bit >> 3] ^= 0x80 >> (bit & 7)
        try:
            t = decode(SketchBits(bytes(bad)))
        except DecodeError:
            continue
        decoded += 1
        # flipped coordinates may overflow to non-finite estimates: a file
        # checksum's job, not this test's
        with np.errstate(over="ignore", invalid="ignore"):
            ctx = QueryContext(t)
            ctx.estimate(0, t.n - 1)
            ctx.all_pairs()
    assert decoded > 0
