import dataclasses
import math
import pathlib
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rltsketch import bits
from rltsketch.bits import CHUNK, BitReader, BitWriter, width_for_count
from rltsketch.codec import (
    _CRC,
    _HEADER,
    FIELDS,
    SECTION_NAMES,
    VERSION,
    _crc,
    DecodeError,
    SketchBits,
    build_lp_sketch,
    decode,
    encode,
    read_header,
    size_report,
)
from rltsketch.estimator import QueryContext
from rltsketch.euclid import build_euclidean_sketch
from rltsketch.metric import INF, PointSet, scale_points
from rltsketch.tree import (EPS_EXPONENT, build_coarse_tree, build_tree, first_leaves,
                            later_children, leaves)


def pointset_1d(coords, p=2):
    return scale_points(np.array(coords, dtype=float).reshape(-1, 1), p)


def random_pointset(rng, n, d, p, spread=100.0):
    return scale_points(rng.uniform(0.0, spread, size=(n, d)), p)


# -- bit level ------------------------------------------------------------------

def _gamma_width(v: int) -> int:
    """Width of the Elias-gamma code of v >= 1: v written in 2*bitlen(v) - 1 bits."""
    return 2 * v.bit_length() - 1


def test_gamma_lengths():
    # value v costs 2*floor(log2 v) + 1 bits
    for v in (1, 2, 3, 4, 7, 8, 255, 256, 12345):
        w = BitWriter()
        w.write_uint_array([v], _gamma_width(v))
        assert w.bit_length == 2 * int(math.floor(math.log2(v))) + 1
        assert BitReader(w.getvalue(), w.bit_length).read_gamma() == v


def _packed(bitstring: str) -> bytes:
    """MSB-first bytes of a '0'/'1' string, zero-padded to whole bytes."""
    return bytes(int(bitstring[i:i + 8].ljust(8, "0"), 2)
                 for i in range(0, len(bitstring), 8))


_width_and_values = st.integers(0, 64).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=5)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_width_and_values, max_size=12))
def test_one_write_and_one_read_per_width(calls):
    # a call per (width, values) entry writes the values' binary strings
    # back to back, and a read call per entry gives each array back
    w = BitWriter()
    for width, values in calls:
        w.write_uint_array(np.array(values, dtype=np.uint64), width)
    expect = "".join(format(v, "b").zfill(width) if width else ""
                     for width, values in calls for v in values)
    assert w.bit_length == len(expect)
    assert w.getvalue() == _packed(expect)
    r = BitReader(w.getvalue(), w.bit_length)
    for width, values in calls:
        assert r.read_uint_array(len(values), width).view(np.uint64).tolist() == values
    assert r.pos == r.bit_length


@settings(max_examples=300, deadline=None)
@given(st.integers(1, (1 << 32) - 1))  # codes of at most 63 bits
def test_gamma_code_is_its_fixed_width_write(v):
    fixed = BitWriter()
    fixed.write_uint_array([v], _gamma_width(v))
    expect = "0" * (v.bit_length() - 1) + format(v, "b")
    assert fixed.getvalue() == _packed(expect)
    assert BitReader(fixed.getvalue(), fixed.bit_length).read_gamma() == v


@pytest.mark.parametrize("width", [13, 61])
def test_array_calls_span_chunks(width):
    # a 2-D array of more values than one chunk, written after 3 bits so it
    # starts mid-byte; at 61 bits a value can reach into a ninth byte
    rng = np.random.default_rng(width)
    vals = rng.integers(0, 1 << width, size=(CHUNK // 100 + 7, 100), dtype=np.uint64)
    w = BitWriter()
    w.write_uint_array([5], 3)
    w.write_uint_array(vals, width)
    one_by_one = BitWriter()
    one_by_one.write_uint_array([5], 3)
    for row in vals:
        one_by_one.write_uint_array(row, width)
    assert w.getvalue() == one_by_one.getvalue()
    r = BitReader(w.getvalue(), w.bit_length)
    assert r.read_uint_array(1, 3).tolist() == [5]
    assert np.array_equal(r.read_uint_array(vals.shape, width).view(np.uint64), vals)
    assert r.pos == r.bit_length


def test_read_past_the_end_raises_before_allocating():
    r = BitReader(b"\xab\xcd", 16)
    with pytest.raises(EOFError):
        r.read_uint_array((1 << 40,), 8)  # 8 TiB of output, were it allocated
    assert r.pos == 0
    assert r.read_uint_array(2, 8).tolist() == [0xAB, 0xCD]
    with pytest.raises(EOFError):
        r.read_uint_array(1, 1)
    with pytest.raises(EOFError):
        r.read_gamma()


# value 8q + r of a run of width w from bit s sits at bit s + w*r + 8w*q: the
# reader loads each residue r = 0..7 as one strided slice, so these runs reach
# every residue, several periods and every start offset within a byte

def _runs_round_trip(lead: int, runs):
    """Write `lead` zero bits and then each (width, values, cols) run; read
    them back at 1-D shape (cols 0) or (len // cols, cols), checking the
    bytes, each array's values, dtype and shape, and the position after it."""
    shaped = []
    for width, values, cols in runs:
        vals = np.array(values, dtype=np.uint64)
        if cols:
            vals = vals[:len(vals) - len(vals) % cols].reshape(-1, cols)
        shaped.append((width, vals))
    w = BitWriter()
    w.write_uint_array([0], lead)
    for width, vals in shaped:
        w.write_uint_array(vals, width)
    expect = "0" * lead + "".join(format(int(v), "b").zfill(width) if width else ""
                                  for width, vals in shaped for v in vals.ravel())
    assert w.getvalue() == _packed(expect)
    r = BitReader(w.getvalue(), w.bit_length)
    assert r.read_uint_array(1, lead).tolist() == [0]
    for width, vals in shaped:
        start = r.pos
        got = r.read_uint_array(vals.shape, width)
        assert got.dtype == np.int64 and got.shape == vals.shape
        assert np.array_equal(got.view(np.uint64), vals)
        assert r.pos == start + width * vals.size
    assert r.pos == r.bit_length


_residue_run = st.integers(0, 64).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=40), st.integers(0, 5)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.lists(_residue_run, max_size=6))
def test_runs_of_up_to_40_values_at_any_offset(lead, runs):
    _runs_round_trip(lead, runs)


@pytest.mark.parametrize("width", range(57, 65))
def test_wide_values_reach_a_ninth_byte_at_every_offset(width):
    # all-ones values between zero bits: a value whose bits reach a ninth
    # byte must read its last bits from there and nothing of its neighbours
    ones = [(1 << width) - 1] * 17
    for lead in range(8):
        _runs_round_trip(lead, [(width, ones, 0), (width, [0] * 9, 0), (width, ones, 3)])


@pytest.mark.parametrize("chunk", [1, 5, 9])
def test_chunks_not_a_multiple_of_eight_read_the_same(monkeypatch, chunk):
    monkeypatch.setattr(bits, "CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for lead in range(8):
        runs = []
        for width in (0, 1, 3, 5, 8, 13, 31, 57, 63, 64):
            for count in (0, 1, 7, 8, 9, 17, 40):
                values = rng.integers(0, 1 << width, size=count, dtype=np.uint64).tolist()
                runs += [(width, values, 0), (width, values, 4)]
        _runs_round_trip(lead, runs)


@pytest.mark.parametrize("lead", range(8))
def test_one_bit_runs_at_every_offset_and_across_a_chunk(lead):
    # a 1-bit chunk is one unpackbits of its bytes: runs whose lengths are
    # not multiples of 8 start at every bit offset, and one crosses a chunk
    rng = np.random.default_rng(lead)
    runs = [(1, rng.integers(0, 2, size=count).tolist(), cols)
            for count, cols in ((1, 0), (7, 0), (13, 0), (CHUNK + 13, 3), (45, 5), (9, 0))]
    _runs_round_trip(lead, runs)


def test_one_bit_read_past_the_end_raises_before_allocating():
    r = BitReader(b"\xab\xcd", 16)
    assert r.read_uint_array(3, 1).tolist() == [1, 0, 1]
    with pytest.raises(EOFError):
        r.read_uint_array((1 << 40,), 1)  # 8 TiB of int64 output, were it allocated
    with pytest.raises(EOFError):
        r.read_uint_array(14, 1)
    assert r.pos == 3
    assert r.read_uint_array(13, 1).tolist() == [0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1]


@pytest.mark.parametrize("width", [0, 1, 5, 13])
@pytest.mark.parametrize("add", [0, -7, 1 << 40])
def test_read_adds_to_every_value(monkeypatch, width, add):
    monkeypatch.setattr(bits, "CHUNK", 9)
    values = np.random.default_rng(width).integers(0, 1 << width, size=(5, 7))
    w = BitWriter()
    w.write_uint_array([1], 3)
    w.write_uint_array(values, width)
    r = BitReader(w.getvalue(), w.bit_length)
    r.pos = 3
    got = r.read_uint_array(values.shape, width, add)
    assert got.dtype == np.int64 and np.array_equal(got, values + add)
    assert r.pos == r.bit_length


def test_writes_of_values_outside_the_width_raise():
    for values, width in (([0, 2], 1), ([1, 8], 3), ([-1], 5), ([3], 0)):
        with pytest.raises(ValueError):
            BitWriter().write_uint_array(np.array(values), width)


@pytest.mark.parametrize("call", [
    lambda: BitWriter().write_uint_array([0], 65),
    lambda: BitReader(bytes(16), 128).read_uint_array(1, 65),
], ids=["write", "read"])
def test_widths_past_64_bits_are_rejected(call):
    with pytest.raises(ValueError, match="width 65 outside 0..64"):
        call()


def test_width_helpers():
    assert width_for_count(1) == 0
    assert width_for_count(2) == 1
    assert width_for_count(5) == 3


# -- tree equality ---------------------------------------------------------------

def assert_trees_equal(a, b):
    """Every field of the two trees, and of their augmentations, is equal."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(x) or dataclasses.is_dataclass(y):
            assert_trees_equal(x, y)
        elif isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and x.dtype == y.dtype, field.name
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def test_read_header_gives_the_checked_header():
    rng = np.random.default_rng(31)
    for sk, euclidean, p in ((build_lp_sketch(random_pointset(rng, 12, 3, 1), 0.25), False, 1),
                             (build_euclidean_sketch(random_pointset(rng, 10, 3, 2), 0.5, seed=3),
                              True, 2)):
        t = decode(sk)
        header = read_header(sk.data)
        assert header == (euclidean, t.n, t.d, p, int(t.eps * (1 << EPS_EXPONENT)),
                          t.scale_exponent, t.phi_exponent)
        assert header.euclidean is euclidean and header.p == p
        for size in (_HEADER.size - 1, _HEADER.size + 2):  # short of the header or its CRC
            with pytest.raises(DecodeError, match="truncated header"):
                read_header(sk.data[:size])
        with pytest.raises(DecodeError, match="header CRC mismatch"):
            read_header(_set_header(sk.data, "n", t.n + 1))


def test_readme_format_section_matches_the_codec():
    # a format change edits the README's Format section and the codec together
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    fmt = readme[readme.index("## Format"):]
    header_bytes, crc_bytes = re.search(r"\*\*Header\*\* \((\d+) bytes\).*?CRC-32.*?of those "
                                        r"(\d+) bytes", fmt, re.S).groups()
    assert (int(header_bytes), int(crc_bytes)) == (_HEADER.size + _CRC.size, _HEADER.size)
    order = re.search(r"\*\*Sections\*\*, in this order: (.*?)\.\s", fmt, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", order)) == SECTION_NAMES
    fields = fmt[fmt.index("**Fields**"):fmt.index("**Finite estimates.**")]
    items = re.findall(r"(\d+)\. `(\w+\.\w+)`", fields)  # 15/16 and 17/18 share an item
    assert [int(k) for k, _ in items] == list(range(1, len(FIELDS) + 1))
    assert [key for _, key in items] == [f.key for f in FIELDS]


def test_roundtrip_three_points():
    t = build_tree(pointset_1d([0, 1, 10]), 0.5)
    assert_trees_equal(t, decode(encode(t)))


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
        assert dec.eps <= 0.3                        # quantized user eps
        assert 0.3 - dec.eps < 2.0 ** -31


def test_roundtrip_euclidean_field_exact_vs_builder():
    # drive the pipeline stages by hand so the builder tree is available
    from rltsketch.euclid import (EUCLIDEAN_TREE_EPS, build_augmentations, jl_transform,
                                  target_dimension)
    from rltsketch.tree import quantize_eps

    rng = np.random.default_rng(29)
    ps = random_pointset(rng, 16, 4, 2)
    eps_d = quantize_eps(0.3)
    seq = np.random.SeedSequence(11)
    seed_mat, seed_s1, seed_s2 = seq.spawn(3)
    dprime = target_dimension(ps.n, eps_d)
    proj = jl_transform(ps, dprime, seed_mat)
    tree, _ = build_coarse_tree(proj, EUCLIDEAN_TREE_EPS)
    sig1 = np.random.default_rng(seed_s1).random(dprime)
    sig2 = np.random.default_rng(seed_s2).random(dprime)
    tree.augmentations = build_augmentations(tree, proj.points, sig1, sig2)
    tree.eps = eps_d
    sk = encode(tree)
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
    # only the n leaves' centers: an internal center is its first leaf's
    assert t.node_count > t.n
    assert rep["sections"]["centers"]["data_bits"] == t.n * math.ceil(math.log2(20))


def test_topology_is_two_bits_per_node():
    rng = np.random.default_rng(43)
    ps = random_pointset(rng, 30, 2, 1)
    t = build_tree(ps, 0.25)
    rep = size_report(encode(t))
    assert rep["sections"]["topology"]["data_bits"] == 2 * t.node_count


def test_long_edge_budget():
    # ten tight clusters far apart: each hangs under a long edge (a point
    # alone would be one leaf, with no long edge)
    rng = np.random.default_rng(47)
    centers = rng.uniform(0, 1e7, size=(10, 2))
    pts = np.concatenate([c + rng.uniform(0, 1, size=(6, 2)) for c in centers])
    t = build_tree(scale_points(pts, 2), 0.25)
    n_long = int(t.edge_long.sum())
    assert 0 < n_long <= 2 * t.n
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
    fields = size_report(sk)["sections"]["augmentations"]["fields"]
    assert len(dec.augmentations.a1) == int(dec.is_subtree_leaf.sum())
    # two independent copies of every surrogate corner, each at the width
    # of its observed range after a 70-bit (min, width) header
    for name in ("a1", "a2"):
        mat = getattr(dec.augmentations, name)
        assert fields[name] == 70 + mat.size * int(mat.max() - mat.min()).bit_length()


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


def test_encode_rejects_a_wrong_internal_center():
    # an internal node's center is the point of its first leaf in preorder;
    # the file holds only the leaves' centers, so encode must refuse a tree
    # whose internal center decode would derive differently
    ps = random_pointset(np.random.default_rng(3), 40, 3, 2)
    t = decode(build_lp_sketch(ps, 0.25))
    assert 2 in t.parent and t.center[2] == 1  # node 2 is internal
    t.center[2] = 2
    with pytest.raises(ValueError, match="center"):
        encode(t)


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
    """Byte range of a section in a sketch file, its 64-bit length and
    32-bit CRC included."""
    def end(start):
        return start + 12 + (int.from_bytes(data[start:start + 8], "little") + 7) // 8

    lo = _HEADER.size + 4  # the header's CRC
    for _ in range(SECTION_NAMES.index(name)):
        lo = end(lo)
    return lo, end(lo)


def reseal(data: bytes) -> bytes:
    """The file with the header's CRC and each section's CRC recomputed, as
    far as the section lengths reach: a mutation then meets the decoder's
    structural checks instead of its checksums."""
    out = bytearray(data)
    pos = _HEADER.size + 4
    if len(out) >= pos:
        out[_HEADER.size:pos] = zlib.crc32(out[:_HEADER.size]).to_bytes(4, "little")
    for _ in SECTION_NAMES:
        bit_len = int.from_bytes(out[pos:pos + 8], "little")
        end = pos + 12 + (bit_len + 7) // 8
        if end > len(out):
            break
        out[pos + 8:pos + 12] = _crc(bytes(out[pos + 12:end]), bit_len).to_bytes(4, "little")
        pos = end
    return bytes(out)


def test_decode_rejects_a_range_beyond_int64():
    # a range header whose min + 2^width - 1 passes 2^63 - 1
    sk = build_lp_sketch(random_pointset(np.random.default_rng(5), 20, 2, 2), 0.25)
    assert size_report(sk)["sections"]["gammas"]["data_bits"] > 70  # width >= 1
    lo, _ = _section_span(sk.data, "gammas")
    bad = bytearray(sk.data)
    bad[lo + 12:lo + 20] = b"\x7f" + b"\xff" * 7  # the g field's min: 2^63 - 1
    with pytest.raises(DecodeError, match="int64"):
        decode(SketchBits(reseal(bytes(bad))))


def test_decode_rejects_an_ingress_cycle():
    # a later child's stored ingress moved to the first subtree leaf below
    # it: that leaf's chain of first children climbs back to the child
    sk = build_lp_sketch(random_pointset(np.random.default_rng(5), 20, 2, 2), 0.25)
    t = decode(sk)
    later = later_children(t.parent, t.subtree_root)
    i = int(np.flatnonzero(np.isin(later, t.parent))[0])  # a later child with children
    leaf = first_leaves(t.parent)[later[i]]
    assert t.subtree_root[leaf] == t.subtree_root[later[i]]
    stored = t.leaf_row[t.ingress[later]]
    stored[i] = t.leaf_row[leaf]
    w = BitWriter()
    w.write_uint_array(stored, width_for_count(np.count_nonzero(t.is_subtree_leaf)))
    lo, hi = _section_span(sk.data, "ingresses")
    assert w.bit_length == int.from_bytes(sk.data[lo:lo + 8], "little")
    bad = sk.data[:lo + 12] + w.getvalue() + sk.data[hi:]
    with pytest.raises(DecodeError, match="cycle"):
        decode(SketchBits(reseal(bad)))


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


# -- format v2 ---------------------------------------------------------------

# encode(build_tree(pointset_1d([0, 1, 10]), 0.5)) in format v1
V1_SKETCH = bytes.fromhex(
    "524c545301000300000000000000010000000000000002000000000000000000008020"
    "000000000000000000000004000000000000000c00000000000000f440080000000000"
    "0000580c000000000000000060100000000000000011981400000000000000314a5014"
    "000000000000006296b018000000000000006145966800000000000000000000000000"
    "000200010005150000000000000000")


def test_a_v1_file_is_rejected():
    assert VERSION == 2
    with pytest.raises(DecodeError, match="unsupported version 1"):
        decode(SketchBits(V1_SKETCH))
    with pytest.raises(DecodeError, match="unsupported version 1"):
        size_report(SketchBits(V1_SKETCH))


def test_checksums_cover_header_and_every_section():
    sk = build_lp_sketch(random_pointset(np.random.default_rng(7), 30, 2, 2), 0.25)
    for name in SECTION_NAMES[:-1]:  # the lp flavor's augmentations are empty
        lo, hi = _section_span(sk.data, name)
        bad = bytearray(sk.data)
        bad[lo + 12] ^= 0x80  # the payload's first bit
        with pytest.raises(DecodeError, match=f"section {name} CRC"):
            decode(SketchBits(bytes(bad)))
    bad = bytearray(sk.data)
    bad[12] ^= 1  # n
    with pytest.raises(DecodeError, match="header CRC"):
        decode(SketchBits(bytes(bad)))


def test_encode_rejects_trees_whose_derived_fields_differ():
    # the file drops what decode derives, so encode refuses a tree where a
    # derivation would not give the field back
    ps = random_pointset(np.random.default_rng(3), 40, 3, 2)
    t = decode(build_lp_sketch(ps, 0.25))
    breaks = {
        "ingress": lambda u: u.ingress.__setitem__(1, 1),  # a first child's is its parent
        "landmark_units": lambda u: u.landmark_units.__setitem__((0, 0), 1.0),  # the root's
        "eta": lambda u: u.eta.__setitem__((0, 0), 1),  # the root has none
        "eta_eps": lambda u: u.eta_eps.__setitem__((0, 0), 1),  # nor a fine one
    }
    for name, edit in breaks.items():
        u = decode(encode(t))
        edit(u)
        with pytest.raises(ValueError, match=rf"^{name} differs"):
            encode(u)


def _coarse_span_of_2_63(t):
    # the first non-root that is not a subtree leaf: its coarse eta is
    # stored as it is, not as a residual
    v = int(np.flatnonzero((t.subtree_root != np.arange(t.node_count))
                           & ~t.is_subtree_leaf)[0])
    t.eta[v, :2] = 1 << 62, -(1 << 62)


def _two_leaves_one_center(t):
    leaf = leaves(t.parent)
    t.center[leaf[1]] = t.center[leaf[0]]


@pytest.mark.parametrize("edit,error", [
    (_coarse_span_of_2_63, "etas.coarse spans more than 2^63 values"),
    (lambda t: setattr(t, "eps", 0.0), "eps 0.0 not representable"),
    (lambda t: setattr(t, "eta_eps", np.pad(t.eta_eps, ((0, 0), (0, 1)))),
     "leaf_etas.fine holds"),
    (_two_leaves_one_center,
     "tree does not encode: leaf centers are not a permutation of the points"),
], ids=["coarse-span", "eps-zero", "eta-eps-width", "repeated-center"])
def test_encode_rejects_a_tree_the_file_cannot_hold(edit, error):
    t = decode(build_lp_sketch(random_pointset(np.random.default_rng(3), 40, 3, 2), 0.25))
    edit(t)
    with pytest.raises(ValueError, match=re.escape(error)):
        encode(t)


def test_encode_rejects_a_file_too_small_for_its_tree():
    # two points at d = 2^19 with every eta zeroed: 3 * 2^19 cells, more
    # than the few hundred bytes of the file may describe
    pts = np.zeros((2, 1 << 19))
    pts[1, 0] = 1.0
    t = build_tree(scale_points(pts, 2), 0.5)
    assert t.node_count == 3
    t.eta[:] = 0
    t.eta_eps[:] = 0
    with pytest.raises(ValueError, match="3 nodes of dimension 524288 need a larger file"):
        encode(t)


def test_size_report_of_a_corrupt_stream_raises_decode_error():
    # the coarse etas' range width set to 63: more bits than the section holds
    sk = build_lp_sketch(random_pointset(np.random.default_rng(5), 20, 2, 2), 0.25)
    bad = reseal(_set_value(sk.data, "etas", 64, 6, 63))
    with pytest.raises(DecodeError, match="corrupt stream"):
        size_report(SketchBits(bad))


def test_euclidean_trees_hold_no_fine_etas():
    ps = random_pointset(np.random.default_rng(13), 14, 4, 2)
    dec = decode(build_euclidean_sketch(ps, 0.3, seed=1))
    assert not dec.eta_eps.any()
    assert size_report(encode(dec, dec.augmentations))["sections"]["leaf_etas"]["data_bits"] == 0
    fine = dec.is_subtree_leaf & (dec.subtree_root != np.arange(dec.node_count))
    leaf = int(np.flatnonzero(fine)[0])
    with pytest.raises(ValueError, match="fine"):
        QueryContext(dec).shifted_surrogate(leaf, fine=True)
    dec.eta_eps[leaf, 0] = 1
    with pytest.raises(ValueError, match="eta_eps"):
        encode(dec, dec.augmentations)


def test_lp_leaf_etas_are_stored_as_residuals():
    # at non-root subtree leaves, coarse eta - floor(eta_eps * eps) is 0 or 1
    ps = random_pointset(np.random.default_rng(19), 60, 4, 2)
    for eps in (0.5, 0.1):
        t = build_tree(ps, eps)
        fine = t.is_subtree_leaf & (t.subtree_root != np.arange(t.node_count))
        residual = t.eta[fine] - np.floor(t.eta_eps[fine] * t.eps).astype(np.int64)
        assert set(np.unique(residual)) <= {0, 1}
        fields = size_report(encode(t))["sections"]["etas"]["fields"]
        width = int(residual.max() - residual.min()).bit_length()
        assert fields["residual"] == 70 + residual.size * width


def test_trailing_bits_in_a_section_are_rejected():
    sk = build_lp_sketch(random_pointset(np.random.default_rng(23), 20, 2, 2), 0.25)
    lo, hi = _section_span(sk.data, "centers")
    bit_len = int.from_bytes(sk.data[lo:lo + 8], "little")
    bad = bytearray(sk.data)
    bad[lo:lo + 8] = (bit_len + 1).to_bytes(8, "little")  # one more bit, read as 0
    if bit_len % 8 == 0:
        bad[hi:hi] = b"\x00"
    with pytest.raises(DecodeError, match="unread"):
        decode(SketchBits(reseal(bytes(bad))))


def _small_sketches() -> dict:
    rng = np.random.default_rng(29)
    clusters = np.concatenate([c + rng.uniform(0, 1, size=(4, 2))
                               for c in rng.uniform(0, 1e5, size=(3, 2))])
    return {
        "lp": build_lp_sketch(random_pointset(rng, 12, 2, 2), 0.25).data,
        "lp-long-edges": build_lp_sketch(scale_points(clusters, 1), 0.25).data,
        "euclidean": build_euclidean_sketch(random_pointset(rng, 10, 3, 2), 0.5, seed=3).data,
    }


SMALL_SKETCHES = _small_sketches()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SMALL_SKETCHES)),
       st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4),
       st.one_of(st.none(), st.integers(0, 1 << 16)))
def test_decoder_is_total_under_mutation_and_truncation(name, edits, cut):
    # whatever bytes a file holds, with checksums made to match: decode
    # raises DecodeError or gives a tree whose every estimate is finite
    data = bytearray(SMALL_SKETCHES[name])
    for pos, byte in edits:
        data[pos % len(data)] = byte
    if cut is not None:
        del data[cut % len(data):]
    try:
        t = decode(SketchBits(reseal(bytes(data))))
    except DecodeError:
        return
    ctx = QueryContext(t)
    if t.n >= 2:
        assert math.isfinite(ctx.estimate(0, t.n - 1))
    assert np.isfinite(ctx.all_pairs()).all()


def _set_header(data: bytes, name: str, value: int) -> bytes:
    """The file with one header field set to value."""
    names = ("magic", "version", "flags", "n", "d", "p", "eps_num", "eps_exp", "scale_exp",
             "phi_exp")
    fields = list(_HEADER.unpack_from(data))
    fields[names.index(name)] = value
    return _HEADER.pack(*fields) + data[_HEADER.size:]


def _set_value(data: bytes, section: str, bit: int, width: int, value: int) -> bytes:
    """The file with the width-bit value at a bit offset of a section's
    payload set to value."""
    lo, hi = _section_span(data, section)
    payload = int.from_bytes(data[lo + 12:hi], "big")
    shift = 8 * (hi - lo - 12) - bit - width
    payload ^= (((payload >> shift) & ((1 << width) - 1)) ^ value) << shift
    return data[:lo + 12] + payload.to_bytes(hi - lo - 12, "big") + data[hi:]


def _node_width(t) -> int:
    return width_for_count(t.node_count)


def _ingress_into_another_subtree(data: bytes, t) -> bytes:
    # a later child's stored leaf index set to 0: the first subtree leaf,
    # which lies in another subtree
    later = later_children(t.parent, t.subtree_root)
    first_leaf = np.flatnonzero(t.is_subtree_leaf)[0]
    i = int(np.flatnonzero(t.subtree_root[later] != t.subtree_root[first_leaf])[0])
    width = width_for_count(np.count_nonzero(t.is_subtree_leaf))
    return _set_value(data, "ingresses", i * width, width, 0)


def _repeated_leaf_center(data: bytes, t) -> bytes:
    # the second stored leaf center set equal to the first
    width = width_for_count(t.n)
    return _set_value(data, "centers", width, width, int(t.center[leaves(t.parent)[0]]))


# each decoder check, the small sketch it is reached from, and one rewritten
# header field or fixed-width value that reaches it
DECODER_CHECKS = {
    "long-edge nodes are not ascending non-root ids": (
        "lp-long-edges",  # the first long-edge node, after the count, set to the root
        lambda data, t: _set_value(data, "long_edges", _node_width(t), _node_width(t), 0)),
    "level below 0": ("lp", lambda data, t: _set_header(data, "phi_exp", 0)),
    "ingress leaf index 15 >= 15": (
        "lp-long-edges", lambda data, t: _set_value(data, "ingresses", 0, 4, 15)),
    "ingress target outside its node's subtree": ("lp-long-edges", _ingress_into_another_subtree),
    "precision code outside [5, 2^53)": (
        "lp", lambda data, t: _set_value(data, "gammas", 0, 64, 0)),  # the range's min
    "landmarks are not ascending ids of non-root nodes": (
        "lp",  # the stored landmark, after K and the count, set to the root
        lambda data, t: _set_value(data, "landmarks", 16 + _node_width(t), _node_width(t), 0)),
    "unknown flags": ("lp", lambda data, t: _set_header(data, "flags", 2)),
    "a euclidean sketch with p != 2": ("euclidean", lambda data, t: _set_header(data, "p", 1)),
    "dimension 0": ("lp", lambda data, t: _set_header(data, "d", 0)),
    "estimates exceed the float64 range": (
        "lp", lambda data, t: _set_header(data, "scale_exp", 1023)),
    "overflows a double": ("lp", lambda data, t: _set_header(data, "scale_exp", 1024)),
    "topology is not one balanced tree": (
        "lp", lambda data, t: _set_value(data, "topology", 0, 1, 0)),  # the root's open
    "long edge with invalid length": (
        "lp-long-edges",  # the lengths' range min, after the count and nodes, set to 1
        lambda data, t: _set_value(data, "long_edges",
                                   _node_width(t) * (1 + int(t.edge_long.sum())), 64, 1)),
    "leaf centers are not a permutation of the points": ("lp", _repeated_leaf_center),
}


@pytest.mark.parametrize("message", list(DECODER_CHECKS))
def test_every_decoder_check_is_reached(message):
    name, edit = DECODER_CHECKS[message]
    data = SMALL_SKETCHES[name]
    bad = edit(data, decode(SketchBits(data)))
    assert bad != data and len(bad) == len(data)
    with pytest.raises(DecodeError, match=re.escape(message)):
        decode(SketchBits(reseal(bad)))


def test_decode_rejects_a_repeated_landmark():
    # the second stored landmark id set equal to the first: ids must rise
    # strictly, not merely not fall
    from test_golden import CASES

    data = CASES["lp-deep-ingress"]().data
    t = decode(SketchBits(data))
    stored = t.landmarks[t.subtree_root[t.landmarks] != t.landmarks]
    assert len(stored) >= 2
    width = _node_width(t)  # K, the count, then one id per stored landmark
    bad = _set_value(data, "landmarks", 16 + 2 * width, width, int(stored[0]))
    assert bad != data
    with pytest.raises(DecodeError, match="landmarks are not ascending ids of non-root nodes"):
        decode(SketchBits(reseal(bad)))
