"""Bit-exact sketch serialization.

File layout (little-endian): a fixed 54-byte header, then byte-aligned
sections, each preceded by a 64-bit payload bit-length. Section order:
topology (balanced parentheses), long-edge flags/lengths, centers, ingress
references, precision codes, coarse net elements, fine net elements,
landmark surrogates, and (Euclidean flavor only) grid-corner augmentations.

Every annotation round-trips exactly; `size_report` accounts for every bit
of the file.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bits import BitReader, BitWriter, bit_length, width_for_bound, width_for_count
from .metric import INF, PointSet, norm_root
from .tree import (EPS_EXPONENT, Augmentations, RelativeLocationTree, build_tree, first_leaves,
                   tree_structure)

MAGIC = b"RLTS"
VERSION = 1
FLAG_EUCLIDEAN = 0x01
# largest binary exponent of a finite double: bounds levels and the scale
MAX_EXPONENT = 1023
EUCLIDEAN_TREE_EPS = 0.5  # fixed tree precision for the Euclidean flavor

_HEADER = struct.Struct("<4sBBQQQIIqQ")

SECTION_NAMES = (
    "topology",
    "long_edges",
    "centers",
    "ingresses",
    "gammas",
    "etas",
    "leaf_etas",
    "landmarks",
    "augmentations",
)


class DecodeError(Exception):
    """Malformed sketch: a bad header, truncation, or a tree that queries
    cannot use."""


@dataclass(eq=False)
class SketchBits:
    """A serialized sketch. `data` is the complete file content."""

    data: bytes

    @property
    def bit_length(self) -> int:
        return 8 * len(self.data)


def eta_bound(dp: float, g, eps: float = 1.0) -> np.ndarray:
    """Coordinate bound ceil(2 * dp * g / eps) of a net element at precision
    eps/g, for each precision code g (coarse net: eps = 1)."""
    bound = np.ceil(2.0 * dp * np.asarray(g, dtype=np.float64) / eps)
    if not np.all(bound < 2.0**62):
        raise ValueError("net coordinate bound needs more than 63 bits")
    return bound.astype(np.int64)


def corner_bound(d: int) -> int:
    """Coordinate bound for randomized grid corners of in-ball displacements."""
    return int(math.ceil(math.sqrt(d))) + 1


def _gamma_width(values: np.ndarray) -> np.ndarray:
    """Width of the Elias-gamma code of each value: 2*bitlen(v) - 1."""
    return 2 * bit_length(values) - 1


def _p_code(p) -> int:
    return 0 if p == INF else int(p)


def _p_from_code(code: int):
    return INF if code == 0 else int(code)


def _tree_eps(flags: int, header_eps: float) -> float:
    return EUCLIDEAN_TREE_EPS if flags & FLAG_EUCLIDEAN else header_eps


def _row_codes(bound: np.ndarray, rows: np.ndarray):
    """Per-row offset and width of offset-binary net coordinates: the given
    rows at their bound's width, every other row zero and 0 bits wide."""
    bound = np.where(rows, bound, 0)[:, None]
    return bound, np.where(rows[:, None], width_for_bound(bound), 0)


def _write_rows(w: BitWriter, mat: np.ndarray, bound: np.ndarray, rows: np.ndarray):
    bound, widths = _row_codes(bound, rows)
    if np.any(np.abs(mat) > bound):
        raise ValueError("net coordinate out of range, or set in an undefined row")
    w.write_uint_array(mat + bound, widths)


def _read_rows(r: BitReader, shape: tuple, bound: np.ndarray, rows: np.ndarray) -> np.ndarray:
    bound, widths = _row_codes(bound, rows)
    mat = r.read_uint_array(shape, widths)
    mat -= bound
    return mat


def encode(t: RelativeLocationTree, aug: Augmentations | None = None) -> SketchBits:
    """Serialize an annotated tree (plus optional Euclidean augmentations)."""
    m, d = t.node_count, t.d
    dp = norm_root(d, t.p)
    flags = FLAG_EUCLIDEAN if (t.flags_euclidean or aug is not None) else 0
    if flags and t.eps != EUCLIDEAN_TREE_EPS:
        raise ValueError("euclidean sketches require a tree built at eps = 1/2")

    eps_num = int(math.floor(t.header_eps * (1 << EPS_EXPONENT)))
    if not 0 < eps_num < (1 << 32):
        raise ValueError(f"eps {t.header_eps} not representable")

    ids = np.arange(m)
    is_root = t.subtree_root == ids
    fine = t.is_subtree_leaf & ~is_root
    sections = {name: BitWriter() for name in SECTION_NAMES}

    # balanced parentheses: before node v opens, the v earlier nodes have
    # opened and all but its depth[v] ancestors have closed
    topology = np.zeros(2 * m, dtype=np.uint8)
    topology[2 * ids - t.depth] = 1
    sections["topology"].write_uint_array(topology, 1)

    long_, length = t.edge_long[1:], t.edge_len[1:]
    sections["long_edges"].write_uint_array(
        np.stack([long_, length], axis=1),
        np.stack([np.ones_like(length), np.where(long_, _gamma_width(length), 0)], axis=1))

    sections["centers"].write_uint_array(t.center, width_for_count(t.n))

    inn = t.ingress
    if np.any(inn < 0):
        raise ValueError("missing ingress annotation")
    if np.any((inn == ids) != is_root):
        raise ValueError("self-ingress not exactly at the subtree roots")
    tag = np.where(inn == ids, 0, np.where(inn == t.parent, 1, 2))
    leaf = np.where(tag == 2, t.leaf_row[inn], 0)
    if np.any(leaf < 0):
        raise ValueError("ingress target is not a subtree leaf")
    w_leaf = width_for_count(np.count_nonzero(t.is_subtree_leaf))
    sections["ingresses"].write_uint_array(
        np.stack([tag, leaf], axis=1),
        np.stack([np.full(m, 2), np.where(tag == 2, w_leaf, 0)], axis=1))

    g = t.g[~is_root]
    if np.any(g < 5):
        raise ValueError("missing precision annotation")
    sections["gammas"].write_uint_array(g, _gamma_width(g))

    _write_rows(sections["etas"], t.eta, eta_bound(dp, t.g), ~is_root)
    _write_rows(sections["leaf_etas"], t.eta_eps, eta_bound(dp, t.g, t.eps), fine)

    units = t.landmark_units.astype(np.int64)
    w_land = int(np.abs(units).max(initial=0)).bit_length() + 1  # signed, offset 2^(W-1)
    units += 1 << (w_land - 1)
    sections["landmarks"].write_uint_array(
        np.concatenate([[len(t.landmarks), w_land, t.K],
                        np.column_stack([t.landmarks, units]).ravel()]),
        np.concatenate([[64, 16, 16],
                        np.tile(np.r_[width_for_count(m), np.full(d, w_land)], len(units))]))

    if flags:
        if aug is None:
            raise ValueError("euclidean flag set but augmentations missing")
        n_leaf = np.count_nonzero(t.is_subtree_leaf)
        n_corner = np.count_nonzero(t.corner_row >= 0)
        shapes = [(n_leaf, d), (n_leaf, d), (n_corner, d), (n_corner, d)]
        if [mat.shape for mat in (aug.a1, aug.a2, aug.b1, aug.b2)] != shapes:
            raise ValueError("augmentation shape mismatch")
        corners = np.concatenate([aug.a1, aug.a2, aug.b1, aug.b2])
        bound = corner_bound(d)
        if np.abs(corners).max(initial=0) > bound:
            raise ValueError("corner outside the encodable ball")
        corners += bound
        sections["augmentations"].write_uint_array(corners, width_for_bound(bound))

    header = _HEADER.pack(
        MAGIC, VERSION, flags, t.n, d, _p_code(t.p),
        eps_num, EPS_EXPONENT, int(t.scale_exponent), int(t.phi_exponent))
    out = bytearray(header)
    for name in SECTION_NAMES:
        sec = sections[name]
        out += struct.pack("<Q", sec.bit_length)
        out += sec.getvalue()
    return SketchBits(bytes(out))


def _parse_header(data: bytes):
    if len(data) < _HEADER.size:
        raise DecodeError("truncated header")
    magic, version, flags, n, d, p_code, eps_num, eps_exp, scale_exp, phi_exp = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}")
    if eps_exp != EPS_EXPONENT or eps_num == 0:
        raise DecodeError(f"eps {eps_num}/2^{eps_exp} is not a dyadic in (0, 1)")
    eps = eps_num / float(1 << eps_exp)
    if phi_exp > MAX_EXPONENT:
        raise DecodeError(f"root level {phi_exp} above {MAX_EXPONENT}")
    if scale_exp > MAX_EXPONENT:
        raise DecodeError(f"scale 2^{scale_exp} overflows a double")
    return flags, n, d, _p_from_code(p_code), eps, scale_exp, phi_exp


def _read_sections(data: bytes):
    pos = _HEADER.size
    sections = {}
    for name in SECTION_NAMES:
        if pos + 8 > len(data):
            raise DecodeError(f"truncated stream before section {name}")
        (bit_len,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        nbytes = (bit_len + 7) // 8
        if pos + nbytes > len(data):
            raise DecodeError(f"truncated stream inside section {name}")
        sections[name] = (data[pos : pos + nbytes], bit_len)
        pos += nbytes
    if pos != len(data):
        raise DecodeError("trailing bytes after final section")
    return sections


def decode(sketch: SketchBits) -> RelativeLocationTree:
    """Reconstruct topology, levels, and all annotations (no raw points).

    Raises DecodeError unless the file describes one tree whose leaves hold
    each point once and whose ingress links stay inside their subtree and
    lead, without cycles, to its root: the structure every query relies on.
    """
    try:
        return _decode(sketch)
    except (EOFError, ValueError) as exc:
        raise DecodeError(f"corrupt stream: {exc}")


def _decode(sketch: SketchBits) -> RelativeLocationTree:
    data = sketch.data
    flags, n, d, p, header_eps, scale_exp, phi_exp = _parse_header(data)
    tree_eps = _tree_eps(flags, header_eps)
    secs = _read_sections(data)
    dp = norm_root(d, p)

    # topology: one balanced parenthesis word; a node's parent is the last
    # earlier node one level up
    r = BitReader(*secs["topology"])
    bits = r.read_uint_array(r.bit_length, 1)
    run = np.cumsum(2 * bits - 1)  # depth after each bit
    if not (len(run) and run[-1] == 0 and run[:-1].min(initial=1) > 0):
        raise DecodeError("topology is not one balanced tree")
    opens = np.flatnonzero(bits)
    m = len(opens)
    ids = np.arange(m)
    key = (run[opens] - 1) * m + ids  # depth-major
    by_key = np.argsort(key)
    parent = by_key[np.searchsorted(key[by_key], key - m) - 1]
    parent[0] = -1
    # each non-root stores d net coordinates and each subtree at least one
    # landmark of d coordinates, every coordinate in at least one bit
    if not 1 <= d or m * d > secs["etas"][1] + secs["landmarks"][1]:
        raise DecodeError(f"{m} nodes of dimension {d} do not fit the file")

    r = BitReader(*secs["long_edges"])
    edge_len = np.zeros(m, dtype=np.int64)
    for v in range(1, m):
        if r.read_bit():
            edge_len[v] = k = r.read_gamma()
            if not 2 <= k <= MAX_EXPONENT + 1:
                raise DecodeError(f"long edge with invalid length {k}")
    edge_long = edge_len > 0
    structure = tree_structure(parent, edge_long, edge_len, phi_exp)
    if structure["level"].min() < 0:
        raise DecodeError("level below 0")
    subtree_root, is_leaf = structure["subtree_root"], structure["is_subtree_leaf"]
    is_root = subtree_root == ids
    fine = is_leaf & ~is_root

    r = BitReader(*secs["centers"])
    center = r.read_uint_array(m, width_for_count(n))
    leaf_centers = center[np.bincount(parent[1:], minlength=m) == 0]
    if (len(leaf_centers) != n or center.max() >= n
            or not np.array_equal(np.sort(leaf_centers), np.arange(n))):
        raise DecodeError("leaf centers are not a permutation of the points")
    if np.any(center != center[first_leaves(parent)]):
        raise DecodeError("an internal center is not its first leaf's point")

    r = BitReader(*secs["ingresses"])
    leaf_nodes = np.flatnonzero(is_leaf)
    w_leaf = width_for_count(len(leaf_nodes))
    ingress = np.empty(m, dtype=np.int64)
    for v, par in enumerate(parent.tolist()):
        tag = r.read_uint(2)
        if tag == 2:
            k = r.read_uint(w_leaf)
            if k >= len(leaf_nodes):
                raise DecodeError(f"ingress leaf index {k} >= {len(leaf_nodes)}")
            ingress[v] = leaf_nodes[k]
        elif tag == 3:
            raise DecodeError("bad ingress tag 3")
        else:
            ingress[v] = par if tag else v
    if np.any((ingress == ids) != is_root):
        raise DecodeError("self-ingress not exactly at the subtree roots")
    if np.any(subtree_root[ingress] != subtree_root):
        raise DecodeError("ingress target outside its node's subtree")
    hops = ingress
    for _ in range(max(m - 1, 1).bit_length()):  # 2^k >= m hops
        hops = hops[hops]
    if np.any(hops != subtree_root):
        raise DecodeError("ingress links form a cycle")

    r = BitReader(*secs["gammas"])
    g = np.zeros(m, dtype=np.int64)
    codes = [r.read_gamma() for _ in range(m - np.count_nonzero(is_root))]
    if codes and not (5 <= min(codes) and max(codes) < 1 << 53):
        raise DecodeError("precision code outside [5, 2^53)")
    g[~is_root] = codes

    eta = _read_rows(BitReader(*secs["etas"]), (m, d), eta_bound(dp, g), ~is_root)
    eta_eps = _read_rows(BitReader(*secs["leaf_etas"]), (m, d), eta_bound(dp, g, tree_eps), fine)

    r = BitReader(*secs["landmarks"])
    n_land, w_land, K = r.read_uint(64), r.read_uint(16), r.read_uint(16)
    if not 1 <= w_land <= 63 or n_land > m:
        raise DecodeError(f"{n_land} landmarks of width {w_land}")
    body = r.read_uint_array((n_land, d + 1), np.r_[width_for_count(m), np.full(d, w_land)])
    landmarks = body[:, 0]
    if np.any(np.diff(landmarks) <= 0) or landmarks.max(initial=0) >= m:
        raise DecodeError("landmarks are not sorted node ids")
    landmark_units = (body[:, 1:] - (1 << (w_land - 1))).astype(np.float64)

    aug = None
    if flags & FLAG_EUCLIDEAN:
        r = BitReader(*secs["augmentations"])
        bound = corner_bound(d)
        n_corner = np.count_nonzero(structure["corner_row"] >= 0)
        mats = [r.read_uint_array((rows, d), width_for_bound(bound))
                for rows in (len(leaf_nodes), len(leaf_nodes), n_corner, n_corner)]
        for mat in mats:
            mat -= bound
        aug = Augmentations(*mats)

    return RelativeLocationTree(
        n=n, d=d, p=p, eps=tree_eps, header_eps=header_eps, scale_exponent=scale_exp,
        parent=parent, edge_long=edge_long, edge_len=edge_len,
        **structure, center=center, ingress=ingress, g=g, eta=eta, eta_eps=eta_eps,
        landmarks=landmarks, landmark_units=landmark_units, K=K, augmentations=aug,
    )


def size_report(sketch: SketchBits) -> dict:
    """Exact per-section bit counts: data_bits is the pre-padding payload,
    stored_bits includes the 64-bit length prefix and byte padding."""
    data = sketch.data
    _parse_header(data)
    secs = _read_sections(data)
    report = {
        "header": {"data_bits": _HEADER.size * 8, "stored_bits": _HEADER.size * 8},
        "sections": {},
    }
    total_data = _HEADER.size * 8
    total_stored = _HEADER.size * 8
    for name in SECTION_NAMES:
        payload, bit_len = secs[name]
        stored = 64 + 8 * len(payload)
        report["sections"][name] = {"data_bits": bit_len, "stored_bits": stored}
        total_data += bit_len
        total_stored += stored
    report["total_data_bits"] = total_data
    report["total_stored_bits"] = total_stored
    report["file_bytes"] = len(data)
    return report


def build_lp_sketch(ps: PointSet, eps: float) -> SketchBits:
    """Deterministic lp pipeline: build the tree and serialize it."""
    return encode(build_tree(ps, eps))
