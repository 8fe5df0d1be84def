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

from .bits import BitReader, BitWriter, width_for_bound, width_for_count
from .metric import INF, PointSet, norm_root
from .tree import EPS_EXPONENT, Augmentations, RelativeLocationTree, build_tree

MAGIC = b"RLTS"
VERSION = 1
FLAG_EUCLIDEAN = 0x01
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
    """Malformed sketch: bad magic/version, truncation, or imbalance."""


@dataclass(eq=False)
class SketchBits:
    """A serialized sketch. `data` is the complete file content."""

    data: bytes

    @property
    def bit_length(self) -> int:
        return 8 * len(self.data)


def eta_bound(dp: float, g: int) -> int:
    """Coordinate bound for a coarse net element at precision 1/g."""
    return int(math.ceil(2.0 * dp * g))


def eta_eps_bound(dp: float, g: int, eps: float) -> int:
    """Coordinate bound for a fine net element at precision eps/g."""
    return int(math.ceil(2.0 * dp * g / eps))


def corner_bound(d: int) -> int:
    """Coordinate bound for randomized grid corners of in-ball displacements."""
    return int(math.ceil(math.sqrt(d))) + 1


def _p_code(p) -> int:
    return 0 if p == INF else int(p)


def _p_from_code(code: int):
    return INF if code == 0 else int(code)


def _tree_eps(flags: int, header_eps: float) -> float:
    return EUCLIDEAN_TREE_EPS if flags & FLAG_EUCLIDEAN else header_eps


def _subtree_leaf_nodes(t: RelativeLocationTree) -> np.ndarray:
    return np.flatnonzero(t.is_subtree_leaf)


def _encode_topology(t: RelativeLocationTree) -> BitWriter:
    w = BitWriter()
    bits = np.empty(2 * t.node_count, dtype=np.uint8)
    pos = 0
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            bits[pos] = 0
        else:
            bits[pos] = 1
            stack.append((node, True))
            for c in reversed(t.children[node]):
                stack.append((c, False))
        pos += 1
    w._chunks.append(bits)
    w.bit_length = pos
    return w


def encode(t: RelativeLocationTree, aug: Augmentations | None = None) -> SketchBits:
    """Serialize an annotated tree (plus optional Euclidean augmentations)."""
    m = t.node_count
    dp = norm_root(t.d, t.p)
    flags = FLAG_EUCLIDEAN if (t.flags_euclidean or aug is not None) else 0
    if flags and t.eps != EUCLIDEAN_TREE_EPS:
        raise ValueError("euclidean sketches require a tree built at eps = 1/2")
    tree_eps = t.eps

    header_eps = t.header_eps if t.header_eps is not None else t.eps
    eps_num = int(math.floor(header_eps * (1 << EPS_EXPONENT)))
    if not 0 < eps_num < (1 << 32):
        raise ValueError(f"eps {header_eps} not representable")

    subroot_mask = np.zeros(m, dtype=bool)
    subroot_mask[t.subtree_root] = True
    leaf_nodes = _subtree_leaf_nodes(t)
    leaf_index = {int(v): i for i, v in enumerate(leaf_nodes)}
    n_leaf = len(leaf_nodes)

    sections: dict[str, BitWriter] = {}

    sections["topology"] = _encode_topology(t)

    w = BitWriter()
    for v in range(1, m):
        w.write_bit(1 if t.edge_long[v] else 0)
        if t.edge_long[v]:
            w.write_gamma(int(t.edge_len[v]))
    sections["long_edges"] = w

    w = BitWriter()
    w.write_uint_array(t.center, width_for_count(t.n))
    sections["centers"] = w

    w = BitWriter()
    w_leaf = width_for_count(n_leaf)
    for v in range(m):
        inn = int(t.ingress[v])
        if inn < 0:
            raise ValueError(f"missing ingress annotation at node {v}")
        if inn == v:
            if not subroot_mask[v]:
                raise ValueError("self-ingress at a non-subtree-root node")
            w.write_uint(0, 2)
        elif inn == t.parent[v]:
            w.write_uint(1, 2)
        else:
            w.write_uint(2, 2)
            w.write_uint(leaf_index[inn], w_leaf)
    sections["ingresses"] = w

    w = BitWriter()
    for v in range(m):
        if subroot_mask[v]:
            continue
        if t.g[v] < 5:
            raise ValueError(f"missing precision annotation at node {v}")
        w.write_gamma(int(t.g[v]))
    sections["gammas"] = w

    w = BitWriter()
    for v in range(m):
        if subroot_mask[v]:
            continue
        if t.eta[v] is None:
            raise ValueError(f"missing net element at node {v}")
        bound = eta_bound(dp, int(t.g[v]))
        coords = t.eta[v]
        if np.abs(coords).max(initial=0) > bound:
            raise ValueError(f"net coordinate out of range at node {v}")
        w.write_uint_array(coords + bound, width_for_bound(bound))
    sections["etas"] = w

    w = BitWriter()
    for v in leaf_nodes:
        v = int(v)
        if subroot_mask[v]:
            continue
        if t.eta_eps[v] is None:
            raise ValueError(f"missing fine net element at node {v}")
        bound = eta_eps_bound(dp, int(t.g[v]), tree_eps)
        coords = t.eta_eps[v]
        if np.abs(coords).max(initial=0) > bound:
            raise ValueError(f"fine net coordinate out of range at node {v}")
        w.write_uint_array(coords + bound, width_for_bound(bound))
    sections["leaf_etas"] = w

    w = BitWriter()
    land_nodes = sorted(t.landmarks)
    maxabs = 0
    for v in land_nodes:
        vals = t.landmarks[v]
        if vals.size:
            maxabs = max(maxabs, int(np.abs(vals).max()))
    w_land = maxabs.bit_length() + 1  # signed, offset 2^(W-1)
    w.write_uint(len(land_nodes), 64)
    w.write_uint(w_land, 16)
    w.write_uint(int(t.K), 16)
    w_node = width_for_count(m)
    off = 1 << (w_land - 1)
    for v in land_nodes:
        w.write_uint(v, w_node)
        ints = t.landmarks[v].astype(np.int64)
        w.write_uint_array(ints + off, w_land)
    sections["landmarks"] = w

    w = BitWriter()
    if flags:
        if aug is None:
            raise ValueError("euclidean flag set but augmentations missing")
        bound = corner_bound(t.d)
        wa = width_for_bound(bound)
        for mat in (aug.a1, aug.a2):
            if mat.shape != (n_leaf, t.d):
                raise ValueError("augmentation shape mismatch")
            if mat.size and np.abs(mat).max() > bound:
                raise ValueError("corner outside the encodable ball")
            w.write_uint_array(mat.ravel() + bound, wa)
        b_expect = np.array(
            [v for v in leaf_nodes if t.subtree_root[v] != 0], dtype=np.int64)
        if not np.array_equal(np.sort(aug.b_nodes), b_expect):
            raise ValueError("long-edge corner node set mismatch")
        for mat in (aug.b1, aug.b2):
            if mat.shape != (len(b_expect), t.d):
                raise ValueError("augmentation shape mismatch")
            if mat.size and np.abs(mat).max() > bound:
                raise ValueError("corner outside the encodable ball")
            w.write_uint_array(mat.ravel() + bound, wa)
    sections["augmentations"] = w

    header = _HEADER.pack(
        MAGIC, VERSION, flags, t.n, t.d, _p_code(t.p),
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
    if phi_exp >= 1 << 63:
        raise DecodeError(f"root level {phi_exp} outside int64")
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
    """Reconstruct topology, levels, and all annotations (no raw points)."""
    try:
        return _decode(sketch)
    except EOFError as exc:
        raise DecodeError(f"truncated stream: {exc}")


def _decode(sketch: SketchBits) -> RelativeLocationTree:
    data = sketch.data
    flags, n, d, p, header_eps, scale_exp, phi_exp = _parse_header(data)
    tree_eps = _tree_eps(flags, header_eps)
    secs = _read_sections(data)
    dp = norm_root(d, p)

    # topology
    r = BitReader(*secs["topology"])
    parent: list[int] = []
    children: list[list[int]] = []
    stack: list[int] = []
    for _ in range(r.bit_length):
        if r.read_bit():
            nid = len(parent)
            parent.append(stack[-1] if stack else -1)
            children.append([])
            if stack:
                children[stack[-1]].append(nid)
            stack.append(nid)
        else:
            if not stack:
                raise DecodeError("unbalanced parentheses in topology")
            stack.pop()
    if stack or not parent:
        raise DecodeError("unbalanced parentheses in topology")
    m = len(parent)
    parent_a = np.array(parent, dtype=np.int64)

    # edges and levels
    r = BitReader(*secs["long_edges"])
    edge_long = np.zeros(m, dtype=bool)
    edge_len = np.zeros(m, dtype=np.int64)
    for v in range(1, m):
        if r.read_bit():
            edge_long[v] = True
            edge_len[v] = r.read_gamma()
            if edge_len[v] < 2:
                raise DecodeError(f"long edge with invalid length {edge_len[v]}")
    level = np.zeros(m, dtype=np.int64)
    level[0] = phi_exp
    for v in range(1, m):
        gap = int(edge_len[v]) - 1 if edge_long[v] else 1
        level[v] = level[parent_a[v]] - gap

    subtree_root = np.empty(m, dtype=np.int64)
    for v in range(m):
        if parent_a[v] < 0 or edge_long[v]:
            subtree_root[v] = v
        else:
            subtree_root[v] = subtree_root[parent_a[v]]
    subroot_mask = np.zeros(m, dtype=bool)
    subroot_mask[subtree_root] = True
    is_leaf_sub = np.array(
        [not any(not edge_long[c] for c in children[v]) for v in range(m)], dtype=bool)
    leaf_nodes = np.flatnonzero(is_leaf_sub)
    n_leaf = len(leaf_nodes)

    r = BitReader(*secs["centers"])
    center = r.read_uint_array(m, width_for_count(n))

    r = BitReader(*secs["ingresses"])
    ingress = np.empty(m, dtype=np.int64)
    w_leaf = width_for_count(n_leaf)
    for v in range(m):
        tag = r.read_uint(2)
        if tag == 0:
            ingress[v] = v
        elif tag == 1:
            ingress[v] = parent_a[v]
        elif tag == 2:
            k = r.read_uint(w_leaf)
            if k >= n_leaf:
                raise DecodeError(f"ingress leaf index {k} >= {n_leaf}")
            ingress[v] = leaf_nodes[k]
        else:
            raise DecodeError(f"bad ingress tag {tag}")

    r = BitReader(*secs["gammas"])
    g = np.zeros(m, dtype=np.int64)
    for v in range(m):
        if not subroot_mask[v]:
            g[v] = r.read_gamma()
            if g[v] < 5:
                raise DecodeError(f"invalid precision code {g[v]}")

    r = BitReader(*secs["etas"])
    eta: list[np.ndarray | None] = [None] * m
    for v in range(m):
        if subroot_mask[v]:
            continue
        bound = eta_bound(dp, int(g[v]))
        eta[v] = r.read_uint_array(d, width_for_bound(bound)) - bound

    r = BitReader(*secs["leaf_etas"])
    eta_eps: list[np.ndarray | None] = [None] * m
    for v in leaf_nodes:
        v = int(v)
        if subroot_mask[v]:
            continue
        bound = eta_eps_bound(dp, int(g[v]), tree_eps)
        eta_eps[v] = r.read_uint_array(d, width_for_bound(bound)) - bound

    r = BitReader(*secs["landmarks"])
    n_land = r.read_uint(64)
    w_land = r.read_uint(16)
    K = r.read_uint(16)
    if w_land < 1:
        raise DecodeError("landmark width 0")
    w_node = width_for_count(m)
    landmarks: dict[int, np.ndarray] = {}
    off = 1 << (w_land - 1)
    for _ in range(n_land):
        v = r.read_uint(w_node)
        landmarks[v] = (r.read_uint_array(d, w_land) - off).astype(np.float64)

    aug = None
    if flags & FLAG_EUCLIDEAN:
        r = BitReader(*secs["augmentations"])
        bound = corner_bound(d)
        wa = width_for_bound(bound)
        a1 = (r.read_uint_array(n_leaf * d, wa) - bound).reshape(n_leaf, d)
        a2 = (r.read_uint_array(n_leaf * d, wa) - bound).reshape(n_leaf, d)
        b_nodes = np.array([v for v in leaf_nodes if subtree_root[v] != 0], dtype=np.int64)
        nb = len(b_nodes)
        b1 = (r.read_uint_array(nb * d, wa) - bound).reshape(nb, d)
        b2 = (r.read_uint_array(nb * d, wa) - bound).reshape(nb, d)
        aug = Augmentations(a1=a1, a2=a2, b_nodes=b_nodes, b1=b1, b2=b2)

    return RelativeLocationTree(
        n=n, d=d, p=p, eps=tree_eps, scale_exponent=scale_exp, phi=None,
        phi_exponent=phi_exp, level=level, parent=parent_a, children=children,
        edge_long=edge_long, edge_len=edge_len, center=center, ingress=ingress,
        g=g, eta=eta, eta_eps=eta_eps, subtree_root=subtree_root,
        is_subtree_leaf=is_leaf_sub, landmarks=landmarks, K=K,
        flags_euclidean=bool(flags & FLAG_EUCLIDEAN), augmentations=aug,
        header_eps=header_eps,
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
