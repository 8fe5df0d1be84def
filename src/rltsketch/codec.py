"""Bit-exact sketch serialization, format v2.

A file is a 54-byte header and its CRC-32, then nine byte-aligned sections
in SECTION_NAMES order. A section is its payload's 64-bit bit length, the
CRC-32 of the payload (pad bits read as zero) and the payload, a run of
fields. It holds only what the decoder cannot derive: internal centers,
ingress tags, the subtree roots' landmarks, long-edge flags, the Euclidean
flavor's fine etas and the zero long-edge corner rows are all derived.

FIELDS lists every field in the order decode reads it. A field states its
count, derived from the header and the fields before it, and its code:
either a fixed width derived the same way, or a range code, whose header
holds the values' min (64-bit two's complement) and width (6 bits) and
whose values follow as value - min in width bits; a field with no values
stores nothing. encode, decode and size_report all walk FIELDS, and each
field is one array read. The README's Format section gives the layout field
by field.
"""
from __future__ import annotations

import dataclasses
import math
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .bits import BitReader, BitWriter, width_for_count
from .metric import INF, PointSet
from .tree import (EPS_EXPONENT, Augmentations, RelativeLocationTree, build_tree, check_finite,
                   first_leaves, later_children, leaves, tree_structure)

MAGIC = b"RLTS"
VERSION = 2
FLAG_EUCLIDEAN = 0x01
# largest binary exponent of a finite double: bounds levels and the scale
MAX_EXPONENT = 1023
# coordinates (nodes x d) a file may describe beyond 64 per stored bit: a
# field of equal values takes no bits, so a small file could ask for any
# number of them
FREE_CELLS = 1 << 20

_HEADER = struct.Struct("<4sBBQQQIIqQ")
_CRC = struct.Struct("<I")
_FRAME = struct.Struct("<QI")  # a section's bit length and CRC-32

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
    """Malformed sketch: a bad header or checksum, truncation, or a tree that
    queries cannot use."""


@dataclass(eq=False)
class SketchBits:
    """A serialized sketch. `data` is the complete file content."""

    data: bytes


def _p_code(p) -> int:
    return 0 if p == INF else int(p)


def _p_from_code(code: int):
    return INF if code == 0 else int(code)


def _crc(payload: bytes, bit_len: int) -> int:
    """CRC-32 of a payload, its pad bits (after bit_len) read as zero: the
    CRC of all but the last byte, continued over the masked last byte."""
    view = memoryview(payload)
    pad = -bit_len % 8
    if not (pad and len(view)):
        return zlib.crc32(view)
    return zlib.crc32(bytes([view[-1] & (0xFF << pad) & 0xFF]), zlib.crc32(view[:-1]))


def _floor_eps(e: np.ndarray, num: int) -> np.ndarray:
    """floor(e * num / 2^32) of each int64 e, exactly (num < 2^32): the
    high and low 32 bits of e times num, the low product in uint64."""
    low = (e & 0xFFFFFFFF).astype(np.uint64) * np.uint64(num) >> np.uint64(32)
    return (e >> 32) * num + low.astype(np.int64)


class _Fields:
    """The header's values, each field's values (by "section.field") as
    encode writes or decode reads them, and what the tree derives from them,
    each derived once, when a count or the tree first needs it. Derivations
    raise DecodeError on values no tree can hold."""

    def __init__(self, euclidean: bool, n: int, d: int, p, eps_num: int, scale_exp: int,
                 phi_exp: int, file_bits: float):
        self.euclidean = euclidean
        self.n, self.d, self.p, self.eps_num = n, d, p, eps_num
        self.scale_exp, self.phi_exp, self.file_bits = scale_exp, phi_exp, file_bits
        self.values: dict[str, np.ndarray] = {}

    def count(self, key: str) -> int:
        return int(self.values[key][0])

    # -- shape ---------------------------------------------------------------

    @cached_property
    def parent(self) -> np.ndarray:
        """From the balanced parentheses: a node's parent is the last
        earlier node one level up."""
        bits = self.values["topology.parens"]
        run = np.cumsum(2 * bits - 1)  # depth after each bit
        if not (len(run) and run[-1] == 0 and run[:-1].min(initial=1) > 0):
            raise DecodeError("topology is not one balanced tree")
        opens = np.flatnonzero(bits)
        m = len(opens)
        if m * self.d > FREE_CELLS + 64 * self.file_bits:
            raise DecodeError(f"{m} nodes of dimension {self.d} do not fit the file")
        ids = np.arange(m)
        key = (run[opens] - 1) * m + ids  # depth-major
        by_key = np.argsort(key)
        parent = by_key[np.searchsorted(key[by_key], key - m) - 1]
        parent[0] = -1
        return parent

    @property
    def m(self) -> int:
        return len(self.parent)

    @cached_property
    def shape(self) -> dict:
        """The long-edge lengths, edge_len, and every field tree_structure
        derives from them."""
        nodes, lengths = self.values["long_edges.nodes"], self.values["long_edges.lengths"]
        if np.any(np.diff(nodes) <= 0) or np.any((nodes < 1) | (nodes >= self.m)):
            raise DecodeError("long-edge nodes are not ascending non-root ids")
        if np.any((lengths < 2) | (lengths > MAX_EXPONENT + 1)):
            raise DecodeError("long edge with invalid length")
        edge_len = np.zeros(self.m, dtype=np.int64)
        edge_len[nodes] = lengths
        shape = tree_structure(self.parent, edge_len, self.phi_exp)
        if shape["level"].min() < 0:
            raise DecodeError("level below 0")
        return dict(edge_len=edge_len, **shape)

    @cached_property
    def is_root(self) -> np.ndarray:
        return self.shape["subtree_root"] == np.arange(self.m)

    @cached_property
    def non_root(self) -> np.ndarray:
        return np.flatnonzero(~self.is_root)

    @cached_property
    def fine(self) -> np.ndarray:
        """Rows with fine etas: the non-root subtree leaves, lp flavor only."""
        return np.flatnonzero(self.shape["is_subtree_leaf"] & ~self.is_root & (not self.euclidean))

    @cached_property
    def coarse(self) -> np.ndarray:
        """Rows whose coarse etas are stored as they are: the other non-roots."""
        return np.setdiff1d(self.non_root, self.fine)

    @cached_property
    def leaves(self) -> np.ndarray:
        leaf = leaves(self.parent)
        if len(leaf) != self.n:
            raise DecodeError(f"{len(leaf)} leaves for {self.n} points")
        return leaf

    @cached_property
    def later_children(self) -> np.ndarray:
        return later_children(self.parent, self.shape["subtree_root"])

    @cached_property
    def stored_corners(self) -> np.ndarray:
        """Long-edge corner rows stored: all but each subtree's first one,
        whose leaf holds the subtree's center, so its displacement is 0."""
        corners = np.flatnonzero(self.shape["corner_row"] >= 0)
        _, first = np.unique(self.shape["subtree_root"][corners], return_index=True)
        return np.delete(np.arange(len(corners)), first)

    # -- annotations ---------------------------------------------------------

    def center(self) -> np.ndarray:
        leaf_centers = self.values["centers.leaf_centers"]
        if not np.array_equal(np.sort(leaf_centers), np.arange(self.n)):
            raise DecodeError("leaf centers are not a permutation of the points")
        center = np.empty(self.m, dtype=np.int64)
        center[self.leaves] = leaf_centers
        return center[first_leaves(self.parent)]

    def ingress(self) -> np.ndarray:
        """Roots point to themselves, first short children to their parent,
        the other short children to a stored subtree leaf. check_finite
        rejects cycles."""
        subtree_root = self.shape["subtree_root"]
        leaf_nodes = np.flatnonzero(self.shape["is_subtree_leaf"])
        k = self.values["ingresses.leaf_index"]
        if k.max(initial=0) >= len(leaf_nodes):
            raise DecodeError(f"ingress leaf index {k.max()} >= {len(leaf_nodes)}")
        ingress = self.parent.copy()
        ingress[self.is_root] = np.flatnonzero(self.is_root)
        ingress[self.later_children] = leaf_nodes[k]
        if np.any(subtree_root[ingress] != subtree_root):
            raise DecodeError("ingress target outside its node's subtree")
        return ingress

    def g(self) -> np.ndarray:
        g = np.zeros(self.m, dtype=np.int64)
        g[self.non_root] = codes = self.values["gammas.g"]
        if codes.size and not (5 <= codes.min() and codes.max() < 1 << 53):
            raise DecodeError("precision code outside [5, 2^53)")
        return g

    @cached_property
    def eta_eps(self) -> np.ndarray:
        eta_eps = np.zeros((self.m, self.d), dtype=np.int64)
        eta_eps[self.fine] = self.values["leaf_etas.fine"]
        return eta_eps

    @cached_property
    def eta_rows(self) -> np.ndarray:
        """The eta matrix; decode reads the coarse etas into its last rows."""
        return np.empty((self.m, self.d), dtype=np.int64)

    def eta(self) -> np.ndarray:
        """Coarse etas, moved from the last rows to their own where those
        differ; at fine rows, the residual plus floor(eta_eps * eps); zero at
        subtree roots."""
        eta, tail = self.eta_rows, slice(self.m - len(self.coarse), None)
        eta[tail] = self.values["etas.coarse"]  # no copy where decode read them
        if len(self.coarse) and self.coarse[0] != tail.start:
            eta[self.coarse] = eta[tail].copy()
        eta[self.is_root] = 0
        eta[self.fine] = self.values["etas.residual"] + _floor_eps(self.eta_eps[self.fine],
                                                                   self.eps_num)
        return eta

    def landmarks(self) -> tuple[np.ndarray, np.ndarray]:
        """Every subtree root (units zero) and the stored other landmarks."""
        nodes = self.values["landmarks.nodes"]
        if np.any(np.diff(nodes) <= 0) or np.any(nodes >= self.m) or self.is_root[nodes].any():
            raise DecodeError("landmarks are not ascending ids of non-root nodes")
        landmarks = np.union1d(np.flatnonzero(self.is_root), nodes)
        units = np.zeros((len(landmarks), self.d))
        units[np.searchsorted(landmarks, nodes)] = self.values["landmarks.units"]
        return landmarks, units

    def augmentations(self) -> Augmentations | None:
        if not self.euclidean:
            return None
        a1, a2 = self.values["augmentations.a1"], self.values["augmentations.a2"]
        b1, b2 = (np.zeros((np.count_nonzero(self.shape["corner_row"] >= 0), self.d),
                           dtype=np.int64) for _ in range(2))
        b1[self.stored_corners] = self.values["augmentations.b1"]
        b2[self.stored_corners] = self.values["augmentations.b2"]
        return Augmentations(a1, a2, b1, b2)

    def tree(self) -> RelativeLocationTree:
        landmarks, landmark_units = self.landmarks()
        return RelativeLocationTree(
            n=self.n, d=self.d, p=self.p, eps=self.eps_num / float(1 << EPS_EXPONENT),
            scale_exponent=self.scale_exp,
            parent=self.parent, **self.shape, center=self.center(), ingress=self.ingress(),
            g=self.g(), eta=self.eta(), eta_eps=self.eta_eps, landmarks=landmarks,
            landmark_units=landmark_units, K=self.count("landmarks.K"),
            augmentations=self.augmentations(),
        )


RANGE = None  # a field's code: value - min in the width its header gives


class Field(NamedTuple):
    section: str
    name: str
    count: Callable[[_Fields], int | tuple] | None  # None: the whole section
    width: Callable[[_Fields], int] | None  # fixed width, or RANGE
    take: Callable[[RelativeLocationTree, _Fields], np.ndarray]  # encode's values

    @property
    def key(self) -> str:
        return f"{self.section}.{self.name}"


def _node_width(f: _Fields) -> int:
    return width_for_count(f.m)


def _parens(t: RelativeLocationTree, f) -> np.ndarray:
    """Balanced parentheses: before node v opens, the v earlier nodes have
    opened and all but its depth[v] ancestors have closed."""
    ids = np.arange(t.node_count)
    parens = np.zeros(2 * t.node_count, dtype=np.int64)
    parens[2 * ids - t.depth] = 1
    return parens


def _stored_landmarks(t: RelativeLocationTree, f) -> np.ndarray:
    return ~f.is_root[t.landmarks]


def _corners(name: str) -> Field:
    """One copy of the surrogate corners (a1, a2: every subtree leaf) or of
    the long-edge corners (b1, b2: the stored rows), Euclidean flavor only."""
    def rows(f: _Fields) -> np.ndarray:
        if not f.euclidean:
            return np.zeros(0, dtype=np.int64)
        if name[0] == "a":
            return np.arange(np.count_nonzero(f.shape["is_subtree_leaf"]))
        return f.stored_corners

    return Field("augmentations", name, lambda f: (len(rows(f)), f.d), RANGE,
                 lambda t, f: getattr(t.augmentations, name)[rows(f)] if f.euclidean
                 else np.zeros((0, t.d)))


FIELDS = (
    Field("topology", "parens", None, lambda f: 1, _parens),
    Field("long_edges", "count", lambda f: 1, _node_width,
          lambda t, f: [np.count_nonzero(t.edge_long)]),
    Field("long_edges", "nodes", lambda f: f.count("long_edges.count"), _node_width,
          lambda t, f: np.flatnonzero(t.edge_long)),
    Field("long_edges", "lengths", lambda f: f.count("long_edges.count"), RANGE,
          lambda t, f: t.edge_len[t.edge_long]),
    Field("centers", "leaf_centers", lambda f: len(f.leaves), lambda f: width_for_count(f.n),
          lambda t, f: t.center[f.leaves]),
    Field("ingresses", "leaf_index", lambda f: len(f.later_children),
          lambda f: width_for_count(np.count_nonzero(f.shape["is_subtree_leaf"])),
          lambda t, f: t.leaf_row[t.ingress[f.later_children]]),
    Field("gammas", "g", lambda f: len(f.non_root), RANGE, lambda t, f: t.g[f.non_root]),
    Field("leaf_etas", "fine", lambda f: (len(f.fine), f.d), RANGE,
          lambda t, f: t.eta_eps[f.fine]),
    Field("etas", "coarse", lambda f: (len(f.coarse), f.d), RANGE,
          lambda t, f: t.eta[f.coarse]),
    Field("etas", "residual", lambda f: (len(f.fine), f.d), RANGE,
          lambda t, f: t.eta[f.fine] - _floor_eps(t.eta_eps[f.fine], f.eps_num)),
    Field("landmarks", "K", lambda f: 1, lambda f: 16, lambda t, f: [t.K]),
    Field("landmarks", "count", lambda f: 1, _node_width,
          lambda t, f: [np.count_nonzero(_stored_landmarks(t, f))]),
    Field("landmarks", "nodes", lambda f: f.count("landmarks.count"), _node_width,
          lambda t, f: t.landmarks[_stored_landmarks(t, f)]),
    Field("landmarks", "units", lambda f: (f.count("landmarks.count"), f.d), RANGE,
          lambda t, f: t.landmark_units[_stored_landmarks(t, f)].astype(np.int64)),
    *(_corners(name) for name in ("a1", "a2", "b1", "b2")),
)


def _shape(count) -> tuple:
    return count if isinstance(count, tuple) else (count,)


def _same(a, b) -> bool:
    """Equal arrays or values, field by field for dataclasses."""
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return all(_same(getattr(a, x.name), getattr(b, x.name)) for x in dataclasses.fields(a))
    return np.array_equal(a, b)


def _write_field(w: BitWriter, field: Field, values: np.ndarray, f: _Fields):
    if not values.size:
        return
    if field.width is RANGE:
        lo = int(values.min())
        width = (int(values.max()) - lo).bit_length()
        if width > 63:
            raise ValueError(f"{field.key} spans more than 2^63 values")
        w.write_uint_array(np.array([lo]).view(np.uint64), 64)
        w.write_uint_array([width], 6)
        values = values - lo
    else:
        width = field.width(f)
    w.write_uint_array(values, width)


def _read_field(r: BitReader, field: Field, f: _Fields, out=None) -> np.ndarray:
    shape = (r.bit_length,) if field.count is None else _shape(field.count(f))
    if not math.prod(shape):
        return np.zeros(shape, dtype=np.int64)
    if field.width is not RANGE:
        return r.read_uint_array(shape, field.width(f), out=out)
    lo, width = int(r.read_uint_array(1, 64)[0]), int(r.read_uint_array(1, 6)[0])
    if lo + (1 << width) > 1 << 63:
        raise DecodeError(f"{field.key}: range beyond int64")
    return r.read_uint_array(shape, width, lo, out=out)


def encode(t: RelativeLocationTree, aug: Augmentations | None = None) -> SketchBits:
    """Serialize an annotated tree (plus optional Euclidean augmentations).

    Raises ValueError for a tree the file cannot hold as it is: one whose
    derived fields (internal centers, ingress tags, subtree-root landmarks,
    zero corner rows, no fine etas on the Euclidean flavor) differ from what
    decode derives; OverflowError where check_finite raises it.
    """
    if aug is not None:
        t = dataclasses.replace(t, augmentations=aug)
    flags = FLAG_EUCLIDEAN if t.flags_euclidean else 0
    eps_num = int(math.floor(t.eps * (1 << EPS_EXPONENT)))
    if not 0 < eps_num < (1 << 32):
        raise ValueError(f"eps {t.eps} not representable")
    header = _HEADER.pack(MAGIC, VERSION, flags, t.n, t.d, _p_code(t.p), eps_num, EPS_EXPONENT,
                          int(t.scale_exponent), int(t.phi_exponent))

    f = _Fields(t.flags_euclidean, t.n, t.d, t.p, eps_num, int(t.scale_exponent),
                int(t.phi_exponent), math.inf)
    writers = {name: BitWriter() for name in SECTION_NAMES}
    try:
        for field in FIELDS:
            values = np.asarray(field.take(t, f), dtype=np.int64)
            if field.count is not None and values.shape != _shape(field.count(f)):
                raise ValueError(f"{field.key} holds {values.shape} values, not "
                                 f"{_shape(field.count(f))}")
            f.values[field.key] = values
            _write_field(writers[field.section], field, values, f)
        back = f.tree()
    except DecodeError as exc:
        raise ValueError(f"tree does not encode: {exc}")
    for field in dataclasses.fields(t):
        if not _same(getattr(t, field.name), getattr(back, field.name)):
            raise ValueError(f"{field.name} differs from the one decode derives")
    check_finite(t)

    out = bytearray(header + _CRC.pack(zlib.crc32(header)))
    for name in SECTION_NAMES:
        w = writers[name]
        payload = w.getvalue()
        out += _FRAME.pack(w.bit_length, _crc(payload, w.bit_length)) + payload
    if t.node_count * t.d > FREE_CELLS + 64 * 8 * len(out):
        raise ValueError(f"{t.node_count} nodes of dimension {t.d} need a larger file")
    return SketchBits(bytes(out))


class Header(NamedTuple):
    """A file's header, as read_header checks it."""

    euclidean: bool
    n: int
    d: int
    p: int | float  # INF for the max norm
    eps_num: int  # eps = eps_num / 2^EPS_EXPONENT
    scale_exp: int
    phi_exp: int  # the root's level


def read_header(data: bytes) -> Header:
    """The header of a file's bytes, checked: its CRC, magic, version, flags,
    p, d, eps and exponents. Raises DecodeError; reads no section."""
    if len(data) < _HEADER.size:
        raise DecodeError("truncated header")
    magic, version, flags, n, d, p_code, eps_num, eps_exp, scale_exp, phi_exp = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}")
    if len(data) < _HEADER.size + _CRC.size:
        raise DecodeError("truncated header")
    if _CRC.unpack_from(data, _HEADER.size)[0] != zlib.crc32(data[:_HEADER.size]):
        raise DecodeError("header CRC mismatch")
    if flags & ~FLAG_EUCLIDEAN:
        raise DecodeError(f"unknown flags {flags:#x}")
    if flags and p_code != 2:
        raise DecodeError("a euclidean sketch with p != 2")
    if not 1 <= d:
        raise DecodeError("dimension 0")
    if eps_exp != EPS_EXPONENT or eps_num == 0:
        raise DecodeError(f"eps {eps_num}/2^{eps_exp} is not a dyadic in (0, 1)")
    if phi_exp > MAX_EXPONENT:
        raise DecodeError(f"root level {phi_exp} above {MAX_EXPONENT}")
    if scale_exp > MAX_EXPONENT:
        raise DecodeError(f"scale 2^{scale_exp} overflows a double")
    return Header(bool(flags), n, d, _p_from_code(p_code), eps_num, scale_exp, phi_exp)


def _sections(data: bytes) -> dict[str, BitReader]:
    """A reader over each section's payload, its CRC checked; the reader
    holds the payload's only copy."""
    view = memoryview(data)
    pos = _HEADER.size + _CRC.size
    readers = {}
    for name in SECTION_NAMES:
        if pos + _FRAME.size > len(data):
            raise DecodeError(f"truncated stream before section {name}")
        bit_len, crc = _FRAME.unpack_from(data, pos)
        pos += _FRAME.size
        payload = view[pos:pos + (bit_len + 7) // 8]
        if 8 * len(payload) < bit_len:
            raise DecodeError(f"truncated stream inside section {name}")
        if _crc(payload, bit_len) != crc:
            raise DecodeError(f"section {name} CRC mismatch")
        readers[name] = BitReader(payload, bit_len)
        pos += len(payload)
    if pos != len(data):
        raise DecodeError("trailing bytes after final section")
    return readers


def _read(data: bytes) -> tuple[_Fields, dict]:
    """Walk FIELDS over a file once: the fields and the size report."""
    f = _Fields(*read_header(data), 8 * len(data))
    readers = _sections(data)
    bits = {}
    for field in FIELDS:
        r = readers[field.section]
        start = r.pos
        out = f.eta_rows[f.m - len(f.coarse):] if field.key == "etas.coarse" else None
        f.values[field.key] = _read_field(r, field, f, out)
        bits[field.key] = r.pos - start
    for name, r in readers.items():
        if r.pos != r.bit_length:
            raise DecodeError(f"{r.bit_length - r.pos} bits of section {name} unread")
    header = 8 * _HEADER.size
    report = {
        "header": {"data_bits": header, "stored_bits": header + 8 * _CRC.size},
        "sections": {},
    }
    for name, r in readers.items():
        report["sections"][name] = {
            "data_bits": r.bit_length,
            "stored_bits": 8 * _FRAME.size + 8 * ((r.bit_length + 7) // 8),
            "fields": {field.name: bits[field.key] for field in FIELDS if field.section == name},
        }
    sections = report["sections"].values()
    report["total_data_bits"] = header + sum(s["data_bits"] for s in sections)
    report["total_stored_bits"] = report["header"]["stored_bits"] + sum(
        s["stored_bits"] for s in sections)
    report["file_bytes"] = len(data)
    return f, report


def decode_with_report(sketch: SketchBits) -> tuple[RelativeLocationTree, dict]:
    """decode and size_report from one walk of the file."""
    try:
        f, report = _read(sketch.data)
        t = f.tree()
        check_finite(t)
        return t, report
    except (EOFError, ValueError, OverflowError) as exc:
        raise DecodeError(f"corrupt stream: {exc}")


def decode(sketch: SketchBits) -> RelativeLocationTree:
    """Reconstruct topology, levels, and all annotations (no raw points).

    Raises DecodeError unless both checksums hold and the file describes one
    tree whose leaves hold each point once, whose ingress links stay inside
    their subtree and lead, without cycles, to its root, and whose estimates
    are all finite: the structure every query relies on. check_finite checks
    the last two.
    """
    return decode_with_report(sketch)[0]


def size_report(sketch: SketchBits) -> dict:
    """Exact bit counts. Per section: data_bits is the payload before
    padding, stored_bits adds the 64-bit length, the 32-bit CRC and the
    padding, and fields gives each field's data_bits (its range header
    included). The header's stored_bits include its CRC."""
    try:
        return _read(sketch.data)[1]
    except (EOFError, ValueError) as exc:
        raise DecodeError(f"corrupt stream: {exc}")


def build_lp_sketch(ps: PointSet, eps: float) -> SketchBits:
    """Deterministic lp pipeline: build the tree and serialize it."""
    return encode(build_tree(ps, eps))
