"""MSB-first bit streams. Arrays of values are written and read with one
call, each value in its own width (0 to 64 bits); the codec writes and reads
nothing else. Both directions work in chunks of CHUNK values, so a stream is
never held whole as one byte per bit. BitReader also reads single values
(read_uint, read_bit, and read_gamma for an Elias-gamma code, v written in
2*bitlen(v) - 1 bits): a scalar reference reader for tests.
"""
from __future__ import annotations

import numpy as np

CHUNK = 1 << 16  # values per vectorized step: bounds the temporaries
_U8 = np.uint64(8)


def bit_length(values) -> np.ndarray:
    """Exact int.bit_length of each nonnegative int64 value."""
    v = np.asarray(values, dtype=np.int64)
    e = np.frexp(v.astype(np.float64))[1].astype(np.int64)  # exact or one too large
    return e - (((v >> np.maximum(e - 1, 0)) == 0) & (v > 0))


def _row_chunks(*arrays):
    """Broadcast the arrays to one shape, view it as rows, and yield
    flattened chunks of about CHUNK values (whole rows)."""
    arrays = np.broadcast_arrays(*(np.asarray(a) for a in arrays))
    rows = [a[:, None] if a.ndim == 1 else a for a in arrays]
    step = max(1, CHUNK // max(1, rows[0].shape[1]))
    for lo in range(0, len(rows[0]), step):
        yield [a[lo:lo + step].ravel() for a in rows]


class BitWriter:
    """Append-only MSB-first bit buffer, packed as it is written."""

    def __init__(self):
        self._packed: list[bytes] = []
        self._tail = np.zeros(0, dtype=np.uint8)  # the last bit_length % 8 bits
        self.bit_length = 0

    def write_uint_array(self, values, widths):
        """Write each value in its width; widths broadcast against values
        (at most 2-D), and the values go out in row-major order."""
        for v, w in _row_chunks(values, widths):
            w = w.astype(np.int64)
            if not w.size:
                continue
            if v.dtype.kind == "i" and v.min() < 0:
                raise ValueError("negative values cannot be written")
            v = v.astype(np.uint64)
            lo, hi = int(w.min()), int(w.max())
            if lo < 0 or hi > 64 or np.any(
                    ((v >> np.minimum(w, 63).astype(np.uint64)) != 0) & (w < 64)):
                raise ValueError(f"values do not fit in widths {lo}..{hi}")
            # left-align each value in 64 bits; a zero width holds 0 and no bits
            left = v << np.where(w > 0, 64 - w, 0).astype(np.uint64)
            bits = np.unpackbits(left.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1,
                                 count=hi)
            bits = bits.ravel() if lo == hi else bits[np.arange(hi) < w[:, None]]
            bits = np.concatenate([self._tail, bits])
            whole = len(bits) & ~7
            self._packed.append(np.packbits(bits[:whole]).tobytes())
            self._tail = bits[whole:]
            self.bit_length += int(w.sum())

    def getvalue(self) -> bytes:
        return b"".join(self._packed) + np.packbits(self._tail).tobytes()


class BitReader:
    """MSB-first reader over a byte payload with a known bit length."""

    def __init__(self, payload: bytes, bit_length: int):
        self._data = bytes(payload) + bytes(9)  # zero pad: 9-byte windows never run off
        self._bytes = np.frombuffer(self._data, dtype=np.uint8)
        # the big-endian 64-bit word starting at every byte
        self._words = np.ndarray((len(self._data) - 8,), dtype=">u8", buffer=self._data,
                                 strides=(1,))
        self.bit_length = bit_length
        self.pos = 0

    def read_uint(self, width: int) -> int:
        end = self.pos + width
        if end > self.bit_length:
            raise EOFError("truncated bit stream")
        first, last = self.pos >> 3, (end + 7) >> 3
        word = int.from_bytes(self._data[first:last], "big")
        self.pos = end
        return (word >> (8 * last - end)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_gamma(self) -> int:
        byte = self.pos >> 3
        bits = self._data[byte] & (0xFF >> (self.pos & 7))
        while not bits:  # a zero byte: eight more leading zeros
            byte += 1
            if 8 * byte >= self.bit_length:
                raise EOFError("truncated gamma code")
            bits = self._data[byte]
        zeros = 8 * byte + 8 - bits.bit_length() - self.pos
        return self.read_uint(2 * zeros + 1)

    def read_uint_array(self, shape, widths) -> np.ndarray:
        """Read an array of the given shape (at most 2-D), each value in its
        width; widths broadcast against shape. 64-bit values come back as
        their int64 bit pattern."""
        given = np.asarray(widths, dtype=np.int64)
        widths = np.broadcast_to(given, shape)
        if given.min(initial=1) > 0 and widths.size > self.bit_length - self.pos:
            raise EOFError("truncated bit stream")  # checked before allocating
        out = np.empty(widths.size, dtype=np.int64)
        done = 0
        for (w,) in _row_chunks(widths):
            if not w.size:
                continue
            lo, hi = int(w.min()), int(w.max())
            if lo < 0 or hi > 64:
                raise EOFError("unreasonable field width (corrupt stream)")
            ends = self.pos + np.cumsum(w)
            if ends[-1] > self.bit_length:
                raise EOFError("truncated bit stream")
            starts = ends - w
            byte = starts >> 3
            off = (starts & 7).astype(np.uint64)
            word = self._words[byte].astype(np.uint64) << off
            if hi > 57:  # value bits may reach into a ninth byte
                word |= self._bytes[byte + 8].astype(np.uint64) >> (_U8 - off)
            word >>= np.minimum(64 - w, 63).astype(np.uint64)
            if not lo:
                word[w == 0] = 0
            out[done:done + len(w)] = word.view(np.int64)
            done += len(w)
            self.pos = int(ends[-1])
        return out.reshape(shape)


def width_for_count(count: int) -> int:
    """ceil(log2 count) bits to index `count` values (0 when count <= 1)."""
    if count <= 1:
        return 0
    return int(count - 1).bit_length()
