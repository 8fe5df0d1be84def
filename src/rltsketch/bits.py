"""MSB-first bit streams. An array of values is written and read with one
call at one width (0 to 64 bits per value); the codec writes and reads
nothing else. Both directions work in chunks of CHUNK values, so a stream is
never held whole as one byte per bit. A 1-bit chunk is one packbits of its
values when written and one unpackbits of its bytes when read. A wider
chunk is read residue by residue: value 8q + r of a run of width w that
starts at bit s sits at bit s + w*r + 8w*q, so the values of one residue r
(0 to 7) sit at one bit offset in bytes w apart, and each residue is one
strided load of 64-bit words shifted by a constant. BitReader.read_gamma
reads one Elias-gamma code (v written in 2*bitlen(v) - 1 bits).
"""
from __future__ import annotations

import math

import numpy as np

CHUNK = 1 << 16  # values per vectorized step: bounds the temporaries


class BitWriter:
    """Append-only MSB-first bit buffer, packed as it is written."""

    def __init__(self):
        self._packed: list[bytes] = []
        self._tail = np.zeros(0, dtype=np.uint8)  # the last bit_length % 8 bits
        self.bit_length = 0

    def write_uint_array(self, values, width: int):
        """Write each value in `width` bits (0 to 64), in row-major order."""
        if not 0 <= width <= 64:
            raise ValueError(f"width {width} outside 0..64")
        values = np.asarray(values).reshape(-1)
        for lo in range(0, len(values), CHUNK):
            v = values[lo:lo + CHUNK]
            if v.dtype.kind == "i" and v.min() < 0:
                raise ValueError("negative values cannot be written")
            if width < 64 and int(v.max()) >> width:
                raise ValueError(f"values do not fit in {width} bits")
            if not width:
                continue
            if width == 1:
                bits = v.astype(np.uint8)
            else:  # each value left-aligned in 64 bits
                left = v.astype(np.uint64) << np.uint64(64 - width)
                bits = np.unpackbits(left.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1,
                                     count=width).ravel()
            bits = np.concatenate([self._tail, bits])
            whole = len(bits) & ~7
            self._packed.append(np.packbits(bits[:whole]).tobytes())
            self._tail = bits[whole:]
        self.bit_length += width * len(values)

    def getvalue(self) -> bytes:
        return b"".join(self._packed) + np.packbits(self._tail).tobytes()


class BitReader:
    """MSB-first reader over a byte payload with a known bit length."""

    def __init__(self, payload: bytes, bit_length: int):
        # the payload's one copy, zero padded so 9-byte windows never run off
        self._data = b"".join((payload, bytes(9)))
        self._bytes = np.frombuffer(self._data, dtype=np.uint8)
        # the big-endian 64-bit word starting at every byte
        self._words = np.ndarray((len(self._data) - 8,), dtype=">u8", buffer=self._data,
                                 strides=(1,))
        self.bit_length = bit_length
        self.pos = 0

    def read_gamma(self) -> int:
        byte = self.pos >> 3
        bits = self._data[byte] & (0xFF >> (self.pos & 7))
        while not bits:  # a zero byte: eight more leading zeros
            byte += 1
            if 8 * byte >= self.bit_length:
                raise EOFError("truncated gamma code")
            bits = self._data[byte]
        zeros = 8 * byte + 8 - bits.bit_length() - self.pos
        return int(self.read_uint_array(1, 2 * zeros + 1)[0])

    def read_uint_array(self, shape, width: int, add: int = 0, out=None) -> np.ndarray:
        """Read an array of the given shape, each value in `width` bits (0 to
        64), in row-major order, plus `add`; at width > 0, into `out` if given
        (C-contiguous int64 of that shape). 64-bit values come back as their
        int64 bit pattern; the sum wraps as int64 does. A 1-bit chunk is one
        unpackbits of its bytes, converted to int64 with `add` added in the
        same step. Each residue of a wider chunk is one slice of stride
        `width` of the word view, shifted by its bit offset, and one of the
        byte view where offset + width > 64."""
        if not 0 <= width <= 64:
            raise ValueError(f"width {width} outside 0..64")
        size = math.prod(np.atleast_1d(shape).tolist())
        if width * size > self.bit_length - self.pos:
            raise EOFError("truncated bit stream")  # checked before allocating
        if not width:
            return np.full(shape, add, dtype=np.int64)
        out = np.empty(size, dtype=np.int64) if out is None else out.reshape(size)
        right = np.uint64(64 - width)
        for lo in range(0, size, CHUNK):
            hi = min(lo + CHUNK, size)
            if width == 1:
                byte, off = (self.pos + lo) >> 3, (self.pos + lo) & 7
                bits = np.unpackbits(self._bytes[byte:byte + ((off + hi - lo + 7) >> 3)])
                np.add(bits[off:off + hi - lo], np.int64(add), out=out[lo:hi])
                continue
            for r in range(lo, min(lo + 8, hi)):
                start = self.pos + width * r
                byte, off = start >> 3, start & 7
                stop = byte + width * ((hi - r + 7) >> 3)
                word = np.left_shift(self._words[byte:stop:width], np.uint64(off),
                                     dtype=np.uint64)
                if off + width > 64:  # the last bits are in a ninth byte
                    word |= self._bytes[byte + 8:stop + 8:width] >> (8 - off)
                np.right_shift(word, right, out=out[r:hi:8].view(np.uint64))
        if add and width > 1:
            out += add
        self.pos += width * size
        return out.reshape(shape)


def width_for_count(count: int) -> int:
    """ceil(log2 count) bits to index `count` values (0 when count <= 1)."""
    if count <= 1:
        return 0
    return int(count - 1).bit_length()
