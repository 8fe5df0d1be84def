"""MSB-first bit streams. An array of values is written and read with one
call at one width (0 to 64 bits per value); the codec writes and reads
nothing else. Both directions work in chunks of CHUNK values, so a stream is
never held whole as one byte per bit. BitReader.read_gamma reads one
Elias-gamma code (v written in 2*bitlen(v) - 1 bits).
"""
from __future__ import annotations

import math

import numpy as np

CHUNK = 1 << 16  # values per vectorized step: bounds the temporaries
_U8 = np.uint64(8)


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
            v = v.astype(np.uint64)
            if width < 64 and np.any(v >> np.uint64(width)):
                raise ValueError(f"values do not fit in {width} bits")
            if not width:
                continue
            left = v << np.uint64(64 - width)  # left-align each value in 64 bits
            bits = np.unpackbits(left.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1,
                                 count=width)
            bits = np.concatenate([self._tail, bits.ravel()])
            whole = len(bits) & ~7
            self._packed.append(np.packbits(bits[:whole]).tobytes())
            self._tail = bits[whole:]
        self.bit_length += width * len(values)

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

    def read_uint_array(self, shape, width: int) -> np.ndarray:
        """Read an array of the given shape, each value in `width` bits (0 to
        64), in row-major order. 64-bit values come back as their int64 bit
        pattern."""
        if not 0 <= width <= 64:
            raise ValueError(f"width {width} outside 0..64")
        size = math.prod(np.atleast_1d(shape).tolist())
        if width * size > self.bit_length - self.pos:
            raise EOFError("truncated bit stream")  # checked before allocating
        out = np.zeros(size, dtype=np.int64)
        for lo in range(0, size if width else 0, CHUNK):  # zero width: zeros, no bits
            starts = self.pos + width * np.arange(lo, min(lo + CHUNK, size), dtype=np.int64)
            byte = starts >> 3
            off = (starts & 7).astype(np.uint64)
            word = self._words[byte].astype(np.uint64) << off
            if width > 57:  # value bits may reach into a ninth byte
                word |= self._bytes[byte + 8].astype(np.uint64) >> (_U8 - off)
            out[lo:lo + len(starts)] = (word >> np.uint64(64 - width)).view(np.int64)
        self.pos += width * size
        return out.reshape(shape)


def width_for_count(count: int) -> int:
    """ceil(log2 count) bits to index `count` values (0 when count <= 1)."""
    if count <= 1:
        return 0
    return int(count - 1).bit_length()
