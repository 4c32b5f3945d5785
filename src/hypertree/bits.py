"""Bit-exact primitives: an MSB-first bit buffer for writing, a cursor that
reads it by the word, and Elias gamma.

Writers append bits to a ``BitBuf``, or build a numpy array of 0s and 1s
and pack it once (``BitBuf.from_array``; ``to_array`` is the inverse).
Readers never walk a stream bit by bit: ``BitCursor`` takes each field from
an integer window of the payload bytes, reads a gamma code through the
``bit_length()`` of a window, and gives the window at every bit position of
a run as one numpy array. The word-RAM model of the source paper reads
Theta(lg n) bits per step in the same way.
"""

from __future__ import annotations

import numpy as np


class MalformedStream(ValueError):
    """Raised when a decoder hits a truncated or invalid bit stream.

    A blob reader sets ``part``, the blob part it was reading (header, crc,
    codebook, codewords), and ``bit_offset``, the payload bit at which it
    stood when it found the fault.
    """

    def __init__(self, msg: str, part: str | None = None,
                 bit_offset: int | None = None):
        super().__init__(msg)
        self.part = part
        self.bit_offset = bit_offset


_TO_DIGITS = str.maketrans("()", "10")
_TO_PARENS = str.maketrans("10", "()")
_DROP_DIGITS = str.maketrans("", "", "01")


class BitBuf:
    """Growable bit buffer, MSB-first within bytes.

    Bits beyond ``len`` are zero; the backing bytes are zero-padded.
    Builders are single-owner; a built value is treated as immutable.
    """

    __slots__ = ("_bytes", "_acc", "_accbits", "_len")

    def __init__(self, bits: str | None = None):
        self._bytes = bytearray()
        self._acc = 0          # pending high bits, < 8 of them
        self._accbits = 0
        self._len = 0
        if bits:
            digits = bits.translate(_TO_DIGITS)
            bad = digits.translate(_DROP_DIGITS)
            if bad:
                raise ValueError(f"bad bit character {bad[0]!r}")
            self.append_bits(int(digits, 2), len(digits))

    def __len__(self) -> int:
        return self._len

    def append_bit(self, b: int) -> None:
        self._acc = (self._acc << 1) | (b & 1)
        self._accbits += 1
        self._len += 1
        if self._accbits == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._accbits = 0

    def append_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant first."""
        if width < 0 or (width == 0 and value):
            raise ValueError("bad width")
        if value >> width:
            raise ValueError("value does not fit width")
        acc = (self._acc << width) | value
        accbits = self._accbits + width
        rest = accbits & 7
        self._bytes += (acc >> rest).to_bytes(accbits >> 3, "big")
        self._acc = acc & ((1 << rest) - 1)
        self._accbits = rest
        self._len += width

    def get(self, i: int) -> int:
        if not 0 <= i < self._len:
            raise IndexError(i)
        byi, biti = divmod(i, 8)
        if byi < len(self._bytes):
            return (self._bytes[byi] >> (7 - biti)) & 1
        # bit lives in the accumulator
        off = i - 8 * len(self._bytes)
        return (self._acc >> (self._accbits - 1 - off)) & 1

    def to_bytes(self) -> bytes:
        out = bytes(self._bytes)
        if self._accbits:
            out += bytes([self._acc << (8 - self._accbits)])
        return out

    def to_int(self) -> int:
        """The bits as one unsigned int, MSB first; inverse of ``from_int``."""
        return int.from_bytes(self.to_bytes(), "big") >> (-self._len % 8)

    def to_array(self) -> np.ndarray:
        """The bits as a uint8 array of 0s and 1s; inverse of ``from_array``."""
        return np.unpackbits(np.frombuffer(self.to_bytes(), np.uint8),
                             count=self._len)

    def to01(self) -> str:
        if not self._len:
            return ""
        return format(self.to_int(), f"0{self._len}b")

    def to_paren(self) -> str:
        return self.to01().translate(_TO_PARENS)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitBuf":
        if nbits > 8 * len(data):
            raise MalformedStream("byte payload shorter than bit length")
        buf = cls()
        buf._bytes = bytearray(data[: (nbits + 7) // 8])
        buf._len = nbits
        # normalize: move a ragged tail byte into the accumulator
        if nbits % 8:
            tail = buf._bytes.pop()
            buf._accbits = nbits % 8
            buf._acc = tail >> (8 - buf._accbits)
        return buf

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "BitBuf":
        """The ``nbits``-bit binary form of ``value``, MSB first."""
        return cls.from_bytes(
            (value << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big"), nbits)

    @classmethod
    def from_array(cls, bits: np.ndarray) -> "BitBuf":
        """A buffer holding an array of 0s and 1s, packed once."""
        return cls.from_bytes(np.packbits(bits).tobytes(), len(bits))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitBuf)
            and self._len == other._len
            and self.to_bytes() == other.to_bytes()
        )

    def __hash__(self):
        return hash((self._len, self.to_bytes()))

    def __repr__(self):
        if self._len <= 80:
            return f"BitBuf({self.to01()!r})"
        return f"BitBuf(<{self._len} bits>)"


class BitCursor:
    """MSB-first read cursor over a BitBuf that reads words, not bits.

    A field of up to 57 bits is one ``int.from_bytes`` of the 8 bytes that
    hold it, a shift and a mask; a wider one is one slice of the bytes.
    ``peek`` reads past the end as zeros and never moves; every read that
    moves the cursor checks the length first, so ``pos`` never passes it.
    """

    __slots__ = ("pos", "_data", "_len")

    def __init__(self, buf: BitBuf, pos: int = 0):
        self.pos = pos
        self._len = len(buf)
        # zero bytes past the end make every 8-byte window a whole slice
        self._data = buf.to_bytes() + bytes(8)

    def _field(self, pos: int, width: int) -> int:
        b = pos >> 3
        if width <= 57:
            word = int.from_bytes(self._data[b:b + 8], "big")
            return (word >> (64 - (pos & 7) - width)) & ((1 << width) - 1)
        e = (pos + width + 7) >> 3
        chunk = self._data[b:e]
        word = int.from_bytes(chunk, "big") << 8 * (e - b - len(chunk))
        return (word >> (8 * (e - b) - (pos & 7) - width)) & ((1 << width) - 1)

    def peek(self, width: int) -> int:
        """The next ``width`` bits as an int, zeros past the end."""
        return self._field(self.pos, width)

    def skip(self, width: int) -> None:
        """Move past ``width`` bits, usually ones already peeked."""
        if self.pos + width > self._len:
            raise MalformedStream("bit stream exhausted", bit_offset=self.pos)
        self.pos += width

    def read_bits(self, width: int) -> int:
        pos = self.pos
        self.skip(width)    # first: a width read from a bad stream may be huge
        return self._field(pos, width)

    def windows(self, width: int) -> np.ndarray:
        """The ``width``-bit field (``width`` <= 57) at every unread bit
        position, zeros past the end, as one uint64 array; the cursor does
        not move. Each is a shift and mask of the 64-bit word at its byte."""
        pos, count = self.pos, self._len - self.pos
        b, off = pos >> 3, pos & 7
        nbytes = ((pos + count + 7) >> 3) - b
        raw = np.frombuffer(self._data, np.uint8)
        words = np.zeros(nbytes, dtype=np.uint64)
        for j in range(8):
            words = (words << np.uint64(8)) | raw[b + j:b + j + nbytes]
        at = np.arange(off, off + count)
        shift = (64 - width - (at & 7)).astype(np.uint64)
        return (words[at >> 3] >> shift) & np.uint64((1 << width) - 1)

    def read_remaining_int(self) -> tuple[int, int]:
        """Consume all remaining bits; return (value, nbits)."""
        n = self._len - self.pos
        return self.read_bits(n), n

    def finish(self) -> None:
        """Check that what is left is the writer's byte padding: at most 7
        bits, all zero."""
        rest = self._len - self.pos
        if rest > 7 or self.peek(rest):
            raise MalformedStream("trailing data after the last field",
                                  bit_offset=self.pos)


def gamma_encode(n: int) -> BitBuf:
    """Elias gamma code of ``n >= 1``: floor(lg n) zeros then binary(n)."""
    if n < 1:
        raise ValueError("gamma code needs n >= 1 (callers encode n+1 for zero)")
    buf = BitBuf()
    width = n.bit_length()
    buf.append_bits(0, width - 1)
    buf.append_bits(n, width)
    return buf


def gamma_decode(cur: BitCursor) -> int:
    """Inverse of gamma_encode; advances the cursor past the codeword. The
    zeros are counted from the ``bit_length()`` of one window, and the
    codeword read as one field: its value is n, as its z leading bits are
    the zeros."""
    zeros = 65 - cur.peek(65).bit_length()
    if zeros > 64:
        raise MalformedStream("gamma codeword too long", bit_offset=cur.pos)
    return cur.read_bits(2 * zeros + 1)
