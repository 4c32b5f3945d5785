"""Bit-exact primitives: bit buffers, MSB-first cursors, and Elias gamma."""

from __future__ import annotations


class MalformedStream(ValueError):
    """Raised when a decoder hits a truncated or invalid bit stream."""


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
            for ch in bits:
                if ch == "1" or ch == "(":
                    self.append_bit(1)
                elif ch == "0" or ch == ")":
                    self.append_bit(0)
                else:
                    raise ValueError(f"bad bit character {ch!r}")

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
        by = self._bytes
        while accbits >= 8:
            accbits -= 8
            by.append((acc >> accbits) & 0xFF)
        self._acc = acc & ((1 << accbits) - 1)
        self._accbits = accbits
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

    def to01(self) -> str:
        return "".join("1" if self.get(i) else "0" for i in range(self._len))

    def to_paren(self) -> str:
        return "".join("(" if self.get(i) else ")" for i in range(self._len))

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
    """MSB-first read cursor over a BitBuf."""

    __slots__ = ("buf", "pos", "_data", "_len")

    def __init__(self, buf: BitBuf, pos: int = 0):
        self.buf = buf
        self.pos = pos
        self._data = buf.to_bytes()
        self._len = len(buf)

    def at_end(self) -> bool:
        return self.pos >= self._len

    def read_bit(self) -> int:
        if self.pos >= self._len:
            raise MalformedStream("bit stream exhausted")
        byi, biti = divmod(self.pos, 8)
        self.pos += 1
        return (self._data[byi] >> (7 - biti)) & 1

    def read_bits(self, width: int) -> int:
        if self.pos + width > self._len:
            raise MalformedStream("bit stream exhausted")
        val = 0
        pos = self.pos
        data = self._data
        end = pos + width
        # head: finish the current byte
        while pos < end and pos % 8:
            val = (val << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        while end - pos >= 8:
            val = (val << 8) | data[pos >> 3]
            pos += 8
        while pos < end:
            val = (val << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        self.pos = end
        return val

    def read_remaining_int(self) -> tuple[int, int]:
        """Consume all remaining bits; return (value, nbits)."""
        n = self._len - self.pos
        return self.read_bits(n), n


def gamma_encode(n: int, out: BitBuf | None = None) -> BitBuf:
    """Elias gamma code of ``n >= 1``: floor(lg n) zeros then binary(n)."""
    if n < 1:
        raise ValueError("gamma code needs n >= 1 (callers encode n+1 for zero)")
    buf = out if out is not None else BitBuf()
    width = n.bit_length()
    buf.append_bits(0, width - 1)
    buf.append_bits(n, width)
    return buf


def gamma_decode(cur: BitCursor) -> int:
    """Inverse of gamma_encode; advances the cursor past the codeword."""
    zeros = 0
    while cur.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise MalformedStream("gamma codeword too long")
    if zeros == 0:
        return 1
    return (1 << zeros) | cur.read_bits(zeros)


def gamma_length(n: int) -> int:
    if n < 1:
        raise ValueError("gamma code needs n >= 1")
    return 2 * (n.bit_length() - 1) + 1
