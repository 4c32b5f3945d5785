import random

import pytest

from hypertree.bits import (
    BitBuf, BitCursor, MalformedStream, gamma_decode, gamma_encode,
)


def test_gamma_examples():
    assert gamma_encode(1).to01() == "1"
    assert gamma_encode(2).to01() == "010"
    assert gamma_encode(5).to01() == "00101"
    assert gamma_decode(BitCursor(BitBuf("1"))) == 1
    assert gamma_decode(BitCursor(BitBuf("010"))) == 2
    cur = BitCursor(BitBuf("00101" + "111"))
    assert gamma_decode(cur) == 5
    assert cur.pos == 5


def test_gamma_rejects_zero():
    with pytest.raises(ValueError):
        gamma_encode(0)


def test_gamma_length_exact():
    import math
    for n in [1, 2, 3, 7, 8, 100, 2**20, 2**20 + 1]:
        assert len(gamma_encode(n)) == 2 * math.floor(math.log2(n)) + 1


def test_gamma_roundtrip_exhaustive_small():
    for n in range(1, 2**16 + 1):
        buf = gamma_encode(n)
        assert gamma_decode(BitCursor(buf)) == n


def test_gamma_roundtrip_random_large(rng):
    for _ in range(2000):
        n = rng.randint(1, 2**40)
        buf = gamma_encode(n)
        cur = BitCursor(buf)
        assert gamma_decode(cur) == n
        assert cur.pos == len(buf)


def test_gamma_truncated_stream():
    buf = BitBuf("0010")  # gamma(5) cut short
    with pytest.raises(MalformedStream):
        gamma_decode(BitCursor(buf))


def test_bitbuf_basics():
    b = BitBuf()
    b.append_bits(0b1011, 4)
    b.append_bit(1)
    assert b.to01() == "10111"
    assert [b.get(i) for i in range(5)] == [1, 0, 1, 1, 1]
    c = BitBuf("10111")
    assert b == c and hash(b) == hash(c)
    r = BitCursor(b)
    assert r.read_bits(5) == 0b10111
    b2 = BitBuf.from_bytes(b.to_bytes(), 5)
    assert b2 == b


def test_bitbuf_text_helpers_match_get():
    rng = random.Random(5)
    for length in range(21):
        for _ in range(8):
            digits = "".join(rng.choice("01") for _ in range(length))
            parens = digits.replace("1", "(").replace("0", ")")
            for text in (digits, parens):
                buf = BitBuf(text)
                assert len(buf) == length
                assert [buf.get(i) for i in range(length)] == [int(c) for c in digits]
                assert buf.to01() == digits
                assert buf.to_paren() == parens
    for bad in ["2", "10x", "(a)", " 1", "1_0", "0b1", "+1", "1 "]:
        with pytest.raises(ValueError, match="bad bit character"):
            BitBuf(bad)


def test_cursor_windows_match_peek(rng):
    # every start bit within a byte, every width up to 57, zeros past the end
    for nbits in (1, 7, 8, 9, 64, 131):
        buf = BitBuf.from_int(rng.getrandbits(nbits), nbits)
        for pos in range(min(nbits, 9)):
            for width in (1, 3, 16, 57):
                cur = BitCursor(buf, pos)
                got = cur.windows(width).tolist()
                assert got == [BitCursor(buf, p).peek(width) for p in range(pos, nbits)]
                assert cur.pos == pos
