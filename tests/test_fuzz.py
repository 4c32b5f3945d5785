"""Seeded fuzz of the blob readers: every bit flip, truncation or appended
byte of a binary or ordinal blob either decodes or raises MalformedStream.

An HST2 blob ends in a CRC-32 of the bits before it, which the reader checks
before it parses anything else. So every truncation, every appended byte and
every flip is rejected, and the tests assert that. To fuzz the parser behind
the CRC, the flips are also made ahead of the CRC and the CRC recomputed. Such
a flip may decode to a different tree (a codeword can turn into another one
of the same length), so only the exception type is checked there, and that
the navigation index of a binary blob answers as the tree the decoder
returns.
"""

import random

import pytest

from hypertree.bits import MalformedStream
from hypertree.hypercodec import (
    HsBlob, _payload_crc, hs_decode_binary, hs_decode_ordinal, hs_encode_binary,
    hs_encode_ordinal,
)
from hypertree.navigate import build_nav
from hypertree import sources as S
from reference import annotate, uniform_types

MUTATIONS_PER_BLOB = 200


def _flip(raw: bytes, bits) -> bytearray:
    out = bytearray(raw)
    for bit in bits:
        out[bit // 8] ^= 0x80 >> (bit % 8)
    return out


def _reseal(data: bytearray, crc_at: int) -> bytes:
    """``data`` with the 32 bits at payload bit ``crc_at`` set to the CRC of
    the payload bits before them, as the writer sets them."""
    payload = bytes(data[5:])
    shift = 8 * len(payload) - crc_at - 32
    value = int.from_bytes(payload, "big") & ~(0xFFFFFFFF << shift)
    value |= _payload_crc(payload, crc_at) << shift
    return bytes(data[:5]) + value.to_bytes(len(payload), "big")


def _mutations(rng: random.Random, raw: bytes, crc_at: int):
    """(kind, bytes): one to three distinct bit flips, a truncation, or 1-4
    appended bytes, in equal shares, and, after each flip, ("resealed",
    bytes): one to three flips of payload bits ahead of the CRC at payload
    bit ``crc_at``, with the CRC recomputed."""
    for i in range(MUTATIONS_PER_BLOB):
        kind = ("flip", "truncate", "append")[i % 3]
        if kind == "flip":
            yield kind, bytes(_flip(raw, rng.sample(range(8 * len(raw)), rng.randint(1, 3))))
            ahead = rng.sample(range(40, 40 + crc_at), rng.randint(1, 3))
            yield "resealed", _reseal(_flip(raw, ahead), crc_at)
        elif kind == "truncate":
            yield kind, raw[:rng.randrange(len(raw))]
        else:
            yield kind, raw + bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 4)))


def _check(decoders, kind: str, data: bytes) -> list:
    """What each decoder returns for ``data``; None where it raised
    MalformedStream."""
    out = []
    for decode in decoders:
        try:
            out.append(decode(HsBlob.from_bytes(data)))
        except MalformedStream:
            out.append(None)
            continue
        assert kind == "resealed", f"{decode.__name__} accepted a {kind} blob"
    return out


def _assert_index_matches(t, nav, rng: random.Random) -> None:
    """Every scalar query of ``nav`` on every node, and LCA on a few pairs,
    answers as the tree ``t``."""
    ann = annotate(t)
    par = [0] * (t.n + 1)
    for v in range(1, t.n + 1):
        par[t.left[v]] = par[t.right[v]] = v
    for v in range(1, t.n + 1):
        assert (nav.parent(v) or 0) == par[v]
        assert nav.subtree_size(v) == ann.subtree_size[v]
        assert nav.inorder_rank(v) == ann.inorder_rank[v]
        assert nav.inorder_select(ann.inorder_rank[v]) == v
    for _ in range(20):
        u, v = rng.randint(1, t.n), rng.randint(1, t.n)
        above = set()
        w = u
        while w:
            above.add(w)
            w = par[w]
        w = v
        while w not in above:
            w = par[w]
        assert nav.lca(u, v) == w


def test_fuzz_binary_blobs():
    rng = random.Random(20261019)
    pairs = random.Random(7)
    count = both = 0
    for _ in range(24):
        src = rng.choice([S.BstSource(), S.UniformSource(), S.AlmostPathSource(2),
                          uniform_types()])
        t = S.sample(src, rng.randint(1, 400), rng.getrandbits(32))
        blob = hs_encode_binary(t, rng.choice([None, 1, 2, 3, 6, 20]))
        for kind, data in _mutations(rng, blob.to_bytes(), len(blob) - 32):
            tree, nav = _check((hs_decode_binary, build_nav), kind, data)
            if tree is not None and nav is not None:
                _assert_index_matches(tree, nav, pairs)
                both += 1
            count += 1
    assert count >= 6400
    assert both > 0


def test_fuzz_ordinal_blobs():
    rng = random.Random(19102026)
    count = decoded = 0
    for _ in range(20):
        src = rng.choice([S.LrmSource(), S.CompositionSource()])
        t = S.sample(src, rng.randint(1, 300), rng.getrandbits(32))
        blob = hs_encode_ordinal(t, rng.choice([None, 2, 6]))
        for kind, data in _mutations(rng, blob.to_bytes(), len(blob) - 32):
            decoded += _check((hs_decode_ordinal,), kind, data) != [None]
            count += 1
    assert count >= 5300
    assert decoded > 0


def test_lrm_single_bit_flips_rejected():
    # every single-bit flip of a 200-node LRM blob; without the CRC, 79 of
    # them decoded to a different tree
    raw = hs_encode_ordinal(S.sample(S.LrmSource(), 200, 1)).to_bytes()
    for bit in range(8 * len(raw)):
        with pytest.raises(MalformedStream):
            hs_decode_ordinal(HsBlob.from_bytes(bytes(_flip(raw, [bit]))))


@pytest.mark.parametrize("encode, decode", [
    (hs_encode_binary, hs_decode_binary),
    (hs_encode_ordinal, hs_decode_ordinal),
])
def test_appended_zero_byte_names_last_part(encode, decode):
    src = S.BstSource() if encode is hs_encode_binary else S.LrmSource()
    raw = encode(S.sample(src, 300, 7)).to_bytes()
    with pytest.raises(MalformedStream) as info:
        decode(HsBlob.from_bytes(raw + b"\x00"))
    assert info.value.part == "crc"
    assert 8 * (len(raw) - 5) - 8 < info.value.bit_offset <= 8 * (len(raw) - 5)
