"""Seeded fuzz of the blob readers: every bit flip, truncation or appended
byte of a binary or ordinal blob either decodes or raises MalformedStream,
and every blob with bytes appended is rejected.

A bit flip may decode to a different tree (the ordinal edge types and the
portal fields carry no redundancy), so only the exception type is checked,
and that the navigation index of a binary blob answers as the tree the
decoder returns.
"""

import random

import pytest

from hypertree.bits import MalformedStream
from hypertree.hypercodec import (
    HsBlob, hs_decode_binary, hs_decode_ordinal, hs_encode_binary, hs_encode_ordinal,
)
from hypertree.navigate import build_nav
from hypertree.trees import annotate
from hypertree import sources as S

MUTATIONS_PER_BLOB = 200


def _mutations(rng: random.Random, raw: bytes):
    """(kind, bytes): one to three bit flips, a truncation, or 1-4 appended
    bytes, in equal shares."""
    for i in range(MUTATIONS_PER_BLOB):
        kind = ("flip", "truncate", "append")[i % 3]
        if kind == "flip":
            out = bytearray(raw)
            for _ in range(rng.randint(1, 3)):
                bit = rng.randrange(8 * len(out))
                out[bit // 8] ^= 0x80 >> (bit % 8)
            yield kind, bytes(out)
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
        assert kind != "append", f"{decode.__name__} accepted appended bytes"
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
                          S.TypeProcess.uniform_types()])
        t = S.sample(src, rng.randint(1, 400), rng.getrandbits(32))
        raw = hs_encode_binary(t, rng.choice([None, 1, 2, 3, 6, 20])).to_bytes()
        for kind, data in _mutations(rng, raw):
            tree, nav = _check((hs_decode_binary, build_nav), kind, data)
            if tree is not None and nav is not None:
                _assert_index_matches(tree, nav, pairs)
                both += 1
            count += 1
    assert count >= 4800
    assert both > 0


def test_fuzz_ordinal_blobs():
    rng = random.Random(19102026)
    count = 0
    for _ in range(20):
        src = rng.choice([S.LrmSource(), S.CompositionSource()])
        t = S.sample(src, rng.randint(1, 300), rng.getrandbits(32))
        raw = hs_encode_ordinal(t, rng.choice([None, 2, 6])).to_bytes()
        for kind, data in _mutations(rng, raw):
            _check((hs_decode_ordinal,), kind, data)
            count += 1
    assert count >= 4000


@pytest.mark.parametrize("encode, decode, part", [
    (hs_encode_binary, hs_decode_binary, "portals"),
    (hs_encode_ordinal, hs_decode_ordinal, "edge types"),
])
def test_appended_zero_byte_names_last_part(encode, decode, part):
    src = S.BstSource() if encode is hs_encode_binary else S.LrmSource()
    raw = encode(S.sample(src, 300, 7)).to_bytes()
    with pytest.raises(MalformedStream) as info:
        decode(HsBlob.from_bytes(raw + b"\x00"))
    assert info.value.part == part
    assert 8 * (len(raw) - 5) - 8 < info.value.bit_offset <= 8 * (len(raw) - 5)
