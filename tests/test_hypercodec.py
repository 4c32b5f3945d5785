import math
import random

import pytest

from conftest import flipped_bst_blob, random_bst
from hypertree.bits import BitBuf, MalformedStream
from hypertree.cover import decompose_binary
from hypertree.hypercodec import (
    HsBlob, build_shape_code, hs_decode_binary, hs_decode_ordinal,
    hs_encode_binary, hs_encode_ordinal, read_hst, restrict, space_report,
    write_hst,
)
from hypertree.trees import (
    bp_encode_binary, left_chain, ordinal_path, ordinal_star, single_node,
)
from hypertree import sources as S


def test_huffman_hand_example():
    sc = build_shape_code({"x": 2, "y": 1, "z": 1})
    assert sc.code_len["x"] == 1
    assert sc.code_len["y"] == 2 and sc.code_len["z"] == 2
    assert abs(sc.kraft_sum() - 1.0) < 1e-12


def test_huffman_singleton():
    sc = build_shape_code(["()"])
    assert sc.code_len["()"] == 1
    assert sc.codewords["()"] == (0, 1)


def test_huffman_balanced_when_all_distinct():
    for m in (2, 3, 5, 8, 21, 64):
        sc = build_shape_code({f"s{i:04d}": 1 for i in range(m)})
        lo, hi = math.floor(math.log2(m)), math.ceil(math.log2(m))
        assert all(lo <= l <= hi for l in sc.code_len.values())
        assert abs(sc.kraft_sum() - 1.0) < 1e-12


def test_huffman_optimal_vs_entropy(rng):
    # Kraft + within-one-bit-of-entropy on random frequency sets
    for _ in range(50):
        freq = {f"k{i}": rng.randint(1, 50) for i in range(rng.randint(2, 30))}
        sc = build_shape_code(freq)
        total = sum(freq.values())
        ent = sum(c * math.log2(total / c) for c in freq.values())
        bits = sc.total_bits(freq)
        assert ent - 1e-9 <= bits <= ent + total
        assert abs(sc.kraft_sum() - 1.0) < 1e-12


def test_restrict_arithmetic():
    # raw codeword longer than the cap: escape costs 1 + gamma(|s|+1) + 2|s|
    # (exponentially skewed frequencies force a deep Huffman leaf)
    shapes = {("()" * 10): 1}
    shapes.update({f"x{i:03d}": 2 ** i for i in range(1, 32)})
    sc = build_shape_code(shapes)
    bp10 = "()" * 10
    assert sc.code_len[bp10] > 2 * 10 + 2 * math.floor(math.log2(11))
    out = restrict(sc, bp10)
    assert len(out) == 1 + 7 + 20 == 28
    assert out.to01()[0] == "0"
    # short codeword passes through: 1 + |C|
    sc = build_shape_code({"()": 5, "(())()": 1})
    out = restrict(sc, "()")
    assert len(out) == 1 + sc.code_len["()"]
    # empty shape escapes to 0 gamma(1) = "01"
    sc1 = build_shape_code({"": 1})
    assert restrict(sc1, "").to01() == "01"


def test_restricted_length_bound(rng):
    shapes = {}
    for i in range(60):
        t = random_bst(rng, rng.randint(1, 9))
        shapes[bp_encode_binary(t).to_paren()] = rng.choice([1, 1, 1, 2 ** rng.randint(0, 20)])
    sc = build_shape_code(shapes)
    for s in shapes:
        size = len(s) // 2
        cap = min(sc.code_len[s], 2 * size + 2 * math.floor(math.log2(size + 1)) + 1) + 1
        assert len(restrict(sc, s)) <= cap


def test_binary_roundtrip_small_and_chains(rng):
    cases = [single_node(), left_chain(1000)]
    for _ in range(150):
        cases.append(random_bst(rng, rng.randint(1, 300)))
    for t in cases:
        for B in (None, 1, 3, 7):
            blob = hs_encode_binary(t, B)
            assert hs_decode_binary(blob) == t
            assert blob.parts["total"] == len(blob.bits)


def test_binary_roundtrip_sources(rng):
    for _ in range(60):
        src = rng.choice([S.BstSource(), S.UniformSource(), S.AlmostPathSource(2)])
        t = S.sample(src, rng.randint(1, 2000), rng.getrandbits(32))
        blob = hs_encode_binary(t)
        assert hs_decode_binary(blob) == t


def test_worst_case_left_path_budget():
    n = 100_000
    t = left_chain(n)
    blob = hs_encode_binary(t, max(1, math.ceil(math.log2(n) ** 2)))
    assert len(blob) <= 2 * n + 0.5 * n


def test_ordinal_roundtrips(rng):
    cases = [ordinal_star(1), ordinal_star(10_000), ordinal_path(512)]
    for _ in range(80):
        src = rng.choice([S.LrmSource(), S.CompositionSource()])
        cases.append(S.sample(src, rng.randint(1, 1500), rng.getrandbits(32)))
    for t in cases:
        for B in (None, 2, 6):
            blob = hs_encode_ordinal(t, B)
            assert hs_decode_ordinal(blob) == t


def test_blob_bytes_and_file(tmp_path, rng):
    t = random_bst(rng, 200)
    blob = hs_encode_binary(t)
    path = str(tmp_path / "t.hst")
    write_hst(path, blob)
    back = read_hst(path)
    assert back.kind == "binary"
    assert hs_decode_binary(back) == t
    raw = blob.to_bytes()
    assert raw[:4] == b"HST1" and raw[4] == 0
    with pytest.raises(MalformedStream):
        HsBlob.from_bytes(b"NOPE" + raw[4:])


def test_decode_rejects_garbage():
    with pytest.raises(MalformedStream):
        hs_decode_binary(HsBlob("binary", BitBuf("1110")))
    t = ordinal_star(50)
    blob = hs_encode_ordinal(t)
    with pytest.raises(MalformedStream):
        hs_decode_binary(blob)
    with pytest.raises(MalformedStream):
        hs_decode_binary(HsBlob.from_bytes(flipped_bst_blob()))


def test_space_report_consistency(rng):
    t = random_bst(rng, 3000)
    rep = space_report(t)
    blob = hs_encode_binary(t)
    assert rep["total"] == len(blob)
    parts = ["header", "topTierBP", "codebook", "codewords", "portals", "edgeTypes"]
    assert sum(rep[k] for k in parts) == rep["total"]
    t2 = ordinal_star(500)
    rep2 = space_report(t2)
    assert sum(rep2[k] for k in parts) == rep2["total"]
    assert rep2["edgeTypes"] > 0 and rep2["edgeTypes"] % 3 == 0


def test_space_report_single_micro(rng):
    t = random_bst(rng, 5)
    rep = space_report(t, 8)
    # one micro tree: the codeword part is a single restricted codeword
    sc = build_shape_code([bp_encode_binary(t).to_paren()])
    assert rep["codewords"] == len(restrict(sc, bp_encode_binary(t).to_paren()))


def test_length_restriction_sum(rng):
    # sum of restricted codewords <= sum of plain Huffman codewords + m
    for _ in range(30):
        t = random_bst(rng, rng.randint(50, 2000))
        cov = decompose_binary(t, rng.choice([None, 2, 4]))
        blob = hs_encode_binary(t, cover=cov)
        m = len(cov.micro)
        assert blob.parts["codewords"] <= blob.parts["huffman"] + m


def test_huffman_beats_dfs_competitor(rng):
    bst = S.BstSource()
    for _ in range(15):
        t = S.sample(bst, rng.randint(500, 5000), rng.getrandbits(32))
        cov = decompose_binary(t)
        blob = hs_encode_binary(t, cover=cov)
        comp = sum(S.dfs_code_length(bst, mt.shape) for mt in cov.micro)
        assert blob.parts["huffman"] <= comp + 1e-6
