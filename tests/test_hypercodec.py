import math
import random

import numpy as np
import pytest

from conftest import flipped_bst_blob, random_bst
from hypertree.bits import BitBuf, MalformedStream
from hypertree.cover import decompose_binary, decompose_ordinal
from hypertree import hypercodec
from hypertree.hypercodec import (
    HsBlob, build_shape_code, hs_decode_binary, hs_decode_ordinal,
    hs_encode_binary, hs_encode_ordinal, parse_binary_blob, read_hst, restrict,
    space_report, write_hst,
)
from hypertree.trees import (
    bp_encode_binary, bp_encode_ordinal, left_chain, ordinal_path, ordinal_star,
    single_node,
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


def _micro_bps(layout) -> list[str]:
    """Each micro tree's shape BP string, of a cover or a parsed blob."""
    return [layout.shape_bps[k] for k in layout.shape_id.tolist()]


def _assert_parsed_is_cover(parsed, cov):
    assert parsed.n == cov.n
    assert parsed.top_tier == cov.top_tier
    assert _micro_bps(parsed) == _micro_bps(cov)
    assert np.array_equal(parsed.fields, cov.fields)


def _escapes(cov) -> int:
    shapes = _micro_bps(cov)
    code = build_shape_code(shapes)
    return sum(1 for s in shapes if restrict(code, s).get(0) == 0)


def test_parse_matches_layout_every_binary_source(rng):
    # every binary source parse_source knows, at small and desk-scale blocks
    specs = ["bst", "uniform", "binomial", "almostpath:2", "fringebalanced:2",
             "avl-size", "avl-height", "llrb", "wb", "motzkin", "memoryless"]
    for spec in specs:
        src = S.parse_source(spec)
        assert src.kind == "binary"
        # the exact-size AVL-by-height sampler is slow beyond ~20 nodes
        sizes = (9, 16) if spec == "avl-height" else (40, 500)
        for n in sizes:
            t = S.sample(src, n, rng.getrandbits(32))
            for B in (1, 2, 3, 6, max(1, math.ceil(math.log2(n) ** 2))):
                cov = decompose_binary(t, B)
                _assert_parsed_is_cover(
                    parse_binary_blob(hs_encode_binary(t, cover=cov)), cov)
    # a blob with escaped micro trees
    t = S.sample(S.parse_source("binomial"), 1500, 3)
    cov = decompose_binary(t, 6)
    assert _escapes(cov) > 0
    _assert_parsed_is_cover(parse_binary_blob(hs_encode_binary(t, cover=cov)), cov)


def test_cover_stats_match_layout():
    # binary covers with and without escapes, then an ordinal cover
    escapes = []
    for t, B in ((S.sample(S.parse_source("binomial"), 1500, 3), 6),
                 (S.sample(S.UniformSource(), 700, 2), None)):
        cov = decompose_binary(t, B)
        shapes = _micro_bps(cov)
        stats = hypercodec.cover_stats(cov)
        assert stats == {"m": len(shapes), "distinctShapes": len(set(shapes)),
                         "meanMicroSize": t.n / len(shapes),
                         "escapes": _escapes(cov)}
        escapes.append(stats["escapes"])
    assert escapes[0] > 0
    cov = decompose_ordinal(S.sample(S.LrmSource(), 400, 4), 3)
    stats = hypercodec.cover_stats(cov)
    assert stats["m"] == len(cov.micro)
    assert stats["meanMicroSize"] == sum(mt.size for mt in cov.micro) / len(cov.micro)
    assert stats["distinctShapes"] == len(
        {bp_encode_ordinal(mt.shape).to01() for mt in cov.micro})


def test_parse_one_shape_codebook():
    t = left_chain(50)
    cov = decompose_binary(t, 1)
    assert set(_micro_bps(cov)) == {"()"}
    blob = hs_encode_binary(t, cover=cov)
    assert blob.parts["codewords"] == 2 * 50   # a set flag and the 1-bit codeword
    _assert_parsed_is_cover(parse_binary_blob(blob), cov)
    assert hs_decode_binary(blob) == t


def test_parse_codewords_longer_than_a_window(monkeypatch):
    # A complete but maximally skewed code: lengths 1, 2, ..., k-1, k-1, the
    # longest for the smallest shape (escaped) and then the largest ones.
    def skewed(freq):
        order = sorted(freq, key=lambda s: (len(s), s))
        order = order[1:] + order[:1]
        return {s: min(i + 1, len(order) - 1) for i, s in enumerate(order)}

    monkeypatch.setattr(hypercodec, "_huffman_lengths", skewed)
    t = S.sample(S.UniformSource(), 3000, 11)
    cov = decompose_binary(t, 40)
    shapes = _micro_bps(cov)
    code = build_shape_code(shapes)
    assert code.max_len > 64
    assert any(code.code_len[s] > 64 and restrict(code, s).get(0) == 1
               for s in shapes)
    assert _escapes(cov) > 0
    blob = hs_encode_binary(t, cover=cov)
    _assert_parsed_is_cover(parse_binary_blob(blob), cov)
    assert hs_decode_binary(HsBlob.from_bytes(blob.to_bytes())) == t


def test_codebook_rejects_out_of_range_lengths():
    from hypertree.hypercodec import ShapeCode
    for lengths in ([("()", 0)], [("()", 2)], [("()", 1), ("(())", 2)]):
        with pytest.raises(MalformedStream):
            ShapeCode.from_lengths(lengths)
    assert ShapeCode.from_lengths([("(())", 1), ("()", 1)]).max_len == 1


def test_two_portals_at_one_null_rejected():
    # portal fields that name one null twice, or two nulls in the wrong
    # order: the index built from either would answer queries wrongly or
    # fail inside a query
    from hypertree.navigate import build_nav
    t = S.sample(S.BstSource(), 3000, 5)
    cov = decompose_binary(t)
    top = cov.top_tier
    i = next(i for i in range(top.n) if top.left[i + 1] and top.right[i + 1])
    same = cov.fields.copy()
    same[i, 1] = same[i, 0]
    t = S.sample(S.BstSource(), 300, 0)
    swap_cov = decompose_binary(t, 3)
    swapped = swap_cov.fields.copy()
    j = next(j for j in range(len(swapped)) if swapped[j, 1])
    swapped[j] = swapped[j, ::-1]
    for c, fields in ((cov, same), (swap_cov, swapped)):
        blob = hypercodec._write_blob(
            "binary", c.n, bp_encode_binary(c.top_tier).to_array(),
            c.shape_bps, c.shape_id, fields)
        for decode in (build_nav, hs_decode_binary):
            with pytest.raises(MalformedStream) as info:
                decode(blob)
            assert info.value.part == "portals"


# Binary blobs of every binary source at several block sizes, one large
# default-B tree and three RMQ blobs. The hash pins the byte format: it moves
# only with a deliberate format change.
PINNED_SOURCES = [("bst", 300), ("uniform", 300), ("binomial:0.5", 300),
                  ("almostpath:2", 300), ("fringebalanced:1", 301),
                  ("avl-size", 30), ("avl-height", 6), ("llrb", 20),
                  ("wb:2/7", 25), ("motzkin", 300),
                  ("memoryless:0.25,0.25,0.25,0.25", 300)]
PINNED_SHA256 = "31ef7b352fd1ccbe519c0240353bb8816df2e2b416f38111ed8df78dea937edd"


def test_binary_format_pinned():
    import hashlib
    import json
    from hypertree.rmq import rmq_build

    blobs = []
    for spec, size in PINNED_SOURCES:
        t = S.sample(S.parse_source(spec), size, S.derive_seed("pin", spec, size, 0))
        blobs += [hs_encode_binary(t, B) for B in (None, 1, 3, 6)]
    blobs.append(hs_encode_binary(S.sample(S.UniformSource(), 30000, 11)))
    rng = random.Random(8)
    for n in (1000, 5000):
        blobs.append(rmq_build(rng.sample(range(n), n)).blob)
    blobs.append(rmq_build([rng.randint(0, 50) for _ in range(3000)]).blob)
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob.to_bytes())
        h.update(json.dumps(blob.parts, sort_keys=True).encode())
    assert h.hexdigest() == PINNED_SHA256
