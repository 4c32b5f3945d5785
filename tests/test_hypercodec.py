import heapq
import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import flipped_bst_blob, induced_shapes, random_bst, shuffled_uniform
from ordinal_cover import decompose_ordinal
from reference import kraft_sum, total_bits
from hypertree.bits import BitBuf, BitCursor, MalformedStream, gamma_decode
from hypertree.cover import decompose_binary
from hypertree import hypercodec
from hypertree.hypercodec import (
    HsBlob, build_shape_code, hs_decode_binary, hs_decode_ordinal,
    hs_encode_binary, hs_encode_ordinal, parse_binary_blob, read_hst,
    space_report, write_hst,
)
from hypertree.trees import (
    BinaryTree, bp_decode_binary, bp_encode_binary, bp_encode_ordinal, fcns, left_chain,
    ordinal_path, ordinal_star, single_node,
)
from hypertree import sources as S


def test_huffman_hand_example():
    sc = build_shape_code({"x": 2, "y": 1, "z": 1})
    assert sc.code_len["x"] == 1
    assert sc.code_len["y"] == 2 and sc.code_len["z"] == 2
    assert abs(kraft_sum(sc) - 1.0) < 1e-12


def test_huffman_singleton():
    sc = build_shape_code(["()"])
    assert sc.code_len["()"] == 1
    assert sc.codewords["()"] == (0, 1)


def test_huffman_balanced_when_all_distinct():
    for m in (2, 3, 5, 8, 21, 64):
        sc = build_shape_code({f"s{i:04d}": 1 for i in range(m)})
        lo, hi = math.floor(math.log2(m)), math.ceil(math.log2(m))
        assert all(lo <= l <= hi for l in sc.code_len.values())
        assert abs(kraft_sum(sc) - 1.0) < 1e-12


def test_huffman_optimal_vs_entropy(rng):
    # Kraft + within-one-bit-of-entropy on random frequency sets
    for _ in range(50):
        freq = {f"k{i}": rng.randint(1, 50) for i in range(rng.randint(2, 30))}
        sc = build_shape_code(freq)
        total = sum(freq.values())
        ent = sum(c * math.log2(total / c) for c in freq.values())
        bits = total_bits(sc, freq)
        assert ent - 1e-9 <= bits <= ent + total
        assert abs(kraft_sum(sc) - 1.0) < 1e-12


def _huffman_depth(weights) -> int:
    """The depth of an unrestricted Huffman code over ``weights``."""
    heap = [(w, 0) for w in weights]
    heapq.heapify(heap)
    depth = 0
    while len(heap) > 1:
        wa, da = heapq.heappop(heap)
        wb, db = heapq.heappop(heap)
        depth = max(da, db) + 1
        heapq.heappush(heap, (wa + wb, depth))
    return depth


def _package_merge_cost(weights, cap: int) -> int:
    """The cost of an optimal code with codewords of at most ``cap`` bits:
    package-merge over explicit packages of symbol multisets."""
    leaves = sorted((w, Counter({i: 1})) for i, w in enumerate(weights))
    level = list(leaves)
    for _ in range(cap - 1):
        pairs = [(level[j][0] + level[j + 1][0], level[j][1] + level[j + 1][1])
                 for j in range(0, len(level) - 1, 2)]
        level = sorted(leaves + pairs, key=lambda item: item[0])
    total = Counter()
    for _, members in level[:2 * len(weights) - 2]:
        total += members
    return sum(weights[i] * l for i, l in total.items())


def _assert_capped(freq: dict):
    """Every length is at most the cap L = max(16, ceil(lg k)), the Kraft
    sum is at most 1, and the code costs what an optimal code of lengths at
    most L costs; that is Huffman's cost where Huffman is no deeper."""
    sc = build_shape_code(freq)
    cap = max(16, math.ceil(math.log2(len(freq))))
    assert max(sc.code_len.values()) <= cap
    assert kraft_sum(sc) <= 1.0
    assert sc.huffman_bits <= total_bits(sc)
    if _huffman_depth(list(freq.values())) <= cap:
        assert total_bits(sc) == sc.huffman_bits
    elif len(freq) > 1:
        assert total_bits(sc) == _package_merge_cost(list(freq.values()), cap)
    return sc


def test_restrict_arithmetic():
    # exponentially skewed frequencies force Huffman 31 deep: the cap binds
    shapes = {("()" * 10): 1}
    shapes.update({f"x{i:03d}": 2 ** i for i in range(1, 32)})
    assert _huffman_depth(list(shapes.values())) == 31
    sc = _assert_capped(shapes)
    assert sc.code_len["()" * 10] == 16 and abs(kraft_sum(sc) - 1.0) < 1e-12
    assert total_bits(sc) > sc.huffman_bits
    # a short code passes through: Huffman's lengths, 1 bit each
    sc = _assert_capped({"()": 5, "(())()": 1})
    assert sc.code_len == {"()": 1, "(())()": 1}
    # one symbol gets a 1-bit codeword
    sc1 = _assert_capped({"": 1})
    assert sc1.codewords[""] == (0, 1)


def test_restricted_length_bound(rng):
    for _ in range(20):
        shapes = {}
        for i in range(60):
            t = random_bst(rng, rng.randint(1, 9))
            shapes[bp_encode_binary(t).to_paren()] = rng.choice(
                [1, 1, 1, 2 ** rng.randint(0, 20)])
        _assert_capped(shapes)
    # keys that are not strings: the same lengths as string keys
    freq = [rng.randint(1, 2 ** 20) for _ in range(40)]
    by_str = build_shape_code({f"s{i:02d}": f for i, f in enumerate(freq)})
    lengths = [by_str.code_len[f"s{i:02d}"] for i in range(40)]
    assert [build_shape_code(dict(enumerate(freq))).code_len[i] for i in range(40)] == lengths


def test_shape_code_int_and_tuple_keys():
    # internal nodes of the builder stay apart from the symbols
    by_str = build_shape_code({"a": 5, "b": 3, "c": 1})
    for freq in ({0: 5, 1: 3, 2: 1}, {(0, 1): 5, (1, 0): 3, (2, 2): 1}):
        sc = build_shape_code(freq)
        assert abs(kraft_sum(sc) - 1.0) < 1e-12
        assert list(sc.code_len.values()) == list(by_str.code_len.values()) == [1, 2, 2]


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
    assert raw[:4] == b"HST2" and raw[4] == 0
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


def test_ordinal_forest_blob_rejected():
    # the binary blob of a tree whose root has a right child codes a forest
    t = BinaryTree(3, [0, 2, 0, 0], [0, 3, 0, 0])
    for B in (None, 1, 3):
        blob = hs_encode_binary(t, B)
        with pytest.raises(MalformedStream) as info:
            hs_decode_ordinal(HsBlob("ordinal", blob.bits))
        assert info.value.part == "codewords"
        assert info.value.bit_offset == blob.parts["header"] + blob.parts["codebook"]
    # at B = 3 this forest's root is a micro tree of its own, and its
    # sibling hangs from that micro tree's second portal
    forest = [S.sample(S.LrmSource(), 300, 9), ordinal_star(40)]
    with pytest.raises(MalformedStream, match="forest"):
        hs_decode_ordinal(HsBlob("ordinal", hs_encode_binary(fcns(forest), 3).bits))


def test_old_ordinal_kind_byte_refused():
    # kind 0x01 was the ordinal layout with a written top tier and edge types
    raw = bytearray(hs_encode_ordinal(ordinal_star(20)).to_bytes())
    assert raw[4] == 0x02
    raw[4] = 0x01
    with pytest.raises(MalformedStream, match="unknown kind byte"):
        HsBlob.from_bytes(bytes(raw))


def test_space_report_consistency(rng):
    t = random_bst(rng, 3000)
    rep = space_report(t)
    blob = hs_encode_binary(t)
    assert rep["total"] == len(blob)
    parts = ["header", "topTierBP", "codebook", "codewords", "portals", "edgeTypes",
             "crc"]
    assert sum(rep[k] for k in parts) == rep["total"]
    assert rep["crc"] == 32
    t2 = ordinal_star(500)
    rep2 = space_report(t2)
    assert sum(rep2[k] for k in parts) == rep2["total"]
    # an ordinal blob is the binary blob of fcns(t), under another kind byte
    assert rep2 == space_report(fcns(t2))


def test_space_report_single_micro(rng):
    t = random_bst(rng, 5)
    rep = space_report(t, 8)
    # one micro tree, one symbol: the codeword part is its 1-bit codeword
    sc = _assert_capped(Counter(_symbols(decompose_binary(t, 8))))
    assert list(sc.code_len.values()) == [1]
    assert rep["codewords"] == rep["huffman"] == 1


def test_length_restriction_sum(rng):
    # the codewords cost what the blob's own symbols' capped code costs,
    # which is the Huffman total wherever the cap does not bind
    for _ in range(30):
        t = random_bst(rng, rng.randint(50, 2000))
        cov = decompose_binary(t, rng.choice([None, 2, 4]))
        blob = hs_encode_binary(t, cover=cov)
        freq = Counter(_symbols(cov))
        sc = _assert_capped(freq)
        assert blob.parts["codewords"] == total_bits(sc)
        assert blob.parts["huffman"] == sc.huffman_bits
        if _huffman_depth(list(freq.values())) <= 16:
            assert blob.parts["codewords"] == blob.parts["huffman"]


def test_huffman_beats_dfs_competitor(rng):
    # the shape-only code over the cover, as criterion 3 builds it
    bst = S.BstSource()
    for _ in range(15):
        t = S.sample(bst, rng.randint(500, 5000), rng.getrandbits(32))
        cov = decompose_binary(t)
        freq = np.bincount(cov.shape_id, minlength=len(cov.shape_bps))
        code = build_shape_code(dict(zip(cov.shape_bps, freq.tolist())))
        comp = sum(S.dfs_code_length(bst, bp_decode_binary(BitBuf(bp))) * int(c)
                   for bp, c in zip(cov.shape_bps, freq))
        assert total_bits(code) <= comp + 1e-6


def _micro_bps(layout) -> list[str]:
    """Each micro tree's shape BP string, of a cover or a parsed blob."""
    return [layout.shape_bps[k] for k in layout.shape_id.tolist()]


def _assert_parsed_is_cover(parsed, cov):
    assert parsed.n == cov.n
    assert parsed.top_tier.dtype == np.int64
    assert np.array_equal(parsed.top_tier, cov.top_tier)
    assert _micro_bps(parsed) == _micro_bps(cov)
    assert np.array_equal(parsed.fields, cov.fields)


def _symbols(cov) -> list[tuple]:
    """Each micro tree's joint symbol: its shape BP and its fields."""
    return [(bp, *f) for bp, f in zip(_micro_bps(cov), cov.fields.tolist())]


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
    # a blob with symbols of frequency 1
    t = S.sample(S.parse_source("binomial"), 1500, 3)
    cov = decompose_binary(t, 6)
    assert 1 in Counter(_symbols(cov)).values()
    _assert_parsed_is_cover(parse_binary_blob(hs_encode_binary(t, cover=cov)), cov)


def test_cover_stats_match_layout():
    # binary covers with and without symbols of frequency 1, then an
    # ordinal cover
    rare = []
    for t, B in ((S.sample(S.parse_source("binomial"), 1500, 3), 6),
                 (S.sample(S.UniformSource(), 700, 2), None)):
        cov = decompose_binary(t, B)
        shapes = _micro_bps(cov)
        stats = hypercodec.cover_stats(cov)
        assert stats == {"m": len(shapes), "distinctShapes": len(set(shapes)),
                         "meanMicroSize": t.n / len(shapes),
                         "distinctSymbols": len(set(_symbols(cov)))}
        rare.append(1 in Counter(_symbols(cov)).values())
    assert rare[0]
    t = S.sample(S.LrmSource(), 400, 4)
    cov = decompose_ordinal(t, 3)
    stats = hypercodec.cover_stats(cov)
    sizes = np.diff(cov.starts)
    assert stats["m"] == len(sizes)
    assert stats["meanMicroSize"] == sizes.sum() / len(sizes)
    shapes = [bp_encode_ordinal(sh).to01() for sh in induced_shapes(t, cov)]
    assert stats["distinctShapes"] == len(set(shapes))
    assert stats["distinctSymbols"] == len(
        {(bp, *f) for bp, f in zip(shapes, cov.fields.tolist())})


def test_parse_one_shape_codebook():
    t = left_chain(50)
    cov = decompose_binary(t, 1)
    assert set(_micro_bps(cov)) == {"()"}
    blob = hs_encode_binary(t, cover=cov)
    # two symbols, with and without a left child, of 1-bit codewords
    assert len(set(_symbols(cov))) == 2
    assert blob.parts["codewords"] == 50
    _assert_parsed_is_cover(parse_binary_blob(blob), cov)
    assert hs_decode_binary(blob) == t


def test_parse_codewords_longer_than_a_window(monkeypatch):
    # A maximally skewed code at the cap: lengths 1, 2, ..., j, and every
    # other symbol at the cap L = 16, so most codewords are as wide as the
    # decode table's window.
    def skewed(weights):
        k = len(weights)
        j = max(j for j in range(1, 16) if k - j <= 2 ** (16 - j))
        return [i + 1 if i < j else 16 for i in range(k)], 0

    monkeypatch.setattr(hypercodec, "_code_lengths", skewed)
    t = S.sample(S.UniformSource(), 3000, 11)
    cov = decompose_binary(t, 40)
    code = build_shape_code(_symbols(cov))
    assert code.max_len == 16 and len(code.order) > 16
    assert sum(l == 16 for l in code.code_len.values()) > len(code.order) // 2
    blob = hs_encode_binary(t, cover=cov)
    _assert_parsed_is_cover(parse_binary_blob(blob), cov)
    assert hs_decode_binary(HsBlob.from_bytes(blob.to_bytes())) == t


def _read_codewords_loop(code, cur, m):
    """``ShapeCode.read_codewords`` with one step per codeword: the
    reference for its walk over every fourth codeword start."""
    L = code.max_len
    lens = np.array([code.code_len[s] for s in code.order], dtype=np.int64)
    span = 1 << (L - lens)
    sym = np.repeat(np.arange(len(lens)), span)
    length = np.zeros(1 << L, dtype=np.int64)
    length[:int(span.sum())] = np.repeat(lens, span)
    win = cur.windows(L)
    rest = len(win)
    if m > rest:
        raise MalformedStream("more codewords than bits", bit_offset=cur.pos)
    len_at = np.append(length[win], 0)
    starts, p = [], 0
    for _ in range(m):
        starts.append(p)
        p = min(p + int(len_at[p]), rest)
    starts = np.array(starts, dtype=np.int64)
    got = len_at[starts]
    if not got.all():
        at = int(starts[np.argmin(got != 0)])
        msg = "bit stream exhausted" if at == rest else "unknown Huffman codeword"
        raise MalformedStream(msg, bit_offset=cur.pos + at)
    end = int(starts[-1] + got[-1])
    if end != rest:
        msg = "bit stream exhausted" if end > rest else "trailing data after the last codeword"
        raise MalformedStream(msg, bit_offset=cur.pos + min(end, rest))
    cur.skip(rest)
    return sym[win[starts]]


def _codeword_outcome(read, code, bits, m, at=5):
    """What ``read`` makes of ``m`` codewords after the first ``at`` bits:
    the symbol indices and where the cursor stops, or the error and its bit
    offset."""
    cur = BitCursor(BitBuf.from_array(np.asarray(bits, dtype=np.uint8)), at)
    try:
        return read(code, cur, m).tolist(), cur.pos
    except MalformedStream as exc:
        return str(exc), exc.bit_offset


@pytest.mark.parametrize("code", [
    hypercodec.ShapeCode(dict(zip("abcdefg", (40, 20, 10, 5, 3, 1, 1)))),
    hypercodec.ShapeCode({"()": 3}),
    hypercodec.ShapeCode.from_lengths([(i, i + 1) for i in range(15)] + [(15, 16), (16, 16)]),
], ids=["skewed", "one-symbol", "16-bit"])
def test_read_codewords_matches_loop(code):
    # m = 1..9 codewords after a 5-bit prefix; the stream as written, then
    # cut or with one bit flipped inside its last 4 codewords, with a bit
    # appended, and with one codeword too many asked for
    rng = np.random.default_rng(len(code.order))
    words = [code.codewords[s] for s in code.order]
    read = hypercodec.ShapeCode.read_codewords
    for m in range(1, 10):
        for _ in range(3):
            syms = rng.integers(len(words), size=m)
            bits = list(rng.integers(2, size=5))
            ends = []
            for s in syms.tolist():
                word, width = words[s]
                bits += [(word >> (width - 1 - j)) & 1 for j in range(width)]
                ends.append(len(bits))
            assert _codeword_outcome(read, code, bits, m) == (syms.tolist(), len(bits))
            tail = ends[-5] if m > 4 else 5
            for j in range(tail, len(bits)):
                flipped = bits.copy()
                flipped[j] ^= 1
                for variant in (bits[:j], flipped):
                    assert (_codeword_outcome(read, code, variant, m)
                            == _codeword_outcome(_read_codewords_loop, code, variant, m))
                assert isinstance(_codeword_outcome(read, code, bits[:j], m)[0], str)
            for variant, k in ((bits + [0], m), (bits, m + 1)):
                got = _codeword_outcome(read, code, variant, k)
                assert isinstance(got[0], str)
                assert got == _codeword_outcome(_read_codewords_loop, code, variant, k)


def _with_codeword_tail(blob, change):
    """``blob`` with ``change`` applied to the bit array of its codeword
    part, and its stream length and CRC set again as the writer sets them."""
    bits = blob.bits.to_array()
    cur = BitCursor(blob.bits)
    gamma_decode(cur)
    body = bits[cur.pos:len(bits) - hypercodec.CRC_BITS]
    cw = len(body) - blob.parts["codewords"]
    body = np.concatenate((body[:cw], change(body[cw:].copy())))
    rest = np.array([len(body) + hypercodec.CRC_BITS + 1])
    out = np.concatenate((hypercodec._field_bits(rest, hypercodec._gamma_widths(rest)), body))
    crc = hypercodec._payload_crc(np.packbits(out).tobytes(), len(out))
    out = np.concatenate((out, hypercodec._field_bits([crc], [hypercodec.CRC_BITS])))
    return HsBlob.from_bytes(HsBlob("binary", BitBuf.from_array(out)).to_bytes())


def _parse_outcome(blob):
    try:
        layout = parse_binary_blob(blob)
    except MalformedStream as exc:
        return str(exc), exc.part, exc.bit_offset
    return layout.shape_id.tolist(), layout.fields.tolist()


def test_blob_codeword_tail_errors_match_loop(monkeypatch):
    # blobs of m = 0, 1, 2, 3 (mod 4) micro trees, cut or with one bit
    # flipped inside the last 4 codewords, CRC resealed: every cut raises,
    # and each outcome is the one-step walk's, part and bit offset included
    blobs = {}
    for n in range(300, 340):
        t = S.sample(S.BstSource(), n, n)
        cov = decompose_binary(t, 3)
        blobs.setdefault(len(cov.shape_id) % 4, (hs_encode_binary(t, cover=cov), cov))
    assert len(blobs) == 4
    variants = []
    for blob, cov in blobs.values():
        symbols, inverse, counts = hypercodec._symbols(cov.shape_bps, cov.shape_id, cov.fields)
        code = hypercodec.ShapeCode(dict(zip(symbols, counts)))
        tail = sum(code.code_len[symbols[j]] for j in inverse[-4:].tolist())
        for j in range(1, tail + 1):
            variants.append((True, _with_codeword_tail(blob, lambda cw: cw[:-j])))

            def flip(cw, j=j):
                cw[-j] ^= 1
                return cw
            variants.append((False, _with_codeword_tail(blob, flip)))
    assert _parse_outcome(_with_codeword_tail(blob, lambda cw: cw)) == _parse_outcome(blob)
    got = [_parse_outcome(b) for _, b in variants]
    monkeypatch.setattr(hypercodec.ShapeCode, "read_codewords", _read_codewords_loop)
    assert got == [_parse_outcome(b) for _, b in variants]
    for (cut, _), outcome in zip(variants, got):
        assert not cut or outcome[1] == "codewords"


def test_codebook_rejects_out_of_range_lengths():
    from hypertree.hypercodec import ShapeCode
    for lengths in ([("()", 0)], [("()", 2)], [("()", 1), ("(())", 2)]):
        with pytest.raises(MalformedStream):
            ShapeCode.from_lengths(lengths)
    assert ShapeCode.from_lengths([("(())", 1), ("()", 1)]).max_len == 1
    # strictly increasing (length, symbol) order still lets a symbol appear
    # twice with two lengths
    with pytest.raises(MalformedStream, match="listed twice"):
        ShapeCode.from_lengths([("()", 1), ("(())", 2), ("()", 2)])


def test_two_portals_at_one_null_rejected():
    # portal fields that name one null twice, or two nulls in the wrong
    # order: the index built from either would answer queries wrongly or
    # fail inside a query
    from hypertree.navigate import build_nav
    t = S.sample(S.BstSource(), 3000, 5)
    cov = decompose_binary(t)
    i = int(np.flatnonzero(cov.top_tier[:, 1:].all(axis=0))[0])
    same = cov.fields.copy()
    same[i, 1] = same[i, 0]
    t = S.sample(S.BstSource(), 300, 0)
    swap_cov = decompose_binary(t, 3)
    swapped = swap_cov.fields.copy()
    j = next(j for j in range(len(swapped)) if swapped[j, 1])
    swapped[j] = swapped[j, ::-1]
    for c, fields in ((cov, same), (swap_cov, swapped)):
        blob = hypercodec._write_blob("binary", c.n, c.shape_bps, c.shape_id, fields)
        for decode in (build_nav, hs_decode_binary):
            with pytest.raises(MalformedStream) as info:
                decode(blob)
            assert info.value.part == "codebook"


def test_top_tier_flags_rejected():
    # portal fields that close the top tier before the last micro tree,
    # leave it open after it, or set a second portal without a first
    from hypertree.navigate import build_nav
    t = S.sample(S.BstSource(), 500, 6)
    cov = decompose_binary(t, 3)
    early = cov.fields.copy()
    early[0] = 0
    late = cov.fields.copy()
    late[-1, 0] = 1
    lone = cov.fields.copy()
    i = next(i for i in range(len(lone)) if lone[i, 0] and not lone[i, 1])
    lone[i] = lone[i, ::-1]
    for fields, msg in ((early, "closes before"), (late, "does not close"),
                        (lone, "second portal without a first")):
        blob = hypercodec._write_blob("binary", cov.n, cov.shape_bps, cov.shape_id, fields)
        for decode in (build_nav, hs_decode_binary):
            with pytest.raises(MalformedStream, match=msg) as info:
                decode(HsBlob.from_bytes(blob.to_bytes()))
            assert info.value.part == "codewords"


# Binary blobs of every binary source at several block sizes, one large
# default-B tree and three RMQ blobs. The hash pins the byte format: it moves
# only with a deliberate format change.
PINNED_SOURCES = [("bst", 300), ("uniform", 300), ("binomial:0.5", 300),
                  ("almostpath:2", 300), ("fringebalanced:1", 301),
                  ("avl-size", 30), ("avl-height", 6), ("llrb", 20),
                  ("wb:2/7", 25), ("motzkin", 300),
                  ("memoryless:0.25,0.25,0.25,0.25", 300)]
PINNED_SHA256 = "8892bb42189c2097a9717f868a68a1b231c037cd9f2e22f14b2e7769c5b181df"


def test_binary_format_pinned():
    import hashlib
    import json
    from hypertree.rmq import rmq_build

    blobs = []
    for spec, size in PINNED_SOURCES:
        seed = S.derive_seed("pin", spec, size, 0)
        t = (shuffled_uniform(size, seed) if spec == "uniform"
             else S.sample(S.parse_source(spec), size, seed))
        blobs += [hs_encode_binary(t, B) for B in (None, 1, 3, 6)]
    blobs.append(hs_encode_binary(shuffled_uniform(30000, 11)))
    # the RMQ blobs were pinned at B = 6, rmq_build's default until it took
    # the codec's
    rng = random.Random(8)
    for n in (1000, 5000):
        blobs.append(rmq_build(rng.sample(range(n), n), 6).blob)
    blobs.append(rmq_build([rng.randint(0, 50) for _ in range(3000)], 6).blob)
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob.to_bytes())
        h.update(json.dumps(blob.parts, sort_keys=True).encode())
    assert h.hexdigest() == PINNED_SHA256


ORDINAL_PINNED_SHA256 = "904f68368334f7a2feba0ba7e2582a5a4afc1a6b843f749b2c08c9f80e9bee51"


def test_ordinal_format_pinned():
    # ordinal blobs and their parts, byte for byte, as the format stood
    # when an ordinal tree became the binary blob of its fcns tree; each
    # payload is that binary blob's
    import hashlib
    import json

    trees = [S.sample(S.parse_source(spec), size, S.derive_seed("pin", spec, size, 0))
             for spec, size in (("lrm", 300), ("composition", 300),
                                ("lrm", 2000), ("composition", 2000))]
    trees += [ordinal_star(200), ordinal_path(200)]
    h = hashlib.sha256()
    for t in trees:
        for B in (None, 1, 3, 6):
            blob = hs_encode_ordinal(t, B)
            assert blob.to_bytes()[5:] == hs_encode_binary(fcns(t), B).to_bytes()[5:]
            h.update(blob.to_bytes())
            h.update(json.dumps(blob.parts, sort_keys=True).encode())
    assert h.hexdigest() == ORDINAL_PINNED_SHA256


def test_default_blob_below_bp():
    # at the default B, seeded 2^14-node blobs cost less than the 2n-bit BP
    # string: a BST and a uniform tree
    for src, bound in ((S.BstSource(), 2.2), (S.UniformSource(), 2.4)):
        t = S.sample(src, 2 ** 14, S.derive_seed("below-bp", src.name, 0))
        blob = hs_encode_binary(t)
        assert 8 * len(blob.to_bytes()) / t.n <= bound
        assert hs_decode_binary(HsBlob.from_bytes(blob.to_bytes())) == t
