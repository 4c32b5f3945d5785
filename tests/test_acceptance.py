"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Run with `pytest -s tests/test_acceptance.py`.

Shared corpora are built once per module (the 10^4-tree roundtrip corpus and
the block-scaling sweep) and reused by the criteria that inspect them.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import figure_tree
from ordinal_cover import decompose_ordinal, validate_ordinal_cover
from reference import bp_encode_postorder_variant, dyck_peaks, uniform_types
from hypertree.bits import BitBuf
from hypertree.cover import CoverStats, decompose_binary, validate_cover
from hypertree.hypercodec import (
    build_shape_code, hs_decode_binary, hs_decode_ordinal, hs_encode_binary,
    hs_encode_ordinal,
)
from hypertree.rmq import cartesian_tree, lg_binom, lg_narayana, rmq_build, runs_profile
from hypertree.trees import (
    bp_decode_binary, bp_encode_binary, bp_encode_ordinal, ordinal_path,
    ordinal_star,
)
from hypertree import sources as S
from hypertree.sources import counting as C

BST = S.BstSource()


def desk_block(n: int) -> int:
    """Encoding block used for the large-tree corpus: ceil(lg(n)^2)."""
    return max(1, math.ceil(math.log2(max(2, n)) ** 2))


def _binary_sizes():
    sizes = [(i % 397) + 1 for i in range(2100)]
    sizes += [500 + (i * 73) % 7500 for i in range(300)]
    sizes += [2 ** 14 + (i * 997) % 3000 for i in range(99)]
    sizes += [100_000]
    return sizes


def _ordinal_sizes():
    sizes = [(i % 311) + 1 for i in range(200)]
    sizes += [600 + (i * 97) % 5400 for i in range(40)]
    sizes += [2 ** 14 + (i * 997) % 3000 for i in range(9)]
    sizes += [100_000]
    return sizes


@pytest.fixture(scope="module")
def roundtrip_corpus():
    """Criteria 1, 2, 10: roundtrip the full corpus once, recording failures,
    space ratios for n >= 2^14, cover violations, and the elapsed time."""
    t0 = time.perf_counter()
    failures = 0
    trees = 0
    space = []  # (source, n, bits)
    violations = 0
    validated = 0

    bin_sources = [
        ("bst", BST), ("uniform", S.UniformSource()),
        ("memoryless", uniform_types()),
        ("almostpath", S.AlmostPathSource(4)),
    ]
    for name, src in bin_sources:
        for i, n in enumerate(_binary_sizes()):
            t = S.sample(src, n, S.derive_seed("c1b", name, n, i))
            B = desk_block(t.n) if t.n >= 2 ** 14 else None
            cov = decompose_binary(t, B)
            blob = hs_encode_binary(t, cover=cov)
            back = hs_decode_binary(blob)
            trees += 1
            if back != t:
                failures += 1
            if t.n >= 2 ** 14:
                space.append((name, t.n, len(blob)))
            if i % 25 == 0:
                validated += 1
                if not isinstance(validate_cover(cov, t), CoverStats):
                    violations += 1

    ord_makers = [
        ("star", lambda n, s: ordinal_star(n)),
        ("path", lambda n, s: ordinal_path(n)),
        ("lrm", lambda n, s: S.sample(S.LrmSource(), n, s)),
        ("composition", lambda n, s: S.sample(S.CompositionSource(), n, s)),
    ]
    for name, make in ord_makers:
        for i, n in enumerate(_ordinal_sizes()):
            t = make(n, S.derive_seed("c1o", name, n, i))
            B = desk_block(t.n) if t.n >= 2 ** 14 else None
            cov = decompose_ordinal(t, B)
            blob = hs_encode_ordinal(t, B)
            back = hs_decode_ordinal(blob)
            trees += 1
            if back != t:
                failures += 1
            if t.n >= 2 ** 14:
                space.append((name, t.n, len(blob)))
            if i % 25 == 0:
                validated += 1
                if not isinstance(validate_ordinal_cover(cov, t), CoverStats):
                    violations += 1

    elapsed = time.perf_counter() - t0
    return {
        "failures": failures, "trees": trees, "space": space,
        "violations": violations, "validated": validated, "elapsed": elapsed,
    }


def test_criterion_1_roundtrip(roundtrip_corpus):
    r = roundtrip_corpus
    assert r["trees"] == 11_000
    assert r["failures"] == 0
    assert r["elapsed"] < 300.0
    print(f"\n[criterion 1] PASS: {r['trees']} roundtrips, 0 failures, "
          f"{r['elapsed']:.1f}s (< 300s)")


def test_criterion_2_worst_case_space(roundtrip_corpus):
    worst = 0.0
    worst_case = None
    for name, n, bits in roundtrip_corpus["space"]:
        ratio = bits / n
        if ratio > worst:
            worst, worst_case = ratio, (name, n)
        assert bits <= 2 * n + 0.75 * n, (name, n, bits / n)
    assert roundtrip_corpus["space"], "corpus contained no tree with n >= 2^14"
    print(f"[criterion 2] PASS: {len(roundtrip_corpus['space'])} large trees, "
          f"worst {worst:.3f} bits/node at {worst_case} (<= 2.75)")


@pytest.fixture(scope="module")
def bst_scaling():
    """Criteria 3 and 6: per-size replicate statistics for bst trees under
    the default (paper) block parameter."""
    sizes = [2 ** 12, 2 ** 14, 2 ** 16, 2 ** 17, 2 ** 20]
    reps = 50
    out = {n: {"huff": [], "dfs": [], "lp_mu": [], "lp_t": [], "blob_bpn": None}
           for n in sizes}
    for n in sizes:
        for rep in range(reps):
            t = S.sample(BST, n, S.derive_seed("c36", n, rep))
            cov = decompose_binary(t)
            # shape counts, in the order the micro trees first name the
            # shapes, so that the sums below add in a fixed order
            counts = np.bincount(cov.shape_id).tolist()
            first = np.unique(cov.shape_id, return_index=True)[1]
            freq = {cov.shape_bps[k]: counts[k] for k in np.argsort(first).tolist()}
            code = build_shape_code(freq)
            huff = sum(code.code_len[bp] * c for bp, c in freq.items())
            dfs = lp_mu = 0.0
            for bp, c in freq.items():
                sh = bp_decode_binary(BitBuf(bp))
                dfs += c * S.dfs_code_length(BST, sh)
                lp_mu += c * BST.log_prob(sh).log_prob_bits
            rec = out[n]
            rec["huff"].append(huff)
            rec["dfs"].append(dfs)
            rec["lp_mu"].append(lp_mu)
            rec["lp_t"].append(S.subtree_size_entropy(t))
            if rep == 0:
                rec["blob_bpn"] = len(hs_encode_binary(t, cover=cov)) / n
    return out


def test_criterion_3_huffman_vs_competitor(bst_scaling):
    viol = 0
    for n in (2 ** 14, 2 ** 17, 2 ** 20):
        rec = bst_scaling[n]
        for huff, dfs in zip(rec["huff"], rec["dfs"]):
            if huff > dfs + 1e-6:
                viol += 1
        for lp_mu, lp_t in zip(rec["lp_mu"], rec["lp_t"]):
            if lp_mu > lp_t + 1e-6:
                viol += 1
    assert viol == 0
    print(f"[criterion 3] PASS: 0 violations of Huffman <= depth-first bound "
          f"and micro-tree submultiplicativity over 50 reps x 3 sizes")


def test_criterion_4_entropy_closed_form():
    h20 = S.bst_entropy_closed_form(20)
    assert abs(h20 - 29.2209) <= 5e-4
    lim = S.bst_entropy_limit()
    assert abs(lim - 1.7363771) <= 1e-6
    for n in range(0, 13):
        he = S.source_entropy_exhaustive(BST, n)
        assert abs(he - S.bst_entropy_closed_form(n)) <= 1e-9
    print(f"[criterion 4] PASS: H_20={h20:.5f}, limit={lim:.7f}, "
          f"exhaustive matches closed form for n<=12")


def test_criterion_5_figure_tree():
    fig = figure_tree()
    lp = BST.log_prob(fig).log_prob_bits
    assert abs(lp - 28.74) <= 0.01
    code = S.dfs_arith_encode(BST, fig)
    assert len(code) <= 40
    assert S.dfs_arith_decode(BST, code) == fig
    print(f"[criterion 5] PASS: figure tree lg(1/P)={lp:.4f}, "
          f"arithmetic code {len(code)} bits (<= 40)")


def test_criterion_6_compression_trend(bst_scaling):
    # Stated criterion: Huffman-codeword bits/node strictly decreases from
    # n=2^12 to n=2^20 and ends <= 2.0. The <= 2.0 part holds; the strict
    # decrease does not hold for this artifact (see decisions ledger): the
    # Huffman part sits *below* the 1.736 entropy rate because micro-tree
    # boundaries move information into portals and the top tier, and it
    # rises toward that rate as B(n) grows, so the sequence increases.
    # The criterion is asserted faithfully and is expected to fail.
    sizes = [2 ** 12, 2 ** 16, 2 ** 20]
    means = [sum(bst_scaling[n]["huff"]) / (50 * n) for n in sizes]
    blob_report = {f"2^{int(math.log2(n))}": round(bst_scaling[n]["blob_bpn"], 3)
                   for n in sizes}
    print(f"[criterion 6] measured Huffman bits/node "
          f"{['%.4f' % x for x in means]} over sizes 2^12/2^16/2^20; "
          f"final {means[-1]:.4f} <= 2.0: {means[-1] <= 2.0}; full-blob "
          f"bits/node (reported, unasserted): {blob_report}")
    assert means[-1] <= 2.0
    if not (means[0] > means[1] > means[2]):
        print("[criterion 6] FAIL (spec defect, see decisions ledger): the "
              "sequence increases toward the entropy rate instead of "
              "decreasing; no faithful reading of the substituted property "
              "is attainable")
    assert means[0] > means[1] > means[2], means


def test_criterion_7_rmq_correctness_and_speed(rng):
    # brute-force equality on random arrays, all (i, j)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 256)
        A = [rng.randint(0, rng.choice([6, 10 ** 9])) for _ in range(n)]
        idx = rmq_build(A)
        for i in range(1, n + 1):
            best = i
            for j in range(i, n + 1):
                if A[j - 1] < A[best - 1]:
                    best = j
                checked += 1
                assert idx.query(i, j) == best
    # all permutations of n=8 against a fixed query set
    from itertools import permutations
    queries = [(i, j) for i in range(1, 9) for j in range(i, 9)]
    for perm in permutations(range(1, 9)):
        idx = rmq_build(perm)
        for i, j in queries:
            best = min(range(i, j + 1), key=lambda k: perm[k - 1])
            assert idx.query(i, j) == best
    # timing: build + 10^6 batched queries on n = 10^6
    g = np.random.default_rng(20240809)
    A = (g.permutation(10 ** 6) + 1).tolist()
    t0 = time.perf_counter()
    idx = rmq_build(A)
    li = g.integers(1, 10 ** 6 + 1, 10 ** 6)
    ri = g.integers(1, 10 ** 6 + 1, 10 ** 6)
    li, ri = np.minimum(li, ri), np.maximum(li, ri)
    ans = idx.query_many(li, ri)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    for k in range(0, 10 ** 6, 55555):
        i, j = int(li[k]), int(ri[k])
        assert int(ans[k]) == min(range(i, j + 1), key=lambda x: A[x - 1])
    print(f"[criterion 7] PASS: brute-force equality on 200 arrays "
          f"({checked} pairs) and all 8! permutations; build+1e6 queries "
          f"in {elapsed:.2f}s (< 10s)")


def _exact_runs_array(n: int, r: int) -> list[int]:
    # r increasing runs with strict drops between them; a permutation of 0..n-1
    base = n // r
    extra = n % r
    out = []
    for k in range(r):
        length = base + (1 if k < extra else 0)
        out.extend((r - 1 - k) + r * j for j in range(length))
    return out


def test_criterion_8_runs(rng):
    mism = 0
    for _ in range(1000):
        n = rng.randint(1, 500)
        A = [rng.randint(0, rng.choice([3, 40, 10 ** 9])) for _ in range(n)]
        t = cartesian_tree(A)
        if dyck_peaks(bp_encode_postorder_variant(t)) != runs_profile(A).r:
            mism += 1
    assert mism == 0
    n = 10 ** 5
    regimes = []
    for r in (1, n // 100, n // 10, n // 2):
        A = _exact_runs_array(n, r)
        rp = runs_profile(A)
        assert rp.r == r
        h0 = S.type_entropy(cartesian_tree(A), 0)
        bound = 2 * lg_binom(n, r) + 5 * math.log2(n)
        assert h0 <= bound, (r, h0, bound)
        regimes.append((r, round(h0, 1), round(bound, 1)))
    assert abs(lg_narayana(4, 2) - math.log2(6)) <= 1e-9
    print(f"[criterion 8] PASS: 1000/1000 run-peak bijections; type-entropy "
          f"vs 2lgC(n,r)+5lg(n) at n=1e5: {regimes}; lg N(4,2)=lg 6")


def _chi_pvalue(counts, probs, total):
    keys = sorted(probs)
    res = chisquare([counts.get(k, 0) for k in keys],
                    [probs[k] * total for k in keys])
    return res.pvalue


def test_criterion_9_sampler_fidelity():
    import collections
    total = 100_000
    pvals = {}

    probs = {}
    for sh in C.iter_shapes(3):
        t = C.shape_to_tree(sh)
        probs[bp_encode_binary(t).to01()] = 2.0 ** -BST.log_prob(t).log_prob_bits
    counts = collections.Counter(
        bp_encode_binary(S.sample(BST, 3, S.derive_seed("c9b", i))).to01()
        for i in range(total))
    pvals["bst n=3"] = _chi_pvalue(counts, probs, total)

    counts = collections.Counter(
        bp_encode_binary(S.sample(S.UniformSource(), 4, S.derive_seed("c9u", i))).to01()
        for i in range(total))
    assert len(counts) == 14
    pvals["uniform n=4"] = _chi_pvalue(counts, {k: 1 / 14 for k in counts}, total)

    avlh = S.AvlByHeightSource()
    counts = collections.Counter(
        bp_encode_binary(S.sample(avlh, 2, S.derive_seed("c9a", i))).to01()
        for i in range(total))
    assert len(counts) == 3
    pvals["avl h=2"] = _chi_pvalue(counts, {k: 1 / 3 for k in counts}, total)

    import random as _random
    rng = _random.Random(20260809)
    probs4 = {}
    for sh in C.iter_shapes(4):
        t = C.shape_to_tree(sh)
        probs4[bp_encode_binary(t).to01()] = 2.0 ** -BST.log_prob(t).log_prob_bits
    counts = collections.Counter()
    for _ in range(total):
        perm = [1, 2, 3, 4]
        rng.shuffle(perm)
        counts[bp_encode_binary(cartesian_tree(perm)).to01()] += 1
    pvals["cartesian vs bst n=4"] = _chi_pvalue(counts, probs4, total)

    for name, p in pvals.items():
        assert p > 1e-4, (name, p)
    print(f"[criterion 9] PASS: chi-square p-values "
          f"{ {k: round(v, 4) for k, v in pvals.items()} } all > 1e-4")


def test_criterion_10_cover_validation(roundtrip_corpus, rng):
    assert roundtrip_corpus["violations"] == 0
    extra = 0
    for _ in range(150):
        n = rng.randint(1, 600)
        B = rng.choice([None, 1, 2, 3, 5, 9])
        if rng.random() < 0.5:
            t = S.sample(rng.choice([BST, S.UniformSource()]), n, rng.getrandbits(32))
            cov = decompose_binary(t, B)
            res = validate_cover(cov, t)
        else:
            t = S.sample(rng.choice([S.LrmSource(), S.CompositionSource()]),
                         n, rng.getrandbits(32))
            cov = decompose_ordinal(t, B)
            res = validate_ordinal_cover(cov, t)
        if not isinstance(res, CoverStats):
            extra += 1
    assert extra == 0
    print(f"[criterion 10] PASS: 0 violations over "
          f"{roundtrip_corpus['validated']} corpus covers + 150 mixed covers")


def test_criterion_11_subclass_counting():
    alpha = Fraction(2, 7)
    meta = {id(None): (0, 0, True, True)}  # size, height, is_avl, is_wb
    for n in range(1, 15):
        avl = wb = 0
        for sh in C.iter_shapes(n):
            l, r = sh
            sl, hl, al, wl = meta[id(l)] if id(l) in meta else _shape_meta(l, meta, alpha)
            sr, hr, ar, wr = meta[id(r)] if id(r) in meta else _shape_meta(r, meta, alpha)
            aok = al and ar and abs(hl - hr) <= 1
            wok = wl and wr and C.wb_split_ok(alpha, sl, sr)
            if n <= 12:
                meta[id(sh)] = (sl + sr + 1, 1 + max(hl, hr), aok, wok)
            avl += aok
            wb += wok
        assert avl == S.count_subclass("avl-size", n), n
        assert wb == S.count_subclass("wb", n, alpha), n
    a = C.avl_height_counts(20)
    assert a[1] == 1 and a[2] == 3 and a[3] == 15
    for h in range(2, 21):
        assert a[h] == 2 * a[h - 1] * a[h - 2] + a[h - 1] ** 2
    print("[criterion 11] PASS: AVL-size and weight-balanced counts match "
          "brute force for n<=14; AVL-height matches the recurrence for h<=20")


def _shape_meta(sh, meta, alpha):
    l, r = sh
    sl, hl, al, wl = meta[id(l)] if id(l) in meta else _shape_meta(l, meta, alpha)
    sr, hr, ar, wr = meta[id(r)] if id(r) in meta else _shape_meta(r, meta, alpha)
    return (sl + sr + 1, 1 + max(hl, hr),
            al and ar and abs(hl - hr) <= 1,
            wl and wr and C.wb_split_ok(alpha, sl, sr))
