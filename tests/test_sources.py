import collections
import math
import random
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from conftest import figure_tree, micro_shapes, random_bst
from hypertree.cover import decompose_binary, decompose_ordinal
from hypertree.trees import (
    BinaryTree, OrdinalTree, bp_encode_binary, left_chain, ordinal_path,
    ordinal_star, single_node,
)
from hypertree import sources as S
from hypertree.sources import counting as C

INF = float("inf")
BST = S.BstSource()
UNI = S.UniformSource()


# --- log-probabilities ------------------------------------------------------

def test_log_prob_memoryless_quarter():
    tp = S.TypeProcess.uniform_types()
    for t in (single_node(), left_chain(7), figure_tree()):
        assert abs(tp.log_prob(t).log_prob_bits - 2 * t.n) < 1e-9


def test_log_prob_bst_examples():
    assert abs(BST.log_prob(left_chain(3)).log_prob_bits - math.log2(6)) < 1e-12
    fig = figure_tree()
    assert abs(BST.log_prob(fig).log_prob_bits - 28.74) < 0.01
    assert abs(S.subtree_size_entropy(fig) - BST.log_prob(fig).log_prob_bits) < 1e-9


def test_log_prob_motzkin():
    mk = S.TypeProcess.motzkin()
    t = left_chain(9)  # only left-unary nodes: a Motzkin tree
    assert abs(mk.log_prob(t).log_prob_bits - 9 * math.log2(3)) < 1e-9
    t = BinaryTree(2, [0, 0, 0], [0, 2, 0])  # right-unary: probability 0
    assert mk.log_prob(t).log_prob_bits == INF


def test_log_prob_kind_mismatch():
    with pytest.raises(TypeError):
        BST.log_prob(ordinal_star(3))
    with pytest.raises(TypeError):
        S.LrmSource().log_prob(single_node())


def test_uniform_source_is_uniform(rng):
    for n in (2, 3, 4, 6):
        probs = set()
        for sh in S.iter_shapes(n):
            t = C.shape_to_tree(sh)
            probs.add(round(UNI.log_prob(t).log_prob_bits, 9))
        assert len(probs) == 1
        assert abs(probs.pop() - math.log2(S.catalan(n))) < 1e-9


# --- empirical entropies ----------------------------------------------------

def test_type_entropy_examples(rng):
    assert S.type_entropy(single_node(), 0) == 0
    bal3 = BinaryTree(3, [0, 2, 0, 0], [0, 3, 0, 0])
    assert abs(S.type_entropy(bal3, 0) - (2 * math.log2(1.5) + math.log2(3))) < 1e-12
    for _ in range(25):
        t = random_bst(rng, rng.randint(2, 120))
        for k in (0, 1, 2):
            emp = S.empirical_type_process(t, k)
            assert abs(S.type_entropy(t, k) - emp.log_prob(t).log_prob_bits) < 1e-9


def test_degree_entropy_examples():
    n = 12
    want = (n - 1) * math.log2(n / (n - 1)) + math.log2(n)
    assert abs(S.degree_entropy(ordinal_star(n)) - want) < 1e-12
    assert abs(S.degree_entropy(ordinal_path(n)) - want) < 1e-12
    assert S.degree_entropy(ordinal_star(1)) == 0


def test_shape_entropy_single_node():
    h = S.shape_entropy(OrdinalTree(1, [[], []]), 0)
    assert abs(h - (math.log2(3) + 2 * math.log2(1.5))) < 1e-12


def test_shape_entropy_matches_direct_recount(rng):
    from hypertree.trees import fcns_full

    def brute(t, k):
        tb = fcns_full(t)
        groups = {}
        stack = [(tb.root, "")]
        while stack:
            v, p = stack.pop()
            z = ("0" * k + p)[-k:] if k else ""
            groups.setdefault(z, []).append(2 if tb.left[v] else 0)
            if tb.left[v]:
                stack.append((tb.left[v], p + "0"))
                stack.append((tb.right[v], p + "1"))
        h = 0.0
        for tys in groups.values():
            mz = len(tys)
            for i in (0, 2):
                mi = tys.count(i)
                if mi:
                    h += mi * math.log2(mz / mi)
        return h

    for _ in range(30):
        t = S.sample(S.LrmSource(), rng.randint(1, 60), rng.getrandbits(32))
        for k in (0, 1, 2, 5):
            assert abs(S.shape_entropy(t, k) - brute(t, k)) < 1e-9


# --- closed form and exhaustive entropy -------------------------------------

def test_bst_closed_form_values():
    assert S.bst_entropy_closed_form(0) == 0
    assert S.bst_entropy_closed_form(1) == 0
    assert abs(S.bst_entropy_closed_form(20) - 29.2209) < 5e-4


def test_bst_entropy_limit():
    assert abs(S.bst_entropy_limit() - 1.7363771) < 1e-6


def test_exhaustive_matches_closed_form():
    for n in range(0, 13):
        he = S.source_entropy_exhaustive(BST, n)
        assert abs(he - S.bst_entropy_closed_form(n)) < 1e-9


def test_exhaustive_uniform_is_lg_catalan():
    for n in range(1, 11):
        he = S.source_entropy_exhaustive(UNI, n)
        assert abs(he - math.log2(S.catalan(n))) < 1e-9


def test_exhaustive_budget():
    with pytest.raises(ValueError):
        S.source_entropy_exhaustive(BST, 15)


# --- distribution validity and monotonicity ---------------------------------

@pytest.mark.parametrize("src", [
    BST, UNI, S.BinomialSource(Fraction(1, 2)), S.AlmostPathSource(0),
    S.AlmostPathSource(3), S.FringeBalancedSource(1),
])
def test_rows_sum_to_one_exactly(src):
    for s in range(1, 201):
        w, total = src.split_weights(s)
        assert len(w) == s and sum(w) == total


def test_monotonicity_predicate():
    def holds(src, lim):
        for l in range(lim):
            for r in range(lim):
                p = src.split_prob(l, r)
                if src.split_prob(l + 1, r) > p or src.split_prob(l, r + 1) > p:
                    return False
        return True

    assert holds(BST, 100)
    assert holds(UNI, 100)
    assert holds(S.AlmostPathSource(2), 100)
    assert not holds(S.BinomialSource(Fraction(1, 2)), 30)


def test_submultiplicativity_over_covers(rng):
    srcs = [BST, UNI, S.AlmostPathSource(3)]
    for _ in range(120):
        src = rng.choice(srcs)
        t = S.sample(src, rng.randint(2, 400), rng.getrandbits(32))
        cov = decompose_binary(t, rng.choice([None, 1, 2, 4]))
        lp_mu = sum(src.log_prob(sh).log_prob_bits for sh in micro_shapes(cov))
        lp_t = src.log_prob(t).log_prob_bits
        assert lp_mu <= lp_t + 1e-7


def test_ordinal_submultiplicativity(rng):
    for src in (S.CompositionSource(), S.LrmSource()):
        for _ in range(60):
            t = S.sample(src, rng.randint(2, 300), rng.getrandbits(32))
            cov = decompose_ordinal(t, rng.choice([None, 2, 4]))
            lp_mu = sum(src.log_prob(sh).log_prob_bits for sh in micro_shapes(cov))
            assert lp_mu <= src.log_prob(t).log_prob_bits + 1e-7


# --- samplers ----------------------------------------------------------------

def _chi_ok(counts, probs, total):
    keys = sorted(probs)
    res = chisquare([counts.get(k, 0) for k in keys],
                    [probs[k] * total for k in keys])
    return res.pvalue > 1e-4


def test_sampler_bst_n3():
    probs = {}
    for sh in S.iter_shapes(3):
        t = C.shape_to_tree(sh)
        probs[bp_encode_binary(t).to01()] = 2.0 ** -BST.log_prob(t).log_prob_bits
    counts = collections.Counter()
    total = 20000
    for i in range(total):
        t = S.sample(BST, 3, S.derive_seed("bst3", i))
        counts[bp_encode_binary(t).to01()] += 1
    assert _chi_ok(counts, probs, total)


def test_sampler_uniform_n4():
    counts = collections.Counter()
    total = 20000
    for i in range(total):
        t = S.sample(UNI, 4, S.derive_seed("uni4", i))
        counts[bp_encode_binary(t).to01()] += 1
    assert len(counts) == 14
    assert _chi_ok(counts, {k: 1 / 14 for k in counts}, total)


def test_sampler_avl_height2():
    counts = collections.Counter()
    total = 15000
    for i in range(total):
        t = S.sample(S.AvlByHeightSource(), 2, S.derive_seed("avlh", i))
        counts[bp_encode_binary(t).to01()] += 1
    assert len(counts) == 3
    assert _chi_ok(counts, {k: 1 / 3 for k in counts}, total)


def test_sampler_sizes_and_membership(rng):
    assert S.sample(BST, 1, 0).n == 1
    for src, n in [(BST, 257), (UNI, 257), (S.AlmostPathSource(2), 200),
                   (S.FringeBalancedSource(1), 129),
                   (S.BinomialSource(Fraction(1, 2)), 200)]:
        t = S.sample(src, n, 5)
        assert t.n == n
        assert src.log_prob(t).log_prob_bits < INF
    for i in range(30):
        t = S.sample(S.UniformSubclass("avl-size"), 13, S.derive_seed("a", i))
        assert S.is_avl(t)
        t = S.sample(S.UniformSubclass("wb", Fraction(2, 7)), 13, S.derive_seed("w", i))
        assert S.is_wb(t, Fraction(2, 7))
        t = S.sample(S.UniformSubclass("llrb"), 10, S.derive_seed("l", i))
        assert S.llrb_colorings(t) > 0
    t = S.sample(S.CompositionSource(), 300, 1)
    assert t.n == 300
    t = S.sample(S.LrmSource(), 300, 1)
    assert t.n == 300


def test_sampler_type_process_cap():
    tp = S.TypeProcess.uniform_types()
    for i in range(100):
        t = S.sample(tp, 50, S.derive_seed("cap", i))
        assert 1 <= t.n <= 50
    dying = S.TypeProcess.memoryless(1, 0, 0, 0)
    assert S.sample(dying, 10, 3).n == 1


def test_sampler_unreachable_target():
    with pytest.raises(S.EmptyClassError):
        S.sample(BST, 0, 1)
    # no AVL tree of size 2**5 - 1 has height... all sizes reachable; use wb
    with pytest.raises(S.EmptyClassError):
        S.sample(S.UniformSubclass("wb", Fraction(49, 100)), 2, 1)


def test_sampler_deterministic_per_seed():
    a = S.sample(BST, 100, 42)
    b = S.sample(BST, 100, 42)
    c = S.sample(BST, 100, 43)
    assert a == b and a != c


SAMPLES_PINNED_SHA256 = "52ad7af78657b2138cb3c5982037b92eaf26b688401a34a3898aa9446abd165e"


def test_samples_pinned():
    # the BP string of every seeded sample, as the samplers drew them when
    # the binary ones became split rules for BinaryTree.grow; a failed draw
    # (EmptyClassError) is pinned too
    import hashlib

    from hypertree.trees import bp_encode_ordinal

    small, large = (1, 2, 3, 7, 40), (1, 2, 3, 7, 40, 300, 2000)
    grid = [(spec, large) for spec in (
        "bst", "uniform", "binomial:0.5", "binomial:1/3", "almostpath:0",
        "almostpath:3", "fringebalanced:1", "fringebalanced:2", "motzkin",
        "memoryless", "memoryless:1/8,1/8,5/8,1/8", "composition", "lrm")]
    grid += [(spec, small) for spec in ("avl-size", "llrb", "wb:2/7")]
    grid += [("memoryless:1/40,0,39/40,0", large[:-1]), ("avl-height", (1, 2, 3, 5, 8))]
    sources = [(spec, S.parse_source(spec), sizes) for spec, sizes in grid]
    sources.append(("type-process(k=1)", S.TypeProcess(1, {
        (1,): (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        (2,): (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)),
        (3,): (Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1, 3))}), large))
    sources.append(("degree-dist", S.DegreeDist(
        [Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(1, 4)]), large))
    h = hashlib.sha256()
    for name, src, sizes in sources:
        enc = bp_encode_binary if src.kind == "binary" else bp_encode_ordinal
        for n in sizes:
            for seed in range(4):
                try:
                    got = enc(S.sample(src, n, S.derive_seed("samples-pin", name, n, seed))).to01()
                except S.EmptyClassError:
                    got = "empty"
                h.update(f"{name}|{n}|{seed}|{got}\n".encode())
    assert h.hexdigest() == SAMPLES_PINNED_SHA256


def test_cartesian_matches_bst_distribution():
    # Cartesian trees of random permutations have the random-BST shape law
    from hypertree.rmq import cartesian_tree
    probs = {}
    for sh in S.iter_shapes(4):
        t = C.shape_to_tree(sh)
        probs[bp_encode_binary(t).to01()] = 2.0 ** -BST.log_prob(t).log_prob_bits
    counts = collections.Counter()
    total = 20000
    rng = random.Random(2024)
    for _ in range(total):
        perm = [1, 2, 3, 4]
        rng.shuffle(perm)
        counts[bp_encode_binary(cartesian_tree(perm)).to01()] += 1
    assert _chi_ok(counts, probs, total)


# --- subclass counting --------------------------------------------------------

def test_avl_height_recurrence_values():
    assert [S.count_subclass("avl-height", h) for h in (1, 2, 3)] == [1, 3, 15]
    a = C.avl_height_counts(20)
    for h in range(2, 21):
        assert a[h] == 2 * a[h - 1] * a[h - 2] + a[h - 1] ** 2


def test_avl_size_values():
    assert [S.count_subclass("avl-size", n) for n in (1, 2, 3, 4)] == [1, 2, 1, 4]


def test_counts_match_bruteforce_small():
    al = Fraction(2, 7)
    for n in range(0, 12):
        avl = wb = 0
        for sh in S.iter_shapes(n):
            t = C.shape_to_tree(sh)
            avl += S.is_avl(t)
            wb += S.is_wb(t, al)
        assert avl == S.count_subclass("avl-size", n)
        assert wb == S.count_subclass("wb", n, al)


def test_llrb_counts_match_coloring_bruteforce():
    import itertools

    def brute(t):
        edges = []
        for v in range(1, t.n + 1):
            if t.left[v]:
                edges.append((v, t.left[v]))
            if t.right[v]:
                edges.append((v, t.right[v]))
        cnt = 0
        for colors in itertools.product([0, 1], repeat=len(edges)):
            cmap = {c: col for ((p, c), col) in zip(edges, colors)}
            ok = True
            for v in range(1, t.n + 1):
                lc, rc = t.left[v], t.right[v]
                lred = cmap.get(lc) if lc else None
                rred = cmap.get(rc) if rc else None
                if cmap.get(v) == 1 and (lred == 1 or rred == 1):
                    ok = False
                    break
                if rred == 1 and lred != 1:
                    ok = False
                    break
            if not ok:
                continue
            bh = {}
            for v in range(t.n, 0, -1):
                br = []
                for c in (t.left[v], t.right[v]):
                    br.append(((0 if cmap[c] else 1) + bh[c]) if c else 1)
                if br[0] != br[1]:
                    ok = False
                    break
                bh[v] = br[0]
            cnt += ok
        return cnt

    for n in range(1, 9):
        total_dp = total_bf = 0
        for sh in S.iter_shapes(n):
            t = C.shape_to_tree(sh)
            total_dp += S.llrb_colorings(t)
            total_bf += brute(t)
        assert total_dp == total_bf == S.count_subclass("llrb", n)


def test_subclass_log_prob():
    src = S.UniformSubclass("avl-size")
    bal3 = BinaryTree(3, [0, 2, 0, 0], [0, 3, 0, 0])
    assert src.log_prob(bal3).log_prob_bits == 0.0  # the only AVL shape at n=3
    assert src.log_prob(left_chain(3)).log_prob_bits == INF


# --- depth-first arithmetic code ---------------------------------------------

def test_dfs_arith_single_node():
    code = S.dfs_arith_encode(BST, single_node())
    assert len(code) <= 6
    assert S.dfs_arith_decode(BST, code) == single_node()


def test_dfs_arith_figure_tree():
    fig = figure_tree()
    code = S.dfs_arith_encode(BST, fig)
    assert S.dfs_arith_decode(BST, code) == fig
    assert len(code) <= 40
    # the arithmetic body (after gamma(21)) is the published 30-bit string
    assert code.to01()[9:] == "111011010111101011110101011111"


def test_dfs_arith_roundtrip_and_bound(rng):
    srcs = [BST, UNI, S.AlmostPathSource(2), S.FringeBalancedSource(1),
            S.BinomialSource(Fraction(1, 3))]
    for _ in range(250):
        src = rng.choice(srcs)
        n = rng.randint(1, 250)
        t = S.sample(src, n, rng.getrandbits(32))
        code = S.dfs_arith_encode(src, t)
        assert S.dfs_arith_decode(src, code) == t
        bound = src.log_prob(t).log_prob_bits + 2 * ((n + 1).bit_length() - 1) + 3
        assert len(code) <= bound + 1e-9


def test_dfs_arith_rejects_zero_probability():
    ap = S.AlmostPathSource(0)
    bal3 = BinaryTree(3, [0, 2, 0, 0], [0, 3, 0, 0])
    with pytest.raises(ValueError):
        S.dfs_arith_encode(ap, bal3)


def test_unnormalized_row_raises():
    # a split row that does not sum to its total stops both users of
    # cum_weights, on every call
    class Skewed(S.FixedSizeSource):
        def _weights(self, s):
            return [1] * s, s + (s >= 3)

    src = Skewed("skewed")
    for _ in range(2):
        with pytest.raises(S.EmptyClassError):
            S.sample(src, 5, 1)
        with pytest.raises(ValueError):
            S.dfs_arith_encode(src, left_chain(5))
    assert S.sample(src, 2, 1).n == 2


def test_dfs_code_length_examples():
    assert S.dfs_code_length(BST, single_node()) == 5.0
    v = S.dfs_code_length(BST, left_chain(3))
    assert abs(v - (math.log2(6) + 4 + 3)) < 1e-12
    bal3 = BinaryTree(3, [0, 2, 0, 0], [0, 3, 0, 0])
    assert S.dfs_code_length(S.AlmostPathSource(0), bal3) == INF


# --- parsing -------------------------------------------------------------------

def test_parse_source_descriptors():
    for spec, cls in [
        ("bst", S.BstSource), ("uniform", S.UniformSource),
        ("binomial:0.5", S.BinomialSource), ("almostpath:3", S.AlmostPathSource),
        ("fringebalanced:2", S.FringeBalancedSource),
        ("avl-size", S.UniformSubclass), ("avl-height", S.AvlByHeightSource),
        ("llrb", S.UniformSubclass), ("wb:2/7", S.UniformSubclass),
        ("motzkin", S.TypeProcess), ("memoryless:1/4,1/4,1/4,1/4", S.TypeProcess),
        ("composition", S.CompositionSource), ("lrm", S.LrmSource),
    ]:
        assert isinstance(S.parse_source(spec), cls), spec
    with pytest.raises(ValueError):
        S.parse_source("nope")
    with pytest.raises(ValueError):
        S.parse_source("memoryless:1,1,1,1")
