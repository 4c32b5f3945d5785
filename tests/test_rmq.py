import gc
import itertools
import math
import random

import numpy as np
import pytest

from hypertree.bits import BitBuf, MalformedStream
from hypertree.cover import _binary_links
from hypertree.hypercodec import hs_encode_binary
from hypertree.rmq import _cartesian_links, cartesian_tree, lg_narayana, rmq_build, runs_profile
from hypertree.trees import BinaryTree, bp_encode_binary, ordinal_path
from ordinal_cover import decompose_ordinal
from reference import annotate, bp_encode_postorder_variant, dyck_peaks

PAPER_ARRAY = (2, 3, 4, 1, 6, 5, 7, 9, 10, 8)


def brute_rmq(A, i, j):
    best = i
    for k in range(i + 1, j + 1):
        if A[k - 1] < A[best - 1]:
            best = k
    return best


def cartesian_tree_walk(values) -> BinaryTree:
    """The stack pass and the two preorder walks that ``cartesian_tree``
    used to run: the reference its nearest-smaller-values form must match."""
    n = len(values)
    if n < 1:
        raise ValueError("empty array")
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    stack: list[int] = []  # rightmost spine, indices 1..n (inorder ids)
    for j in range(1, n + 1):
        x = values[j - 1]
        last = 0
        while stack and values[stack[-1] - 1] > x:
            last = stack.pop()
        left[j] = last
        if stack:
            right[stack[-1]] = j
        stack.append(j)
    root = stack[0]
    # renumber to preorder (the original index is the inorder rank; the
    # renumbering preserves inorder order)
    nl = [0] * (n + 1)
    nr = [0] * (n + 1)
    idx = [0] * (n + 1)
    work = [root]
    cnt = 0
    while work:
        v = work.pop()
        cnt += 1
        idx[v] = cnt
        if right[v]:
            work.append(right[v])
        if left[v]:
            work.append(left[v])
    work = [root]
    while work:
        v = work.pop()
        i = idx[v]
        l, r = left[v], right[v]
        if l:
            nl[i] = idx[l]
            work.append(l)
        if r:
            nr[i] = idx[r]
            work.append(r)
    return BinaryTree(n, nl, nr)


def assert_same_cartesian(values):
    want = cartesian_tree_walk(values)
    assert cartesian_tree(values) == want, values
    for got, ref in zip(_cartesian_links(values), _binary_links(want)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref), values


def test_cartesian_matches_walk_every_small_array():
    count = 0
    for n in range(1, 8):
        for values in itertools.product(range(3), repeat=n):
            assert_same_cartesian(values)
            count += 1
    assert count == 3279


def test_cartesian_matches_walk_random(rng):
    for top in (3, 10**9):
        for _ in range(40):
            n = rng.choice([rng.randint(1, 60), rng.randint(1, 5000)])
            assert_same_cartesian([rng.randint(0, top) for _ in range(n)])


def test_rmq_blob_is_the_codec_blob(rng):
    # rmq_build covers the links directly; its blob is the tree codec's
    for _ in range(30):
        n = rng.randint(1, 3000)
        values = [rng.randint(0, rng.choice([3, 10**9])) for _ in range(n)]
        for B in (None, 1, 4):
            want = hs_encode_binary(cartesian_tree_walk(values), B).to_bytes()
            assert rmq_build(values, B).blob.to_bytes() == want


def test_cartesian_matches_walk_mixed_types(rng):
    for _ in range(50):
        n = rng.randint(1, 300)
        assert_same_cartesian([rng.choice([rng.randint(0, 9), rng.randint(0, 18) / 2])
                               for _ in range(n)])
        assert_same_cartesian([(rng.randint(0, 2), rng.randint(0, 3)) for _ in range(n)])
    assert_same_cartesian((1.0, 1, 0.5, 2, 0, 0.0))


def test_cartesian_matches_walk_monotone():
    for n in (1, 2, 3, 17, 1000, 3000):
        for values in ([7] * n, list(range(n)), list(range(n, 0, -1))):
            assert_same_cartesian(values)


def test_paper_array():
    t = cartesian_tree(PAPER_ARRAY)
    assert annotate(t).inorder_rank[t.root] == 4
    idx = rmq_build(PAPER_ARRAY)
    assert idx.query(1, 10) == 4
    assert idx.query(5, 8) == 6
    for i in range(1, 11):
        assert idx.query(i, i) == i
    # the appendix bijection on this array: 4 runs, 4 peaks
    assert runs_profile(PAPER_ARRAY).r == 4
    assert dyck_peaks(bp_encode_postorder_variant(t)) == 4


def test_cartesian_chains():
    t = cartesian_tree([1, 2, 3, 4])
    assert t.left[1:] == [0, 0, 0, 0] and t.right[1:] == [2, 3, 4, 0]
    t = cartesian_tree([5, 5, 5])
    assert t.right[1:] == [2, 3, 0]  # leftmost tie-breaking: right chain
    t = cartesian_tree([4, 3, 2, 1])
    assert t.left[1:] == [2, 3, 4, 0]
    with pytest.raises(ValueError):
        cartesian_tree([])


def test_rmq_matches_bruteforce(rng):
    for _ in range(120):
        n = rng.randint(1, 220)
        A = [rng.randint(0, rng.choice([8, 10**9])) for _ in range(n)]
        idx = rmq_build(A, rng.choice([None, 2, 4]))
        for _ in range(120):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            assert idx.query(i, j) == brute_rmq(A, i, j)


def test_build_restores_gc_state():
    # decompose_ordinal pauses the collector; neither it nor rmq_build may
    # leave the collector otherwise than they found it
    for build in (lambda: rmq_build([3, 1, 2]),
                  lambda: decompose_ordinal(ordinal_path(5), 1)):
        assert gc.isenabled()
        build()
        assert gc.isenabled()
        gc.disable()
        try:
            build()
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_rmq_bad_interval():
    idx = rmq_build([3, 1, 2])
    with pytest.raises(IndexError):
        idx.query(2, 1)
    with pytest.raises(IndexError):
        idx.query(0, 2)
    with pytest.raises(IndexError):
        idx.query(1, 4)


def test_batch_matches_scalar(rng):
    A = [rng.randint(0, 10**6) for _ in range(3000)]
    idx = rmq_build(A)
    g = np.random.default_rng(11)
    li = g.integers(1, 3001, 2000)
    ri = g.integers(1, 3001, 2000)
    lo, hi = np.minimum(li, ri), np.maximum(li, ri)
    ans = idx.query_many(lo, hi)
    for k in range(0, 2000, 3):
        assert int(ans[k]) == idx.query(int(lo[k]), int(hi[k]))
    with pytest.raises(IndexError):
        idx.query_many(np.array([0]), np.array([1]))


def test_runs_profile_cases():
    rp = runs_profile([1, 2, 3])
    assert rp.r == 1 and rp.s == 0 and abs(rp.narayana_bits) < 1e-9
    rp = runs_profile([3, 2, 1])
    assert rp.r == 3 and rp.s == 3
    rp = runs_profile([1, 1, 2, 0, 5])
    assert rp.r == 2 and rp.s == 0
    assert abs(lg_narayana(4, 2) - math.log2(6)) < 1e-9
    assert runs_profile([7]).r == 1


def test_narayana_closed_form_small():
    # N_{n,r} summed over r gives the Catalan number
    from hypertree.sources import catalan
    for n in (3, 5, 8):
        total = sum(2.0 ** lg_narayana(n, r) for r in range(1, n + 1))
        assert abs(total - catalan(n)) < 1e-6 * catalan(n)


def test_dyck_peaks_examples():
    assert dyck_peaks(BitBuf("1010")) == 2
    assert dyck_peaks(BitBuf("1100")) == 1
    with pytest.raises(MalformedStream):
        dyck_peaks(BitBuf("10100"))
    with pytest.raises(MalformedStream):
        dyck_peaks(BitBuf("01"))


def test_runs_bijection(rng):
    for _ in range(300):
        n = rng.randint(1, 400)
        A = [rng.randint(0, rng.choice([4, 50, 10**9])) for _ in range(n)]
        t = cartesian_tree(A)
        bp = bp_encode_postorder_variant(t)
        assert len(bp) == 2 * n
        assert dyck_peaks(bp) == runs_profile(A).r


def test_variant_vs_standard_bp(rng):
    # the two encodings describe the same tree through different grammars
    A = [rng.randint(0, 100) for _ in range(50)]
    t = cartesian_tree(A)
    assert len(bp_encode_binary(t)) == len(bp_encode_postorder_variant(t))


def test_index_never_touches_values(rng):
    A = [rng.randint(0, 100) for _ in range(500)]
    idx = rmq_build(A)
    expected = [(i, j, brute_rmq(A, i, j))
                for i, j in [(rng.randint(1, 250), rng.randint(251, 500)) for _ in range(50)]]
    del A
    for i, j, want in expected:
        assert idx.query(i, j) == want
