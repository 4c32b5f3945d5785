import gc
import random
import sys
import types
from collections import Counter

import numpy as np
import pytest

from conftest import random_bst
from reference import annotate
from hypertree.bits import MalformedStream
from hypertree.cover import decompose_binary
from hypertree.hypercodec import hs_encode_binary, hs_encode_ordinal
from hypertree.navigate import NavIndex, build_nav
from hypertree.rmq import rmq_build
from hypertree.trees import left_chain, ordinal_star, right_chain, single_node
from hypertree import sources as S


def brute_tables(t):
    ann = annotate(t)
    par = [0] * (t.n + 1)
    for v in range(1, t.n + 1):
        if t.left[v]:
            par[t.left[v]] = v
        if t.right[v]:
            par[t.right[v]] = v

    def lca(u, v):
        seen = set()
        while u:
            seen.add(u)
            u = par[u]
        while v and v not in seen:
            v = par[v]
        return v

    return ann, par, lca


def test_single_node_index():
    blob = hs_encode_binary(single_node())
    idx = build_nav(blob)
    assert idx.n == 1 and idx.m == 1
    assert idx.inorder_rank(1) == 1 and idx.inorder_select(1) == 1
    assert idx.lca(1, 1) == 1
    assert idx.parent(1) is None
    assert idx.subtree_size(1) == 1
    # inorder -> (micro, local) is one run
    mi, loc = idx.batch_select_local([1])
    assert mi.tolist() == [0] and loc.tolist() == [1]


def test_rejects_ordinal_blob():
    blob = hs_encode_ordinal(ordinal_star(5))
    with pytest.raises(MalformedStream):
        build_nav(blob)


def _runs(ids):
    """Maximal runs of equal values in ids, counted per value."""
    ids = np.asarray(ids)
    heads = np.flatnonzero(np.diff(ids, prepend=-1) != 0)
    return Counter(ids[heads].tolist())


def test_inorder_intervals_partition(rng):
    for _ in range(40):
        t = random_bst(rng, rng.randint(1, 300))
        idx = build_nav(hs_encode_binary(t, rng.choice([None, 1, 2, 4])))
        # select over every rank reproduces a permutation: covers [1, n]
        seen = sorted(idx.inorder_select(r) for r in range(1, t.n + 1))
        assert seen == list(range(1, t.n + 1))
        # every rank maps to a distinct (micro, local) pair: the runs of the
        # inorder -> micro map partition [1, n] among the local nodes
        mi, loc = idx.batch_select_local(np.arange(1, t.n + 1))
        assert len(set(zip(mi.tolist(), loc.tolist()))) == t.n
        assert mi.min() >= 0 and mi.max() < idx.m and loc.min() >= 1
        # at most 3 inorder runs, and 3 preorder runs, per micro tree
        per = _runs(mi)
        assert all(c <= 3 for c in per.values()) and len(per) == idx.m
        per = _runs([idx.to_local(v)[0] for v in range(1, t.n + 1)])
        assert all(c <= 3 for c in per.values()) and len(per) == idx.m


def test_oracle_equivalence(rng):
    for trial in range(160):
        n = rng.randint(1, 512)
        src = rng.choice([S.BstSource(), S.UniformSource(), S.AlmostPathSource(1)])
        t = S.sample(src, n, rng.getrandbits(32))
        # blocks of 40 and 200 give micro trees of over 255 nodes
        B = rng.choice([None, 1, 2, 3, 6, 40, 200])
        cov = decompose_binary(t, B)
        blob = hs_encode_binary(t, cover=cov)
        idx = build_nav(blob) if trial % 2 else NavIndex(cov)
        ann, par, lca = brute_tables(t)
        for v in range(1, n + 1):
            assert idx.inorder_rank(v) == ann.inorder_rank[v]
            assert idx.inorder_select(ann.inorder_rank[v]) == v
            assert (idx.parent(v) or 0) == par[v]
            assert idx.subtree_size(v) == ann.subtree_size[v]
        if n <= 64:
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        else:
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(600)]
        for u, v in pairs:
            assert idx.lca(u, v) == lca(u, v)
        # the batch kernels, on every rank and on the same pairs
        rank = np.asarray(ann.inorder_rank)
        mi, loc = idx.batch_select_local(np.arange(1, n + 1))
        assert idx.batch_inorder_rank(mi, loc).tolist() == list(range(1, n + 1))
        u, v = (rank[list(x)] for x in zip(*pairs))
        mi, ul = idx.batch_select_local(u)
        mj, vl = idx.batch_select_local(v)
        got = idx.batch_inorder_rank(*idx.batch_lca_local(mi, ul, mj, vl))
        assert got.tolist() == [ann.inorder_rank[lca(a, b)] for a, b in pairs]


# micro trees per block of the top tier's range-minimum tables
BLOCK = 16


@pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1,
                               5 * BLOCK + 3])
def test_top_tier_block_edges(m):
    # at B = 1 every node is a micro tree, so the top tier is the tree, and
    # the pairs of nodes are every range of micro trees: inside one block,
    # across one boundary and over whole blocks
    trees = [left_chain(m), right_chain(m), S.sample(S.BstSource(), m, 5),
             S.sample(S.UniformSource(), m, 5)]
    for t in trees:
        cov = decompose_binary(t, 1)
        idx = build_nav(hs_encode_binary(t, cover=cov)) if m % 2 else NavIndex(cov)
        assert idx.m == m
        ann, par, lca = brute_tables(t)
        u, v = (x.ravel().tolist() for x in np.indices((m, m)) + 1)
        want = [lca(a, b) for a, b in zip(u, v)]
        assert [idx.lca(a, b) for a, b in zip(u, v)] == want
        rank = np.asarray(ann.inorder_rank)
        mi, ul = idx.batch_select_local(rank[u])
        mj, vl = idx.batch_select_local(rank[v])
        got = idx.batch_inorder_rank(*idx.batch_lca_local(mi, ul, mj, vl))
        assert got.tolist() == rank[want].tolist()


def test_rmq_near_block_multiples(rng):
    # one micro tree per key, so m = n falls on and next to block multiples;
    # few distinct keys give many ties
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 1):
        for hi in (3, 10 ** 6):
            A = [rng.randint(0, hi) for _ in range(n)]
            idx = rmq_build(A, 1)
            assert idx.nav.m == n
            li, ri = np.triu_indices(n)
            li, ri = li + 1, ri + 1
            want = [min(range(i, j + 1), key=lambda k: A[k - 1])
                    for i, j in zip(li.tolist(), ri.tolist())]
            assert [idx.query(i, j) for i, j in zip(li.tolist(), ri.tolist())] == want
            assert idx.query_many(li, ri).tolist() == want


def _deep_size(root) -> int:
    """Bytes of every object reachable from root, each counted once, numpy
    buffers included; classes, modules and functions left out."""
    shared = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen, stack, total = set(), [root], 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, shared):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, np.ndarray):
            if o.base is not None:
                stack.append(o.base)
            continue
        stack.extend(gc.get_referents(o))
    return total


def test_index_memory_bound():
    n = 2 ** 15
    t = S.sample(S.UniformSource(), n, 11)
    idx = build_nav(hs_encode_binary(t))
    per_node = _deep_size(idx) / n
    assert per_node <= 45, per_node


def test_lca_trivial_identities(rng):
    t = random_bst(rng, 100)
    idx = build_nav(hs_encode_binary(t))
    for v in range(1, 101):
        assert idx.lca(v, v) == v
    if t.left[1] and t.right[1]:
        assert idx.lca(t.left[1], t.right[1]) == 1
    assert idx.subtree_size(1) == 100


def test_batch_kernels_match_scalar(rng):
    t = S.sample(S.BstSource(), 4000, 17)
    idx = build_nav(hs_encode_binary(t))
    g = np.random.default_rng(3)
    li = g.integers(1, 4001, 2500)
    ri = g.integers(1, 4001, 2500)
    lo, hi = np.minimum(li, ri), np.maximum(li, ri)
    mi, ul = idx.batch_select_local(lo)
    mj, vl = idx.batch_select_local(hi)
    W, wl = idx.batch_lca_local(mi, ul, mj, vl)
    rr = idx.batch_inorder_rank(W, wl)
    for k in range(0, 2500, 7):
        u = idx.inorder_select(int(lo[k]))
        v = idx.inorder_select(int(hi[k]))
        assert int(rr[k]) == idx.inorder_rank(idx.lca(u, v))


def test_out_of_range():
    idx = build_nav(hs_encode_binary(left_chain(5)))
    with pytest.raises(IndexError):
        idx.inorder_select(6)
    with pytest.raises(IndexError):
        idx.lca(0, 3)
    with pytest.raises(IndexError):
        idx.subtree_size(9)
    for r in ([0], [-1], [6], [1, 6]):
        with pytest.raises(IndexError):
            idx.batch_select_local(r)


def test_build_smoke_large():
    t = S.sample(S.BstSource(), 10**6, 5)
    idx = build_nav(hs_encode_binary(t))
    ann = annotate(t)
    rng = random.Random(8)
    for _ in range(300):
        v = rng.randint(1, 10**6)
        assert idx.inorder_rank(v) == ann.inorder_rank[v]
        assert idx.subtree_size(v) == ann.subtree_size[v]
