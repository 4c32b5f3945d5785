import random
import time

import numpy as np
import pytest

from conftest import induced_shapes, micro_shapes, random_bst
from hypertree.cover import (
    BinaryCover, BinaryPlacement, CoverStats, EDGE_CONT_LEFT, EDGE_CONT_RIGHT,
    EDGE_NEW_LEFT, EDGE_NEW_RIGHT, ShapeTables, _binary_links, _finalize_binary,
    _follow, decompose_binary, decompose_ordinal, default_block, validate_cover,
)
from hypertree.hypercodec import hs_encode_binary, parse_binary_blob
from hypertree.rmq import cartesian_tree
from hypertree.sources.counting import iter_shapes, shape_to_tree
from hypertree.trees import (
    BinaryTree, OrdinalTree, annotate, bp_encode_binary, left_chain,
    ordinal_path, ordinal_star, right_chain, single_node,
)
from hypertree import sources as S


def greedy_binary(t: BinaryTree, B: int | None = None) -> BinaryCover:
    """The binary cover by the greedy sealing loop, node by node bottom-up:
    the reference that ``decompose_binary`` must match."""
    n = t.n
    if B is None:
        B = default_block(n)
    left, right = t.left, t.right
    # A component is named by the node that started it. Merging component
    # c into d sets into[c] = d; portals are (node, side) pairs, owned by
    # the micro tree of their node.
    size = [0] * (n + 1)
    comp_of = [0] * (n + 1)
    csize = [0] * (n + 1)
    perm = [False] * (n + 1)
    into = list(range(n + 1))
    pnode: list[int] = []
    pside: list[int] = []
    for v in range(n, 0, -1):
        l, r = left[v], right[v]
        sl, sr = size[l], size[r]
        size[v] = 1 + sl + sr
        lc, rc = comp_of[l], comp_of[r]
        if sl >= B:
            if sr >= B:
                # branching node: seal everything, v stays alone
                perm[lc] = perm[rc] = perm[v] = True
                csize[v] = 1
                comp_of[v] = v
                pnode += (v, v)
                pside += (0, 1)
                continue
            hc, other, side = lc, rc, 0
        elif sr >= B:
            hc, other, side = rc, lc, 1
        else:
            # both light: v joins its left child's component, which a light
            # subtree never seals, so ``side`` is not read below
            hc, other = lc, rc
        if perm[hc]:
            c = v
            csize[v] = 1
            pnode.append(v)
            pside.append(side)
        elif hc:
            c = hc
            csize[c] += 1
        else:
            c = v
            csize[v] = 1
        if other:
            into[other] = c
            csize[c] += csize[other]
        if csize[c] >= B:
            perm[c] = True
        comp_of[v] = c
    # resolve each node's component through the merge pointers
    comp = _follow(np.asarray(into, dtype=np.int64))[np.asarray(comp_of, dtype=np.int64)]
    lft, rgt, parent, _ = _binary_links(t)
    return _finalize_binary(B, lft, rgt, parent, comp, np.asarray(pnode, dtype=np.int64),
                            np.asarray(pside, dtype=np.int64))


def assert_same_cover(a: BinaryCover, b: BinaryCover, what):
    assert (a.n, a.B, a.shape_bps) == (b.n, b.B, b.shape_bps), what
    for name in ("members", "starts", "shape_id", "fields"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (what, name)
    assert np.array_equal(a.top_tier, b.top_tier), what


def balanced_tree(n):
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    st = [(1, n, None, None)]
    root = None
    while st:
        lo, hi, par, side = st.pop()
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        if par is None:
            root = mid
        elif side == 0:
            left[par] = mid
        else:
            right[par] = mid
        st.append((lo, mid - 1, mid, 0))
        st.append((mid + 1, hi, mid, 1))
    return BinaryTree.from_links(root, left, right)


def test_single_micro_when_small(rng):
    for n in (1, 2, 5, 8):
        t = random_bst(rng, n)
        cov = decompose_binary(t, 8)
        assert len(cov.shape_id) == 1
        assert not cov.fields[0].any()
        stats = validate_cover(cov, t)
        assert isinstance(stats, CoverStats) and stats.m == 1


def test_balanced_1023_block8():
    t = balanced_tree(1023)
    cov = decompose_binary(t, 8)
    stats = validate_cover(cov, t)
    assert isinstance(stats, CoverStats)
    assert np.diff(cov.starts).max() <= 16
    # every micro root heavy is part of validate_cover; spot-check directly
    size = annotate(t).subtree_size
    assert all(size[r] >= 8 for r in cov.members[cov.starts[:-1]].tolist())


def test_binary_cover_random(rng):
    for _ in range(200):
        n = rng.randint(1, 400)
        B = rng.choice([None, 1, 2, 3, 4, 8, 16])
        t = random_bst(rng, n)
        cov = decompose_binary(t, B)
        res = validate_cover(cov, t)
        assert isinstance(res, CoverStats), res[:4]
        bb = B or default_block(n)
        assert res.m <= max(1, 8 * n // bb)
        # top tier is a preorder-consistent binary tree
        left, right = cov.top_tier.tolist()
        assert BinaryTree.from_links(1, left, right) == BinaryTree(res.m, left, right)
        assert micro_shapes(cov) == induced_shapes(t, cov)


def test_binary_cover_deterministic(rng):
    t = random_bst(rng, 500)
    a = decompose_binary(t, 4)
    b = decompose_binary(t, 4)
    assert np.array_equal(a.members, b.members) and np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.top_tier, b.top_tier)


def test_ordinal_star_shared_roots():
    t = ordinal_star(60)
    cov = decompose_ordinal(t, 6)
    res = validate_cover(cov, t)
    assert isinstance(res, CoverStats)
    # the micro trees that hold a node some other micro tree holds too
    micro = np.repeat(np.arange(len(cov.shape_id)), np.diff(cov.starts))
    shared = np.unique(micro[np.bincount(cov.members)[cov.members] > 1])
    assert len(shared) >= 2
    types = set(cov.fields[:, 2].tolist())
    assert types <= {EDGE_NEW_LEFT, EDGE_CONT_LEFT, EDGE_NEW_RIGHT, EDGE_CONT_RIGHT}
    # consecutive members of a shared-root family alternate new/continued
    assert cov.fields[0, 2] == EDGE_NEW_LEFT
    assert cov.fields[1, 2] == EDGE_CONT_LEFT


def test_ordinal_cover_random(rng):
    for _ in range(200):
        n = rng.randint(1, 400)
        B = rng.choice([None, 1, 2, 3, 4, 8, 16])
        kind = rng.randrange(4)
        if kind == 0:
            t = ordinal_star(n)
        elif kind == 1:
            t = ordinal_path(n)
        elif kind == 2:
            t = S.sample(S.LrmSource(), n, rng.getrandbits(32))
        else:
            t = S.sample(S.CompositionSource(), n, rng.getrandbits(32))
        cov = decompose_ordinal(t, B)
        res = validate_cover(cov, t)
        assert isinstance(res, CoverStats), (n, B, kind, res[:4])
        assert OrdinalTree.from_links(1, cov.top_tier.children) == cov.top_tier
        assert micro_shapes(cov) == induced_shapes(t, cov)


def test_shape_tables_match_annotate(rng):
    # shapes of mixed sizes in one table, against the per-node loops of
    # annotate and a scan of the null pointers in inorder
    shapes = [left_chain(7), BinaryTree(1, [0, 0], [0, 0])]
    shapes += [random_bst(rng, rng.randint(1, 12)) for _ in range(40)]
    tab = ShapeTables([bp_encode_binary(sh).to_paren() for sh in shapes])
    for s, sh in enumerate(shapes):
        ann = annotate(sh)
        mu = sh.n
        assert tab.mu[s] == mu
        assert tab.size[s, :mu + 1].tolist() == ann.subtree_size
        assert tab.inorder[s, 1:mu + 1].tolist() == ann.inorder_rank[1:]
        assert not tab.size[s, mu + 1:].any() and not tab.inorder[s, mu + 1:].any()
        for x in range(1, mu + 1):
            assert tab.local_of_inorder[s, ann.inorder_rank[x]] == x
            for c in (sh.left[x], sh.right[x]):
                if c:
                    assert tab.parent[s, c] == x
        nulls = []   # (node, side, first preorder id after it), in inorder
        for x in sorted(range(1, mu + 1), key=lambda x: ann.inorder_rank[x]):
            if not sh.left[x]:
                nulls.append((x, 0, x + 1))
            if not sh.right[x]:
                nulls.append((x, 1, x + ann.subtree_size[x]))
        assert len(nulls) == mu + 1
        assert [tuple(int(a[s, r]) for a in (tab.null_node, tab.null_side, tab.null_thr))
                for r in range(mu + 1)] == nulls


def placement_by_jumping(layout) -> dict:
    """The per-micro-tree sums of ``BinaryPlacement``, the reference for its
    prefix sums: each top-tier subtree's last micro tree by one pass in
    reverse preorder, and each child's offsets from its parent summed down
    the top tier by pointer jumping, in lg(depth) rounds."""
    tables = ShapeTables(layout.shape_bps)
    sid = np.asarray(layout.shape_id)
    mu = tables.mu[sid]
    m = len(sid)
    child = np.asarray(layout.top_tier)[:, 1:] - 1
    has = child >= 0
    rank = np.where(has, np.asarray(layout.fields).T - 1, mu)
    thr = tables.null_thr[sid, rank]
    last = list(range(m))
    for i in range(m - 1, -1, -1):
        for c in child[:, i].tolist():  # the right child, if any, wins
            if c >= 0:
                last[i] = last[c]
    ends = np.concatenate(([0], np.cumsum(mu)))
    hang = ends[np.asarray(last) + 1] - ends[:-1]
    sub = np.where(has, hang[child], 0)
    k, i = np.nonzero(has)
    c = child[k, i]
    up = np.zeros(m, dtype=np.int64)
    up[c] = i
    acc = np.zeros((3, m), dtype=np.int64)
    acc[0, c] = thr[k, i] - 1 + k * sub[0, i]
    acc[1, c] = rank[k, i] + k * sub[0, i]
    acc[2, c] = 1
    jump = up.copy()
    while jump.any():
        acc += acc[:, jump]
        jump = jump[jump]
    return {"hang": hang, "sub": sub, "up": up, "root_pre": acc[0] + 1,
            "in_start": acc[1] + 1, "depth": acc[2]}


def zigzag(n: int) -> BinaryTree:
    """A path of n nodes whose edges go left and right in turn."""
    left, right = [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n):
        (left if v % 2 else right)[v] = v + 1
    return BinaryTree(n, left, right)


@pytest.mark.parametrize("B", [1, 2, 3, 8])
def test_placement_matches_pointer_jumping(B):
    # top tiers as deep as m (the Cartesian trees of sorted and reverse
    # sorted arrays, a zigzag path), the Cartesian tree of a permutation
    # sorted in 256 runs, a random BST, and m = 1; from the cover and from
    # its parsed blob
    n = 2000
    rng = np.random.default_rng(16)
    runs = rng.permutation(n)
    for part in np.split(runs, np.sort(rng.choice(np.arange(1, n), 255, replace=False))):
        part.sort()
    paths = [cartesian_tree(list(range(n))), cartesian_tree(list(range(n, 0, -1))),
             zigzag(n)]
    trees = paths + [cartesian_tree(runs.tolist()), random_bst(random.Random(B), n),
                     single_node(), random_bst(random.Random(B), 8)]
    for t in trees:
        cov = decompose_binary(t, B)
        m = len(cov.shape_id)
        if t in paths:
            assert m > 1 and cov.top_tier[:, 1:].astype(bool).sum(axis=0).max() == 1
        for layout in (cov, parse_binary_blob(hs_encode_binary(t, cover=cov))):
            p = BinaryPlacement(layout)
            want = placement_by_jumping(layout)
            if t in paths:
                assert want["depth"].max() == m - 1
            for name, value in want.items():
                got = getattr(p, name)
                assert got.dtype == np.int64 and np.array_equal(got, value), (t, B, name)
    assert len(decompose_binary(trees[-1], 8).shape_id) == 1


def _with_member(cov, at, node):
    """The cover with ``node`` inserted into its members at ``at``, which
    lies in micro tree 0: that micro tree gains a member."""
    cov.members = np.insert(cov.members, at, node)
    cov.starts = cov.starts + (np.arange(len(cov.starts)) > 0)
    return cov


def test_validate_reports_corruption(rng):
    t = random_bst(rng, 80)
    # micro tree 0 also claims the root of another micro tree
    cov = decompose_binary(t, 4)
    other = cov.members[cov.starts[-2]]
    out = validate_cover(_with_member(cov, cov.starts[1], other), t)
    assert isinstance(out, list) and out

    # a member of micro tree 0 is overwritten by a node another one holds
    cov = decompose_binary(t, 4)
    cov.members[cov.starts[0]] = cov.members[cov.starts[-2]]
    out = validate_cover(cov, t)
    assert isinstance(out, list) and out
    assert isinstance(validate_cover(decompose_binary(t, 4), t), CoverStats)


def _corruptions(cov):
    """Ways to break each array of a cover, as functions that break it."""
    def set_(name, value):
        return lambda c: setattr(c, name, value)

    def item(name, index, value):
        def f(c):
            arr = getattr(c, name).copy()
            arr[index] = value
            setattr(c, name, arr)
        return f

    m, w = cov.fields.shape
    return [
        item("members", 0, 0), item("members", -1, cov.n + 1),
        item("members", -1, cov.members[0]),
        item("starts", 1, 0), item("starts", -1, len(cov.members) + 1),
        item("shape_id", 0, len(cov.shape_bps)), item("shape_id", -1, -1),
        item("fields", (0, 0), 99), item("fields", (m - 1, w - 1), -1),
        set_("shape_bps", ["()(" + bp[3:] for bp in cov.shape_bps]),
        set_("shape_bps", [")" + bp[1:] for bp in cov.shape_bps]),
        set_("shape_id", cov.shape_id[:-1]), set_("fields", cov.fields[:, :1]),
        set_("n", cov.n + 1), set_("n", cov.n - 1), set_("B", 10 ** 6),
    ]


def test_validate_corrupt_arrays_never_raise(rng):
    # every corruption of every array yields violation strings, with and
    # without the tree; the uncorrupted covers hold
    trees = [(decompose_binary, random_bst(rng, 200)),
             (decompose_ordinal, S.sample(S.LrmSource(), 200, 7)),
             (decompose_ordinal, ordinal_star(100))]
    for decompose, t in trees:
        for B in (2, 5):
            assert isinstance(validate_cover(decompose(t, B), t), CoverStats)
            for k, corrupt in enumerate(_corruptions(decompose(t, B))):
                cov = decompose(t, B)
                corrupt(cov)
                for tree in (None, t):
                    out = validate_cover(cov, tree)
                    assert isinstance(out, list) and out, (decompose.__name__, B, k)


def test_validate_top_tier_corruption(rng):
    # a top tier that is not a tree in preorder, or whose external edges
    # do not match the portals, is reported, not raised
    t = random_bst(rng, 300)
    o = ordinal_star(60)
    lrm = S.sample(S.LrmSource(), 300, 9)
    cases = []
    cov = decompose_binary(t, 3)
    cov.top_tier[:, 1] = cov.top_tier[::-1, 1].copy()
    cases.append((cov, t))
    for at, value in ((2, 1), (1, -1000)):
        cov = decompose_binary(t, 3)
        cov.top_tier[0, at] = value
        cases.append((cov, t))
    cov = decompose_ordinal(o, 3)
    cov.top_tier.children[1].append(2)
    cases.append((cov, o))
    cov = decompose_ordinal(lrm, 3)
    cov.fields[np.flatnonzero(cov.fields[:, 0])[0], :2] = 0
    cases.append((cov, lrm))
    for cov, tree in cases:
        out = validate_cover(cov, tree)
        assert isinstance(out, list) and out


@pytest.mark.parametrize("tree", [
    lambda: ordinal_star(2 ** 14),
    lambda: S.sample(S.CompositionSource(), 2 ** 14, S.derive_seed("validate", 2 ** 14)),
], ids=["star", "composition"])
def test_validate_ordinal_linear(tree):
    # the validator counts each child once, not once per micro tree that
    # shares its parent: 2^14 nodes in well under the 2 s bound
    t = tree()
    cov = decompose_ordinal(t)
    t0 = time.perf_counter()
    res = validate_cover(cov, t)
    elapsed = time.perf_counter() - t0
    assert isinstance(res, CoverStats), res[:4]
    assert elapsed < 2.0


def test_stats_fields(rng):
    t = random_bst(rng, 300)
    cov = decompose_binary(t, 8)
    stats = validate_cover(cov, t)
    size = annotate(t).subtree_size
    assert stats.heavy_count == sum(1 for v in range(1, 301) if size[v] >= 8)
    assert stats.m == len(cov.shape_id)


def test_left_chain_cover():
    t = left_chain(100)
    cov = decompose_binary(t, 10)
    assert isinstance(validate_cover(cov, t), CoverStats)
    assert np.diff(cov.starts).max() <= 20
    assert len(cov.shape_id) == 10


def test_large_bst_default_block():
    n = 10 ** 5
    t = S.sample(S.BstSource(), n, 31337)
    cov = decompose_binary(t)
    stats = validate_cover(cov, t)
    assert isinstance(stats, CoverStats)
    assert stats.m <= 8 * n // cov.B


def test_ordinal_34_nodes_block6(rng):
    # a 34-node tree with mixed degrees, covered with B=6: a handful of
    # micro trees, each at most 12 nodes, one interval of children apiece
    for _ in range(20):
        t = S.sample(S.LrmSource(), 34, rng.getrandbits(32))
        cov = decompose_ordinal(t, 6)
        assert isinstance(validate_cover(cov, t), CoverStats)
        assert np.diff(cov.starts).max() <= 12
        assert 2 <= len(cov.shape_id) <= 8 * 34 // 6


def test_matches_greedy_every_small_tree():
    # every binary tree of up to 8 nodes, at every B that splits it
    for n in range(1, 9):
        for shape in iter_shapes(n):
            t = shape_to_tree(shape)
            for B in (1, 2, 3, 4):
                assert_same_cover(decompose_binary(t, B), greedy_binary(t, B), (t, B))


@pytest.mark.parametrize("source", [S.BstSource(), S.UniformSource()], ids=["bst", "uniform"])
def test_matches_greedy_random_trees(source):
    for n in (9, 50, 333, 1000, 5000):
        t = S.sample(source, n, S.derive_seed("greedy", n))
        for B in (1, 2, 3, 4, 6, 9, None):
            assert_same_cover(decompose_binary(t, B), greedy_binary(t, B), (n, B))


def test_matches_greedy_chains():
    for n in (1, 2, 3, 5, 8, 13, 64, 100, 999, 3000):
        for t in (left_chain(n), right_chain(n)):
            for B in (1, 2, 3, 7):
                assert_same_cover(decompose_binary(t, B), greedy_binary(t, B), (t, B))
