import random

import pytest

from conftest import random_bst
from hypertree.cover import (
    BinaryCover, CoverStats, EDGE_CONT_LEFT, EDGE_CONT_RIGHT, EDGE_NEW_LEFT,
    EDGE_NEW_RIGHT, ShapeTables, decompose_binary, decompose_ordinal,
    default_block, validate_cover,
)
from hypertree.trees import (
    BinaryTree, OrdinalTree, annotate, bp_encode_binary, left_chain,
    ordinal_path, ordinal_star,
)
from hypertree import sources as S


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
        assert len(cov.micro) == 1
        assert cov.micro[0].left_portal is None and cov.micro[0].right_portal is None
        stats = validate_cover(cov, t)
        assert isinstance(stats, CoverStats) and stats.m == 1


def test_balanced_1023_block8():
    t = balanced_tree(1023)
    cov = decompose_binary(t, 8)
    stats = validate_cover(cov, t)
    assert isinstance(stats, CoverStats)
    assert all(mt.size <= 16 for mt in cov.micro)
    # every micro root heavy is part of validate_cover; spot-check directly
    size = annotate(t).subtree_size
    assert all(size[mt.root_global] >= 8 for mt in cov.micro)


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
        assert BinaryTree.from_links(1, cov.top_tier.left, cov.top_tier.right) == cov.top_tier


def test_binary_cover_deterministic(rng):
    t = random_bst(rng, 500)
    a = decompose_binary(t, 4)
    b = decompose_binary(t, 4)
    assert [mt.local_to_global for mt in a.micro] == [mt.local_to_global for mt in b.micro]
    assert a.top_tier == b.top_tier


def test_ordinal_star_shared_roots():
    t = ordinal_star(60)
    cov = decompose_ordinal(t, 6)
    res = validate_cover(cov, t)
    assert isinstance(res, CoverStats)
    shared = [mt for mt in cov.micro if mt.shared_root]
    assert len(shared) >= 2
    types = {mt.parent_edge_type for mt in cov.micro}
    assert types <= {EDGE_NEW_LEFT, EDGE_CONT_LEFT, EDGE_NEW_RIGHT, EDGE_CONT_RIGHT}
    # consecutive members of a shared-root family alternate new/continued
    assert cov.micro[0].parent_edge_type == EDGE_NEW_LEFT
    assert cov.micro[1].parent_edge_type == EDGE_CONT_LEFT


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


def test_validate_reports_corruption(rng):
    t = random_bst(rng, 80)
    cov = decompose_binary(t, 4)
    cov.micro[0].local_to_global.append(cov.micro[-1].local_to_global[1])
    out = validate_cover(cov, t)
    assert isinstance(out, list) and out

    cov = decompose_binary(t, 4)
    # claim a node belongs to two micro trees
    dup = cov.micro[-1].local_to_global[1]
    cov.micro[0].local_to_global[1] = dup
    cov.micro[0].shape = cov.micro[0].shape  # shape size still matches
    out = validate_cover(decompose_binary(t, 4), t)
    assert isinstance(out, CoverStats)


def test_stats_fields(rng):
    t = random_bst(rng, 300)
    cov = decompose_binary(t, 8)
    stats = validate_cover(cov, t)
    size = annotate(t).subtree_size
    assert stats.heavy_count == sum(1 for v in range(1, 301) if size[v] >= 8)
    assert stats.m == len(cov.micro)


def test_left_chain_cover():
    t = left_chain(100)
    cov = decompose_binary(t, 10)
    assert isinstance(validate_cover(cov, t), CoverStats)
    assert all(mt.size <= 20 for mt in cov.micro)
    assert len(cov.micro) == 10


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
        assert all(mt.size <= 12 for mt in cov.micro)
        assert 2 <= len(cov.micro) <= 8 * 34 // 6
