import random

import numpy as np
import pytest

from conftest import FIGURE_BP, FIGURE_BP_WRAPPED, figure_tree, random_bst
from reference import annotate
from hypertree import sources as S
from hypertree.bits import BitBuf, MalformedStream
from hypertree import trees
from hypertree.trees import (
    BinaryTree, OrdinalTree, binary_from_child_flags, bp_decode_binary, bp_decode_ordinal,
    bp_encode_binary, bp_encode_ordinal, fcns, fcns_full, fcns_inverse,
    left_chain, ordinal_path, ordinal_star, single_node,
)


def test_bp_binary_examples():
    assert bp_encode_binary(single_node()).to_paren() == "()"
    t = BinaryTree(2, [0, 2, 0], [0, 0, 0])
    assert bp_encode_binary(t).to_paren() == "(())"
    t = BinaryTree(2, [0, 0, 0], [0, 2, 0])
    assert bp_encode_binary(t).to_paren() == "()()"


def test_bp_binary_figure_tree():
    # the figure's structure is pinned by its subtree-size labels; the string
    # printed next to it uses the (L R) wrap convention instead
    t = figure_tree()
    assert bp_encode_binary(t).to_paren() == FIGURE_BP
    assert len(FIGURE_BP) == len(FIGURE_BP_WRAPPED) == 40

    def wrap(v):
        if v == 0:
            return ""
        return "(" + wrap(t.left[v]) + wrap(t.right[v]) + ")"

    assert wrap(t.root) == FIGURE_BP_WRAPPED


def test_bp_binary_roundtrip(rng):
    for _ in range(300):
        t = random_bst(rng, rng.randint(1, 120))
        buf = bp_encode_binary(t)
        assert len(buf) == 2 * t.n
        assert bp_decode_binary(buf) == t


def left_comb(k: int) -> BinaryTree:
    """A left chain of k nodes, each with a right leaf. The leaves follow
    the chain in preorder, so about k child slots stand open after it."""
    return BinaryTree.grow(k, lambda d: (d - 1 or None, 0) if d else (None, None))


def test_stable_order_matches_int64_argsort(monkeypatch):
    # The BP decoders and binary_from_child_flags sort levels by radix when
    # they are below 2^16 (the uniform tree) and as they are past it (the
    # chain and the comb). Both must give what the stable int64 argsort
    # gives, which stands in for the helper in the second pass.
    def decoded(t):
        bp = bp_encode_binary(t)
        flags = (np.asarray(t.left[1:]) != 0, np.asarray(t.right[1:]) != 0)
        return (bp_decode_binary(bp), binary_from_child_flags(*flags).tolist(),
                bp_decode_ordinal(bp, forest=True))

    cases = [S.sample(S.UniformSource(), 2 ** 17, 7), left_chain(70_000), left_comb(70_000)]
    got = [decoded(t) for t in cases]
    for t, (b, child, _) in zip(cases, got):
        assert b == t and child == [t.left, t.right]
    top_keys = []
    stable_order = trees._stable_order

    def reference(keys):
        want = np.argsort(keys.astype(np.int64), kind="stable")
        assert np.array_equal(stable_order(keys), want)
        top_keys.append(int(keys.max()))
        return want

    monkeypatch.setattr(trees, "_stable_order", reference)
    assert [decoded(t) for t in cases] == got
    # each of the three functions sorts once per tree, and on both paths
    assert len(top_keys) == 3 * len(cases)
    for keys in (top_keys[0::3], top_keys[1::3], top_keys[2::3]):
        assert min(keys) < 1 << 16 <= max(keys)


def test_bp_binary_prefix_validity():
    # balanced with nonnegative prefix excess decodes; everything else errors
    for bad in ["(", ")", ")(", "())(", "(()", "())", "11", "0101"]:
        with pytest.raises(MalformedStream):
            bp_decode_binary(BitBuf(bad.replace("1", "(").replace("0", ")")))


def test_grow_empty_root():
    def split(state):
        raise AssertionError("split ran on the empty tree")

    assert BinaryTree.grow(None, split) == BinaryTree(0, [0], [0])
    assert BinaryTree.grow(None, split, cap=0) == BinaryTree(0, [0], [0])


def test_grow_splits_in_preorder(rng):
    for t in [figure_tree(), left_chain(9)] + [random_bst(rng, rng.randint(1, 80))
                                               for _ in range(30)]:
        seen = []

        def split(v):
            seen.append(v)
            return t.left[v] or None, t.right[v] or None

        assert BinaryTree.grow(t.root, split) == t
        assert seen == list(range(1, t.n + 1))
    # any state but None is a node, 0 and () included
    assert BinaryTree.grow(0, lambda s: ((), None) if s == 0 else (None, None)) == left_chain(2)


def test_grow_cap():
    t = figure_tree()
    links = lambda v: (t.left[v] or None, t.right[v] or None)
    assert BinaryTree.grow(t.root, links, cap=t.n) == t
    seen = []

    def split(v):
        seen.append(v)
        return links(v)

    assert BinaryTree.grow(t.root, split, cap=t.n - 1) is None
    assert seen == list(range(1, t.n))
    assert BinaryTree.grow(t.root, links, cap=0) is None
    assert BinaryTree.grow(1, lambda v: (None, None), cap=1) == single_node()


def test_ordinal_grow_empty_root():
    def split(state):
        raise AssertionError("split ran on the empty tree")

    assert OrdinalTree.grow(None, split) == OrdinalTree(0, [[]])
    assert OrdinalTree.grow(None, split, cap=0) == OrdinalTree(0, [[]])


def test_ordinal_grow_splits_in_preorder(rng):
    trees = [ordinal_star(6), ordinal_path(7)]
    for src in (S.LrmSource(), S.CompositionSource()):
        trees += [S.sample(src, rng.randint(1, 80), rng) for _ in range(15)]
    for t in trees:
        seen = []

        def split(v):
            seen.append(v)
            return t.children[v]

        assert OrdinalTree.grow(t.root, split) == t
        assert seen == list(range(1, t.n + 1))
    # any state but None is a node, 0 and () included
    assert OrdinalTree.grow(0, lambda s: [(), ()] if s == 0 else []) == ordinal_star(3)


def test_ordinal_grow_cap():
    t = S.sample(S.LrmSource(), 30, 4)
    links = lambda v: t.children[v]
    assert OrdinalTree.grow(t.root, links, cap=t.n) == t
    seen = []

    def split(v):
        seen.append(v)
        return links(v)

    assert OrdinalTree.grow(t.root, split, cap=t.n - 1) is None
    assert seen == list(range(1, t.n))
    assert OrdinalTree.grow(t.root, links, cap=0) is None
    assert OrdinalTree.grow(1, lambda v: [], cap=1) == ordinal_star(1)


def test_bp_ordinal_examples():
    assert bp_encode_ordinal(ordinal_star(1)).to_paren() == "()"
    assert bp_encode_ordinal(ordinal_star(4)).to_paren() == "(()()())"
    assert bp_encode_ordinal([]).to_paren() == ""
    t = bp_decode_ordinal(BitBuf("(()()())"))
    assert t == ordinal_star(4)


def test_bp_ordinal_decode_every_short_string():
    # every string of up to 12 bits: decoded iff it is a Dyck word (one tree,
    # or any number of trees as a forest), and then it encodes back to itself
    for length in range(13):
        for code in range(2 ** length):
            text = format(code, f"0{length}b") if length else ""
            excess = 0
            prefix_ok = True
            returns = 0
            for c in text:
                excess += 1 if c == "1" else -1
                prefix_ok = prefix_ok and excess >= 0
                returns += excess == 0
            dyck = prefix_ok and excess == 0
            for forest in (False, True):
                if not (dyck and (forest or returns == 1)):
                    with pytest.raises(MalformedStream):
                        bp_decode_ordinal(BitBuf(text), forest)
                    continue
                got = bp_decode_ordinal(BitBuf(text), forest)
                trees = got if forest else [got]
                assert len(trees) == returns
                for t in trees:
                    assert OrdinalTree.from_links(1, t.children) == t
                assert bp_encode_ordinal(got).to01() == text


def rand_forest(rng, max_trees=4, max_n=40):
    out = []
    for _ in range(rng.randint(1, max_trees)):
        n = rng.randint(1, max_n)
        ch = {1: []}
        for v in range(2, n + 1):
            p = rng.randint(1, v - 1)
            ch[v] = []
            ch[p].append(v)
        out.append(OrdinalTree.from_links(1, ch))
    return out


def test_bp_ordinal_roundtrip_forest(rng):
    for _ in range(200):
        f = rand_forest(rng)
        buf = bp_encode_ordinal(f)
        back = bp_decode_ordinal(buf, forest=True)
        assert back == f


def bp_encode_ordinal_walk(forest):
    """The stack walk that ``bp_encode_ordinal`` used to run, one bit at a
    time: the reference its vectorized form must match."""
    buf = BitBuf()
    trees = [forest] if isinstance(forest, OrdinalTree) else forest
    for t in trees:
        if not t.n:
            continue
        ch = t.children
        stack = [t.root]
        while stack:
            v = stack.pop()
            if v == 0:
                buf.append_bit(0)
                continue
            buf.append_bit(1)
            stack.append(0)
            stack.extend(reversed(ch[v]))
    return buf


def test_bp_ordinal_matches_walk(rng):
    cases = [[], [OrdinalTree(0, [[]])], ordinal_star(1), ordinal_star(30),
             ordinal_path(1), ordinal_path(500), [ordinal_path(3), ordinal_star(4)]]
    cases += [rand_forest(rng, max_trees=6) for _ in range(300)]
    cases += [f[0] for f in cases[-100:]]
    for f in cases:
        assert bp_encode_ordinal(f).to01() == bp_encode_ordinal_walk(f).to01()


def test_fcns_worked_example():
    ch = {1: [2, 3, 5, 9], 2: [], 3: [4], 4: [], 5: [6, 7, 8],
          6: [], 7: [], 8: [], 9: []}
    t = OrdinalTree.from_links(1, ch)
    b = fcns([t])

    def term(v):
        if v == 0:
            return "L"
        return f"({term(b.left[v])},{term(b.right[v])})"

    assert term(b.root) == "((L,((L,L),((L,(L,(L,L))),(L,L)))),L)"


def test_fcns_bp_identity_and_roundtrip(rng):
    for _ in range(200):
        f = rand_forest(rng, max_trees=3, max_n=70)
        b = fcns(f)
        assert sum(t.n for t in f) == b.n
        assert bp_encode_ordinal(f) == bp_encode_binary(b)
        assert fcns_inverse(b) == f


def fcns_walk(forest):
    """The loop ``fcns`` used to run, one node at a time: the reference its
    BP composition must match."""
    trees = [forest] if isinstance(forest, OrdinalTree) else forest
    n = sum(t.n for t in trees)
    if n == 0:
        return BinaryTree(0, [0], [0])
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    base = 0
    prev_root = 0
    for t in trees:
        if not t.n:
            continue
        ch = t.children
        for v in range(1, t.n + 1):
            kids = ch[v]
            if kids:
                left[base + v] = base + kids[0]
            for a, b in zip(kids, kids[1:]):
                right[base + a] = base + b
        if prev_root:
            right[prev_root] = base + 1
        prev_root = base + 1
        base += t.n
    return BinaryTree(n, left, right)


def fcns_inverse_walk(t):
    """The stack walk ``fcns_inverse`` used to run: the reference its BP
    composition must match."""
    if not t.n:
        return []
    children = [[] for _ in range(t.n + 1)]
    roots = []
    v = t.root
    while v:
        roots.append(v)
        v = t.right[v]
    # each node's ordinal children: its left child, then that one's right chain
    stack = list(reversed(roots))
    while stack:
        v = stack.pop()
        c = t.left[v]
        while c:
            children[v].append(c)
            stack.append(c)
            c = t.right[c]
    out = []
    for r in roots:
        order = []
        st = [r]
        while st:
            v = st.pop()
            order.append(v)
            st.extend(reversed(children[v]))
        idx = {v: i + 1 for i, v in enumerate(order)}
        ch = [[]] + [[idx[c] for c in children[v]] for v in order]
        out.append(OrdinalTree(len(order), ch))
    return out


def test_fcns_matches_walk(rng):
    cases = [[], [OrdinalTree(0, [[]])], [ordinal_star(1)], ordinal_star(1),
             [ordinal_star(10_000)], [ordinal_path(10_000)],
             [ordinal_path(3), OrdinalTree(0, [[]]), ordinal_star(4)]]
    cases += [rand_forest(rng, max_trees=5, max_n=60) for _ in range(300)]
    for f in cases:
        b = fcns(f)
        assert b == fcns_walk(f)
        assert fcns_inverse(b) == fcns_inverse_walk(b)
    for n in (0, 1, 10_000):
        for t in (left_chain(n), random_bst(random.Random(n), n)):
            assert fcns_inverse(t) == fcns_inverse_walk(t)


def test_fcns_single_node():
    b = fcns([ordinal_star(1)])
    assert b == single_node()


def test_fcns_full_materializes_nulls():
    t = fcns_full(ordinal_star(1))
    assert t.n == 3
    assert t.left[1] and t.right[1]
    a = annotate(t)
    assert a.node_type[1] == 2 and a.node_type[2] == 0


def test_annotate_examples():
    a = annotate(single_node())
    assert a.subtree_size[1:] == [1] and a.height[1:] == [1] and a.node_type[1:] == [0]
    t = left_chain(3)
    a = annotate(t)
    assert a.subtree_size[1:] == [3, 2, 1]
    assert a.node_type[1:] == [1, 1, 0]
    fig = figure_tree()
    a = annotate(fig)
    assert a.subtree_size[fig.root] == 20
    assert a.subtree_size[fig.left[fig.root]] == 18


def test_annotate_invariants(rng):
    for _ in range(50):
        t = random_bst(rng, rng.randint(1, 100))
        a = annotate(t)
        assert a.subtree_size[t.root] == t.n
        leaves = sum(1 for v in range(1, t.n + 1) if a.node_type[v] == 0)
        binaries = sum(1 for v in range(1, t.n + 1) if a.node_type[v] == 2)
        assert leaves == binaries + 1
        ranks = sorted(a.inorder_rank[1:])
        assert ranks == list(range(1, t.n + 1))
    st = ordinal_star(9)
    a = annotate(st)
    assert a.degree[1] == 8 and a.height[1] == 2
    assert annotate(ordinal_path(5)).height[1] == 5
