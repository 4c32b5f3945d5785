"""Tree representations (pointerless, preorder-numbered), balanced-parenthesis
codecs for binary and ordinal trees, the first-child-next-sibling bijection,
and per-node annotations.

Nodes are identified by their preorder index (1-based); 0 is the null
sentinel. All traversals are iterative so degenerate trees of any size work.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .bits import BitBuf, MalformedStream


class BinaryTree:
    """Binary tree with per-node left/right child ids; node = preorder index."""

    __slots__ = ("n", "left", "right", "root")

    def __init__(self, n: int, left: list[int], right: list[int]):
        self.n = n
        self.left = left      # left[0] unused
        self.right = right
        self.root = 1 if n else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryTree)
            and self.n == other.n
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.n, tuple(self.left), tuple(self.right)))

    def __repr__(self):
        return f"BinaryTree(n={self.n}, bp={bp_encode_binary(self).to_paren()!r})" if self.n <= 24 else f"BinaryTree(n={self.n})"

    @staticmethod
    def from_links(root: int, left: dict | list, right: dict | list) -> "BinaryTree":
        """Renumber an arbitrary-id link structure into preorder form."""
        if not root:
            return BinaryTree(0, [0], [0])
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            r = right[v]
            l = left[v]
            if r:
                stack.append(r)
            if l:
                stack.append(l)
        idx = {v: i + 1 for i, v in enumerate(order)}
        n = len(order)
        nl = [0] * (n + 1)
        nr = [0] * (n + 1)
        for v in order:
            i = idx[v]
            if left[v]:
                nl[i] = idx[left[v]]
            if right[v]:
                nr[i] = idx[right[v]]
        return BinaryTree(n, nl, nr)


class OrdinalTree:
    """Ordinal (rooted, ordered) tree; node = preorder index."""

    __slots__ = ("n", "children", "root")

    def __init__(self, n: int, children: list[list[int]]):
        self.n = n
        self.children = children  # children[0] unused
        self.root = 1 if n else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrdinalTree)
            and self.n == other.n
            and self.children == other.children
        )

    def __repr__(self):
        return f"OrdinalTree(n={self.n})"

    @staticmethod
    def from_links(root: int, children: dict | list) -> "OrdinalTree":
        if not root:
            return OrdinalTree(0, [[]])
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        idx = {v: i + 1 for i, v in enumerate(order)}
        n = len(order)
        ch: list[list[int]] = [[] for _ in range(n + 1)]
        for v in order:
            ch[idx[v]] = [idx[c] for c in children[v]]
        return OrdinalTree(n, ch)


Forest = list  # list[OrdinalTree]


# ---------------------------------------------------------------------------
# balanced-parenthesis codecs ('(' = 1, ')' = 0)

def bp_encode_binary(t: BinaryTree, out: BitBuf | None = None) -> BitBuf:
    """BP(t) = "(" BP(left) ")" BP(right); 2n bits.

    Vectorized: node v opens at 2(v - 1) minus its left depth, the number of
    left edges above it (the closes written before v are those of every
    earlier node but the ancestors v is left of). The left depths are summed
    up the parent links by pointer doubling.
    """
    n = t.n
    left = np.asarray(t.left, dtype=np.int64)
    ids = np.arange(n + 1, dtype=np.int64)
    up = np.zeros(n + 1, dtype=np.int64)
    up[np.asarray(t.right, dtype=np.int64)] = ids
    up[left] = ids
    depth = np.zeros(n + 1, dtype=np.int64)
    depth[left] = 1
    up[0] = depth[0] = 0
    return _bp_opens(up, depth, out)


def _bp_opens(up: np.ndarray, depth: np.ndarray, out: BitBuf | None) -> BitBuf:
    """The BP string of nodes 1..n in preorder where node v opens at
    2(v - 1) minus the sum of ``depth`` over v and its ancestors, whose
    parent links are ``up`` (0 above a root); appended to ``out`` if given.
    The sums are taken by pointer doubling."""
    while up.any():
        depth += depth[up]
        up = up[up]
    n = len(up) - 1
    bits = np.zeros(2 * n, dtype=np.uint8)
    bits[2 * np.arange(n) - depth[1:]] = 1
    buf = BitBuf.from_array(bits)
    if out is None:
        return buf
    out.append_bits(buf.to_int(), len(buf))
    return out


def bp_decode_binary(buf: BitBuf) -> BinaryTree:
    """Inverse of bp_encode_binary; rejects every string that is not
    balanced (odd length, a prefix with more ')' than '(', or unequal
    counts).

    Vectorized: the excess is a cumsum of +-1. An open paren at excess level
    e (the excess before it) matches the next close paren that returns to e,
    so a stable sort of positions by level lists each matching pair as two
    neighbours. Node v is the v-th open paren; its left child opens right
    after it, its right child right after its match.
    """
    nbits = len(buf)
    if nbits % 2:
        raise MalformedStream("BP string has odd length")
    n = nbits // 2
    if not n:
        return BinaryTree(0, [0], [0])
    bits = buf.to_array().astype(np.int64)
    excess = np.cumsum(2 * bits - 1)
    if excess.min() < 0 or excess[-1]:
        raise MalformedStream("BP string not balanced")
    order = np.argsort(excess - bits, kind="stable")
    opens, closes = order[0::2], order[1::2]
    nxt = np.append(bits[1:], 0)
    v = (opens + 1 + excess[opens]) >> 1
    after = np.minimum(closes + 1, nbits - 1)
    left = np.zeros(n + 1, np.int64)
    right = np.zeros(n + 1, np.int64)
    left[v] = nxt[opens] * (v + 1)
    right[v] = nxt[closes] * ((closes + 2 + excess[after]) >> 1)
    return BinaryTree(n, left.tolist(), right.tolist())


def binary_from_child_flags(has_left: np.ndarray, has_right: np.ndarray) -> BinaryTree:
    """The binary tree whose node v, in preorder, has a left child where
    ``has_left[v - 1]`` is set and a right child where ``has_right[v - 1]``
    is; rejects flags that close the tree before the last node or leave
    child slots open after it.

    Vectorized like ``bp_decode_binary``: the excess after node v is the
    number of open child slots, 1 plus the sum of (children - 1) so far.
    Node v's left child is v + 1. Its right slot lies at the excess before
    v, and is filled by the node after the first later index whose excess
    is back at that level, which a stable sort by excess lists next.
    """
    has_left = np.asarray(has_left, dtype=bool)
    has_right = np.asarray(has_right, dtype=bool)
    m = len(has_left)
    kids = has_left.astype(np.int64) + has_right
    excess = np.concatenate(([1], 1 + np.cumsum(kids - 1)))
    if not excess[:m].all():
        raise MalformedStream("tree closes before its last node")
    if excess[m]:
        raise MalformedStream("tree does not close at its last node")
    order = np.argsort(excess, kind="stable")
    after = np.empty(m + 1, dtype=np.int64)
    after[order[:-1]] = order[1:]
    v = np.arange(1, m + 1)
    left = np.zeros(m + 1, dtype=np.int64)
    right = np.zeros(m + 1, dtype=np.int64)
    left[1:] = np.where(has_left, v + 1, 0)
    right[1:] = np.where(has_right, after[:m] + 1, 0)
    return BinaryTree(m, left.tolist(), right.tolist())


def bp_encode_ordinal(forest: Forest | OrdinalTree, out: BitBuf | None = None) -> BitBuf:
    """BP_o(t) = "(" BP_o(t_1) ... BP_o(t_k) ")"; concatenated over a forest.

    Vectorized like ``bp_encode_binary``: with the trees' nodes numbered
    1, 2, ... in preorder across the forest, node v opens at 2(v - 1) minus
    its depth (every earlier node has closed but its ancestors).
    """
    trees = [t for t in ([forest] if isinstance(forest, OrdinalTree) else forest) if t.n]
    sizes = np.array([t.n for t in trees], dtype=np.int64)
    n = int(sizes.sum())
    deg = np.fromiter(chain.from_iterable(map(len, t.children[1:]) for t in trees), np.int64, n)
    kids = np.fromiter(chain.from_iterable(chain.from_iterable(t.children[1:]) for t in trees),
                       np.int64, n - len(trees))
    first = np.cumsum(sizes) - sizes  # each tree's id offset
    up = np.zeros(n + 1, dtype=np.int64)
    up[kids + np.repeat(first, sizes - 1)] = np.repeat(np.arange(1, n + 1), deg)
    return _bp_opens(up, (up != 0).astype(np.int64), out)


def bp_decode_ordinal(buf: BitBuf, forest: bool = False):
    """Inverse of bp_encode_ordinal. With forest=False expects one tree.
    Rejects odd lengths, a prefix with more ')' than '(' ("not
    prefix-valid"), unequal counts ("not balanced"), and with forest=False
    any number of trees but one.

    Vectorized like ``bp_decode_binary``: node v is the v-th open paren, at
    level e (the excess before it). Its parent is the last open paren at
    level e - 1 before it, found by a binary search over the open parens
    sorted by (level, position). Trees split where the level returns to 0.
    """
    nbits = len(buf)
    if nbits % 2:
        raise MalformedStream("BP string has odd length")
    bits = buf.to_array().astype(np.int64)
    excess = np.cumsum(2 * bits - 1)
    if nbits and excess.min() < 0:
        raise MalformedStream("BP string not prefix-valid")
    if nbits and excess[-1]:
        raise MalformedStream("BP string not balanced")
    opens = np.flatnonzero(bits)
    level = excess[opens] - 1
    n = len(opens)
    roots = np.flatnonzero(level == 0) + 1
    if not forest and len(roots) != 1:
        raise MalformedStream(f"expected a single tree, got {len(roots)}")
    by_level = np.argsort(level, kind="stable")
    keys = level[by_level] * nbits + opens[by_level]
    parent = np.zeros(n + 1, np.int64)
    inner = level > 0
    parent[1:][inner] = by_level[
        np.searchsorted(keys, (level[inner] - 1) * nbits + opens[inner]) - 1] + 1
    # children in order, numbered within their tree
    kids = np.argsort(parent[1:], kind="stable")[len(roots):] + 1
    ends = np.cumsum(np.bincount(parent[kids], minlength=n + 1)).tolist()
    tree_start = np.repeat(roots, np.diff(np.append(roots, n + 1)))
    flat = (kids - tree_start[kids - 1] + 1).tolist()
    children = [flat[a:b] for a, b in zip([0] + ends, ends)]
    trees = [OrdinalTree(e - s, [[]] + children[s:e])
             for s, e in zip(roots.tolist(), roots[1:].tolist() + [n + 1])]
    return trees if forest else trees[0]


# ---------------------------------------------------------------------------
# first-child-next-sibling bijection

def fcns(forest: Forest | OrdinalTree) -> BinaryTree:
    """Map an ordinal forest to a binary tree: first child -> left,
    next sibling -> right. Preserves DFS order of nodes, so
    BP_o(f) == BP(fcns(f)) bit for bit."""
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


def fcns_inverse(t: BinaryTree) -> Forest:
    """Inverse of fcns; returns the ordinal forest."""
    if not t.n:
        return []
    children: list[list[int]] = [[] for _ in range(t.n + 1)]
    roots = []
    v = t.root
    while v:
        roots.append(v)
        v = t.right[v]
    # walk: each node's ordinal children = left child then its right-chain
    stack = list(reversed(roots))
    while stack:
        v = stack.pop()
        c = t.left[v]
        while c:
            children[v].append(c)
            stack.append(c)
            c = t.right[c]
    # split into per-tree structures: roots begin new trees
    out: Forest = []
    for r in roots:
        # collect nodes of this ordinal tree in DFS order
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


def fcns_full(t: OrdinalTree) -> BinaryTree:
    """Modified FCNS: materialize every null of fcns(t) as a leaf, yielding
    a full binary tree with 2n+1 nodes."""
    b = fcns([t])
    n2 = 2 * b.n + 1
    left = [0] * (n2 + 1)
    right = [0] * (n2 + 1)
    if b.n == 0:
        return BinaryTree(1, [0, 0], [0, 0])
    # rebuild in preorder with explicit leaves
    nxt = 0
    out_left: list[int] = [0]
    out_right: list[int] = [0]
    # frames: (original node or 0 for a materialized leaf, parent slot ref)
    # simpler: recursive shape expansion via stack producing preorder ids
    stack: list[tuple[int, int, int]] = [(b.root, 0, 0)]  # (orig, parent, side 0=left 1=right)
    while stack:
        orig, par, side = stack.pop()
        nxt += 1
        out_left.append(0)
        out_right.append(0)
        if par:
            if side == 0:
                out_left[par] = nxt
            else:
                out_right[par] = nxt
        if orig:
            me = nxt
            # push right first so left is expanded next (preorder)
            stack.append((b.right[orig], me, 1))
            stack.append((b.left[orig], me, 0))
    return BinaryTree(nxt, out_left, out_right)


# ---------------------------------------------------------------------------
# annotations

class TreeAnnotation:
    """Per-node annotations; binary trees also get type and inorder rank."""

    __slots__ = ("subtree_size", "height", "depth", "node_type", "degree",
                 "inorder_rank")

    def __init__(self):
        self.subtree_size: list[int] = []
        self.height: list[int] = []
        self.depth: list[int] = []
        self.node_type: list[int] | None = None
        self.degree: list[int] | None = None
        self.inorder_rank: list[int] | None = None


LEAF, LEFT_UNARY, BINARY, RIGHT_UNARY = 0, 1, 2, 3


def node_type(t: BinaryTree, v: int) -> int:
    l, r = t.left[v], t.right[v]
    if l and r:
        return BINARY
    if l:
        return LEFT_UNARY
    if r:
        return RIGHT_UNARY
    return LEAF


def annotate(t: BinaryTree | OrdinalTree) -> TreeAnnotation:
    a = TreeAnnotation()
    n = t.n
    size = [0] * (n + 1)
    height = [0] * (n + 1)
    depth = [0] * (n + 1)
    a.subtree_size, a.height, a.depth = size, height, depth
    if n == 0:
        return a
    if isinstance(t, BinaryTree):
        left, right = t.left, t.right
        a.node_type = [0] * (n + 1)
        a.inorder_rank = [0] * (n + 1)
        # preorder ids are 1..n: reverse preorder is a valid bottom-up order
        for v in range(n, 0, -1):
            l, r = left[v], right[v]
            size[v] = 1 + size[l] + size[r]
            height[v] = 1 + max(height[l], height[r])
            a.node_type[v] = (2 if r else 1) if l else (3 if r else 0)
        for v in range(1, n + 1):
            if left[v]:
                depth[left[v]] = depth[v] + 1
            if right[v]:
                depth[right[v]] = depth[v] + 1
        # inorder numbering, iterative
        rank = 0
        stack = []
        v = t.root
        while stack or v:
            while v:
                stack.append(v)
                v = left[v]
            v = stack.pop()
            rank += 1
            a.inorder_rank[v] = rank
            v = right[v]
    else:
        ch = t.children
        a.degree = [0] * (n + 1)
        for v in range(n, 0, -1):
            kids = ch[v]
            a.degree[v] = len(kids)
            s = 1
            h = 0
            for c in kids:
                s += size[c]
                if height[c] > h:
                    h = height[c]
            size[v] = s
            height[v] = h + 1
        for v in range(1, n + 1):
            for c in ch[v]:
                depth[c] = depth[v] + 1
    return a


# ---------------------------------------------------------------------------
# small builders used all over the tests and CLI

def single_node() -> BinaryTree:
    return BinaryTree(1, [0, 0], [0, 0])


def left_chain(n: int) -> BinaryTree:
    left = [0] + [i + 1 for i in range(1, n)] + [0]
    return BinaryTree(n, left[: n + 1], [0] * (n + 1))


def right_chain(n: int) -> BinaryTree:
    right = [0] + [i + 1 for i in range(1, n)] + [0]
    return BinaryTree(n, [0] * (n + 1), right[: n + 1])


def ordinal_star(n: int) -> OrdinalTree:
    ch = [[]] + [list(range(2, n + 1))] + [[] for _ in range(n - 1)]
    return OrdinalTree(n, ch)


def ordinal_path(n: int) -> OrdinalTree:
    ch = [[]] + [[i + 1] for i in range(1, n)] + [[]]
    return OrdinalTree(n, ch[: n + 1])


def parse_bp(text: str):
    """Parse a BP line; returns a BitBuf. Accepts '()' or '01' characters."""
    text = text.strip()
    if not all(c in "()01" for c in text):
        raise MalformedStream("BP text may only contain parentheses")
    return BitBuf(text)
