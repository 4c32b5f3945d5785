"""Tree representations (pointerless, preorder-numbered), balanced-parenthesis
codecs for binary and ordinal trees, the first-child-next-sibling bijection,
and per-node annotations.

Nodes are identified by their preorder index (1-based); 0 is the null
sentinel. All traversals are iterative so degenerate trees of any size work.
"""

from __future__ import annotations

from itertools import chain, repeat

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
    def grow(root, split, cap: int | None = None) -> "BinaryTree | None":
        """Build a tree top-down from the state of its root: ``split(state)``
        returns the states of the left and right child, None for no child.
        ``split`` runs once per node, in preorder, so a sampler that draws
        in it draws in preorder. ``root=None`` gives the empty tree; past
        ``cap`` nodes the result is None, and ``split`` does not run on the
        node that passes it."""
        left = [0]
        right = [0]
        if root is None:
            return BinaryTree(0, left, right)
        limit = cap if cap is not None else float("inf")
        n = 0
        # (state, parent, the parent's link list); the root's link lands in
        # the unused slot left[0], reset below
        stack = [(root, 0, left)]
        while stack:
            state, parent, links = stack.pop()
            n += 1
            if n > limit:
                return None
            links[parent] = n
            left.append(0)
            right.append(0)
            l, r = split(state)
            if r is not None:
                stack.append((r, n, right))
            if l is not None:
                stack.append((l, n, left))
        left[0] = 0
        return BinaryTree(n, left, right)

    @staticmethod
    def from_links(root: int, left: dict | list, right: dict | list) -> "BinaryTree":
        """Renumber an arbitrary-id link structure into preorder form."""
        return BinaryTree.grow(root or None, lambda v: (left[v] or None, right[v] or None))


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
    def grow(root, split, cap: int | None = None) -> "OrdinalTree | None":
        """Build a tree top-down from the state of its root: ``split(state)``
        returns the states of the node's children, in order, as a list or
        tuple. As in ``BinaryTree.grow``, ``split`` runs once per node, in
        preorder; ``root=None`` gives the empty tree, and past ``cap`` nodes
        the result is None without ``split`` running on the node that passes
        it."""
        children: list[list[int]] = [[]]
        if root is None:
            return OrdinalTree(0, children)
        limit = cap if cap is not None else float("inf")
        n = 0
        # (state, the parent's children list); the root lands in the unused
        # children[0], reset below
        stack = [(root, children[0])]
        while stack:
            state, siblings = stack.pop()
            n += 1
            if n > limit:
                return None
            siblings.append(n)
            kids: list[int] = []
            children.append(kids)
            states = split(state)
            if states:
                stack.extend(zip(reversed(states), repeat(kids)))
        children[0] = []
        return OrdinalTree(n, children)

    @staticmethod
    def from_links(root: int, children: dict | list) -> "OrdinalTree":
        """Renumber an arbitrary-id children structure into preorder form."""
        return OrdinalTree.grow(root or None, children.__getitem__)


Forest = list  # list[OrdinalTree]


# ---------------------------------------------------------------------------
# balanced-parenthesis codecs ('(' = 1, ')' = 0)

def bp_encode_binary(t: BinaryTree) -> BitBuf:
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
    return _bp_opens(up, depth)


def _bp_opens(up: np.ndarray, depth: np.ndarray) -> BitBuf:
    """The BP string of nodes 1..n in preorder where node v opens at
    2(v - 1) minus the sum of ``depth`` over v and its ancestors, whose
    parent links are ``up`` (0 above a root). The sums are taken by pointer
    doubling."""
    while up.any():
        depth += depth[up]
        up = up[up]
    n = len(up) - 1
    bits = np.zeros(2 * n, dtype=np.uint8)
    bits[2 * np.arange(n) - depth[1:]] = 1
    return BitBuf.from_array(bits)


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


def binary_from_child_flags(has_left: np.ndarray, has_right: np.ndarray) -> np.ndarray:
    """The binary tree whose node v, in preorder, has a left child where
    ``has_left[v - 1]`` is set and a right child where ``has_right[v - 1]``
    is, as a (2, m + 1) int64 array of child ids: row 0 the left children,
    row 1 the right ones, numbered as ``BinaryTree.left`` and ``right`` (ids
    from 1, column 0 unused, 0 for no child). Rejects flags that close the
    tree before the last node or leave child slots open after it.

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
    child = np.zeros((2, m + 1), dtype=np.int64)
    child[0, 1:] = np.where(has_left, np.arange(2, m + 2), 0)
    child[1, 1:] = np.where(has_right, after[:m] + 1, 0)
    return child


def bp_encode_ordinal(forest: Forest | OrdinalTree) -> BitBuf:
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
    return _bp_opens(up, (up != 0).astype(np.int64))


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
    """Map an ordinal forest to a binary tree: first child -> left, next
    sibling -> right (Knuth's natural correspondence, TAOCP vol. 1,
    2.3.2). Preorder ids are kept, so BP_o(f) == BP(fcns(f)) bit for bit,
    and the map is that BP string read back as a binary tree."""
    return bp_decode_binary(bp_encode_ordinal(forest))


def fcns_inverse(t: BinaryTree) -> Forest:
    """Inverse of fcns; returns the ordinal forest, one tree per node on
    the root's right chain."""
    return bp_decode_ordinal(bp_encode_binary(t), forest=True)


def fcns_full(t: OrdinalTree) -> BinaryTree:
    """Modified FCNS: materialize every null of fcns(t) as a leaf, yielding
    a full binary tree with 2n+1 nodes."""
    b = fcns([t])
    # a state is a node of b, or 0 for a null made a leaf
    return BinaryTree.grow(b.root, lambda v: (b.left[v], b.right[v]) if v else (None, None))


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
