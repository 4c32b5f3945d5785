"""Farzan-Munro tree covering of binary trees: decomposition into micro
trees with bounded size and limited connections, the contracted top tier,
and an executable validator for the structural guarantees. An ordinal tree
is covered through its first-child next-sibling binary tree (``fcns``).

Sealing rule: a component is declared permanent the moment its size reaches
``B`` during greedy packing (checked after a node merges its children's
active components), children processed left to right.

The cover is arrays, after Farzan & Munro's statement of the cover as
arrays of micro-tree records, with the same names (``BinaryCover``).

The cover applies the sealing rule with whole-array steps, as a
segmentation of heavy paths. A node is heavy when its subtree has at least
``B`` nodes. A light subtree never reaches ``B``, so it is never sealed and
ends in the component of its nearest heavy ancestor. A heavy node with two
light children reaches ``B`` with its whole subtree, which is sealed at
once. One with two heavy children seals both and stays alone, with a portal
on each side. The other heavy nodes, those with one heavy child, form
chains, each hanging from a sealed component. Going up a chain, a component
starts at a node s whose heavy child is sealed (a portal on s's heavy
side), takes in each chain node u with its light subtree, which makes
size[u] - size[s's heavy child] nodes, and is sealed at the first u where
that reaches ``B``; the next one starts above u. So one ``searchsorted``
over per-chain (chain, size) keys gives every segment's end, the starts are
the orbit of each chain's bottom under "the start after my end" (marked by
pointer doubling), and each node's component is its nearest component root
(a segment's top, a branching node, a sealed subtree or node 1), found by
pointer jumping. Micro trees are numbered by the preorder of their roots
(the top tier's preorder), and each gets a shape id from the bytes of its
(size, local left children, local right children) row.

A binary layout is five names: ``n``, ``top_tier`` (a (2, m + 1) int64
array of each micro tree's left and right child in the top tier),
``shape_bps`` (the distinct shapes' BP strings), ``shape_id`` (one per micro
tree) and ``fields`` (per micro tree, 1 + the null rank of its first and
second portal in preorder, 0 for none). ``BinaryCover`` has them, and so
does what ``hypercodec.parse_binary_blob`` reads from a blob. ``ShapeTables`` holds
the per-shape tables, built once per distinct shape; ``BinaryPlacement``
computes from a layout where every micro tree and portal sits in the tree,
which the decoder, the navigation index and the validator read.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .bits import BitBuf
from .trees import BinaryTree, bp_decode_binary, bp_encode_binary


def _follow(ptr: np.ndarray) -> np.ndarray:
    """Where each chain of pointers ends (a fixed point), by pointer
    jumping; the pointers must form no cycle but fixed points."""
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return ptr
        ptr = nxt


def default_block(n: int) -> int:
    """Block parameter B = max(1, ceil(lg(n)/8))."""
    if n <= 1:
        return 1
    return max(1, math.ceil(math.log2(n) / 8))


CoverStats = namedtuple("CoverStats", "m heavy_count max_light_trees")


class BinaryCover:
    """A binary cover as arrays, and a binary layout (see the module
    docstring). Micro trees are numbered in top-tier preorder, which is the
    preorder of their roots in the tree, and partition the nodes.

    - ``members[starts[i]:starts[i + 1]]``: the nodes of micro i in local
      preorder (ascending ids), so its root is ``members[starts[i]]``;
    - ``shape_id[i]`` indexes ``shape_bps``, the BP strings of the distinct
      local shapes, numbered in the byte order of their rows;
    - ``fields[i]``: the first and second portal of micro i in preorder,
      each 1 + its null rank in the shape (0 for none).

    The top tier is a (2, m + 1) int64 array of child ids, row 0 the left
    children and row 1 the right ones, numbered as ``BinaryTree.left`` and
    ``right``: micro i is id i + 1, column 0 is unused and 0 means no child.
    Micro i's left child hangs from its first portal and its right child
    from the second.
    """

    __slots__ = ("top_tier", "B", "n", "members", "starts", "shape_id",
                 "shape_bps", "fields")

    def __init__(self, top_tier, B, n, members, starts, shape_id, shape_bps, fields):
        self.top_tier = top_tier
        self.B = B
        self.n = n
        self.members = members
        self.starts = starts
        self.shape_id = shape_id
        self.shape_bps: list[str] = shape_bps
        self.fields = fields


class ShapeTables:
    """Per-shape tables of distinct binary shapes, given by their balanced
    BP strings and built once: each is a (k, w + 1) array over local
    preorder ids 1..mu, 0 in column 0 and past a shape's mu (w is the
    largest mu).

    - ``left``, ``right``, ``parent``, ``size``: children, parent and
      subtree size;
    - ``inorder`` and its inverse ``local_of_inorder``;
    - ``null_node``, ``null_side``, ``null_thr`` over null ranks 0..mu (the
      nulls in left-to-right order): the node and side (0 left, 1 right) of
      the null, and the first local preorder id after it.
    """

    __slots__ = ("mu", "left", "right", "parent", "size", "inorder",
                 "local_of_inorder", "null_node", "null_side", "null_thr")

    def __init__(self, bps: list[str]):
        # The shapes in a row decode as one tree, in which each one's root
        # is the right child of the last node on the previous one's right
        # spine: a node keeps its links inside its shape, its subtree up to
        # the shape's end, and its inorder rank less the shapes before.
        joined = BitBuf("".join(bps))
        lg, rg, _, sg = _binary_links(bp_decode_binary(joined))
        left_size = sg[lg][1:]
        lg, rg, sg = lg[1:], rg[1:], sg[1:]
        k = len(bps)
        self.mu = mu = np.array([len(s) // 2 for s in bps], dtype=np.int64)
        W = int(mu.max()) + 1
        shape = np.repeat(np.arange(k), mu)
        end = np.cumsum(mu)[shape]
        off = end - mu[shape]
        g = np.arange(1, len(shape) + 1)
        x = g - off
        # node g is the g-th '('; its ')' follows its left subtree's parens,
        # and the ')'s up to that one count its inorder rank
        opens = np.flatnonzero(joined.to_array())
        left, right, size, inorder = (np.zeros((k, W), dtype=np.int64) for _ in range(4))
        left[shape, x] = np.where(lg != 0, lg - off, 0)
        right[shape, x] = np.where((rg != 0) & (rg <= end), rg - off, 0)
        size[shape, x] = np.minimum(sg, end + 1 - g)
        inorder[shape, x] = opens + left_size + 2 - g - off
        rows = np.arange(k)[:, None]
        ids = np.arange(W)
        parent = np.zeros((k, W), dtype=np.int64)
        parent[rows, left] = ids
        parent[rows, right] = ids
        parent[:, 0] = 0
        local_of_inorder = np.zeros((k, W), dtype=np.int64)
        local_of_inorder[rows, inorder] = ids
        local_of_inorder[:, 0] = 0
        null_node = np.zeros((k, W), dtype=np.int64)
        null_side = np.zeros((k, W), dtype=np.int64)
        null_thr = np.zeros((k, W), dtype=np.int64)
        for side, kids in ((0, left), (1, right)):
            s, x = np.nonzero((size > 0) & (kids == 0))
            rank = inorder[s, x] - 1 + side
            null_node[s, rank] = x
            null_side[s, rank] = side
            # past a left null comes x + 1, past a right one x's subtree
            null_thr[s, rank] = x + (size[s, x] if side else 1)
        self.left, self.right, self.parent, self.size = left, right, parent, size
        self.inorder, self.local_of_inorder = inorder, local_of_inorder
        self.null_node, self.null_side, self.null_thr = null_node, null_side, null_thr


class BinaryPlacement:
    """Where the micro trees of a binary layout sit in the tree it encodes.
    The layout must be consistent, as ``hypercodec.parse_binary_blob`` and
    ``decompose_binary`` leave it: each field names a null of its shape,
    matches a top-tier child, and a lone portal is the first.

    Per micro tree i (numbered in top-tier preorder):

    - ``sid``, ``mu``: shape id and size;
    - ``hang``: the size of the subtree its root heads in the tree;
    - ``root_pre``, ``in_start``: the global preorder id of its root and the
      smallest global inorder rank in that subtree;
    - ``up``, ``depth``: its parent and depth in the top tier (``up[0]`` is
      0).

    Per portal slot k (0 first, 1 second in preorder), as (2, m) arrays:
    ``rank`` (null rank), ``thr`` (the first local preorder id after the
    null), ``owner`` and ``side`` (the null's node and side), ``child`` (the
    micro tree hanging there) and ``sub`` (its ``hang``). A missing portal
    reads as one at the last null, rank mu and ``thr`` mu + 1, with nothing
    hanging from it (``sub`` 0, ``has`` false).

    Global ids of a micro tree's local nodes run in order, shifted past the
    subtrees of the portals before them: local preorder id x is
    ``root_pre + x - 1`` plus ``sub`` of each slot whose ``thr`` is at most
    x, and local inorder rank j likewise with ``rank < j``. A child's root
    follows the local nodes before its null and the subtree of an earlier
    slot. These offsets apply to the child's whole top-tier subtree, an
    interval of micro trees in preorder, so one prefix sum over a difference
    array adds them up down the top tier (the Euler-tour technique; Tarjan
    & Vishkin, SIAM J. Comput. 1985).
    """

    __slots__ = ("tables", "sid", "mu", "hang", "root_pre", "in_start", "up",
                 "depth", "has", "rank", "thr", "owner", "side", "child", "sub")

    def __init__(self, layout):
        self.tables = tables = ShapeTables(layout.shape_bps)
        self.sid = sid = np.asarray(layout.shape_id, dtype=np.int64)
        self.mu = mu = tables.mu[sid]
        m = len(sid)
        child = layout.top_tier[:, 1:] - 1
        self.has = has = child >= 0
        self.child = child
        self.rank = rank = np.where(has, np.asarray(layout.fields).T - 1, mu)
        self.thr = thr = tables.null_thr[sid, rank]
        self.owner = tables.null_node[sid, rank]
        self.side = tables.null_side[sid, rank]
        # a subtree ends at its last node in preorder: follow the last child
        ids = np.arange(m)
        last = _follow(np.where(has[1], child[1], np.where(has[0], child[0], ids)))
        ends = np.concatenate(([0], np.cumsum(mu)))
        self.hang = hang = ends[last + 1] - ends[:-1]
        self.sub = sub = np.where(has, hang[child], 0)
        # each child's offsets from its parent apply to the interval
        # [c, last[c]]: added at c and taken off past last[c] (several
        # subtrees can end at one micro tree, so unbuffered), then summed
        k, i = np.nonzero(has)
        c = child[k, i]
        up = np.zeros(m, dtype=np.int64)
        up[c] = i
        acc = np.zeros((3, m + 1), dtype=np.int64)
        acc[0, c] = thr[k, i] - 1 + k * sub[0, i]
        acc[1, c] = rank[k, i] + k * sub[0, i]
        acc[2, c] = 1
        past = last[c] + 1
        for row in acc:
            np.subtract.at(row, past, row[c])
        acc = np.cumsum(acc[:, :m], axis=1)
        self.root_pre = acc[0] + 1
        self.in_start = acc[1] + 1
        self.depth = acc[2]
        self.up = up

    def global_id(self, i, x):
        """Global preorder ids of local preorder ids ``x`` of micro trees
        ``i`` (arrays)."""
        g = self.root_pre[i] + x - 1
        for k in (0, 1):
            g = g + np.where(self.thr[k][i] <= x, self.sub[k][i], 0)
        return g

    def local_nodes(self):
        """Every local node, micro tree by micro tree in local preorder, as
        arrays of its micro tree, local preorder id and global preorder id."""
        micro = np.repeat(np.arange(len(self.mu)), self.mu)
        x = np.arange(1, len(micro) + 1) - (np.cumsum(self.mu) - self.mu)[micro]
        return micro, x, self.global_id(micro, x)

    def children(self) -> np.ndarray:
        """The left and right child of every node by global id, a (2, n + 1)
        array: a local child's id follows from the placement, the left one
        is always the next id, and a portal's child is the root of the micro
        tree hanging there."""
        micro, x, g = self.local_nodes()
        s = self.sid[micro]
        rx = self.tables.right[s, x]
        kids = np.zeros((2, len(g) + 1), dtype=np.int64)
        kids[0, g] = np.where(self.tables.left[s, x] != 0, g + 1, 0)
        kids[1, g] = np.where(rx != 0, self.global_id(micro, rx), 0)
        k, i = np.nonzero(self.has)
        kids[self.side[k, i], self.global_id(i, self.owner[k, i])] = self.root_pre[self.child[k, i]]
        return kids


# ---------------------------------------------------------------------------
# binary decomposition

def decompose_binary(t: BinaryTree, B: int | None = None) -> BinaryCover:
    if t.n < 1:
        raise ValueError("cannot decompose the empty tree")
    return _decompose_binary_links(t.n, B, *_binary_links(t))


def _decompose_binary_links(n: int, B: int | None, left, right, parent, size) -> BinaryCover:
    """The cover of the binary tree of n >= 1 nodes with these links (what
    ``_binary_links`` gives)."""
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    heavy = size >= B
    hl, hr = heavy[left], heavy[right]
    branch = hl & hr
    on_chain = heavy & (hl != hr)
    # a chain's nodes are consecutive among the heavy nodes in preorder (what
    # lies between two of them is in a light subtree), so in descending ids
    # each chain is one run from its bottom up, its sizes increasing
    pos = np.flatnonzero(on_chain)[::-1]
    L = len(pos)
    hchild = np.where(hl, left, right)[pos]
    bottom = ~on_chain[hchild]
    cid = np.cumsum(bottom) - 1
    key = cid * (n + 1) + size[pos]
    # a segment from start s ends at the first u above it holding
    # size[u] - size[s's heavy child] >= B nodes, and the next starts above
    # u; a segment with no such u runs to its chain's top, and L stands for
    # no next start
    want = np.minimum(size[hchild] + B, n + 1)
    nxt = np.searchsorted(key, cid * (n + 1) + want) + 1
    nxt[np.append(cid, -1)[np.minimum(nxt, L)] != cid] = L
    nxt = np.append(nxt, L)
    # the starts: the orbit of each chain's bottom under nxt, by doubling
    # (the sentinel L counts as marked)
    start = np.append(bottom, True)
    while True:
        hit = nxt[np.flatnonzero(start)]
        if start[hit].all():
            break
        start[hit] = True
        nxt = nxt[nxt]
    start = np.flatnonzero(start[:L])
    # component roots: segment tops (below a start, or a chain's top),
    # branching nodes, sealed subtrees and node 1
    top = cid != np.append(cid[1:], -1)
    top[start[start > 0] - 1] = True
    is_root = branch | (heavy & ~hl & ~hr)
    is_root[pos[top]] = True
    is_root[1] = True
    ids = np.arange(n + 1)
    comp = _follow(np.where(is_root, ids, parent))
    # portals: both sides of a branching node, the heavy side of a start
    fork = np.flatnonzero(branch)
    s = pos[start]
    pnode = np.concatenate((fork, fork, s))
    pside = np.concatenate((np.zeros_like(fork), np.ones_like(fork), hr[s]))
    return _finalize_binary(B, left, right, parent, comp, pnode, pside)


def _finalize_binary(B: int, left, right, parent, comp, pnode, pside) -> BinaryCover:
    """The cover of a partition into components (``comp``, a label per
    node) and its portals, (``pnode``, ``pside``) pairs."""
    n = len(left) - 1
    # micro trees in the preorder of their roots: the top tier's preorder
    roots = np.flatnonzero(comp[1:] != comp[parent[1:]]) + 1
    m = len(roots)
    micro_of = np.zeros(n + 1, dtype=np.int64)
    micro_of[comp[roots]] = np.arange(m)
    node_micro = micro_of[comp]
    node_micro[0] = 0

    # group nodes by micro tree, ascending ids (= local preorder); local
    # indices and the induced left/right structure
    members = np.argsort(node_micro[1:], kind="stable") + 1
    sizes = np.bincount(node_micro[1:], minlength=m)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    mic = node_micro[members]
    loc_of = np.zeros(n + 1, dtype=np.int64)
    loc_of[members] = np.arange(1, n + 1) - starts[mic]
    outside = np.concatenate(([-1], node_micro[1:]))
    lch, rch = left[members], right[members]
    lloc = np.where(outside[lch] == mic, loc_of[lch], 0)
    rloc = np.where(outside[rch] == mic, loc_of[rch], 0)

    # shape id: one row (size, lloc..., rloc...) per micro, compared as bytes
    w = int(sizes.max())
    rows = np.zeros((m, 1 + 2 * w), dtype=np.int16 if w < 1 << 15 else np.int64)
    rows[:, 0] = sizes
    rows[mic, loc_of[members]] = lloc
    rows[mic, w + loc_of[members]] = rloc
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, shape_id = np.unique(keys, return_index=True, return_inverse=True)
    shape_id = shape_id.reshape(-1)

    # per distinct shape: its BP
    shape_bps = []
    for i in first.tolist():
        mu = int(sizes[i])
        shape = BinaryTree(mu, [0] + rows[i, 1:mu + 1].tolist(),
                           [0] + rows[i, w + 1:w + mu + 1].tolist())
        shape_bps.append(bp_encode_binary(shape).to_paren())

    # portals in (owner, null rank) order, which is their preorder; a micro
    # tree's first portal holds its top-tier left child, the second its right
    owner = node_micro[pnode]
    rank = ShapeTables(shape_bps).inorder[shape_id[owner], loc_of[pnode]] - 1 + pside
    child = node_micro[np.where(pside == 0, left[pnode], right[pnode])]
    o = np.lexsort((rank, owner))
    owner, rank, child = owner[o], rank[o], child[o]
    if (owner[2:] == owner[:-2]).any():
        raise AssertionError("binary micro tree with >2 portals")
    counts = np.bincount(child, minlength=m)
    if counts[0] or (counts[1:] != 1).any():
        raise AssertionError("top tier does not reach every micro tree")
    k = np.zeros(len(owner), dtype=np.int64)
    k[1:] = owner[1:] == owner[:-1]
    fields = np.zeros((m, 2), dtype=np.int64)
    fields[owner, k] = rank + 1
    top = np.zeros((2, m + 1), dtype=np.int64)
    top[k, owner + 1] = child + 1
    return BinaryCover(top, B, n, members, starts, shape_id, shape_bps, fields)


def _binary_links(t: BinaryTree):
    """Each node's left child, right child, parent and subtree size, as
    arrays (entry 0 is 0)."""
    n = t.n
    ids = np.arange(n + 1)
    left = np.asarray(t.left, dtype=np.int64)
    right = np.asarray(t.right, dtype=np.int64)
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[left] = ids
    parent[right] = ids
    parent[0] = 0
    size = _follow(np.where(right != 0, right, np.where(left != 0, left, ids))) - ids + 1
    size[0] = 0
    return left, right, parent, size


# ---------------------------------------------------------------------------
# validation

def validate_cover(cover: BinaryCover, t=None):
    """Check the cover's structural invariants.

    Returns CoverStats if every invariant holds, otherwise the list of
    violation strings (violations are data, not exceptions). Passing the
    source tree enables the adjacency and heaviness checks.
    """
    out: list[str] = []
    if _validate_arrays(cover, out):
        _validate_binary(cover, t, out)
    if out:
        return out
    return _stats(cover, t)


def _stats(cover, t):
    heavy = light = 0
    if t is not None:
        _, _, parent, size = _binary_links(t)
        big = size >= cover.B
        heavy = int(np.count_nonzero(big))
        light = int(np.count_nonzero(big[parent[1:]] & (size[1:] < cover.B)))
    return CoverStats(len(cover.shape_id), heavy, light)


def _validate_arrays(cover, out: list[str]) -> bool:
    """The ranges and counts that the other checks index by. Returns False
    where one fails that they need."""
    n, B = cover.n, cover.B
    members, starts = np.asarray(cover.members), np.asarray(cover.starts)
    shape_id, fields = np.asarray(cover.shape_id), np.asarray(cover.fields)
    m = len(shape_id)
    if (m < 1 or members.ndim != 1 or starts.shape != (m + 1,)
            or fields.shape != (m, 2) or starts[0] != 0 or starts[-1] != len(members)):
        out.append("cover arrays have inconsistent lengths")
        return False
    mu = np.diff(starts)
    for i in np.flatnonzero((mu < 1) | (mu > 2 * B)).tolist():
        out.append(f"micro {i}: size {mu[i]} outside [1, {2 * B}]")
    if m > max(1, 8 * n // B):
        out.append(f"m={m} exceeds 8n/B")
    if (mu < 1).any():
        return False
    micro = np.repeat(np.arange(m), mu)
    for i in np.unique(micro[(members < 1) | (members > n)]).tolist():
        out.append(f"micro {i}: node id out of range")
    if shape_id.min() < 0 or shape_id.max() >= len(cover.shape_bps):
        out.append("shape id out of range")
        return False
    shape_mu = np.array([len(bp) // 2 for bp in cover.shape_bps])
    for i in np.flatnonzero(shape_mu[shape_id] != mu).tolist():
        out.append(f"micro {i}: shape size differs from member count")
    # each shape is a balanced BP string
    text = "".join(cover.shape_bps)
    opens = np.cumsum(np.frombuffer(text.encode(), dtype=np.uint8) == ord("("))
    excess = 2 * opens - np.arange(1, len(text) + 1)
    ends = np.cumsum([len(bp) for bp in cover.shape_bps]) - 1
    if not out and (not set(text) <= {"(", ")"} or excess.min() < 0 or excess[ends].any()):
        out.append("a shape is not a balanced BP string")
    return not out


def _validate_binary(cover: BinaryCover, t, out: list[str]):
    n, B = cover.n, cover.B
    members, fields = cover.members, cover.fields
    m = len(cover.shape_id)
    mu = np.diff(cover.starts)
    count = np.bincount(members, minlength=n + 1)
    for g in np.flatnonzero(count[1:] != 1).tolist():
        out.append(f"node {g + 1} covered {count[g + 1]} times")
    # the top tier is a tree over the micro trees in preorder: each child
    # after its parent, and every micro tree but the first a child once
    top = np.asarray(cover.top_tier)
    if top.shape != (2, m + 1):
        out.append(f"top tier has shape {top.shape}, not (2, m + 1) for m={m}")
        return
    child = top[:, 1:] - 1
    has = child >= 0
    ids = np.arange(m)
    if ((child < -1) | (child >= m) | (has & (child <= ids))).any() or (
            np.bincount(child[has], minlength=m) != (ids > 0)).any():
        out.append("top tier is not a tree of the micro trees in preorder")
        return
    # a field is set where the top tier has that child, names a null, and
    # a second portal follows the first
    first, second = fields.T
    bad = ((fields != 0) != has.T).any(axis=1) | (fields > mu[:, None] + 1).any(axis=1)
    bad |= (second != 0) & (second <= first)
    for i in np.flatnonzero(bad).tolist():
        out.append(f"micro {i}: portal fields do not match the top tier")
    if out:
        return
    p = BinaryPlacement(cover)
    for i in np.flatnonzero(p.hang < min(B, n)).tolist():
        out.append(f"micro {i}: root subtree size {p.hang[i]} < B={B}")
    for i in np.flatnonzero(has.all(axis=0) & (p.owner != 1).all(axis=0)).tolist():
        out.append(f"micro {i}: two portals, none at the root")
    micro, _, g = p.local_nodes()
    if not np.array_equal(g, members):
        out.append("members are not where the top tier places them")
        return
    if t is None:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    # the tree the layout decodes to is t: its shapes are the induced
    # subtrees and its portals tree edges
    wrong = (p.children() != np.array([t.left, t.right], dtype=np.int64)).any(axis=0)
    node_micro = np.zeros(n + 1, dtype=np.int64)
    node_micro[members] = micro
    for i in np.unique(node_micro[wrong]).tolist():
        out.append(f"micro {i}: a child differs from the tree's (shape or portal)")
