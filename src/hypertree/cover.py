"""Farzan-Munro tree covering: decomposition of binary and ordinal trees into
micro trees with bounded size and limited connections, the contracted top
tier, and an executable validator for the structural guarantees.

Sealing rule: a component is declared permanent the moment its size reaches
``B`` during greedy packing (checked after a node merges its children's
active components). Children are processed left to right. Ordinal micro trees
may share nodes, but only as the common root of every component containing
them; a node at which a seal happened never travels upward, which is what
keeps that invariant.

Both covers are arrays, after Farzan & Munro's statement of the cover as
arrays of micro-tree records, with the same names (``_Cover``).

The binary cover applies the sealing rule with whole-array steps, as a
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
(size, local left children, local right children) row. An ordinal micro
tree's row is its size and the local parent of each node.

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

import gc
import math
from collections import namedtuple
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .bits import BitBuf
from .trees import BinaryTree, OrdinalTree, annotate, bp_decode_binary, bp_encode_binary

# parent edge types of ordinal micro trees, in the order (i)..(v)
EDGE_NEW_LEFT, EDGE_CONT_LEFT, EDGE_NEW_RIGHT, EDGE_CONT_RIGHT, EDGE_EXTERNAL = range(5)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector and restore its state after.
    Code that allocates millions of small lists and tuples otherwise spends
    a third or more of its time in collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


class _Cover:
    """The arrays of a cover, shared by both tree kinds. Micro trees are
    numbered in top-tier preorder, which is the preorder of their roots in
    the tree.

    - ``members[starts[i]:starts[i + 1]]``: the nodes of micro i in local
      preorder (ascending ids), so its root is ``members[starts[i]]``;
    - ``shape_id[i]`` indexes ``shape_bps``, the BP strings of the distinct
      local shapes;
    - ``fields[i]``: the micro tree's connections, one row per micro tree.
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


class BinaryCover(_Cover):
    """A binary cover as arrays, and a binary layout (see the module
    docstring). Micro trees partition the nodes; shape ids number the
    distinct shapes in the byte order of their rows. ``fields[i]`` is the
    first and second portal of micro i in preorder, each 1 + its null rank
    in the shape (0 for none). The top tier is a (2, m + 1) int64 array of
    child ids, row 0 the left children and row 1 the right ones, numbered as
    ``BinaryTree.left`` and ``right``: micro i is id i + 1, column 0 is
    unused and 0 means no child. Micro i's left child hangs from its first
    portal and its right child from the second.
    """

    __slots__ = ()


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
        whole = bp_decode_binary(BitBuf("".join(bps)))
        k = len(bps)
        self.mu = mu = np.array([len(s) // 2 for s in bps], dtype=np.int64)
        W = int(mu.max()) + 1
        shape = np.repeat(np.arange(k), mu)
        end = np.cumsum(mu)[shape]
        off = end - mu[shape]
        g = np.arange(1, whole.n + 1)
        x = g - off
        ann = annotate(whole)
        left, right, size, inorder = (np.zeros((k, W), dtype=np.int64) for _ in range(4))
        lg, rg = np.asarray(whole.left[1:]), np.asarray(whole.right[1:])
        left[shape, x] = np.where(lg != 0, lg - off, 0)
        right[shape, x] = np.where((rg != 0) & (rg <= end), rg - off, 0)
        size[shape, x] = np.minimum(ann.subtree_size[1:], end + 1 - g)
        inorder[shape, x] = np.asarray(ann.inorder_rank[1:]) - off
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


class OrdinalCover(_Cover):
    """An ordinal cover as arrays (see ``_Cover``). Micro trees share a node
    only as the root of each. Shape ids number the distinct shapes in the
    order the micro trees first name them. ``fields[i]`` is micro i's
    external portal, its local preorder id and the 1-based child rank at
    which the external children go in ((0, 0) for none), and its parent
    edge type (``EDGE_*``). The top tier is an ``OrdinalTree`` with a dummy
    root, node 1; micro i is node i + 2.
    """

    __slots__ = ()


class _Comp:
    """A component of the ordinal decomposition."""

    __slots__ = ("members", "permanent", "left_att", "right_att", "ext_att")

    def __init__(self, members):
        self.members = members
        self.permanent = False
        self.left_att: list[list["_Comp"]] = []
        self.right_att: list[list["_Comp"]] = []
        self.ext_att: tuple[list["_Comp"], int, int] | None = None


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


# ---------------------------------------------------------------------------
# ordinal decomposition

# the greedy loop allocates lists per node; collecting them doubles its time
@_gc_paused()
def decompose_ordinal(t: OrdinalTree, B: int | None = None) -> OrdinalCover:
    n = t.n
    if n < 1:
        raise ValueError("cannot decompose the empty tree")
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    children = t.children
    parent, size = _parent_size(t)
    size = size.tolist()

    ret: list[_Comp | None] = [None] * (n + 1)
    rooted: dict[int, list[_Comp]] = {}
    sealed: list[_Comp] = []

    def seal(c: _Comp):
        c.permanent = True
        sealed.append(c)
        rooted.setdefault(min(c.members), []).append(c)

    for v in range(n, 0, -1):
        kids = children[v]
        heavy = [c for c in kids if size[c] >= B]
        if len(heavy) >= 2:
            mode = ("branch", set(heavy))
        elif len(heavy) == 1 and ret[heavy[0]].permanent:
            mode = ("gap", heavy[0])
        else:
            mode = None
        ret[v] = _pack(v, kids, ret, seal, rooted, B, mode)

    if not ret[t.root].permanent:
        seal(ret[t.root])
    return _finalize_ordinal(t, B, parent, sealed, rooted)


def _pack(v, kids, ret, seal, rooted, B, mode) -> _Comp:
    """Greedy packing of v's children; returns the component containing v."""
    gap_child = mode[1] if mode and mode[0] == "gap" else None
    branch_heavy = mode[1] if mode and mode[0] == "branch" else None
    c: _Comp | None = None
    seals = 0
    pack_count = 0
    last_sealed: _Comp | None = None
    pending: list[int] = []

    def flush(target: _Comp):
        for hchild in pending:
            target.left_att.append(rooted[hchild])
        pending.clear()

    for u in kids:
        hc = ret[u]
        if u == gap_child:
            if c is None:
                c = _Comp([v])
            c.ext_att = (rooted[u], v, pack_count + 1)
            continue
        if branch_heavy is not None and u in branch_heavy:
            if not hc.permanent:
                seal(hc)
            if c is not None:
                seal(c)
                seals += 1
                last_sealed = c
                flush(c)
                c = None
                pack_count = 0
            if last_sealed is not None:
                last_sealed.right_att.append(rooted[u])
            else:
                pending.append(u)
            continue
        # light child, or the single heavy child with an active component
        if c is None:
            c = hc
            c.members.append(v)
        else:
            c.members.extend(hc.members)
            c.left_att.extend(hc.left_att)
            c.right_att.extend(hc.right_att)
            if hc.ext_att is not None:
                if c.ext_att is not None:
                    raise AssertionError("two external edges in one component")
                c.ext_att = hc.ext_att
        pack_count += 1
        if len(c.members) >= B:
            seal(c)
            seals += 1
            last_sealed = c
            if branch_heavy is not None:
                flush(c)
            c = None
            pack_count = 0

    if branch_heavy is not None:
        if c is not None:
            seal(c)
            flush(c)
            return c
        if last_sealed is not None:
            return last_sealed
        c = _Comp([v])
        seal(c)
        flush(c)
        return c
    if c is None:
        if last_sealed is not None:
            # children were consumed exactly by seals; v lives in the last one
            return last_sealed
        c = _Comp([v])  # leaf
    if seals and not c.permanent:
        seal(c)
    return c


def _finalize_ordinal(t: OrdinalTree, B: int, parent: np.ndarray, sealed: list[_Comp],
                      rooted: dict[int, list[_Comp]]) -> OrdinalCover:
    n = t.n
    root_groups = rooted.get(t.root, [])
    if not root_groups:
        raise AssertionError("no component rooted at the tree root")
    # DFS over the attachment structure = preorder of the dummy-rooted top tier
    order: list[_Comp] = []
    etype: list[int] = []
    kids_of: list[list[_Comp]] = []
    stack = [(c, EDGE_NEW_LEFT if k == 0 else EDGE_CONT_LEFT)
             for k, c in reversed(list(enumerate(root_groups)))]
    while stack:
        c, ty = stack.pop()
        order.append(c)
        etype.append(ty)
        kids: list[tuple[_Comp, int]] = []
        for group in c.left_att:
            for j, ch in enumerate(group):
                kids.append((ch, EDGE_NEW_LEFT if j == 0 else EDGE_CONT_LEFT))
        for group in c.right_att:
            for j, ch in enumerate(group):
                kids.append((ch, EDGE_NEW_RIGHT if j == 0 else EDGE_CONT_RIGHT))
        if c.ext_att is not None:
            for ch in c.ext_att[0]:
                kids.append((ch, EDGE_EXTERNAL))
        kids_of.append([k[0] for k in kids])
        stack.extend(reversed(kids))
    if len(order) != len(sealed):
        raise AssertionError("top tier does not reach every micro tree")
    m = len(order)
    index = {id(c): i for i, c in enumerate(order)}

    # members sorted by (micro, id): ascending ids are the local preorder
    sizes = np.fromiter((len(c.members) for c in order), np.int64, m)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    micro = np.repeat(np.arange(m), sizes)
    key = micro * (n + 1) + np.fromiter(
        chain.from_iterable(c.members for c in order), np.int64, int(starts[-1]))
    key.sort()
    members = key - micro * (n + 1)

    def local(i, v):
        """The local preorder id of member v of micro i."""
        return np.searchsorted(key, i * (n + 1) + v) - starts[i] + 1

    # shape id: one row (size, local parent of each local node) per micro,
    # compared as bytes; a member's local parent is its parent in the tree
    x = np.arange(1, len(members) + 1) - starts[micro]
    w = int(sizes.max())
    rows = np.zeros((m, 1 + w), dtype=np.int16 if w < 1 << 15 else np.int64)
    rows[:, 0] = sizes
    rows[micro, x] = np.where(x > 1, local(micro, parent[members]), 0)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # number the shapes in the order the micro trees first name them
    by_first = np.argsort(first)
    shape_id = np.argsort(by_first)[inverse.reshape(-1)]
    shape_bps = []
    for row in rows[first[by_first]].tolist():
        # node x is "(" then the closes down to node x + 1's depth
        mu, depth = row[0], [-1] + [0] * (row[0] + 1)
        for x in range(1, mu + 1):
            depth[x] = depth[row[x]] + 1
        shape_bps.append("".join("(" + ")" * (depth[x] - depth[x + 1] + 1)
                                 for x in range(1, mu + 1)))

    fields = np.zeros((m, 3), dtype=np.int64)
    fields[:, 2] = etype
    ext = [(i, *c.ext_att[1:]) for i, c in enumerate(order) if c.ext_att is not None]
    i, v, rank = np.array(ext, dtype=np.int64).reshape(-1, 3).T
    fields[i, :2] = np.column_stack((local(i, v), rank))

    ch_top = [[], [index[id(c)] + 2 for c in root_groups]]
    ch_top += [[index[id(c)] + 2 for c in kids] for kids in kids_of]
    return OrdinalCover(OrdinalTree(m + 1, ch_top), B, n, members, starts,
                        shape_id, shape_bps, fields)


def _ordinal_links(t: OrdinalTree):
    """The children of nodes 1..n in order, flattened, and each node's
    number of children."""
    deg = np.fromiter(map(len, t.children[1:]), np.int64, t.n)
    return np.fromiter(chain.from_iterable(t.children[1:]), np.int64, int(deg.sum())), deg


def _parent_size(t: BinaryTree | OrdinalTree):
    """Each node's parent and subtree size (entry 0 is 0). A subtree ends
    at its last node in preorder, found by following last children with
    pointer jumping."""
    if isinstance(t, BinaryTree):
        return _binary_links(t)[2:]
    n = t.n
    ids = np.arange(n + 1)
    kids, deg = _ordinal_links(t)
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[kids] = np.repeat(ids[1:], deg)
    last = ids.copy()
    has = deg > 0
    last[1:][has] = kids[np.cumsum(deg)[has] - 1]
    size = _follow(last) - ids + 1
    size[0] = 0
    return parent, size


def _binary_links(t: BinaryTree):
    """Each node's left child, right child, parent and subtree size, as
    arrays (entry 0 is 0); ``_parent_size`` gives the last two."""
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

def validate_cover(cover: BinaryCover | OrdinalCover, t=None):
    """Check the cover's structural invariants.

    Returns CoverStats if every invariant holds, otherwise the list of
    violation strings (violations are data, not exceptions). Passing the
    source tree enables the adjacency and heaviness checks.
    """
    out: list[str] = []
    if _validate_arrays(cover, out):
        if isinstance(cover, BinaryCover):
            _validate_binary(cover, t, out)
        else:
            _validate_ordinal(cover, t, out)
    if out:
        return out
    return _stats(cover, t)


def _stats(cover, t):
    heavy = light = 0
    if t is not None:
        parent, size = _parent_size(t)
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
    width = 2 if isinstance(cover, BinaryCover) else 3
    if (m < 1 or members.ndim != 1 or starts.shape != (m + 1,)
            or fields.shape != (m, width) or starts[0] != 0 or starts[-1] != len(members)):
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
    # each shape is a balanced BP string, an ordinal one of one tree
    text = "".join(cover.shape_bps)
    opens = np.cumsum(np.frombuffer(text.encode(), dtype=np.uint8) == ord("("))
    excess = 2 * opens - np.arange(1, len(text) + 1)
    ends = np.cumsum([len(bp) for bp in cover.shape_bps]) - 1
    if not out and (not set(text) <= {"(", ")"} or excess.min() < 0 or excess[ends].any()
                    or width == 3 and np.count_nonzero(excess == 0) != len(ends)):
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


def _validate_ordinal(cover: OrdinalCover, t, out: list[str]):
    n, B = cover.n, cover.B
    members, starts = cover.members, cover.starts
    m = len(cover.shape_id)
    mu = np.diff(starts)
    micro = np.repeat(np.arange(m), mu)
    count = np.bincount(members, minlength=n + 1)
    for g in np.flatnonzero(count[1:] == 0).tolist():
        out.append(f"node {g + 1} not covered")
    # a node in several micro trees is the root of each
    at = np.flatnonzero((count[members] > 1) & (members != members[starts[micro]]))
    for g, i in zip(members[at].tolist(), micro[at].tolist()):
        out.append(f"node {g} shared but not the root of micro {i}")
    pos, rank, etype = cover.fields.T
    bad = (pos < 0) | (pos > mu) | (rank < 0) | ((pos == 0) != (rank == 0))
    bad |= (etype < 0) | (etype > EDGE_EXTERNAL)
    for i in np.flatnonzero(bad).tolist():
        out.append(f"micro {i}: fields out of range")
    # the top tier: micro i is node i + 2, each a child once; an external
    # portal holds the micro trees below it with edge type (v)
    top = cover.top_tier
    if top.n != m + 1 or len(top.children) != m + 2:
        out.append(f"top tier has {top.n} nodes, not m + 1={m + 1}")
        return
    kids, deg = _ordinal_links(top)
    kids -= 2
    if ((kids < 0) | (kids >= m)).any() or (np.bincount(kids, minlength=m) != 1).any():
        out.append("top tier does not reach every micro tree once")
        return
    up = np.repeat(np.arange(-1, m), deg)[etype[kids] == EDGE_EXTERNAL]
    has_ext = np.zeros(m, dtype=bool)
    has_ext[up[up >= 0]] = True
    for i in np.flatnonzero((pos != 0) & ~has_ext).tolist():
        out.append(f"micro {i}: external portal without children")
    for i in np.flatnonzero((pos == 0) & has_ext).tolist():
        out.append(f"micro {i}: external children without a portal")
    if t is None or out:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    _, size = _parent_size(t)
    roots = members[starts[:-1]]
    for i in np.flatnonzero(size[roots] < min(B, n)).tolist():
        out.append(f"micro {i}: root {roots[i]} is light")
    # a member's children that lie in its micro tree alone form one run in
    # sibling order, or two around a one-node gap, at most once per micro
    # tree (path-node packing)
    kids, deg = _ordinal_links(t)
    sole = np.full(n + 1, -1)
    sole[members] = micro
    sole[count != 1] = -1
    s = sole[kids]
    par = np.repeat(np.arange(1, n + 1), deg)
    cont = np.zeros(len(kids), dtype=bool)
    cont[1:] = (par[1:] == par[:-1]) & (s[1:] == s[:-1])
    start = (s >= 0) & ~cont
    pairs, runs = np.unique(par[start] * m + s[start], return_counts=True)
    held = np.isin(pairs, members * m + micro)
    pairs, runs = pairs[held], runs[held]
    for p, r in zip(pairs[runs > 2].tolist(), runs[runs > 2].tolist()):
        out.append(f"micro {p % m}: node {p // m} children split into {r} runs")
    for i in np.flatnonzero(np.bincount(pairs[runs == 2] % m, minlength=m) > 1).tolist():
        out.append(f"micro {i}: more than one child gap")
