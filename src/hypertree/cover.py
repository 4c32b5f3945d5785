"""Farzan-Munro tree covering: decomposition of binary and ordinal trees into
micro trees with bounded size and limited connections, the contracted top
tier, and an executable validator for the structural guarantees.

Sealing rule: a component is declared permanent the moment its size reaches
``B`` during greedy packing (checked after a node merges its children's
active components). Children are processed left to right. Ordinal micro trees
may share nodes, but only as the common root of every component containing
them; a node at which a seal happened never travels upward, which is what
keeps that invariant.

The binary cover is arrays, after Farzan & Munro's statement of the cover as
arrays of micro-tree records. The greedy loop keeps one "merged into"
pointer per component and a flat list of (node, side) portals; the pointers
are resolved by numpy pointer jumping, micro trees are numbered by the
preorder of their roots (the top tier's preorder), and each gets a shape id
from the bytes of its (size, local left children, local right children) row.

A binary layout is five names: ``n``, ``top_tier``, ``shape_bps`` (the
distinct shapes' BP strings), ``shape_id`` (one per micro tree) and
``fields`` (per micro tree, 1 + the null rank of its first and second
portal in preorder, 0 for none). ``BinaryCover`` has them, and so does what
``hypercodec.parse_binary_blob`` reads from a blob. ``ShapeTables`` holds
the per-shape tables, built once per distinct shape; ``BinaryPlacement``
computes from a layout where every micro tree and portal sits in the tree,
which both the decoder and the navigation index read. ``BinaryCover.micro``
is a list of ``MicroTree`` views, built on first read, for validation,
reports and tests. The ordinal decomposition builds ``MicroTree`` objects
directly.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Sequence
from contextlib import contextmanager

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


def default_block(n: int) -> int:
    """Block parameter B = max(1, ceil(lg(n)/8))."""
    if n <= 1:
        return 1
    return max(1, math.ceil(math.log2(n) / 8))


class MicroTree:
    """One micro tree: local shape plus its connections to other micro trees.

    Portal null ranks are 0-based in the left-to-right (inorder) order of the
    local shape's null pointers.
    """

    __slots__ = (
        "shape", "local_to_global", "root_global",
        "left_portal", "right_portal", "left_slot", "right_slot",
        "left_child", "right_child",
        "ext_portal", "ext_children", "left_groups", "right_groups",
        "shared_root", "parent_edge_type",
    )

    def __init__(self, shape, local_to_global: list[int]):
        self.shape = shape
        self.local_to_global = local_to_global  # local node j -> global id; [0] unused
        self.root_global = local_to_global[1]
        self.left_portal: int | None = None
        self.right_portal: int | None = None
        self.left_slot: tuple[int, int] | None = None   # (local node, 0=L 1=R)
        self.right_slot: tuple[int, int] | None = None
        self.left_child: int | None = None              # micro index
        self.right_child: int | None = None
        self.ext_portal: tuple[int, int] | None = None  # (local preorder pos, child rank)
        # ordinal attachments; tuples until set, so a binary view allocates
        # no empty lists per micro tree
        self.ext_children: Sequence[int] = ()
        self.left_groups: Sequence[Sequence[int]] = ()
        self.right_groups: Sequence[Sequence[int]] = ()
        self.shared_root = False
        self.parent_edge_type: int | None = None

    @property
    def size(self) -> int:
        return len(self.local_to_global) - 1


class CoverStats:
    __slots__ = ("m", "heavy_count", "max_light_trees")

    def __init__(self, m, heavy_count, max_light_trees):
        self.m = m
        self.heavy_count = heavy_count
        self.max_light_trees = max_light_trees

    def __repr__(self):
        return (f"CoverStats(m={self.m}, heavy_count={self.heavy_count}, "
                f"max_light_trees={self.max_light_trees})")


class BinaryCover:
    """A binary cover as arrays, and a binary layout (see the module
    docstring). Micro trees are numbered in top-tier preorder, which is the
    preorder of their roots in the tree.

    - ``node_micro[v]``: the micro tree of node v (entry 0 unused);
    - ``members[starts[i]:starts[i + 1]]``: the nodes of micro i in local
      preorder, so its root is ``members[starts[i]]``;
    - ``shape_id[i]`` indexes ``shapes`` (the distinct local shapes) and
      ``shape_bps`` (their BP strings);
    - ``fields[i]``: the first and second portal of micro i in preorder, each
      1 + its null rank in the shape (0 for none). The top tier's left child
      of micro i hangs from the first portal and its right child from the
      second.

    ``micro`` is a list of ``MicroTree`` views, built on first read.
    """

    __slots__ = ("top_tier", "B", "n", "node_micro", "members", "starts",
                 "shape_id", "shapes", "shape_bps", "fields", "_micro")

    def __init__(self, top_tier, B, n, node_micro, members, starts, shape_id,
                 shapes, shape_bps, fields):
        self.top_tier: BinaryTree = top_tier
        self.B = B
        self.n = n
        self.node_micro = node_micro
        self.members = members
        self.starts = starts
        self.shape_id = shape_id
        self.shapes: list[BinaryTree] = shapes
        self.shape_bps: list[str] = shape_bps
        self.fields = fields
        self._micro: list[MicroTree] | None = None

    @property
    def micro(self) -> list[MicroTree]:
        if self._micro is None:
            with _gc_paused():
                self._micro = self._micro_view()
        return self._micro

    def _micro_view(self) -> list[MicroTree]:
        members = self.members.tolist()
        starts = self.starts.tolist()
        fields = self.fields.tolist()
        tables = ShapeTables(self.shape_bps)
        nulls = self.shape_id[:, None], self.fields - 1   # read where set
        pnode = tables.null_node[nulls].tolist()
        pside = tables.null_side[nulls].tolist()
        children = (self.top_tier.left, self.top_tier.right)
        out = []
        for i, sid in enumerate(self.shape_id.tolist()):
            mt = MicroTree(self.shapes[sid], [0] + members[starts[i]:starts[i + 1]])
            for k in (0, 1):
                if not fields[i][k]:
                    continue
                slot = (pnode[i][k], pside[i][k])
                rank, child = fields[i][k] - 1, children[k][i + 1] - 1
                if k == 0:
                    mt.left_slot, mt.left_portal, mt.left_child = slot, rank, child
                else:
                    mt.right_slot, mt.right_portal, mt.right_child = slot, rank, child
            out.append(mt)
        return out


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
    slot; these offsets are summed down the top tier by pointer jumping.
    """

    __slots__ = ("tables", "sid", "mu", "hang", "root_pre", "in_start", "up",
                 "depth", "has", "rank", "thr", "owner", "side", "child", "sub")

    def __init__(self, layout):
        self.tables = tables = ShapeTables(layout.shape_bps)
        self.sid = sid = np.asarray(layout.shape_id, dtype=np.int64)
        self.mu = mu = tables.mu[sid]
        m = len(sid)
        top = layout.top_tier
        child = np.array([top.left[1:], top.right[1:]], dtype=np.int64) - 1
        self.has = has = child >= 0
        self.child = child
        self.rank = rank = np.where(has, np.asarray(layout.fields).T - 1, mu)
        self.thr = thr = tables.null_thr[sid, rank]
        self.owner = tables.null_node[sid, rank]
        self.side = tables.null_side[sid, rank]
        # a subtree ends at its last node in preorder: follow the last child
        ids = np.arange(m)
        last = np.where(has[1], child[1], np.where(has[0], child[0], ids))
        while True:
            nxt = last[last]
            if (nxt == last).all():
                break
            last = nxt
        ends = np.concatenate(([0], np.cumsum(mu)))
        self.hang = hang = ends[last + 1] - ends[:-1]
        self.sub = sub = np.where(has, hang[child], 0)
        # offsets of each child from its parent, summed down the top tier
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


class OrdinalCover:
    __slots__ = ("micro", "top_tier", "B", "n", "node_micros")

    def __init__(self, micro, top_tier, B, n, node_micros):
        self.micro: list[MicroTree] = micro        # in top-tier preorder
        self.top_tier: OrdinalTree = top_tier      # has a dummy root
        self.B = B
        self.n = n
        self.node_micros: list[list[int]] = node_micros


class _Comp:
    """A component of the ordinal decomposition."""

    __slots__ = ("members", "edges", "permanent", "left_att", "right_att", "ext_att")

    def __init__(self, members):
        self.members = members
        self.edges: list[tuple[int, int]] = []     # local (parent, child) edges
        self.permanent = False
        self.left_att: list[list["_Comp"]] = []
        self.right_att: list[list["_Comp"]] = []
        self.ext_att: tuple[list["_Comp"], int, int] | None = None


# ---------------------------------------------------------------------------
# binary decomposition

def decompose_binary(t: BinaryTree, B: int | None = None) -> BinaryCover:
    n = t.n
    if n < 1:
        raise ValueError("cannot decompose the empty tree")
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
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
    return _finalize_binary(t, B, comp_of, into, pnode, pside)


def _finalize_binary(t: BinaryTree, B: int, comp_of, into, pnode, pside) -> BinaryCover:
    n = t.n
    # resolve each node's component through the merge pointers
    into = np.asarray(into, dtype=np.int64)
    while True:
        nxt = into[into]
        if np.array_equal(nxt, into):
            break
        into = nxt
    comp = into[np.asarray(comp_of, dtype=np.int64)]
    left = np.asarray(t.left, dtype=np.int64)
    right = np.asarray(t.right, dtype=np.int64)
    ids = np.arange(n + 1, dtype=np.int64)
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[left] = ids
    parent[right] = ids
    parent[0] = 0
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

    # per distinct shape: the tree and its BP
    shapes: list[BinaryTree] = []
    for i in first.tolist():
        mu = int(sizes[i])
        shapes.append(BinaryTree(mu, [0] + rows[i, 1:mu + 1].tolist(),
                                 [0] + rows[i, w + 1:w + mu + 1].tolist()))
    shape_bps = [bp_encode_binary(sh).to_paren() for sh in shapes]

    # portals in (owner, null rank) order, which is their preorder; a micro
    # tree's first portal holds its top-tier left child, the second its right
    pn = np.asarray(pnode, dtype=np.int64)
    side = np.asarray(pside, dtype=np.int64)
    owner = node_micro[pn]
    rank = ShapeTables(shape_bps).inorder[shape_id[owner], loc_of[pn]] - 1 + side
    child = node_micro[np.where(side == 0, left[pn], right[pn])]
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
    kids = np.zeros((2, m + 1), dtype=np.int64)
    kids[k, owner + 1] = child + 1
    top = BinaryTree(m, *kids.tolist())
    return BinaryCover(top, B, n, node_micro, members, starts, shape_id,
                       shapes, shape_bps, fields)


# ---------------------------------------------------------------------------
# ordinal decomposition

def decompose_ordinal(t: OrdinalTree, B: int | None = None) -> OrdinalCover:
    n = t.n
    if n < 1:
        raise ValueError("cannot decompose the empty tree")
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    children = t.children
    size = [0] * (n + 1)
    for v in range(n, 0, -1):
        s = 1
        for c in children[v]:
            s += size[c]
        size[v] = s

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
    return _finalize_ordinal(t, B, sealed, rooted)


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
            c.edges.extend(hc.edges)
            c.left_att.extend(hc.left_att)
            c.right_att.extend(hc.right_att)
            if hc.ext_att is not None:
                if c.ext_att is not None:
                    raise AssertionError("two external edges in one component")
                c.ext_att = hc.ext_att
        c.edges.append((v, u))
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


def _finalize_ordinal(t: OrdinalTree, B: int, sealed: list[_Comp],
                      rooted: dict[int, list[_Comp]]) -> OrdinalCover:
    n = t.n
    root_groups = rooted.get(t.root, [])
    if not root_groups:
        raise AssertionError("no component rooted at the tree root")
    # DFS over the attachment structure = preorder of the dummy-rooted top tier
    order: list[_Comp] = []
    parent_type: dict[int, int] = {}
    children_of: dict[int, list[_Comp]] = {}
    stack: list[tuple[_Comp, int]] = []
    for k in range(len(root_groups) - 1, -1, -1):
        stack.append((root_groups[k], EDGE_NEW_LEFT if k == 0 else EDGE_CONT_LEFT))
    while stack:
        c, etype = stack.pop()
        parent_type[id(c)] = etype
        order.append(c)
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
        children_of[id(c)] = [k[0] for k in kids]
        stack.extend(reversed(kids))
    if len(order) != len(sealed):
        raise AssertionError("top tier does not reach every micro tree")

    index = {id(c): i for i, c in enumerate(order)}
    micros: list[MicroTree] = []
    node_micros: list[list[int]] = [[] for _ in range(n + 1)]
    for i, c in enumerate(order):
        c.members.sort()
        mem = c.members
        for g in mem:
            node_micros[g].append(i)
        loc = {g: j + 1 for j, g in enumerate(mem)}
        mu = len(mem)
        ch: list[list[int]] = [[] for _ in range(mu + 1)]
        for (p, u) in c.edges:
            ch[loc[p]].append(loc[u])
        mt = MicroTree(OrdinalTree(mu, ch), [0] + mem)
        mt.parent_edge_type = parent_type[id(c)]
        mt.left_groups = [[index[id(x)] for x in g] for g in c.left_att]
        mt.right_groups = [[index[id(x)] for x in g] for g in c.right_att]
        if c.ext_att is not None:
            group, pnode, rank = c.ext_att
            mt.ext_children = [index[id(x)] for x in group]
            mt.ext_portal = (loc[pnode], rank)
        micros.append(mt)
    for v in range(1, n + 1):
        if len(node_micros[v]) > 1:
            for i in node_micros[v]:
                micros[i].shared_root = True

    m = len(micros)
    ch_top: list[list[int]] = [[] for _ in range(m + 2)]
    ch_top[1] = [index[id(c)] + 2 for c in root_groups]
    for i, c in enumerate(order):
        ch_top[i + 2] = [index[id(x)] + 2 for x in children_of[id(c)]]
    top = OrdinalTree(m + 1, ch_top)
    return OrdinalCover(micros, top, B, n, node_micros)


# ---------------------------------------------------------------------------
# validation

def validate_cover(cover: BinaryCover | OrdinalCover, t=None):
    """Check the cover's structural invariants.

    Returns CoverStats if every invariant holds, otherwise the list of
    violation strings (violations are data, not exceptions). Passing the
    source tree enables the adjacency and heaviness checks.
    """
    out: list[str] = []
    if isinstance(cover, BinaryCover):
        _validate_binary(cover, t, out)
    else:
        _validate_ordinal(cover, t, out)
    if out:
        return out
    return _stats(cover, t)


def _stats(cover, t):
    heavy = 0
    light_max = 0
    if t is not None:
        size = annotate(t).subtree_size
        heavy = sum(1 for x in range(1, t.n + 1) if size[x] >= cover.B)
        if isinstance(t, OrdinalTree):
            kids_of = t.children
            for x in range(1, t.n + 1):
                if size[x] >= cover.B:
                    for c in kids_of[x]:
                        if size[c] < cover.B:
                            light_max += 1
        else:
            for x in range(1, t.n + 1):
                if size[x] >= cover.B:
                    for c in (t.left[x], t.right[x]):
                        if c and size[c] < cover.B:
                            light_max += 1
    return CoverStats(len(cover.micro), heavy, light_max)


def _hang_sizes_binary(cover: BinaryCover) -> list[int]:
    m = len(cover.micro)
    hang = [0] * m
    for i in range(m - 1, -1, -1):
        mt = cover.micro[i]
        s = mt.size
        for chi in (mt.left_child, mt.right_child):
            if chi is not None:
                s += hang[chi]
        hang[i] = s
    return hang


def _validate_binary(cover: BinaryCover, t, out: list[str]):
    n, B = cover.n, cover.B
    seen = [0] * (n + 1)
    for i, mt in enumerate(cover.micro):
        if not 1 <= mt.size <= 2 * B:
            out.append(f"micro {i}: size {mt.size} outside [1, {2 * B}]")
        if mt.shape.n != mt.size:
            out.append(f"micro {i}: shape size differs from member count")
            return
        for g in mt.local_to_global[1:]:
            if 1 <= g <= n:
                seen[g] += 1
            else:
                out.append(f"micro {i}: node id {g} out of range")
    for g in range(1, n + 1):
        if seen[g] != 1:
            out.append(f"node {g} covered {seen[g]} times")
    if len(cover.micro) > max(1, 8 * n // B):
        out.append(f"m={len(cover.micro)} exceeds 8n/B")
    hang = _hang_sizes_binary(cover)
    for i, mt in enumerate(cover.micro):
        if hang[i] < min(B, n):
            out.append(f"micro {i}: root subtree size {hang[i]} < B={B}")
        both = mt.left_slot is not None and mt.right_slot is not None
        if both:
            nonroot = sum(1 for s in (mt.left_slot, mt.right_slot) if s[0] != 1)
            if nonroot > 1:
                out.append(f"micro {i}: two portals, none at the root")
    if t is None:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    node_micro = cover.node_micro.tolist()
    for i, mt in enumerate(cover.micro):
        loc = mt.local_to_global
        sh = mt.shape
        ok = True
        for j in range(1, mt.size + 1):
            g = loc[j]
            for side, gch in ((0, t.left[g]), (1, t.right[g])):
                lch = sh.left[j] if side == 0 else sh.right[j]
                inside = bool(gch) and node_micro[gch] == i
                if inside != bool(lch) or (inside and loc[lch] != gch):
                    ok = False
        if not ok:
            out.append(f"micro {i}: local shape is not the induced subtree")
        for slot, chi in ((mt.left_slot, mt.left_child),
                          (mt.right_slot, mt.right_child)):
            if slot is None:
                continue
            gv = loc[slot[0]]
            target = t.left[gv] if slot[1] == 0 else t.right[gv]
            if chi is None or cover.micro[chi].root_global != target:
                out.append(f"micro {i}: portal does not match a tree edge")


def _validate_ordinal(cover: OrdinalCover, t, out: list[str]):
    n, B = cover.n, cover.B
    for g in range(1, n + 1):
        ms = cover.node_micros[g]
        if not ms:
            out.append(f"node {g} not covered")
        elif len(ms) > 1:
            for i in ms:
                if cover.micro[i].root_global != g:
                    out.append(f"node {g} shared but not the root of micro {i}")
    for i, mt in enumerate(cover.micro):
        if not 1 <= mt.size <= 2 * B:
            out.append(f"micro {i}: size {mt.size} outside [1, {2 * B}]")
        if mt.ext_portal is not None and not mt.ext_children:
            out.append(f"micro {i}: external portal without children")
    if len(cover.micro) > max(1, 8 * n // B):
        out.append(f"m={len(cover.micro)} exceeds 8n/B")
    if t is None:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    size = annotate(t).subtree_size
    for i, mt in enumerate(cover.micro):
        if size[mt.root_global] < min(B, n):
            out.append(f"micro {i}: root {mt.root_global} is light")
    # per-member children inside the micro form one interval, with at most
    # one single-node gap per micro (path-node packing)
    for i, mt in enumerate(cover.micro):
        gaps = 0
        loc = mt.local_to_global
        for j in range(1, mt.size + 1):
            g = loc[j]
            runs = 0
            prev_in = False
            for cch in t.children[g]:
                now = cover.node_micros[cch] == [i]
                if now and not prev_in:
                    runs += 1
                prev_in = now
            if runs > 2:
                out.append(f"micro {i}: node {g} children split into {runs} runs")
            elif runs == 2:
                gaps += 1
        if gaps > 1:
            out.append(f"micro {i}: more than one child gap")
