"""Query layer over a binary tree code: micro-tree-local lookup tables plus
top-tier structures answering LCA, inorder rank/select, parent, and subtree
size about the encoded tree without materializing it per query.

The index is built from a binary layout (see ``cover``): ``NavIndex(cover)``
from a cover, and ``build_nav(blob)``, which is
``NavIndex(parse_binary_blob(blob))``, from a blob. It reads the layout
through ``cover.BinaryPlacement``, the placement the decoder reads too, and
keeps each of its arrays once, compact: int32 for ids and sizes, and the
smallest unsigned type that holds the largest micro tree for local ids. The
batch kernels gather from these numpy arrays; the scalar queries read the
same buffers through memoryviews, which return Python ints.

Complexities: every query is O(1). Per-node arrays map a global preorder id
or inorder rank to its micro tree and local preorder id; per-shape tables
answer inside a micro tree; a range minimum over the top tier's depths finds
the LCA of two micro trees. That range minimum takes O(m) words for m micro
trees (Bender & Farach-Colton 2000; Fischer & Heun 2011): the micro trees
are cut into blocks of 16 in preorder, each keeps uint8 offsets to the
minimum of its block's prefix and suffix and of short windows from it, and
one sparse table over the block minima covers the whole blocks of a range.
The batch entry points answer numpy arrays of queries vectorized.
"""

from __future__ import annotations

import numpy as np

from .cover import BinaryPlacement, ShapeTables
from .hypercodec import HsBlob, parse_binary_blob

# The top tier's range minimum cuts the micro trees into blocks of _BLOCK in
# preorder. Its keys hold a depth in the high 32 bits and _POS minus the
# position in the low ones; _NONE is the key of the sentinel block.
_LG = 4
_BLOCK = 1 << _LG
_POS = (1 << 32) - 1
_NONE = np.iinfo(np.int64).max


def _shape_lca(tables: ShapeTables) -> np.ndarray:
    """lca[s, u, v]: the LCA of local nodes u and v of shape s. The nodes
    between u and v in inorder all lie in the LCA's subtree, and the LCA is
    one of them, so it is the one first in preorder: a running minimum of
    local ids along each row of inorder ranks."""
    k, W = tables.size.shape
    ids = np.arange(W)
    low = np.minimum.accumulate(
        np.where(ids[:, None] <= ids, tables.local_of_inorder[:, None, :], W), axis=2)
    r = tables.inorder
    return low[np.arange(k)[:, None, None], np.minimum(r[:, :, None], r[:, None, :]),
               np.maximum(r[:, :, None], r[:, None, :])]


class NavIndex:
    """Navigation index over a binary tree code, built from its layout: a
    ``BinaryCover`` or what ``parse_binary_blob`` returns.

    Every array is held once, as a memoryview for the scalar queries; the
    batch kernels gather from the numpy array behind it, the view's ``obj``.
    """

    def __init__(self, layout):
        p = BinaryPlacement(layout)
        tab = p.tables
        n, m = layout.n, len(p.sid)
        self.n, self.m = n, m
        self._width = W = tab.size.shape[1]
        # a local id is at most the largest micro size + 1 (a missing
        # portal's threshold)
        loc = np.min_scalar_type(W)
        parent_owner = np.zeros(m, dtype=np.int64)
        parent_owner[p.child[p.has]] = p.owner[p.has]
        # one conversion per dtype keeps small builds cheap; rows are views
        ids = np.array([p.sid, p.root_pre, p.in_start, p.up, p.depth,
                        p.sub[0], p.sub[1]], dtype=np.int32)
        locs = np.array([p.thr[0], p.thr[1], p.rank[0], p.rank[1], p.owner[0],
                         p.owner[1], parent_owner], dtype=loc)
        # per shape, read flat at [shape * W + local]
        shape = np.array([tab.parent, tab.size, tab.inorder], dtype=loc).reshape(3, -1)

        view = memoryview
        (self._sid, self._root_pre, self._in_start, self._up, self._depth,
         sub0, sub1) = map(view, ids)
        self._sub = (sub0, sub1)
        self._thr = (view(locs[0]), view(locs[1]))
        self._rank = (view(locs[2]), view(locs[3]))
        self._owner = (view(locs[4]), view(locs[5]))
        self._parent_owner = view(locs[6])
        self._parent, self._size, self._inorder = map(view, shape)
        # [(shape * W + a) * W + b]
        self._lca = view(_shape_lca(tab).astype(loc).ravel())
        self._offs, self._blocks, self._levels = map(view, _top_tables(p.depth))

        # global preorder id -> (micro, local id), and inorder rank -> the
        # same: every local node, placed by the batch kernels
        micro, local = np.nonzero(np.arange(1, W) <= p.mu[:, None])
        local += 1
        g = self._batch_to_global(micro, local)
        r = self.batch_inorder_rank(micro, local)
        nodes = np.zeros((2, n + 1), dtype=np.int32)
        nodes[0, g], nodes[1, r] = micro, micro
        node_loc = np.zeros((2, n + 1), dtype=loc)
        node_loc[0, g], node_loc[1, r] = local, local
        self._pre_micro, self._in_micro = map(view, nodes)
        self._pre_loc, self._in_loc = map(view, node_loc)

    # -- top tier -------------------------------------------------------------

    def _top_lca(self, a: int, b: int) -> int:
        """LCA of micro trees a, b (0-based) in the top tier. Take a <= b
        and p, the shallowest micro tree in preorder [a, b], the rightmost of
        equal depth. If p is a, b lies in a's subtree and the LCA is a.
        Otherwise every micro tree in (a, b] lies below the LCA, which has a
        child there no deeper than a, so p is a child of the LCA.

        p is the shallower of two windows of width 2^k when [a, b] is shorter
        than a block and inside one; otherwise the shallowest of the part
        blocks at its two ends and of the whole blocks between them. Each
        later candidate wins a tie, so a (in the first) loses every tie.
        """
        if a > b:
            a, b = b, a
        offs, depth = self._offs, self._depth
        if b - a < _BLOCK - 1 and a >> _LG == b >> _LG:
            k = (b - a + 1).bit_length() - 1
            if k == 0:
                return a
            row = (k + 1) * self.m
            j = b - (1 << k) + 1
            p = a + offs[row + a]
            q = j + offs[row + j]
            dp = depth[p]
        else:
            p = a + offs[self.m + a]
            q = b - offs[b]
            dp = depth[p]
            ba, bb = a >> _LG, b >> _LG
            if bb - ba > 1:
                k = (bb - ba - 1).bit_length() - 1
                at = self._levels[k]
                st = self._blocks
                x = st[at + ba + 1]
                y = st[at + bb - (1 << k)]
                if y < x:
                    x = y
                if x >> 32 <= dp:
                    p = _POS - (x & _POS)
                    dp = x >> 32
        if depth[q] <= dp:
            p = q
        return a if p == a else self._up[p]

    # -- coordinate conversion ---------------------------------------------

    def to_local(self, v: int) -> tuple[int, int]:
        """Global preorder id -> (micro index, local preorder id)."""
        if not 1 <= v <= self.n:
            raise IndexError(v)
        return self._pre_micro[v], self._pre_loc[v]

    def to_global(self, i: int, loc: int) -> int:
        (t0, t1), (h0, h1) = self._thr, self._sub
        return (self._root_pre[i] + loc - 1 + (h0[i] if t0[i] <= loc else 0)
                + (h1[i] if t1[i] <= loc else 0))

    # -- queries -------------------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        mi, ul = self.to_local(u)
        mj, vl = self.to_local(v)
        W = self._width
        if mi == mj:
            return self.to_global(mi, self._lca[(self._sid[mi] * W + ul) * W + vl])
        top = self._top_lca(mi, mj)
        if top == mi:
            a, b = ul, self._entry_local(top, v)
        elif top == mj:
            a, b = self._entry_local(top, u), vl
        else:
            # u and v lie below top's two portals, the earlier in preorder
            # below the first
            o0, o1 = self._owner
            a, b = (o0[top], o1[top]) if mi < mj else (o1[top], o0[top])
        return self.to_global(top, self._lca[(self._sid[top] * W + a) * W + b])

    def _entry_local(self, i: int, u: int) -> int:
        """Local node of micro i owning the portal whose subtree contains the
        global preorder id u, which lies below i but not in it."""
        (t0, t1), (h0, h1) = self._thr, self._sub
        start = self._root_pre[i] + t1[i] - 1 + h0[i]
        return self._owner[1][i] if start <= u < start + h1[i] else self._owner[0][i]

    def parent(self, v: int) -> int | None:
        mi, loc = self.to_local(v)
        if loc != 1:
            return self.to_global(mi, self._parent[self._sid[mi] * self._width + loc])
        if mi == 0:
            return None
        return self.to_global(self._up[mi], self._parent_owner[mi])

    def subtree_size(self, v: int) -> int:
        mi, loc = self.to_local(v)
        s = self._size[self._sid[mi] * self._width + loc]
        end = loc + s
        (o0, o1), (h0, h1) = self._owner, self._sub
        return (s + (h0[mi] if loc <= o0[mi] < end else 0)
                + (h1[mi] if loc <= o1[mi] < end else 0))

    def inorder_rank(self, v: int) -> int:
        mi, loc = self.to_local(v)
        j = self._inorder[self._sid[mi] * self._width + loc]
        (r0, r1), (h0, h1) = self._rank, self._sub
        return (self._in_start[mi] + j - 1 + (h0[mi] if r0[mi] < j else 0)
                + (h1[mi] if r1[mi] < j else 0))

    def inorder_select(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise IndexError(r)
        return self.to_global(self._in_micro[r], self._in_loc[r])

    # -- batched kernels (numpy) ---------------------------------------------
    # Local ids may be unsigned and narrow: each sum below starts from an
    # int32 array, so a local id never meets a negative term on its own.

    def batch_select_local(self, r):
        """Vectorized inorder select into (micro, local) coordinates."""
        r = np.asarray(r, dtype=np.int64)
        if r.size and (r.min() < 1 or r.max() > self.n):
            raise IndexError("rank out of range in batch")
        return self._in_micro.obj[r], self._in_loc.obj[r]

    def batch_lca_local(self, mi, ul, mj, vl):
        """Vectorized LCA in (micro, local) coordinates; returns (mw, wl)."""
        top = self._batch_top_lca(mi, mj)
        # u and v below top's two portals, the earlier in preorder below the
        # first; where top holds u or v, the other's portal by preorder
        first = mi < mj
        o0, o1 = self._owner[0].obj[top], self._owner[1].obj[top]
        a, b = np.where(first, o0, o1), np.where(first, o1, o0)
        s = np.flatnonzero((top == mi) | (top == mj))
        if s.size:
            t, i, j = top[s], mi[s], mj[s]
            a[s] = np.where(t == i, ul[s], self._batch_entry(t, self._batch_to_global(i, ul[s])))
            b[s] = np.where(t == j, vl[s], self._batch_entry(t, self._batch_to_global(j, vl[s])))
        W = self._width
        return top, self._lca.obj[(self._sid.obj[top] * W + a) * W + b]

    def _batch_to_global(self, mi, loc):
        g = self._root_pre.obj[mi] + loc - 1
        for k in (0, 1):
            g = g + np.where(self._thr[k].obj[mi] <= loc, self._sub[k].obj[mi], 0)
        return g

    def _batch_entry(self, i, pre_u):
        h0, h1 = self._sub[0].obj, self._sub[1].obj
        start = self._root_pre.obj[i] + self._thr[1].obj[i] - 1 + h0[i]
        in1 = (start <= pre_u) & (pre_u < start + h1[i])
        return np.where(in1, self._owner[1].obj[i], self._owner[0].obj[i])

    def _batch_top_lca(self, a, b):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        offs, depth = self._offs.obj, self._depth.obj
        # the part blocks at the two ends, then the whole blocks between
        p = lo + offs[self.m + lo]
        q = hi - offs[hi]
        dp, dq = depth[p], depth[q]
        p = np.where(dq <= dp, q, p)
        dp = np.minimum(dp, dq)
        bl, bh = lo >> _LG, hi >> _LG
        c = bh - bl - 1
        k = np.frexp(np.maximum(c, 1))[1] - 1
        at = self._levels.obj[k]
        st = self._blocks.obj
        key = np.minimum(st[at + bl + 1], st[at + bh - (1 << k)])
        p = np.where((c > 0) & (key >> 32 <= dp), _POS - (key & _POS), p)
        # ranges shorter than a block and inside one: two windows
        s = np.flatnonzero((c < 0) & (hi - lo < _BLOCK - 1))
        if s.size:
            p[s] = self._batch_windows(lo[s], hi[s])
        return np.where(p == lo, lo, self._up.obj[p])

    def _batch_windows(self, lo, hi):
        """Rightmost shallowest micro tree in each [lo, hi], all shorter than
        a block."""
        k = np.frexp(hi - lo + 1)[1] - 1
        row = (k + 1) * self.m
        j = hi - (1 << k) + 1
        offs, depth = self._offs.obj, self._depth.obj
        p = lo + np.where(k > 0, offs[row + lo], 0)
        q = j + np.where(k > 0, offs[row + j], 0)
        return np.where(depth[q] <= depth[p], q, p)

    def batch_inorder_rank(self, mi, loc):
        j = self._inorder.obj[self._sid.obj[mi] * self._width + loc]
        r = self._in_start.obj[mi] + j - 1
        for k in (0, 1):
            r = r + np.where(self._rank[k].obj[mi] < j, self._sub[k].obj[mi], 0)
        return r


def _top_tables(depth):
    """Range-minimum tables over the top tier's depths in preorder. Micro
    tree i has the key ``depth[i] << 32 | (_POS - i)``, so the least key is
    the rightmost of the shallowest. Its M blocks of ``_BLOCK`` keys end in
    one sentinel block of ``_NONE`` keys. Returns

    - offs, a flat (5, m) uint8 array of distances from i to the least key:
      row 0 over i's block up to i, row 1 over its block from i on, and rows
      2-4 over [i, i + 2^k) for k = 1, 2, 3;
    - a sparse table of the block minima as one int64 array: level k holds
      the least key over each run of 2^k blocks;
    - the start of each level in it, k (M + 1) - 2^k + 1.
    """
    m = len(depth)
    M = (m + _BLOCK - 1 >> _LG) + 1
    pos = np.arange(m, dtype=np.int64)
    keys = np.full(M * _BLOCK, _NONE)
    keys[:m] = (depth.astype(np.int64) << 32) + (_POS - pos)
    blk = keys.reshape(M, _BLOCK)
    win = [keys]
    for k in (1, 2, 4):
        win.append(np.minimum(win[-1][:-k], win[-1][k:]))
    least = np.array([np.minimum.accumulate(blk, axis=1).ravel()[:m],
                      np.minimum.accumulate(blk[:, ::-1], axis=1)[:, ::-1].ravel()[:m],
                      win[1][:m], win[2][:m], win[3][:m]])
    offs = np.abs(_POS - (least & _POS) - pos).astype(np.uint8)
    levels = [blk.min(axis=1)]
    while 1 << len(levels) <= M:
        half = 1 << len(levels) - 1
        levels.append(np.minimum(levels[-1][:-half], levels[-1][half:]))
    k = np.arange(len(levels))
    return offs.ravel(), np.concatenate(levels), k * (M + 1) - (1 << k) + 1


def build_nav(blob: HsBlob) -> NavIndex:
    return NavIndex(parse_binary_blob(blob))
