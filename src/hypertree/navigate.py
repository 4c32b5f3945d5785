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
answer inside a micro tree; a sparse table over the top tier's depths finds
the LCA of two micro trees. The batch entry points answer numpy arrays of
queries vectorized.
"""

from __future__ import annotations

import numpy as np

from .cover import BinaryPlacement, ShapeTables
from .hypercodec import HsBlob, parse_binary_blob


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
                        p.root_pre + p.hang, p.sub[0], p.sub[1]], dtype=np.int32)
        locs = np.array([p.thr[0], p.thr[1], p.rank[0], p.rank[1], p.owner[0],
                         p.owner[1], parent_owner], dtype=loc)
        # per shape, read flat at [shape * W + local]
        shape = np.array([tab.parent, tab.size, tab.inorder], dtype=loc).reshape(3, -1)

        view = memoryview
        (self._sid, self._root_pre, self._in_start, self._up, self._depth,
         self._end, sub0, sub1) = map(view, ids)
        self._sub = (sub0, sub1)
        self._thr = (view(locs[0]), view(locs[1]))
        self._rank = (view(locs[2]), view(locs[3]))
        self._owner = (view(locs[4]), view(locs[5]))
        self._parent_owner = view(locs[6])
        self._parent, self._size, self._inorder = map(view, shape)
        # [(shape * W + a) * W + b]
        self._lca = view(_shape_lca(tab).astype(loc).ravel())
        self._sparse = view(_sparse_table(p.depth))

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
        """LCA of micro trees a, b (0-based) in the top tier: a when b lies in
        a's preorder subtree, otherwise the parent of the shallowest micro
        tree in (a, b]."""
        if a == b:
            return a
        if a > b:
            a, b = b, a
        if self._root_pre[b] < self._end[a]:
            return a
        k = (b - a).bit_length() - 1
        at = k * (self.m + 1) - (1 << k) + 1
        st, depth = self._sparse, self._depth
        p1 = st[at + a + 1]
        p2 = st[at + b - (1 << k) + 1]
        return self._up[p2 if depth[p2] < depth[p1] else p1]

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
        a = ul if top == mi else self._entry_local(top, u)
        b = vl if top == mj else self._entry_local(top, v)
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
        pre_u = self._batch_to_global(mi, ul)
        pre_v = self._batch_to_global(mj, vl)
        top = self._batch_top_lca(mi, mj)
        a = np.where(top == mi, ul, self._batch_entry(top, pre_u))
        b = np.where(top == mj, vl, self._batch_entry(top, pre_v))
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
        inside = self._root_pre.obj[hi] < self._end.obj[lo]
        k = np.frexp(np.maximum(hi - lo, 1))[1].astype(np.int64) - 1
        at = k * (self.m + 1) - (1 << k) + 1
        st, depth = self._sparse.obj, self._depth.obj
        p1 = st[at + np.minimum(lo + 1, hi)]
        p2 = st[at + hi - (1 << k) + 1]
        p = np.where(depth[p2] < depth[p1], p2, p1)
        return np.where(inside, lo, self._up.obj[p])

    def batch_inorder_rank(self, mi, loc):
        j = self._inorder.obj[self._sid.obj[mi] * self._width + loc]
        r = self._in_start.obj[mi] + j - 1
        for k in (0, 1):
            r = r + np.where(self._rank[k].obj[mi] < j, self._sub[k].obj[mi], 0)
        return r


def _sparse_table(depth) -> np.ndarray:
    """Argmin-depth positions over every power-of-two window of the top
    tier's depths by preorder, as one int32 array: level k holds the m - 2^k
    + 1 windows of width 2^k and starts at k (m + 1) - 2^k + 1."""
    m = len(depth)
    level = np.arange(m, dtype=np.int32)
    levels = [level]
    half = 1
    while 2 * half <= m:
        a = level[: m - 2 * half + 1]
        b = level[half: m - half + 1]
        level = np.where(depth[b] < depth[a], b, a)
        levels.append(level)
        half *= 2
    return np.concatenate(levels)


def build_nav(blob: HsBlob) -> NavIndex:
    return NavIndex(parse_binary_blob(blob))
