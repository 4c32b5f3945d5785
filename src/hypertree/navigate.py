"""Query layer over a binary tree code: micro-tree-local lookup tables plus
top-tier structures answering LCA, inorder rank/select, parent, and subtree
size about the encoded tree without materializing it per query.

The index is built from a binary layout (see ``cover``): ``NavIndex(cover)``
from a cover, and ``build_nav(blob)``, which is
``NavIndex(parse_binary_blob(blob))``, from a blob. It reads the layout
through ``cover.BinaryPlacement``, the placement the decoder reads too, and
keeps its arrays twice: as numpy arrays for the batch kernels, and as lists
for the scalar queries, which read Python ints faster than numpy scalars.

Complexities: LCA, parent, subtree size, and inorder rank are O(1) once the
owning micro tree is known; locating it (and inorder select) is a binary
search over at most 3m intervals, so O(lg m) per query. The batch entry
points answer numpy arrays of queries vectorized.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .cover import BinaryPlacement, ShapeTables
from .hypercodec import HsBlob, parse_binary_blob


def _shape_lca(tables: ShapeTables) -> np.ndarray:
    """lca[s, u, v]: the LCA of local nodes u and v of shape s. In preorder
    the ancestors of v are the w <= v with v < w + size[w], so the smaller
    of u and v, walked up until its subtree holds the larger, is the LCA."""
    k, W = tables.size.shape
    rows = np.arange(k)[:, None, None]
    ids = np.arange(W)
    a = np.minimum.outer(ids, ids) + np.zeros_like(rows)
    b = np.maximum.outer(ids, ids)
    # padding and column 0 stop at once: their "subtree" holds every id
    size = np.where(tables.size > 0, tables.size, W)
    while True:
        out = b >= a + size[rows, a]
        if not out.any():
            return a
        a = np.where(out, tables.parent[rows, a], a)


def _intervals(base, cut, sub, mu):
    """The runs of consecutive global ids that the local nodes of each micro
    tree take, in preorder or inorder: local ids [1, cut[0]), [cut[0],
    cut[1]) and [cut[1], mu] start at ``base`` shifted past the subtrees
    hanging before them. Returns (global start, micro, local start) of the
    nonempty runs, sorted by start."""
    lo = np.array([np.ones_like(mu), cut[0], cut[1]])
    hi = np.array([cut[0], cut[1], mu + 1])
    run = np.array([np.zeros_like(mu), sub[0], sub[0] + sub[1]])
    keep = hi > lo
    micro = np.nonzero(keep)[1]
    start, lo = (base + lo - 1 + run)[keep], lo[keep]
    order = np.argsort(start, kind="stable")
    return start[order], micro[order], lo[order]


class NavIndex:
    """Navigation index over a binary tree code, built from its layout: a
    ``BinaryCover`` or what ``parse_binary_blob`` returns."""

    def __init__(self, layout):
        p = BinaryPlacement(layout)
        tab = p.tables
        m = len(p.sid)
        self.n = layout.n
        self.m = m
        lca = _shape_lca(tab)
        pre = _intervals(p.root_pre, p.thr, p.sub, p.mu)
        ino = _intervals(p.in_start, p.rank + 1, p.sub, p.mu)
        parent_owner = np.zeros(m, dtype=np.int64)
        parent_owner[p.child[p.has]] = p.owner[p.has]

        # lists for the scalar queries; per-shape tables as [shape][local]
        self._parent = tab.parent.tolist()
        self._size = tab.size.tolist()
        self._inorder = tab.inorder.tolist()
        self._local_of_inorder = tab.local_of_inorder.tolist()
        self._lca = lca.tolist()
        self.shape_id = p.sid.tolist()
        self.root_pre = p.root_pre.tolist()
        self.in_start = p.in_start.tolist()
        self.parent_micro = p.up.tolist()
        self.parent_owner = parent_owner.tolist()
        # per portal slot: [first portal's list, second portal's list]
        self._thr = p.thr.tolist()
        self._rank = p.rank.tolist()
        self._owner = p.owner.tolist()
        self._sub = p.sub.tolist()
        # interval tables for global preorder -> (micro, local) and
        # global inorder -> (micro, local inorder index)
        self.pre_starts, self.pre_micro, self.pre_loc = (a.tolist() for a in pre)
        self.in_starts, self.in_micro, self.in_j = (a.tolist() for a in ino)

        # numpy arrays for the batch kernels; the LCA table is read flat, a
        # faster gather than three index arrays
        self._width = lca.shape[-1]
        self._np = {
            "sid": p.sid, "lca": lca.ravel(), "inorder": tab.inorder,
            "local_of_inorder": tab.local_of_inorder,
            "thr": p.thr, "rank": p.rank, "owner": p.owner, "sub": p.sub,
            "root_pre": p.root_pre, "in_start": p.in_start,
            # where the subtree at the second portal starts
            "start1": p.root_pre + p.thr[1] - 1 + p.sub[0],
            "in_starts": ino[0], "in_micro": ino[1], "in_j": ino[2],
        }
        self._build_top_lca(p)

    # -- small helpers ------------------------------------------------------

    def _build_top_lca(self, p: BinaryPlacement):
        # LCA over the preorder-numbered top tier via a sparse table of
        # argmin-depth positions on the depth-by-preorder array:
        # for a < b, LCA(a, b) = a when b lies in a's preorder subtree,
        # otherwise parent(argmin depth over (a, b]).
        m = self.m
        da = p.depth.astype(np.int32)
        st_pos = [np.arange(m, dtype=np.int64)]
        half = 1
        while 2 * half <= m:
            prev = st_pos[-1]
            a = prev[: m - 2 * half + 1]
            b = prev[half: m - half + 1]
            st_pos.append(np.where(da[b] < da[a], b, a))
            half *= 2
        self._depth = da
        self._sparse = st_pos
        self._log = np.zeros(m + 1, dtype=np.int64)
        self._log[1:] = np.frexp(np.arange(1, m + 1))[1] - 1
        # global preorder interval of each micro's hanging subtree
        self._sub_lo = p.root_pre
        self._sub_hi = p.root_pre + p.hang
        self._par_np = p.up

    def _top_lca(self, a: int, b: int) -> int:
        """LCA of micro trees a, b (0-based) in the top tier."""
        if a == b:
            return a
        if a > b:
            a, b = b, a
        if self._sub_lo[b] < self._sub_hi[a]:
            return a
        lo, hi = a + 1, b
        k = int(self._log[hi - lo + 1])
        p1 = self._sparse[k][lo]
        p2 = self._sparse[k][hi - (1 << k) + 1]
        p = p2 if self._depth[p2] < self._depth[p1] else p1
        return self.parent_micro[int(p)]

    # -- coordinate conversion ---------------------------------------------

    def to_local(self, v: int) -> tuple[int, int]:
        """Global preorder id -> (micro index, local preorder id)."""
        if not 1 <= v <= self.n:
            raise IndexError(v)
        k = bisect_right(self.pre_starts, v) - 1
        return self.pre_micro[k], self.pre_loc[k] + (v - self.pre_starts[k])

    def to_global(self, i: int, loc: int) -> int:
        (t0, t1), (h0, h1) = self._thr, self._sub
        return (self.root_pre[i] + loc - 1 + (h0[i] if t0[i] <= loc else 0)
                + (h1[i] if t1[i] <= loc else 0))

    # -- queries -------------------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        mi, ul = self.to_local(u)
        mj, vl = self.to_local(v)
        if mi == mj:
            return self.to_global(mi, self._lca[self.shape_id[mi]][ul][vl])
        W = self._top_lca(mi, mj)
        a = ul if W == mi else self._entry_local(W, u)
        b = vl if W == mj else self._entry_local(W, v)
        return self.to_global(W, self._lca[self.shape_id[W]][a][b])

    def _entry_local(self, W: int, u: int) -> int:
        """Local node of micro W owning the portal whose subtree contains the
        global preorder id u, which lies below W but not in it."""
        (t0, t1), (h0, h1) = self._thr, self._sub
        start = self.root_pre[W] + t1[W] - 1 + h0[W]
        return self._owner[1][W] if start <= u < start + h1[W] else self._owner[0][W]

    def parent(self, v: int) -> int | None:
        mi, loc = self.to_local(v)
        if loc != 1:
            return self.to_global(mi, self._parent[self.shape_id[mi]][loc])
        if mi == 0:
            return None
        return self.to_global(self.parent_micro[mi], self.parent_owner[mi])

    def subtree_size(self, v: int) -> int:
        mi, loc = self.to_local(v)
        s = self._size[self.shape_id[mi]][loc]
        end = loc + s
        (o0, o1), (h0, h1) = self._owner, self._sub
        return (s + (h0[mi] if loc <= o0[mi] < end else 0)
                + (h1[mi] if loc <= o1[mi] < end else 0))

    def inorder_rank(self, v: int) -> int:
        mi, loc = self.to_local(v)
        j = self._inorder[self.shape_id[mi]][loc]
        (r0, r1), (h0, h1) = self._rank, self._sub
        return (self.in_start[mi] + j - 1 + (h0[mi] if r0[mi] < j else 0)
                + (h1[mi] if r1[mi] < j else 0))

    def inorder_select(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise IndexError(r)
        k = bisect_right(self.in_starts, r) - 1
        i = self.in_micro[k]
        j = self.in_j[k] + (r - self.in_starts[k])
        return self.to_global(i, self._local_of_inorder[self.shape_id[i]][j])

    # -- batched kernels (numpy) ---------------------------------------------

    def batch_select_local(self, r):
        """Vectorized inorder select into (micro, local) coordinates."""
        d = self._np
        r = np.asarray(r, dtype=np.int64)
        k = np.searchsorted(d["in_starts"], r, side="right") - 1
        mi = d["in_micro"][k]
        j = d["in_j"][k] + (r - d["in_starts"][k])
        return mi, d["local_of_inorder"][d["sid"][mi], j]

    def batch_lca_local(self, mi, ul, mj, vl):
        """Vectorized LCA in (micro, local) coordinates; returns (mw, wl)."""
        d = self._np
        pre_u = self._batch_to_global(mi, ul)
        pre_v = self._batch_to_global(mj, vl)
        W = self._batch_top_lca(mi, mj)
        a = np.where(W == mi, ul, self._batch_entry(W, pre_u))
        b = np.where(W == mj, vl, self._batch_entry(W, pre_v))
        width = self._width
        return W, d["lca"][(d["sid"][W] * width + a) * width + b]

    def _batch_to_global(self, mi, loc):
        d = self._np
        g = d["root_pre"][mi] + loc - 1
        for k in (0, 1):
            g = g + np.where(d["thr"][k][mi] <= loc, d["sub"][k][mi], 0)
        return g

    def _batch_entry(self, W, pre_u):
        d = self._np
        start = d["start1"][W]
        in1 = (start <= pre_u) & (pre_u < start + d["sub"][1][W])
        return np.where(in1, d["owner"][1][W], d["owner"][0][W])

    def _batch_top_lca(self, a, b):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        inside = self._sub_lo[hi] < self._sub_hi[lo]
        l2 = lo + 1
        span = np.maximum(hi - l2 + 1, 1)
        k = self._log[span]
        st = self._sparse
        p1 = np.empty_like(lo)
        p2 = np.empty_like(lo)
        for kk in np.unique(k):
            mask = k == kk
            p1[mask] = st[kk][np.minimum(l2[mask], self.m - 1)]
            p2[mask] = st[kk][hi[mask] - (1 << int(kk)) + 1]
        p = np.where(self._depth[p2] < self._depth[p1], p2, p1)
        return np.where(inside, lo, self._par_np[p])

    def batch_inorder_rank(self, mi, loc):
        d = self._np
        j = d["inorder"][d["sid"][mi], loc]
        r = d["in_start"][mi] + j - 1
        for k in (0, 1):
            r = r + np.where(d["rank"][k][mi] < j, d["sub"][k][mi], 0)
        return r


def build_nav(blob: HsBlob) -> NavIndex:
    return NavIndex(parse_binary_blob(blob))
