"""Query layer over a binary tree code: micro-tree-local lookup tables plus
top-tier structures answering LCA, inorder rank/select, parent, and subtree
size about the encoded tree without materializing it per query.

The index is built from the layout tuple (n, top tier, shape BP per micro,
portal fields per micro): ``build_nav`` reads it from a blob with
``parse_binary_blob``, and ``rmq_build`` takes it from the cover with
``binary_layout``.

Complexities: LCA, parent, subtree size, and inorder rank are O(1) once the
owning micro tree is known; locating it (and inorder select) is a binary
search over at most 3m intervals, so O(lg m) per query. The batch entry
points answer numpy arrays of queries vectorized.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .bits import BitBuf, MalformedStream
from .hypercodec import HsBlob, _null_rank_slots, parse_binary_blob
from .trees import BinaryTree, annotate, bp_decode_binary


class ShapeTable:
    """Per-shape lookup tables: parent, subtree sizes, inorder maps, null
    slots, and the full pairwise LCA table."""

    __slots__ = ("tree", "mu", "parent", "size", "inorder_of", "local_of_inorder",
                 "left_size", "lca", "null_slot")

    def __init__(self, bp: str):
        t = bp_decode_binary(BitBuf(bp))
        self.tree = t
        mu = t.n
        self.mu = mu
        ann = annotate(t)
        self.size = ann.subtree_size
        self.inorder_of = ann.inorder_rank
        self.local_of_inorder = [0] * (mu + 1)
        for v in range(1, mu + 1):
            self.local_of_inorder[ann.inorder_rank[v]] = v
        self.parent = [0] * (mu + 1)
        self.left_size = [0] * (mu + 1)
        for v in range(1, mu + 1):
            if t.left[v]:
                self.parent[t.left[v]] = v
            if t.right[v]:
                self.parent[t.right[v]] = v
            self.left_size[v] = self.size[t.left[v]] if t.left[v] else 0
        self.null_slot = _null_rank_slots(t, ann.inorder_rank)
        # pairwise LCA via ancestor intervals: w is an ancestor of v iff
        # w <= v < w + size[w] in local preorder
        self.lca = lca = [0] * (mu * mu)
        for u in range(1, mu + 1):
            anc_u = []
            x = u
            while x:
                anc_u.append(x)
                x = self.parent[x]
            aset = set(anc_u)
            for v in range(1, mu + 1):
                x = v
                while x and x not in aset:
                    x = self.parent[x]
                lca[(u - 1) * mu + (v - 1)] = x
    # tables agree with brute force by construction; tests recheck


class NavIndex:
    """Navigation index over a binary tree code, built from its layout tuple
    (see ``hypercodec.binary_layout``)."""

    def __init__(self, layout):
        n, top, shapes, fields = layout
        m = top.n
        tables: dict[str, int] = {}
        shape_tables: list[ShapeTable] = []
        shape_id = [0] * m
        for i, s in enumerate(shapes):
            sid = tables.get(s)
            if sid is None:
                sid = tables[s] = len(shape_tables)
                shape_tables.append(ShapeTable(s))
            shape_id[i] = sid
        # per-micro portals: (pre threshold, null rank, owner local, child micro)
        ports: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
        for i in range(m):
            st = shape_tables[shape_id[i]]
            for f, child in ((fields[i][0], top.left[i + 1]),
                             (fields[i][1], top.right[i + 1])):
                if not f:
                    if child:
                        raise MalformedStream("top-tier child without portal")
                    continue
                rank = f - 1
                if child == 0 or rank not in st.null_slot:
                    raise MalformedStream("portal without matching child")
                x, side = st.null_slot[rank]
                thresh = x + 1 if side == 0 else x + st.left_size[x] + 1
                ports[i].append((thresh, rank, x, child - 1))
            ports[i].sort()
        self.n = n
        self.m = m
        self.shapes = shape_tables
        self.shape_id = shape_id
        self.ports = ports
        parent_micro = [-1] * m
        parent_owner = [0] * m
        for i in range(m):
            for _, _, x, c in ports[i]:
                parent_micro[c] = i
                parent_owner[c] = x
        self.parent_micro = parent_micro
        self.parent_owner = parent_owner

        mu = [shape_tables[shape_id[i]].mu for i in range(m)]
        self.mu_of = mu
        hang = [0] * m
        for i in range(m - 1, -1, -1):
            s = mu[i]
            for p in ports[i]:
                s += hang[p[3]]
            hang[i] = s
        if hang[0] != n:
            raise MalformedStream("size mismatch between header and top tier")
        self.hang = hang
        root_pre = [0] * m
        in_start = [0] * m
        root_pre[0] = 1
        in_start[0] = 1
        # interval tables for global preorder -> (micro, local) and
        # global inorder -> (micro, local inorder index)
        pre_starts: list[int] = []
        pre_micro: list[int] = []
        pre_loc: list[int] = []
        in_starts: list[int] = []
        in_micro: list[int] = []
        in_j: list[int] = []
        for i in range(m):
            pl = ports[i]
            base_pre = root_pre[i]
            base_in = in_start[i]
            if not pl:
                pre_starts.append(base_pre)
                pre_micro.append(i)
                pre_loc.append(1)
                in_starts.append(base_in)
                in_micro.append(i)
                in_j.append(1)
                continue
            lo = 1
            run = 0
            for thresh, _, _, c in pl:
                if thresh > lo:
                    pre_starts.append(base_pre + (lo - 1) + run)
                    pre_micro.append(i)
                    pre_loc.append(lo)
                root_pre[c] = base_pre + (thresh - 1) + run
                run += hang[c]
                lo = thresh
            if lo <= mu[i]:
                pre_starts.append(base_pre + (lo - 1) + run)
                pre_micro.append(i)
                pre_loc.append(lo)
            lo = 1
            run = 0
            for _, rank, _, c in (pl if len(pl) < 2 or pl[0][1] < pl[1][1]
                                  else [pl[1], pl[0]]):
                if rank + 1 > lo:
                    in_starts.append(base_in + (lo - 1) + run)
                    in_micro.append(i)
                    in_j.append(lo)
                in_start[c] = base_in + rank + run
                run += hang[c]
                lo = rank + 1
            if lo <= mu[i]:
                in_starts.append(base_in + (lo - 1) + run)
                in_micro.append(i)
                in_j.append(lo)
        self.root_pre = root_pre
        self.in_start = in_start
        order = np.argsort(np.asarray(pre_starts, dtype=np.int64), kind="stable")
        self.pre_starts = np.asarray(pre_starts, dtype=np.int64)[order].tolist()
        self.pre_micro = np.asarray(pre_micro, dtype=np.int64)[order].tolist()
        self.pre_loc = np.asarray(pre_loc, dtype=np.int64)[order].tolist()
        order = np.argsort(np.asarray(in_starts, dtype=np.int64), kind="stable")
        self.in_starts = np.asarray(in_starts, dtype=np.int64)[order].tolist()
        self.in_micro = np.asarray(in_micro, dtype=np.int64)[order].tolist()
        self.in_j = np.asarray(in_j, dtype=np.int64)[order].tolist()

        self._build_top_lca(top)
        self._np = None

    # -- small helpers ------------------------------------------------------

    def _shift_pre(self, i: int, loc: int) -> int:
        s = 0
        for thresh, _, _, c in self.ports[i]:
            if thresh <= loc:
                s += self.hang[c]
        return s

    def _shift_in(self, i: int, j: int) -> int:
        s = 0
        for _, rank, _, c in self.ports[i]:
            if rank < j:
                s += self.hang[c]
        return s

    def _build_top_lca(self, top: BinaryTree):
        # LCA over the preorder-numbered top tier via a sparse table of
        # argmin-depth positions on the depth-by-preorder array:
        # for a < b, LCA(a, b) = a when b lies in a's preorder subtree,
        # otherwise parent(argmin depth over (a, b]).
        m = self.m
        par = self.parent_micro  # -1 at the root
        depth = [0] * m
        for i in range(1, m):
            depth[i] = depth[par[i]] + 1
        da = np.asarray(depth, dtype=np.int32)
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
        for i in range(2, m + 1):
            self._log[i] = self._log[i // 2] + 1
        # global preorder interval of each micro's hanging subtree
        self._sub_lo = np.asarray(self.root_pre, dtype=np.int64)
        self._sub_hi = self._sub_lo + np.asarray(self.hang, dtype=np.int64)
        self._par_np = np.asarray(par, dtype=np.int64)

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
        i = self.pre_micro[k]
        return i, self.pre_loc[k] + (v - self.pre_starts[k])

    def to_global(self, i: int, loc: int) -> int:
        return self.root_pre[i] + (loc - 1) + self._shift_pre(i, loc)

    # -- queries -------------------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        mi, ul = self.to_local(u)
        mj, vl = self.to_local(v)
        if mi == mj:
            st = self.shapes[self.shape_id[mi]]
            w = st.lca[(ul - 1) * st.mu + (vl - 1)]
            return self.to_global(mi, w)
        W = self._top_lca(mi, mj)
        a = ul if W == mi else self._entry_local(W, u)
        b = vl if W == mj else self._entry_local(W, v)
        st = self.shapes[self.shape_id[W]]
        w = st.lca[(a - 1) * st.mu + (b - 1)]
        return self.to_global(W, w)

    def _entry_local(self, W: int, u: int) -> int:
        """Local node of micro W owning the portal whose subtree contains the
        global preorder id u."""
        for _, _, owner, c in self.ports[W]:
            start = self.root_pre[c]
            if start <= u < start + self.hang[c]:
                return owner
        raise AssertionError("query does not descend through a portal")

    def parent(self, v: int) -> int | None:
        mi, loc = self.to_local(v)
        if loc != 1:
            st = self.shapes[self.shape_id[mi]]
            return self.to_global(mi, st.parent[loc])
        if mi == 0:
            return None
        return self.to_global(self.parent_micro[mi], self.parent_owner[mi])

    def subtree_size(self, v: int) -> int:
        mi, loc = self.to_local(v)
        st = self.shapes[self.shape_id[mi]]
        s = st.size[loc]
        end = loc + st.size[loc]
        for _, _, owner, c in self.ports[mi]:
            if loc <= owner < end:
                s += self.hang[c]
        return s

    def inorder_rank(self, v: int) -> int:
        mi, loc = self.to_local(v)
        st = self.shapes[self.shape_id[mi]]
        j = st.inorder_of[loc]
        return self.in_start[mi] + (j - 1) + self._shift_in(mi, j)

    def inorder_select(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise IndexError(r)
        k = bisect_right(self.in_starts, r) - 1
        i = self.in_micro[k]
        j = self.in_j[k] + (r - self.in_starts[k])
        st = self.shapes[self.shape_id[i]]
        return self.to_global(i, st.local_of_inorder[j])

    # -- batched kernels (numpy) ---------------------------------------------

    def _ensure_np(self):
        if self._np is not None:
            return self._np
        m = self.m
        shapes = self.shapes
        sid = np.asarray(self.shape_id, dtype=np.int64)
        mu = np.asarray([st.mu for st in shapes], dtype=np.int64)
        off_lin = np.concatenate([[0], np.cumsum(mu)])          # local arrays
        off_lca = np.concatenate([[0], np.cumsum(mu * mu)])
        in_of = np.concatenate([np.asarray(st.inorder_of[1:], dtype=np.int64)
                                for st in shapes])
        loc_of_in = np.concatenate([np.asarray(st.local_of_inorder[1:], dtype=np.int64)
                                    for st in shapes])
        lca_flat = np.concatenate([np.asarray(st.lca, dtype=np.int64)
                                   for st in shapes])
        ports = self.ports
        big = np.iinfo(np.int64).max
        p_thr = np.full((2, m), big, dtype=np.int64)
        p_rank = np.full((2, m), big, dtype=np.int64)
        p_owner = np.zeros((2, m), dtype=np.int64)
        p_child = np.zeros((2, m), dtype=np.int64)
        p_hang = np.zeros((2, m), dtype=np.int64)
        p_cstart = np.full((2, m), big, dtype=np.int64)
        for i, pl in enumerate(ports):
            for k, (thresh, rank, owner, c) in enumerate(pl):
                p_thr[k, i] = thresh
                p_rank[k, i] = rank
                p_owner[k, i] = owner
                p_child[k, i] = c
                p_hang[k, i] = self.hang[c]
                p_cstart[k, i] = self.root_pre[c]
        self._np = {
            "sid": sid, "mu": mu,
            "off_lin": off_lin, "off_lca": off_lca,
            "in_of": in_of, "loc_of_in": loc_of_in, "lca": lca_flat,
            "p_thr": p_thr, "p_rank": p_rank, "p_owner": p_owner,
            "p_child": p_child, "p_hang": p_hang, "p_cstart": p_cstart,
            "root_pre": np.asarray(self.root_pre, dtype=np.int64),
            "in_start": np.asarray(self.in_start, dtype=np.int64),
            "in_starts": np.asarray(self.in_starts, dtype=np.int64),
            "in_micro": np.asarray(self.in_micro, dtype=np.int64),
            "in_j": np.asarray(self.in_j, dtype=np.int64),
        }
        return self._np

    def batch_select_local(self, r):
        """Vectorized inorder select into (micro, local) coordinates."""
        d = self._ensure_np()
        r = np.asarray(r, dtype=np.int64)
        k = np.searchsorted(d["in_starts"], r, side="right") - 1
        mi = d["in_micro"][k]
        j = d["in_j"][k] + (r - d["in_starts"][k])
        loc = d["loc_of_in"][d["off_lin"][d["sid"][mi]] + j - 1]
        return mi, loc

    def batch_lca_local(self, mi, ul, mj, vl):
        """Vectorized LCA in (micro, local) coordinates; returns (mw, wl)."""
        d = self._ensure_np()
        pre_u = self._batch_to_global(mi, ul)
        pre_v = self._batch_to_global(mj, vl)
        W = self._batch_top_lca(mi, mj)
        a = np.where(W == mi, ul, self._batch_entry(W, pre_u))
        b = np.where(W == mj, vl, self._batch_entry(W, pre_v))
        sidw = d["sid"][W]
        w = d["lca"][d["off_lca"][sidw] + (a - 1) * d["mu"][sidw] + (b - 1)]
        return W, w

    def _batch_to_global(self, mi, loc):
        d = self._ensure_np()
        g = d["root_pre"][mi] + loc - 1
        for k in (0, 1):
            g = g + np.where(d["p_thr"][k][mi] <= loc, d["p_hang"][k][mi], 0)
        return g

    def _batch_entry(self, W, pre_u):
        d = self._ensure_np()
        out = d["p_owner"][0][W]
        s1 = d["p_cstart"][1][W]
        in1 = (s1 <= pre_u) & (pre_u < s1 + np.where(s1 == np.iinfo(np.int64).max, 0, d["p_hang"][1][W]))
        return np.where(in1, d["p_owner"][1][W], out)

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
        d = self._ensure_np()
        j = d["in_of"][d["off_lin"][d["sid"][mi]] + loc - 1]
        r = d["in_start"][mi] + j - 1
        for k in (0, 1):
            r = r + np.where(d["p_rank"][k][mi] < j, d["p_hang"][k][mi], 0)
        return r


def build_nav(blob: HsBlob) -> NavIndex:
    return NavIndex(parse_binary_blob(blob))
