"""Answers computed by the benchmark's own code, never by the package, against
which every timed output is checked; plus the memory walk behind
`index_bytes_per_node`."""

from __future__ import annotations

import gc
import sys
import types

import numpy as np


class ArgminTable:
    """Sparse table over an array: position of the leftmost minimum of any
    inclusive 0-based interval, answered for whole numpy batches."""

    def __init__(self, values):
        self.a = a = np.asarray(values)
        n = len(a)
        self.levels = [np.arange(n, dtype=np.int64)]
        k = 1
        while (1 << k) <= n:
            prev, h = self.levels[-1], 1 << (k - 1)
            width = n - (1 << k) + 1
            lo, hi = prev[:width], prev[h:h + width]
            self.levels.append(np.where(a[hi] < a[lo], hi, lo))
            k += 1

    def query(self, lo, hi):
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        k = np.floor(np.log2(hi - lo + 1)).astype(np.int64)
        out = np.empty_like(lo)
        a = self.a
        for kk in np.unique(k):
            mask = k == kk
            lev = self.levels[kk]
            p1 = lev[lo[mask]]
            p2 = lev[hi[mask] - (1 << int(kk)) + 1]
            out[mask] = np.where(a[p2] < a[p1], p2, p1)
        return out


class BinaryReference:
    """Parent, subtree size, inorder rank and select, and LCA of a binary
    tree given by child lists, all in the tree's preorder numbering, found by
    plain traversals. LCA(u, v) is the shallowest node between u and v in
    inorder."""

    def __init__(self, left, right, root: int, n: int):
        order = []                      # node ids in preorder
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            if right[v]:
                stack.append(right[v])
            if left[v]:
                stack.append(left[v])
        if len(order) != n:
            raise ValueError("child lists do not form one tree of n nodes")
        pre = [0] * (n + 1)
        for i, v in enumerate(order, 1):
            pre[v] = i
        parent = [0] * (n + 1)          # indexed by preorder number
        depth = [0] * (n + 1)
        size = [1] * (n + 1)
        for v in order:
            for c in (left[v], right[v]):
                if c:
                    parent[pre[c]] = pre[v]
                    depth[pre[c]] = depth[pre[v]] + 1
        for v in reversed(order):
            for c in (left[v], right[v]):
                if c:
                    size[pre[v]] += size[pre[c]]
        at_inorder = [0]                # preorder number of each inorder rank
        stack, v = [], root
        while stack or v:
            while v:
                stack.append(v)
                v = left[v]
            v = stack.pop()
            at_inorder.append(pre[v])
            v = right[v]
        rank = [0] * (n + 1)
        for r in range(1, n + 1):
            rank[at_inorder[r]] = r
        self.parent = np.asarray(parent, dtype=np.int64)
        self.size = np.asarray(size, dtype=np.int64)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.at_inorder = np.asarray(at_inorder, dtype=np.int64)
        depth_np = np.asarray(depth, dtype=np.int64)
        self._shallowest = ArgminTable(depth_np[self.at_inorder[1:]])

    def lca(self, u, v):
        ru, rv = self.rank[u], self.rank[v]
        pos = self._shallowest.query(np.minimum(ru, rv) - 1, np.maximum(ru, rv) - 1)
        return self.at_inorder[pos + 1]


def cartesian_children(values) -> tuple[list[int], list[int]]:
    """Child lists (index 0 unused) of the min-rooted Cartesian tree of the
    distinct `values`, its nodes numbered in preorder from 1: built on array
    positions with a stack of the rightmost path, then renumbered."""
    n = len(values)
    lc = [-1] * n
    rc = [-1] * n
    path: list[int] = []
    for i, x in enumerate(values):
        last = -1
        while path and values[path[-1]] > x:
            last = path.pop()
        lc[i] = last
        if path:
            rc[path[-1]] = i
        path.append(i)
    order = []                          # array positions in preorder
    stack = [path[0]]
    while stack:
        p = stack.pop()
        order.append(p)
        if rc[p] >= 0:
            stack.append(rc[p])
        if lc[p] >= 0:
            stack.append(lc[p])
    num = [0] * n
    for k, p in enumerate(order, 1):
        num[p] = k
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    for p in order:
        if lc[p] >= 0:
            left[num[p]] = num[lc[p]]
        if rc[p] >= 0:
            right[num[p]] = num[rc[p]]
    return left, right


def is_cartesian_tree(left, right, root: int, n: int, values) -> bool:
    """Whether the binary tree given by child lists is the min-rooted
    Cartesian tree of `values`: it has len(values) nodes and, with the k-th
    node in inorder holding values[k - 1], every child holds a larger value
    than its parent. For distinct values one tree alone has that property."""
    if n != len(values):
        return False
    held = [0] * (n + 1)
    stack, v, k = [], root, 0
    while stack or v:
        while v:
            stack.append(v)
            v = left[v]
        v = stack.pop()
        if k == n:
            return False
        held[v] = values[k]
        k += 1
        v = right[v]
    if k != n:
        return False
    held_np = np.asarray(held)
    for child in (np.asarray(left), np.asarray(right)):
        parents = np.flatnonzero(child)
        if np.any(held_np[child[parents]] <= held_np[parents]):
            return False
    return True


_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
           types.MethodType)


def deep_size(root) -> int:
    """Bytes held by every object reachable from `root`, each counted once:
    `sys.getsizeof` over the `gc.get_referents` graph, numpy buffers
    included, classes, modules and functions left out. tracemalloc would
    also see transient allocations, and slows an index build about 15x."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, _SHARED):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, np.ndarray):
            if o.base is not None:
                stack.append(o.base)
            continue
        stack.extend(gc.get_referents(o))
    return total
