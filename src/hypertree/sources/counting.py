"""Counting DPs for tree subclasses (AVL by size/height, left-leaning
red-black, weight-balanced), membership predicates, Catalan numbers, and a
brute-force shape enumerator used as the independent oracle in tests."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..trees import BinaryTree

_CATALAN: list[int] = [1]


def catalan_upto(n: int) -> list[int]:
    """Catalan numbers C_0..C_n (C_k = number of binary trees with k nodes)."""
    while len(_CATALAN) <= n:
        k = len(_CATALAN)
        _CATALAN.append(_CATALAN[-1] * 2 * (2 * k - 1) // (k + 1))
    return _CATALAN


def catalan(n: int) -> int:
    return catalan_upto(n)[n]


_LN2 = math.log(2.0)


@lru_cache(maxsize=None)
def lg_catalan(n: int) -> float:
    if n <= 128:
        c = catalan(n)
        return math.log2(c) if c.bit_length() < 1000 else _lg_big(c)
    return (math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1)) / _LN2 - math.log2(n + 1)


def _lg_big(x: int) -> float:
    sh = max(0, x.bit_length() - 53)
    return sh + math.log2(x >> sh)


# ---------------------------------------------------------------------------
# AVL trees

_AVL_H: list[int] = [1, 1]  # |T^0| = 1 (the empty tree), |T^1| = 1


def avl_height_counts(h: int) -> list[int]:
    """Counts of AVL trees by height, 0..h, via the standard recurrence."""
    while len(_AVL_H) <= h:
        a = _AVL_H
        a.append(2 * a[-1] * a[-2] + a[-1] * a[-1])
    return _AVL_H


_AVL_SIZE: list[dict[int, int]] = [{0: 1}]


def avl_size_table(n: int) -> list[dict[int, int]]:
    """table[k] = {height: count of AVL shapes with k nodes}."""
    while len(_AVL_SIZE) <= n:
        k = len(_AVL_SIZE)
        row: dict[int, int] = {}
        for l in range(k):
            r = k - 1 - l
            for hl, cl in _AVL_SIZE[l].items():
                for hr, cr in _AVL_SIZE[r].items():
                    if abs(hl - hr) <= 1:
                        h = 1 + max(hl, hr)
                        row[h] = row.get(h, 0) + cl * cr
        _AVL_SIZE.append(row)
    return _AVL_SIZE


def avl_size_count(n: int) -> int:
    return sum(avl_size_table(n)[n].values())


def is_avl(t: BinaryTree) -> bool:
    n = t.n
    height = [0] * (n + 1)
    for v in range(n, 0, -1):
        hl, hr = height[t.left[v]], height[t.right[v]]
        if abs(hl - hr) > 1:
            return False
        height[v] = 1 + max(hl, hr)
    return True


# ---------------------------------------------------------------------------
# left-leaning red-black trees
#
# Edges are colored red or black; black-heights to the nulls must agree, no
# two consecutive red edges, and a lone red child edge must be the left one
# (two red child edges = a 4-node are allowed). The DP counts *colored* trees
# over states (size, black-height, incoming edge color); see the decisions
# ledger for why colorings rather than shapes are counted.

_LLRB: list[tuple[dict[int, int], dict[int, int]]] = [({}, {})]


def llrb_table(n: int):
    """table[k] = (A, R): colored-LLRB counts by black-height for size k with
    black resp. red incoming edge."""
    while len(_LLRB) <= n:
        k = len(_LLRB)
        if k == 1:
            _LLRB.append(({1: 1}, {1: 1}))
            continue
        A: dict[int, int] = {}
        R: dict[int, int] = {}
        # left-unary: red left edge, child black-height 1 -> node height 1
        _, r1 = _LLRB[k - 1]
        if 1 in r1:
            A[1] = A.get(1, 0) + r1[1]
        for l in range(1, k - 1):
            r = k - 1 - l
            Al, Rl = _LLRB[l]
            Ar, Rr = _LLRB[r]
            for h, cl in Al.items():  # (black, black)
                cr = Ar.get(h)
                if cr:
                    A[h + 1] = A.get(h + 1, 0) + cl * cr
                    R[h + 1] = R.get(h + 1, 0) + cl * cr
            for h, cl in Rl.items():  # (red, black)
                cr = Ar.get(h - 1)
                if cr:
                    A[h] = A.get(h, 0) + cl * cr
            for h, cl in Rl.items():  # (red, red): a 4-node
                cr = Rr.get(h)
                if cr:
                    A[h] = A.get(h, 0) + cl * cr
        _LLRB.append((A, R))
    return _LLRB


def llrb_count(n: int) -> int:
    A, _ = llrb_table(n)[n]
    return sum(A.values())


def llrb_colorings(t: BinaryTree) -> int:
    """Number of valid LLRB colorings of the shape t (0 if none)."""
    n = t.n
    A: list[dict[int, int]] = [{}] * (n + 1)
    R: list[dict[int, int]] = [{}] * (n + 1)
    empty: dict[int, int] = {}
    for v in range(n, 0, -1):
        l, r = t.left[v], t.right[v]
        a: dict[int, int] = {}
        rr: dict[int, int] = {}
        if not l and not r:
            a[1] = 1
            rr[1] = 1
        elif l and not r:
            c = R[l].get(1)
            if c:
                a[1] = c
        elif r and not l:
            pass  # right-unary nodes never occur in LLRB shapes
        else:
            for h, cl in A[l].items():
                cr = A[r].get(h)
                if cr:
                    a[h + 1] = a.get(h + 1, 0) + cl * cr
                    rr[h + 1] = rr.get(h + 1, 0) + cl * cr
            for h, cl in R[l].items():
                cr = A[r].get(h - 1)
                if cr:
                    a[h] = a.get(h, 0) + cl * cr
                cr = R[r].get(h)
                if cr:
                    a[h] = a.get(h, 0) + cl * cr
        A[v] = a or empty
        R[v] = rr or empty
    return sum(A[t.root].values()) if n else 0


# ---------------------------------------------------------------------------
# weight-balanced trees

def wb_split_ok(alpha: Fraction, l: int, r: int) -> bool:
    n = l + r + 1
    return min(l, r) + 1 >= alpha * (n + 1)


_WB: dict[Fraction, list[int]] = {}


def wb_counts(alpha, n: int) -> list[int]:
    """w[k] = number of alpha-weight-balanced shapes with k nodes, k <= n."""
    alpha = Fraction(alpha)
    tab = _WB.setdefault(alpha, [1])
    while len(tab) <= n:
        k = len(tab)
        total = 0
        for l in range(k):
            r = k - 1 - l
            if wb_split_ok(alpha, l, r):
                total += tab[l] * tab[r]
        tab.append(total)
    return tab


def is_wb(t: BinaryTree, alpha) -> bool:
    alpha = Fraction(alpha)
    n = t.n
    size = [0] * (n + 1)
    for v in range(n, 0, -1):
        l, r = t.left[v], t.right[v]
        size[v] = 1 + size[l] + size[r]
        if not wb_split_ok(alpha, size[l], size[r]):
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force shape enumeration (independent oracle for the DPs above)
#
# Shapes are nested tuples (left, right) with None for the empty tree. Shapes
# up to _CACHE_MAX nodes are cached with full structural sharing, so
# id()-keyed memos over cached shapes are stable.

_CACHE_MAX = 12
_SHAPES: list[list] = [[None]]
_META: dict[int, tuple[int, int]] = {id(None): (0, 0)}  # id -> (size, height)


def shapes_upto(n: int) -> list[list]:
    while len(_SHAPES) <= min(n, _CACHE_MAX):
        k = len(_SHAPES)
        row = []
        for l in range(k):
            for ls in _SHAPES[l]:
                for rs in _SHAPES[k - 1 - l]:
                    s = (ls, rs)
                    _META[id(s)] = (k, 1 + max(_META[id(ls)][1], _META[id(rs)][1]))
                    row.append(s)
        _SHAPES.append(row)
    return _SHAPES


def iter_shapes(n: int):
    """All binary shapes with n nodes; cached and shared for n <= 12,
    streamed (children cached) above."""
    shapes_upto(min(n, _CACHE_MAX))
    if n <= _CACHE_MAX:
        yield from _SHAPES[n]
        return
    for l in range(n):
        r = n - 1 - l
        for ls in iter_shapes(l):
            for rs in iter_shapes(r):
                yield (ls, rs)


def shape_meta(s) -> tuple[int, int]:
    """(size, height); cached shapes hit the memo, fresh tops recompute."""
    got = _META.get(id(s))
    if got is not None:
        return got
    l, r = s
    sl, hl = shape_meta(l)
    sr, hr = shape_meta(r)
    return sl + sr + 1, 1 + max(hl, hr)


def shape_to_tree(s) -> BinaryTree:
    """Materialize a tuple shape as a preorder-numbered BinaryTree."""
    return BinaryTree.grow(s, lambda cur: cur)


def count_subclass(cls: str, n: int, alpha=None) -> int:
    """Exact count of class members: 'avl-size', 'avl-height' (n = height),
    'llrb' (colorings), or 'wb' with a rational alpha."""
    if cls == "avl-size":
        return avl_size_count(n)
    if cls == "avl-height":
        return avl_height_counts(n)[n]
    if cls == "llrb":
        return llrb_count(n)
    if cls == "wb":
        return wb_counts(alpha if alpha is not None else Fraction(2, 7), n)[n]
    raise ValueError(f"unknown subclass {cls}")
