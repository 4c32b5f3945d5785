"""Empirical tree entropies (type, degree, shape), the subtree-size entropy,
the closed-form entropy of the random-BST source, and exact exhaustive source
entropies for small sizes."""

from __future__ import annotations

import math
from functools import lru_cache

from ..trees import BinaryTree, OrdinalTree, annotate, fcns_full
from . import counting
from .models import BstSource, FixedSizeSource, SourceModel, UniformSubclass

INF = float("inf")


def type_counts(t: BinaryTree, k: int) -> dict[tuple[int, ...], list[int]]:
    """n_{z,i}: nodes of each type grouped by the k-history of ancestor types
    (padded with 1s above the root)."""
    counts: dict[tuple[int, ...], list[int]] = {}
    left, right = t.left, t.right
    if t.n == 0:
        return counts
    stack = [(t.root, (1,) * k)]
    while stack:
        v, hist = stack.pop()
        l, r = left[v], right[v]
        ty = (2 if r else 1) if l else (3 if r else 0)
        row = counts.get(hist)
        if row is None:
            row = counts[hist] = [0, 0, 0, 0]
        row[ty] += 1
        if l or r:
            child = (hist + (ty,))[-k:] if k else hist
            if l:
                stack.append((l, child))
            if r:
                stack.append((r, child))
    return counts


def _entropy_of_counts(groups) -> float:
    total = 0.0
    for row in groups:
        tot = sum(row)
        if tot == 0:
            continue
        lg_tot = math.log2(tot)
        for c in row:
            if c:
                total += c * (lg_tot - math.log2(c))
    return total


def type_entropy(t: BinaryTree, k: int) -> float:
    """Unnormalized k-th order type entropy H_k^type(t)."""
    if k < 0:
        raise ValueError("order must be >= 0")
    return _entropy_of_counts(type_counts(t, k).values())


def degree_entropy(t: OrdinalTree) -> float:
    """Zeroth-order entropy of the node degrees."""
    counts: dict[int, int] = {}
    for v in range(1, t.n + 1):
        d = len(t.children[v])
        counts[d] = counts.get(d, 0) + 1
    n = t.n
    if n == 0:
        return 0.0
    lg_n = math.log2(n)
    return sum(c * (lg_n - math.log2(c)) for c in counts.values())


def shape_counts(tb: BinaryTree, k: int) -> dict[tuple[int, ...], list[int]]:
    """m_{z,i} over a full binary tree: counts of leaf/binary nodes by the
    k-history of left/right directions (padded with 0s)."""
    counts: dict[tuple[int, ...], list[int]] = {}
    left, right = tb.left, tb.right
    stack = [(tb.root, (0,) * k)]
    while stack:
        v, hist = stack.pop()
        l, r = left[v], right[v]
        row = counts.get(hist)
        if row is None:
            row = counts[hist] = [0, 0]
        if l:
            row[1] += 1
            if k:
                stack.append((l, (hist + (0,))[-k:]))
                stack.append((r, (hist + (1,))[-k:]))
            else:
                stack.append((l, hist))
                stack.append((r, hist))
        else:
            row[0] += 1
    return counts


def shape_entropy(t: OrdinalTree, k: int) -> float:
    """k-th order shape entropy of an ordinal tree: the entropy of node types
    of the modified FCNS tree (every null materialized as a leaf) conditioned
    on the last k left/right directions."""
    if k < 0:
        raise ValueError("order must be >= 0")
    return _entropy_of_counts(shape_counts(fcns_full(t), k).values())


def subtree_size_entropy(t: BinaryTree) -> float:
    """Sum of lg|t[v]| over all nodes (the splay-tree potential); equals
    lg(1/P[t]) under the random-BST source."""
    return BstSource().log_prob(t).log_prob_bits


# ---------------------------------------------------------------------------
# random-BST source entropy

def bst_entropy_closed_form(n: int) -> float:
    """H_n = lg(n) + 2(n+1) * sum_{i=2}^{n-1} lg(i)/((i+2)(i+1)); H_0 = H_1 = 0."""
    if n < 2:
        return 0.0
    acc = 0.0
    for i in range(2, n):
        acc += math.log2(i) / ((i + 2) * (i + 1))
    return math.log2(n) + 2 * (n + 1) * acc


@lru_cache(maxsize=1)
def bst_entropy_limit() -> float:
    """lim H_n / n = 2 sum_{i>=2} lg(i)/((i+2)(i+1)), to about 1e-8.

    Partial sum to M plus an integral bracket for the tail; the bracket width
    bounds the error by f(M)/2 ~ 1e-9.
    """
    import mpmath

    M = 100_000
    acc = mpmath.mpf(0)
    for i in range(2, M):
        acc += mpmath.log(i, 2) / ((i + 2) * (i + 1))
    f = lambda x: mpmath.log(x, 2) / ((x + 2) * (x + 1))
    hi = mpmath.quad(f, [M - 1, mpmath.inf])
    lo = mpmath.quad(f, [M, mpmath.inf])
    return float(2 * (acc + (hi + lo) / 2))


# ---------------------------------------------------------------------------
# exhaustive source entropy (small n oracle)

MAX_EXHAUSTIVE = 14


def source_entropy_exhaustive(source: SourceModel, n: int) -> float:
    """Exact H_n of a fixed-size style source by enumerating all of T_n.

    Only supports sources whose probability factors over subtree-size splits
    or subclass membership; n is capped at 14.
    """
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"enumeration budget exceeded (n={n} > {MAX_EXHAUSTIVE})")
    if n == 0:
        return 0.0
    if isinstance(source, FixedSizeSource):
        memo: dict[int, tuple[int, float]] = {id(None): (0, 0.0)}

        def lp(shape) -> tuple[int, float]:
            got = memo.get(id(shape))
            if got is not None:
                return got
            l, r = shape
            sl, bl = lp(l)
            sr, br = lp(r)
            res = (sl + sr + 1, bl + br + source.log_split(sl, sr))
            if counting.shape_meta(shape)[0] <= counting._CACHE_MAX:
                memo[id(shape)] = res
            return res

        total = 0.0
        for shape in counting.iter_shapes(n):
            _, bits = lp(shape)
            if bits < INF:
                total += 2.0 ** -bits * bits
        return total
    if isinstance(source, UniformSubclass):
        cnt = source.count(n)
        return math.log2(cnt) if cnt else 0.0
    raise TypeError(f"exhaustive entropy not supported for {source.name}")
