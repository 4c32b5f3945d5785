"""Exact samplers for every source family.

Each sampler takes an explicit ``random.Random`` (or a seed); nothing global.
Trees come back preorder-numbered. Every binary sampler but the uniform one
(a whole-array cycle-lemma draw) is a split rule for ``BinaryTree.grow``: it
maps a node's state, such as its subtree size or height, to the states of
its children, drawing once per node in preorder. The exact ones use the
recursive method (Flajolet, Zimmermann & Van Cutsem, TCS 1994): a split is
drawn in proportion to the counts of the trees on either side, by ``_pick``
for the AVL, weight-balanced and LLRB trees. Sampling is exact for the
families with rational probabilities; the binomial family draws through
numpy's binomial sampler in floating point.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from ..bits import BitBuf
from ..trees import BinaryTree, OrdinalTree, bp_decode_binary
from . import counting
from .models import (
    AlmostPathSource, AvlByHeightSource, BinomialSource, BstSource,
    CompositionSource, DegreeDist, FixedHeightSource, FixedSizeSource,
    FringeBalancedSource, LrmSource, SourceModel, TypeProcess, UniformSource,
    UniformSubclass,
)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labeled parts (hash-based, so
    parallel replicates never depend on call order)."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


class EmptyClassError(ValueError):
    """The requested (family, target) combination contains no tree."""


def sample(source: SourceModel, target: int, seed=0):
    """Draw one tree. ``target`` is the size for fixed-size families and
    subclasses, the height for fixed-height families, and the size cap for
    branching processes (type processes / degree distributions)."""
    rng = _rng(seed)
    if isinstance(source, UniformSource):
        return _sample_uniform(target, rng)
    if isinstance(source, FixedSizeSource):
        return _sample_fixed_size(source, target, rng)
    if isinstance(source, TypeProcess):
        return _sample_type_process(source, target, rng)
    if isinstance(source, AvlByHeightSource):
        return _sample_avl_height(target, rng)
    if isinstance(source, DegreeDist):
        return _sample_degree(source, target, rng)
    if isinstance(source, CompositionSource):
        return _sample_composition(target, rng)
    if isinstance(source, LrmSource):
        return _sample_lrm(target, rng)
    if isinstance(source, UniformSubclass):
        return _sample_subclass(source, target, rng)
    raise TypeError(f"no sampler for {source.name}")


def _pick(rng, choices):
    """The value of one of the (weight, value) ``choices``, drawn in
    proportion to the weights by one ``randrange`` over their sum."""
    x = rng.randrange(sum(w for w, _ in choices))
    for w, value in choices:
        if x < w:
            return value
        x -= w


# ---------------------------------------------------------------------------
# binary fixed-size families

def _sample_fixed_size(source: FixedSizeSource, n: int, rng) -> BinaryTree:
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    if isinstance(source, BstSource):
        draw = lambda s: rng.randrange(s)
    elif isinstance(source, FringeBalancedSource):
        t = source.t

        def draw(s):
            if s < 2 * t + 1:
                return rng.randrange(s)
            return sorted(rng.sample(range(s), 2 * t + 1))[t]
    elif isinstance(source, AlmostPathSource):
        K = source.K

        def draw(s):
            if s <= 2 * K + 2:
                return rng.randrange(s)
            i = rng.randrange(2 * K + 2)
            return i if i <= K else s - 1 - (2 * K + 1 - i)
    elif isinstance(source, BinomialSource):
        gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
        p = float(source.alpha)
        draw = lambda s: int(gen.binomial(s - 1, p))
    else:
        cums: dict[int, tuple[list[int], int]] = {}

        def draw(s):
            got = cums.get(s)
            if got is None:
                w, total = source.split_weights(s)
                acc = list(accumulate(w))
                if acc[-1] != total:
                    raise EmptyClassError(f"{source.name}: row {s} not normalized")
                got = cums[s] = (acc, total)
            acc, total = got
            return bisect_right(acc, rng.randrange(total))

    def split(s):
        l = draw(s)
        r = s - 1 - l
        return l or None, r or None

    return BinaryTree.grow(n, split)


def _sample_uniform(n: int, rng) -> BinaryTree:
    """Uniform binary tree via a uniform Dyck word (cycle lemma): shuffle
    n opens and n+1 closes, rotate to just after the first prefix-sum
    minimum, drop the final close."""
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    arr = [1] * n + [0] * (n + 1)
    rng.shuffle(arr)
    bits = np.array(arr, dtype=np.uint8)
    first_min = int(np.argmin(np.cumsum(2 * bits.astype(np.int64) - 1)))
    return bp_decode_binary(BitBuf.from_array(np.roll(bits, -first_min - 1)[:-1]))


# ---------------------------------------------------------------------------
# branching processes

def _weights_from_fractions(rows) -> tuple[list[int], int]:
    den = math.lcm(*(f.denominator for f in rows))
    return [int(f * den) for f in rows], den


def _sample_type_process(tp: TypeProcess, cap: int, rng) -> BinaryTree:
    if cap < 1:
        raise EmptyClassError("size cap must be >= 1")
    k = tp.k
    tables: dict[tuple, tuple[list[int], int]] = {}

    def split(hist):
        got = tables.get(hist)
        if got is None:
            w, den = _weights_from_fractions(tp.row(hist))
            got = tables[hist] = (list(accumulate(w)), den)
        acc, den = got
        ty = bisect_right(acc, rng.randrange(den))
        child = (hist + (ty,))[-k:] if k else hist
        return (child if ty in (1, 2) else None), (child if ty in (2, 3) else None)

    # an attempt spends one unit of budget per node it reaches, the node
    # that passes the cap included
    budget = 100 * cap
    while budget > 0:
        limit = min(cap, budget - 1)
        t = BinaryTree.grow((1,) * k, split, cap=limit)
        if t is not None:
            return t
        budget -= limit + 1
    raise EmptyClassError(
        f"type process failed to produce a tree within the size cap {cap}")


def _sample_degree(src: DegreeDist, cap: int, rng) -> OrdinalTree:
    if cap < 1:
        raise EmptyClassError("size cap must be >= 1")
    w, den = _weights_from_fractions(src.d)
    acc = list(accumulate(w))
    budget = 100 * cap
    while budget > 0:
        children: list[list[int]] = [[]]
        cnt = 0
        ok = True
        stack = [0]
        while stack:
            parent = stack.pop()
            cnt += 1
            budget -= 1
            if cnt > cap or budget <= 0:
                ok = False
                break
            children.append([])
            if parent:
                children[parent].append(cnt)
            deg = bisect_right(acc, rng.randrange(den))
            for _ in range(deg):
                stack.append(cnt)
        if ok:
            # nodes are numbered as they pop, which is preorder
            return OrdinalTree(cnt, children)
    raise EmptyClassError(
        f"degree process failed to produce a tree within the size cap {cap}")


def _renumber_preorder(t: OrdinalTree) -> OrdinalTree:
    return OrdinalTree.from_links(t.root, t.children)


# ---------------------------------------------------------------------------
# fixed-height AVL

def _sample_avl_height(h: int, rng) -> BinaryTree:
    if h < 1:
        raise EmptyClassError("height must be >= 1")
    a = counting.avl_height_counts(h)

    def split(hh):
        if hh == 1:
            return None, None
        w1 = a[hh - 2] * a[hh - 1]
        w2 = a[hh - 1] * a[hh - 1]
        hl, hr = _pick(rng, [(w1, (hh - 2, hh - 1)), (w2, (hh - 1, hh - 1)),
                             (w1, (hh - 1, hh - 2))])
        return hl or None, hr or None

    return BinaryTree.grow(h, split)


# ---------------------------------------------------------------------------
# ordinal fixed-size families

def _sample_composition(n: int, rng) -> OrdinalTree:
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    children: list[list[int]] = [[] for _ in range(n + 1)]
    cnt = 0
    stack = [(n, 0)]
    while stack:
        s, parent = stack.pop()
        cnt += 1
        v = cnt
        if parent:
            children[parent].append(v)
        q = s - 1
        if q == 0:
            continue
        # uniform composition of q: each of the q-1 gaps holds a barrier
        # independently with probability 1/2
        bars = rng.getrandbits(q - 1) if q > 1 else 0
        parts = []
        run = 1
        for i in range(q - 1):
            if (bars >> i) & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        for p in reversed(parts):
            stack.append((p, v))
    # stack order produced children right-to-left; fix by reversing
    for v in range(1, n + 1):
        children[v].reverse()
    return _renumber_preorder(OrdinalTree(n, children))


def _sample_lrm(n: int, rng) -> OrdinalTree:
    """Uniform attachment: node i picks a uniform parent among 1..i-1 and
    becomes its leftmost child."""
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        p = rng.randrange(1, v)
        children[p].insert(0, v)
    return _renumber_preorder(OrdinalTree(n, children))


# ---------------------------------------------------------------------------
# uniform subclasses

def _sample_subclass(src: UniformSubclass, n: int, rng) -> BinaryTree:
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    if src.cls == "avl-size":
        return _sample_avl_size(n, rng)
    if src.cls == "wb":
        return _sample_wb(src.alpha, n, rng)
    return _sample_llrb(n, rng)


def _sample_avl_size(n: int, rng) -> BinaryTree:
    table = counting.avl_size_table(n)
    if not table[n]:
        raise EmptyClassError(f"no AVL tree of size {n}")

    def split(state):  # (size, height)
        k, hh = state
        if k == 1:
            return None, None
        # choose (l, hl, hr) proportional to count products
        choices = []
        for l in range(k):
            r = k - 1 - l
            for hl, cl in table[l].items():
                for hr in (hh - 1, hh - 2):
                    if max(hl, hr) != hh - 1 or abs(hl - hr) > 1 or hr < 0:
                        continue
                    cr = table[r].get(hr)
                    if cr:
                        choices.append((cl * cr, (l, hl, hr)))
        l, hl, hr = _pick(rng, choices)
        r = k - 1 - l
        return ((l, hl) if l else None), ((r, hr) if r else None)

    height = _pick(rng, [(c, h) for h, c in sorted(table[n].items())])
    return BinaryTree.grow((n, height), split)


def _sample_wb(alpha, n: int, rng) -> BinaryTree:
    counts = counting.wb_counts(alpha, n)
    if counts[n] == 0:
        raise EmptyClassError(f"no {alpha}-weight-balanced tree of size {n}")

    def split(k):
        if k == 1:
            return None, None
        l = _pick(rng, [(counts[i] * counts[k - 1 - i], i) for i in range(k)
                        if counting.wb_split_ok(alpha, i, k - 1 - i)])
        r = k - 1 - l
        return l or None, r or None

    return BinaryTree.grow(n, split)


def _sample_llrb(n: int, rng) -> BinaryTree:
    """Uniform over colored left-leaning red-black trees; returns the shape."""
    table = counting.llrb_table(n)
    A, _ = table[n]
    if not A:
        raise EmptyClassError(f"no left-leaning red-black tree of size {n}")

    def split(state):  # (size, black-height, red incoming edge)
        k, hh, red = state
        if k == 1:
            return None, None
        choices = []  # (weight, (l, hl, redl, hr, redr)); r = k-1-l
        if hh == 1 and not red:
            _, r1 = table[k - 1]
            if 1 in r1:
                choices.append((r1[1], (k - 1, 1, 1, None, None)))
        for l in range(1, k - 1):
            r = k - 1 - l
            Al, Rl = table[l]
            Ar, Rr = table[r]
            cl = Al.get(hh - 1)
            cr = Ar.get(hh - 1)
            if cl and cr:
                choices.append((cl * cr, (l, hh - 1, 0, hh - 1, 0)))
            if not red:
                cl = Rl.get(hh)
                cr = Ar.get(hh - 1)
                if cl and cr:
                    choices.append((cl * cr, (l, hh, 1, hh - 1, 0)))
                cl = Rl.get(hh)
                cr = Rr.get(hh)
                if cl and cr:
                    choices.append((cl * cr, (l, hh, 1, hh, 1)))
        l, hl, redl, hr, redr = _pick(rng, choices)
        # hr is None for a left-unary node
        return (l, hl, redl), (None if hr is None else (k - 1 - l, hr, redr))

    height = _pick(rng, [(c, h) for h, c in sorted(A.items())])
    return BinaryTree.grow((n, height, 0), split)
