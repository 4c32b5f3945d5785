"""Exact samplers for every source family.

Each sampler takes an explicit ``random.Random`` (or a seed, which stands
for ``random.Random(seed)``); nothing global. The uniform and binomial
samplers draw through a numpy PCG64 generator seeded with one
``getrandbits(64)`` of it, the others from it directly. Trees come back
preorder-numbered. Every top-down sampler, binary or ordinal, is a split
rule for its kind's ``grow`` (``BinaryTree.grow`` or
``OrdinalTree.grow``): it maps a node's state, such as its subtree size or
height, to the states of its children, drawing once per node in preorder.
The uniform binary sampler (a whole-array cycle-lemma draw) and the LRM
sampler (uniform attachment, then one renumbering) are not top-down. The
exact samplers use the recursive method (Flajolet, Zimmermann & Van Cutsem,
TCS 1994): a split is drawn in proportion to the counts of the trees on
either side, taken from the weights that the source states
(``FixedSizeSource.cum_weights``, ``AvlByHeightSource.pair_weights``, the
rows of ``WeightBalancedSource``); the size-conditioned AVL and LLRB
samplers draw from their count tables by ``_pick``. Sampling is exact for
the families with rational probabilities; the binomial family draws
through numpy's binomial sampler in floating point.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from functools import cache
from itertools import accumulate

import numpy as np

from ..bits import BitBuf
from ..trees import (
    BinaryTree, OrdinalTree, bp_decode_binary, bp_decode_ordinal, bp_encode_ordinal,
)
from . import counting
from .models import (
    AlmostPathSource, AvlByHeightSource, BinomialSource, BstSource,
    CompositionSource, DegreeDist, EmptyClassError, FixedSizeSource,
    FringeBalancedSource, LrmSource, SourceModel, TypeProcess, UniformSource,
    UniformSubclass, WeightBalancedSource,
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
        return _sample_avl_height(source, target, rng)
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
        cum_weights = source.cum_weights

        def draw(s):
            acc, total = cum_weights(s)
            return bisect_right(acc, rng.randrange(total))

    def split(s):
        l = draw(s)
        r = s - 1 - l
        return l or None, r or None

    return BinaryTree.grow(n, split)


def _sample_uniform(n: int, rng) -> BinaryTree:
    """Uniform binary tree via a uniform Dyck word (cycle lemma): shuffle
    n opens and n+1 closes, rotate to just after the first prefix-sum
    minimum, drop the final close. The shuffle is numpy's, by a PCG64
    generator seeded with one ``rng.getrandbits(64)``, as in the binomial
    sampler."""
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    bits = np.zeros(2 * n + 1, dtype=np.uint8)
    bits[:n] = 1
    np.random.Generator(np.random.PCG64(rng.getrandbits(64))).shuffle(bits)
    first_min = int(np.argmin(np.cumsum(2 * bits.astype(np.int64) - 1)))
    return bp_decode_binary(BitBuf.from_array(
        np.concatenate((bits[first_min + 1:], bits[:first_min]))))


# ---------------------------------------------------------------------------
# branching processes

def _weights_from_fractions(rows) -> tuple[list[int], int]:
    den = math.lcm(*(f.denominator for f in rows))
    return [int(f * den) for f in rows], den


def _grow_capped(grow, cap: int, what: str):
    """The first tree of at most ``cap`` nodes that ``grow(limit)`` gives,
    retrying on None. Attempts share a budget of 100 * cap: an attempt
    spends one unit per node it reaches, the node that passes the cap
    included, so none reaches further than the budget left."""
    if cap < 1:
        raise EmptyClassError("size cap must be >= 1")
    budget = 100 * cap
    while budget > 0:
        limit = min(cap, budget - 1)
        t = grow(limit)
        if t is not None:
            return t
        budget -= limit + 1
    raise EmptyClassError(f"{what} failed to produce a tree within the size cap {cap}")


def _sample_type_process(tp: TypeProcess, cap: int, rng) -> BinaryTree:
    k = tp.k

    @cache
    def row(hist):
        w, den = _weights_from_fractions(tp.row(hist))
        return list(accumulate(w)), den

    def split(hist):
        acc, den = row(hist)
        ty = bisect_right(acc, rng.randrange(den))
        child = (hist + (ty,))[-k:] if k else hist
        return (child if ty in (1, 2) else None), (child if ty in (2, 3) else None)

    return _grow_capped(lambda limit: BinaryTree.grow((1,) * k, split, cap=limit),
                        cap, "type process")


def _sample_degree(src: DegreeDist, cap: int, rng) -> OrdinalTree:
    w, den = _weights_from_fractions(src.d)
    acc = list(accumulate(w))
    # every node has the same law, so a state is only a placeholder
    split = lambda _: [0] * bisect_right(acc, rng.randrange(den))
    return _grow_capped(lambda limit: OrdinalTree.grow(0, split, cap=limit),
                        cap, "degree process")


# ---------------------------------------------------------------------------
# fixed-height AVL

def _sample_avl_height(source: AvlByHeightSource, h: int, rng) -> BinaryTree:
    if h < 1:
        raise EmptyClassError("height must be >= 1")

    @cache
    def row(hh):  # the running sums of the source's pair weights
        pairs, total = source.pair_weights(hh)
        return list(accumulate(w for _, _, w in pairs)), total, [p[:2] for p in pairs]

    def split(hh):
        if hh == 1:
            return None, None
        acc, total, pairs = row(hh)
        hl, hr = pairs[bisect_right(acc, rng.randrange(total))]
        return hl or None, hr or None

    return BinaryTree.grow(h, split)


# ---------------------------------------------------------------------------
# ordinal fixed-size families

def _sample_composition(n: int, rng) -> OrdinalTree:
    if n < 1:
        raise EmptyClassError("size must be >= 1")

    def split(s):
        # a uniform composition of s - 1 into parts: each of its s - 2 gaps
        # holds a barrier where bit i of one draw, for gap i, is set
        if s < 3:
            return [1] if s == 2 else ()
        gaps = format(rng.getrandbits(s - 2), f"0{s - 2}b")[::-1]
        return [len(run) + 1 for run in gaps.split("1")]

    # a node's parts are drawn first to last and listed last to first: the
    # tree is the mirror of the one grown, whose BP string is the grown
    # one's reversed with its parentheses swapped
    bits = bp_encode_ordinal(OrdinalTree.grow(n, split)).to_array()
    return bp_decode_ordinal(BitBuf.from_array(1 - bits[::-1]))


def _sample_lrm(n: int, rng) -> OrdinalTree:
    """Uniform attachment: node i picks a uniform parent among 1..i-1 and
    becomes its leftmost child."""
    if n < 1:
        raise EmptyClassError("size must be >= 1")
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        p = rng.randrange(1, v)
        children[p].insert(0, v)
    return OrdinalTree.from_links(1, children)


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
    cum_weights = WeightBalancedSource(alpha).cum_weights
    if not cum_weights(n)[1]:
        raise EmptyClassError(f"no {alpha}-weight-balanced tree of size {n}")

    def split(k):
        if k == 1:
            return None, None
        acc, total = cum_weights(k)
        l = bisect_right(acc, rng.randrange(total))
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
