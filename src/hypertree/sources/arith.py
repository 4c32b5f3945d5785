"""Depth-first arithmetic code for fixed-size sources.

The coder is exact: the tree's probability interval [low, low+P) is tracked
with big integers (low = num/den, P = width/den), divided by their gcd
each time den doubles in length. Unreduced, den would be the product of
the split row totals, which under the uniform source grows far past
1/P = C_n (the Catalan number, to which the splits' probabilities
telescope). The emitted body is the shortest dyadic interval inside
[low, low+P), ``ceil(lg(1/P)) + 1`` bits for non-dyadic P. Prefixing
gamma(n+1) makes the code self-delimiting, and the body never exceeds
lg(1/P[t]) + 2 bits, so

    |code(t)| <= lg(1/P[t]) + 2*floor(lg(|t|+1)) + 3.

The decoder reads the remaining buffer as one dyadic point and walks the
same intervals, so zero padding after the body is harmless.
"""

from __future__ import annotations

import math

from ..bits import BitBuf, BitCursor, MalformedStream, gamma_decode, gamma_encode
from ..trees import BinaryTree
from .models import FixedSizeSource, SourceModel

INF = float("inf")


def _lowest_terms(num: int, width: int, den: int) -> tuple[int, int, int, int]:
    """``num``, ``width`` and ``den`` divided by their greatest common
    divisor, which leaves low and P, and so every emitted bit, as they
    are; then the bit length of ``den`` past which to reduce again. A gcd
    costs time quadratic in the bit length, so it runs only once ``den``
    has doubled: under sources whose splits share few factors with their
    totals (binomial ones) a gcd at every split would cost more than it
    saves. ``width`` goes first: where it is 1, as under the BST source,
    ``math.gcd`` stops at once."""
    g = math.gcd(width, den, num)
    num, width, den = num // g, width // g, den // g
    return num, width, den, 2 * den.bit_length() + 64


def dfs_arith_encode(source: FixedSizeSource, t: BinaryTree) -> BitBuf:
    """gamma(n+1) followed by the arithmetic body over left-subtree sizes in
    preorder. Requires P[t] > 0 under the source."""
    if not isinstance(source, FixedSizeSource):
        raise TypeError("depth-first arithmetic coding needs a fixed-size source")
    buf = gamma_encode(t.n + 1)
    if t.n == 0:
        return buf
    size = [0] * (t.n + 1)
    left, right = t.left, t.right
    for v in range(t.n, 0, -1):
        size[v] = 1 + size[left[v]] + size[right[v]]
    cum_weights = source.cum_weights
    num = 0          # low = num/den
    width = 1        # P = width/den
    den = 1
    reduce_past = 64
    for v in range(1, t.n + 1):
        s = size[v]
        if s == 1:
            continue  # a single split, probability 1
        acc, total = cum_weights(s)
        l = size[left[v]]
        w = acc[l] - (acc[l - 1] if l else 0)
        if w == 0:
            raise ValueError(f"{source.name}: tree has probability zero")
        num = num * total + width * (acc[l] - w)
        width *= w
        den *= total
        if den.bit_length() > reduce_past:
            num, width, den, reduce_past = _lowest_terms(num, width, den)
    if width == den:
        return buf  # P = 1: the empty dyadic prefix [0,1) suffices
    # smallest L with 2^L >= 2*den/width guarantees a dyadic interval inside
    x = -(-2 * den // width)
    L = (x - 1).bit_length()
    z = (num * (1 << L) + den - 1) // den
    buf.append_bits(z, L)
    return buf


def dfs_arith_decode(source: FixedSizeSource, buf: BitBuf) -> BinaryTree:
    """Inverse of dfs_arith_encode."""
    cur = BitCursor(buf)
    n = gamma_decode(cur) - 1
    if n == 0:
        return BinaryTree(0, [0], [0])
    V, j = cur.read_remaining_int()
    two_j = 1 << j
    cum_weights = source.cum_weights
    num = 0
    width = 1
    den = 1
    reduce_past = 64
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    cnt = 0
    stack = [(n, 0, 0)]
    while stack:
        s, parent, side = stack.pop()
        cnt += 1
        v = cnt
        if parent:
            if side == 0:
                left[parent] = v
            else:
                right[parent] = v
        if s == 1:
            continue
        acc, total = cum_weights(s)
        # pick the largest l with low + P*acc[l-1]/total <= V/2^j
        lhs_base = num * total
        target = V * den * total
        lo, hi = 0, s - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (lhs_base + width * acc[mid - 1]) * two_j <= target:
                lo = mid
            else:
                hi = mid - 1
        l = lo
        w = acc[l] - (acc[l - 1] if l else 0)
        if w == 0:
            raise MalformedStream("arithmetic stream decodes to a zero-probability split")
        num = lhs_base + width * (acc[l] - w)
        width *= w
        den *= total
        if den.bit_length() > reduce_past:
            num, width, den, reduce_past = _lowest_terms(num, width, den)
        r = s - 1 - l
        if r:
            stack.append((r, v, 1))
        if l:
            stack.append((l, v, 0))
    return BinaryTree(n, left, right)


def dfs_code_length(source: SourceModel, shape: BinaryTree) -> float:
    """Length bound of the depth-first arithmetic code for ``shape``:
    lg(1/P) + 2*floor(lg(|s|+1)) + 3, or +inf for zero-probability shapes.

    Used as the competitor in Huffman-optimality comparisons without
    materializing any bits.
    """
    bits = source.log_prob(shape).log_prob_bits
    if bits == INF:
        return INF
    return bits + 2 * ((shape.n + 1).bit_length() - 1) + 3
