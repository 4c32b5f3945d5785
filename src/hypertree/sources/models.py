"""Tree-source models: type processes, fixed-size and fixed-height splitting
sources, degree distributions, ordinal fixed-size sources, and uniform
subclasses, each with an exact log-probability.

Split distributions are carried as exact integer weight rows wherever the
family permits; log2 values are computed in floating point on top of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from ..trees import BinaryTree, OrdinalTree
from . import counting

INF = float("inf")


class EmptyClassError(ValueError):
    """The requested (family, target) combination contains no tree."""


class EntropyReport:
    __slots__ = ("log_prob_bits", "per_node")

    def __init__(self, bits: float, n: int):
        self.log_prob_bits = bits
        self.per_node = bits / n if n else 0.0

    def __repr__(self):
        return f"EntropyReport(bits={self.log_prob_bits:.4f}, per_node={self.per_node:.4f})"


class SourceModel:
    kind = "binary"
    name = "source"

    def log_prob(self, t) -> EntropyReport:
        self._check_kind(t)
        return EntropyReport(self._bits(t), t.n)

    def _check_kind(self, t):
        want = OrdinalTree if self.kind == "ordinal" else BinaryTree
        if not isinstance(t, want):
            raise TypeError(f"{self.name} expects a {self.kind} tree")

    def _bits(self, t) -> float:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def log_prob(source: SourceModel, t) -> EntropyReport:
    return source.log_prob(t)


def _lg(x: float) -> float:
    return math.log2(x)


_LGAMMA = math.lgamma
_LN2 = math.log(2.0)


def lg_binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -INF
    return (_LGAMMA(n + 1) - _LGAMMA(k + 1) - _LGAMMA(n - k + 1)) / _LN2


# ---------------------------------------------------------------------------

class TypeProcess(SourceModel):
    """k-th order node-type process tau_z over types {0,1,2,3}; histories z
    range over {1,2,3}^k, padded with 1s at the top of the tree."""

    kind = "binary"

    def __init__(self, k: int, tau: dict[tuple[int, ...], tuple]):
        if k < 0:
            raise ValueError("order must be >= 0")
        self.k = k
        self.tau: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        for z, probs in tau.items():
            z = tuple(z)
            if len(z) != k or any(c not in (1, 2, 3) for c in z):
                raise ValueError(f"bad history {z}")
            row = tuple(Fraction(p) for p in probs)
            if len(row) != 4 or any(p < 0 for p in row) or sum(row) != 1:
                raise ValueError(f"type distribution for {z} does not sum to 1")
            self.tau[z] = row
        self.name = "memoryless" if k == 0 else f"type-process(k={k})"
        self._logs = {
            z: tuple(-_lg(p) if p > 0 else INF for p in row)
            for z, row in self.tau.items()
        }

    def row(self, z: tuple[int, ...]) -> tuple[Fraction, ...]:
        try:
            return self.tau[z]
        except KeyError:
            raise ValueError(f"no distribution for history {z}") from None

    def _bits(self, t: BinaryTree) -> float:
        k = self.k
        logs = self._logs
        total = 0.0
        left, right = t.left, t.right
        if t.n == 0:
            return 0.0
        pad = (1,) * k
        stack = [(t.root, pad)]
        while stack:
            v, hist = stack.pop()
            l, r = left[v], right[v]
            ty = (2 if r else 1) if l else (3 if r else 0)
            try:
                c = logs[hist][ty]
            except KeyError:
                raise ValueError(f"no distribution for history {hist}") from None
            if c == INF:
                return INF
            total += c
            if l or r:
                child_hist = (hist + (ty,))[-k:] if k else hist
                if l:
                    stack.append((l, child_hist))
                if r:
                    stack.append((r, child_hist))
        return total

    @staticmethod
    def memoryless(q0, q1, q2, q3) -> "TypeProcess":
        return TypeProcess(0, {(): (q0, q1, q2, q3)})

    @staticmethod
    def motzkin() -> "TypeProcess":
        tp = TypeProcess.memoryless(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0)
        tp.name = "motzkin"
        return tp


# ---------------------------------------------------------------------------

class FixedSizeSource(SourceModel):
    """Binary fixed-size source: p(l, r) over subtree-size splits.

    ``split_weights(s)`` returns the exact integer weight row for a node of
    subtree size s (weights w_l for l = 0..s-1 plus the total), and
    ``cum_weights(s)`` its running sums, which back sampling and the
    depth-first arithmetic code.
    """

    kind = "binary"

    def __init__(self, name: str):
        self.name = name
        self._row_cache: dict[int, tuple[list[int], int]] = {}
        self._cum_cache: dict[int, tuple[list[int], int]] = {}

    def split_weights(self, s: int) -> tuple[list[int], int]:
        if s not in self._row_cache:
            row = self._weights(s)
            self._row_cache[s] = row
        return self._row_cache[s]

    def cum_weights(self, s: int) -> tuple[list[int], int]:
        """The running sums of ``split_weights(s)``'s row and its total, so
        that a split l is drawn by bisecting a uniform draw below the total.
        Raises ``EmptyClassError`` if the row does not sum to its total.
        Only the running sums are cached, not the row, so a sampler or coder
        keeps one table per size."""
        got = self._cum_cache.get(s)
        if got is None:
            w, total = self._weights(s)
            acc = list(accumulate(w))
            if acc[-1] != total:
                raise EmptyClassError(f"{self.name}: split row {s} is not normalized")
            got = self._cum_cache[s] = (acc, total)
        return got

    def _weights(self, s: int) -> tuple[list[int], int]:
        raise NotImplementedError

    def log_split(self, l: int, r: int) -> float:
        raise NotImplementedError

    def _bits(self, t: BinaryTree) -> float:
        size = [0] * (t.n + 1)
        left, right = t.left, t.right
        total = 0.0
        for v in range(t.n, 0, -1):
            l, r = left[v], right[v]
            size[v] = 1 + size[l] + size[r]
            c = self.log_split(size[l], size[r])
            if c == INF:
                return INF
            total += c
        return total


class BstSource(FixedSizeSource):
    """p(l, r) = 1/(l+r+1): every split of a given size equally likely."""

    def __init__(self):
        super().__init__("bst")

    def _weights(self, s):
        return [1] * s, s

    def log_split(self, l, r):
        return _lg(l + r + 1)


class UniformSource(FixedSizeSource):
    """p(l, r) = C_l * C_r / C_{l+r+1}: the uniform distribution on shapes."""

    def __init__(self):
        super().__init__("uniform")

    def _weights(self, s):
        cat = counting.catalan_upto(s)
        return [cat[l] * cat[s - 1 - l] for l in range(s)], cat[s]

    def log_split(self, l, r):
        lgc = counting.lg_catalan
        return lgc(l + r + 1) - lgc(l) - lgc(r)


class BinomialSource(FixedSizeSource):
    """p(l, r) = C(l+r, l) alpha^l (1-alpha)^r (binomial random tree model)."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0,1)")
        super().__init__(f"binomial:{self.alpha}")
        self._lga = _lg(float(self.alpha))
        self._lgb = _lg(float(1 - self.alpha))

    def _weights(self, s):
        a, b = self.alpha.numerator, self.alpha.denominator
        m = s - 1
        w = [math.comb(m, l) * a ** l * (b - a) ** (m - l) for l in range(s)]
        return w, b ** m
    def log_split(self, l, r):
        return -(lg_binom(l + r, l) + l * self._lga + r * self._lgb)


class AlmostPathSource(FixedSizeSource):
    """p(l, r) = 1/min{l+r+1, 2K+2} when min(l, r) <= K, else 0.

    (Reading the reference formula's min over the denominators; the literal
    fraction-min would leave the split rows unnormalized and contradicts the
    K=0 unary-path case.)
    """

    def __init__(self, K: int):
        if K < 0:
            raise ValueError("K must be >= 0")
        self.K = K
        super().__init__(f"almostpath:{K}")

    def _weights(self, s):
        cap = 2 * self.K + 2
        if s <= cap:
            return [1] * s, s
        K = self.K
        return [1 if (l <= K or s - 1 - l <= K) else 0 for l in range(s)], cap

    def log_split(self, l, r):
        if min(l, r) > self.K:
            return INF
        return _lg(min(l + r + 1, 2 * self.K + 2))


class FringeBalancedSource(FixedSizeSource):
    """Shape of a random (2t+1)-fringe-balanced BST: the split is the rank of
    the median of a 2t+1 sample; below that size every split is 1/n."""

    def __init__(self, t: int):
        if t < 0:
            raise ValueError("t must be >= 0")
        self.t = t
        super().__init__(f"fringebalanced:{t}")

    def _weights(self, s):
        t = self.t
        if s < 2 * t + 1:
            return [1] * s, s
        w = [math.comb(l, t) * math.comb(s - 1 - l, t) for l in range(s)]
        return w, math.comb(s, 2 * t + 1)

    def log_split(self, l, r):
        t = self.t
        n = l + r + 1
        if n < 2 * t + 1:
            return _lg(n)
        x = lg_binom(l, t) + lg_binom(r, t) - lg_binom(n, 2 * t + 1)
        return INF if x == -INF else -x


class WeightBalancedSource(FixedSizeSource):
    """Fixed-size source inducing the uniform distribution on
    alpha-weight-balanced trees (zero off the class)."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        super().__init__(f"wb-source:{self.alpha}")

    def _weights(self, s):
        counts = counting.wb_counts(self.alpha, s)
        w = []
        for l in range(s):
            r = s - 1 - l
            if counting.wb_split_ok(self.alpha, l, r):
                w.append(counts[l] * counts[r])
            else:
                w.append(0)
        return w, counts[s]

    def log_split(self, l, r):
        w, total = self.split_weights(l + r + 1)
        if w[l] == 0:
            return INF
        return _lg(total) - _lg(w[l])


# ---------------------------------------------------------------------------

class FixedHeightSource(SourceModel):
    """Binary fixed-height source: p(i, j) over subtree-height pairs with
    max(i, j) = h - 1."""

    kind = "binary"

    def __init__(self, name):
        self.name = name

    def pair_weights(self, h: int) -> tuple[list[tuple[int, int, int]], int]:
        """Weighted pairs [(i, j, w)] for a node whose subtree has height h."""
        raise NotImplementedError

    def log_pair(self, i: int, j: int) -> float:
        raise NotImplementedError

    def _bits(self, t: BinaryTree) -> float:
        height = [0] * (t.n + 1)
        left, right = t.left, t.right
        total = 0.0
        for v in range(t.n, 0, -1):
            l, r = left[v], right[v]
            height[v] = 1 + max(height[l], height[r])
            c = self.log_pair(height[l], height[r])
            if c == INF:
                return INF
            total += c
        return total


class AvlByHeightSource(FixedHeightSource):
    """Uniform distribution on AVL trees of a given height."""

    def __init__(self):
        super().__init__("avl-height")

    def pair_weights(self, h):
        a = counting.avl_height_counts(h)
        if h == 1:
            return [(0, 0, 1)], 1
        pairs = [
            (h - 2, h - 1, a[h - 2] * a[h - 1]),
            (h - 1, h - 1, a[h - 1] * a[h - 1]),
            (h - 1, h - 2, a[h - 1] * a[h - 2]),
        ]
        return pairs, a[h]

    def log_pair(self, i, j):
        if abs(i - j) > 1:
            return INF
        h = max(i, j) + 1
        if h == 1:
            return 0.0
        a = counting.avl_height_counts(h)
        # exact big-int ratio via float of a quotient of enormous numbers:
        # go through Fraction to avoid overflow
        num = a[i] * a[j]
        return _lgfrac(a[h], num)


def _lgfrac(num: int, den: int) -> float:
    """lg(num/den) for big positive integers."""
    if den == 0:
        return INF
    f = Fraction(num, den)
    a, b = f.numerator, f.denominator
    # split exponent out so float conversion cannot overflow
    sh = a.bit_length() - b.bit_length()
    if sh > 0:
        b <<= sh
    else:
        a <<= -sh
    return sh + _lg(a / b)


def _ordinal_sizes(t: OrdinalTree) -> list[int]:
    """Each node's subtree size (entry 0 is 0): reverse preorder visits
    every child before its parent."""
    children = t.children
    size = [0] * (t.n + 1)
    for v in range(t.n, 0, -1):
        s = 1
        for c in children[v]:
            s += size[c]
        size[v] = s
    return size


# ---------------------------------------------------------------------------

class DegreeDist(SourceModel):
    """Memoryless ordinal source: node degrees drawn iid from d (finite support)."""

    kind = "ordinal"

    def __init__(self, d):
        row = [Fraction(x) for x in d]
        if not row or row[0] <= 0:
            raise ValueError("need d0 > 0")
        if any(x < 0 for x in row) or sum(row) != 1:
            raise ValueError("degree distribution must sum to 1")
        self.d = row
        self.name = "degree-dist"
        self._logs = [-_lg(x) if x > 0 else INF for x in row]

    def _bits(self, t: OrdinalTree) -> float:
        total = 0.0
        logs = self._logs
        for v in range(1, t.n + 1):
            deg = len(t.children[v])
            if deg >= len(logs) or logs[deg] == INF:
                return INF
            total += logs[deg]
        return total


class CompositionSource(SourceModel):
    """Uniform composition trees: all groupings of a node's descendants into
    subtrees are equally likely (2^(s-2) compositions at subtree size s)."""

    kind = "ordinal"
    name = "composition"

    def _bits(self, t: OrdinalTree) -> float:
        size = _ordinal_sizes(t)
        return float(sum(size[v] - 2 for v in range(1, t.n + 1) if size[v] >= 2))


class LrmSource(SourceModel):
    """Random LRM trees / plane-oriented random recursive trees:
    p(n_1..n_k) = prod_j 1/(n_1+...+n_j)."""

    kind = "ordinal"
    name = "lrm"

    def _bits(self, t: OrdinalTree) -> float:
        size = _ordinal_sizes(t)
        total = 0.0
        for v in range(1, t.n + 1):
            pref = 0
            for c in t.children[v]:
                pref += size[c]
                total += _lg(pref)
        return total


# ---------------------------------------------------------------------------

class UniformSubclass(SourceModel):
    """Uniform distribution over a subclass of binary trees of a given size."""

    kind = "binary"

    def __init__(self, cls: str, alpha=None):
        if cls not in ("avl-size", "llrb", "wb"):
            raise ValueError(f"unknown subclass {cls}")
        self.cls = cls
        self.alpha = Fraction(alpha) if alpha is not None else None
        self.name = cls if alpha is None else f"wb:{self.alpha}"

    def count(self, n: int) -> int:
        if self.cls == "avl-size":
            return counting.avl_size_count(n)
        if self.cls == "llrb":
            return counting.llrb_count(n)
        return counting.wb_counts(self.alpha, n)[n]

    def member_weight(self, t: BinaryTree) -> int:
        """Multiplicity of t in the class (colorings for llrb, 0/1 otherwise)."""
        if self.cls == "avl-size":
            return 1 if counting.is_avl(t) else 0
        if self.cls == "wb":
            return 1 if counting.is_wb(t, self.alpha) else 0
        return counting.llrb_colorings(t)

    def _bits(self, t: BinaryTree) -> float:
        w = self.member_weight(t)
        if w == 0:
            return INF
        return _lgfrac(self.count(t.n), w)


# ---------------------------------------------------------------------------

def empirical_type_process(t: BinaryTree, k: int) -> TypeProcess:
    """The empirical k-th order type process of t."""
    from .entropy import type_counts
    counts = type_counts(t, k)
    tau = {}
    for z, row in counts.items():
        tot = sum(row)
        tau[z] = tuple(Fraction(c, tot) for c in row)
    tp = TypeProcess(k, tau)
    tp.name = f"empirical-type(k={k})"
    return tp


def parse_source(spec: str) -> SourceModel:
    """Parse a CLI source descriptor."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "bst":
            return BstSource()
        if name == "uniform":
            return UniformSource()
        if name == "binomial":
            return BinomialSource(Fraction(arg or "1/2"))
        if name == "almostpath":
            return AlmostPathSource(int(arg or 0))
        if name == "fringebalanced":
            return FringeBalancedSource(int(arg or 1))
        if name == "avl-size":
            return UniformSubclass("avl-size")
        if name == "avl-height":
            return AvlByHeightSource()
        if name == "llrb":
            return UniformSubclass("llrb")
        if name == "wb":
            return UniformSubclass("wb", Fraction(arg or "2/7"))
        if name == "motzkin":
            return TypeProcess.motzkin()
        if name == "memoryless":
            qs = [Fraction(x) for x in arg.split(",")] if arg else [Fraction(1, 4)] * 4
            return TypeProcess(0, {(): tuple(qs)})
        if name == "composition":
            return CompositionSource()
        if name == "lrm":
            return LrmSource()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad source descriptor {spec!r}: {exc}") from None
    raise ValueError(f"unknown source {spec!r}")
