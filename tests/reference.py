"""Reference helpers that only the tests use: per-node annotations by plain
loops, criterion 8's Dyck-path peak bijection, and small facts about codes
and sources that the tests check.
"""

from __future__ import annotations

from fractions import Fraction

from hypertree.bits import BitBuf, MalformedStream
from hypertree.sources.models import FixedSizeSource, TypeProcess
from hypertree.trees import BinaryTree, OrdinalTree


class TreeAnnotation:
    """Per-node annotations; binary trees also get type and inorder rank."""

    __slots__ = ("subtree_size", "height", "depth", "node_type", "degree",
                 "inorder_rank")

    def __init__(self):
        self.subtree_size: list[int] = []
        self.height: list[int] = []
        self.depth: list[int] = []
        self.node_type: list[int] | None = None
        self.degree: list[int] | None = None
        self.inorder_rank: list[int] | None = None


def annotate(t: BinaryTree | OrdinalTree) -> TreeAnnotation:
    a = TreeAnnotation()
    n = t.n
    size = [0] * (n + 1)
    height = [0] * (n + 1)
    depth = [0] * (n + 1)
    a.subtree_size, a.height, a.depth = size, height, depth
    if n == 0:
        return a
    if isinstance(t, BinaryTree):
        left, right = t.left, t.right
        a.node_type = [0] * (n + 1)
        a.inorder_rank = [0] * (n + 1)
        # preorder ids are 1..n: reverse preorder is a valid bottom-up order
        for v in range(n, 0, -1):
            l, r = left[v], right[v]
            size[v] = 1 + size[l] + size[r]
            height[v] = 1 + max(height[l], height[r])
            a.node_type[v] = (2 if r else 1) if l else (3 if r else 0)
        for v in range(1, n + 1):
            if left[v]:
                depth[left[v]] = depth[v] + 1
            if right[v]:
                depth[right[v]] = depth[v] + 1
        # inorder numbering, iterative
        rank = 0
        stack = []
        v = t.root
        while stack or v:
            while v:
                stack.append(v)
                v = left[v]
            v = stack.pop()
            rank += 1
            a.inorder_rank[v] = rank
            v = right[v]
    else:
        ch = t.children
        a.degree = [0] * (n + 1)
        for v in range(n, 0, -1):
            kids = ch[v]
            a.degree[v] = len(kids)
            s = 1
            h = 0
            for c in kids:
                s += size[c]
                if height[c] > h:
                    h = height[c]
            size[v] = s
            height[v] = h + 1
        for v in range(1, n + 1):
            for c in ch[v]:
                depth[c] = depth[v] + 1
    return a


# ---------------------------------------------------------------------------
# runs

def bp_encode_postorder_variant(t: BinaryTree) -> BitBuf:
    """The runs-analysis BP variant: code(t) = code(L) "(" code(R) ")".

    Nodes appear at their inorder position; peaks of the resulting Dyck path
    are exactly the run ends of the underlying array.
    """
    buf = BitBuf()
    # post-style emission: left subtree, then "(", right subtree, then ")"
    stack = [(t.root, 0)] if t.n else []
    while stack:
        v, phase = stack.pop()
        if v == 0:
            continue
        if phase == 0:
            stack.append((v, 1))
            stack.append((t.left[v], 0))
        elif phase == 1:
            buf.append_bit(1)
            stack.append((v, 2))
            stack.append((t.right[v], 0))
        else:
            buf.append_bit(0)
    return buf


def dyck_peaks(bp: BitBuf) -> int:
    """Number of "()" occurrences; input must be balanced and prefix-valid."""
    depth = 0
    peaks = 0
    prev = 0
    for i in range(len(bp)):
        b = bp.get(i)
        if b:
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise MalformedStream("unbalanced BP string")
            if prev:
                peaks += 1
        prev = b
    if depth != 0:
        raise MalformedStream("unbalanced BP string")
    return peaks


# ---------------------------------------------------------------------------
# codes and sources

def kraft_sum(code) -> float:
    """The Kraft sum of a ``ShapeCode``'s codeword lengths."""
    return sum(2.0 ** -l for l in code.code_len.values())


def total_bits(code, freq: dict | None = None) -> int:
    """The codeword bits of ``freq`` (the code's own counts by default)."""
    f = code.freq if freq is None else freq
    return sum(code.code_len[s] * c for s, c in f.items())


def split_prob(source: FixedSizeSource, l: int, r: int) -> Fraction:
    """p(l, r), the probability of the split (l, r) under ``source``."""
    w, total = source.split_weights(l + r + 1)
    return Fraction(w[l], total)


def uniform_types() -> TypeProcess:
    """The memoryless type process with every node type equally likely."""
    q = Fraction(1, 4)
    tp = TypeProcess.memoryless(q, q, q, q)
    tp.name = "memoryless-uniform"
    return tp
