"""Range-minimum queries through the compressed Cartesian tree: build the
min-rooted Cartesian tree (leftmost tie-breaking), encode it, and answer

    rmq(i, j) = inorder_rank(LCA(inorder_select(i), inorder_select(j)))

plus runs analysis with the Narayana lower bound and the Dyck-path peak
bijection."""

from __future__ import annotations

import math

from .bits import BitBuf, MalformedStream
from .cover import decompose_binary
from .hypercodec import HsBlob, hs_encode_binary
from .navigate import NavIndex
from .sources.models import lg_binom
from .trees import BinaryTree


def cartesian_tree(values) -> BinaryTree:
    """Min-rooted Cartesian tree; ties resolve to the leftmost minimum, which
    is fixed at construction time. Node with inorder rank j holds values[j-1]."""
    n = len(values)
    if n < 1:
        raise ValueError("empty array")
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    stack: list[int] = []  # rightmost spine, indices 1..n (inorder ids)
    for j in range(1, n + 1):
        x = values[j - 1]
        last = 0
        while stack and values[stack[-1] - 1] > x:
            last = stack.pop()
        left[j] = last
        if stack:
            right[stack[-1]] = j
        stack.append(j)
    root = stack[0]
    # renumber to preorder (the original index is the inorder rank; the
    # renumbering preserves inorder order)
    nl = [0] * (n + 1)
    nr = [0] * (n + 1)
    idx = [0] * (n + 1)
    work = [root]
    cnt = 0
    while work:
        v = work.pop()
        cnt += 1
        idx[v] = cnt
        if right[v]:
            work.append(right[v])
        if left[v]:
            work.append(left[v])
    work = [root]
    while work:
        v = work.pop()
        i = idx[v]
        l, r = left[v], right[v]
        if l:
            nl[i] = idx[l]
            work.append(l)
        if r:
            nr[i] = idx[r]
            work.append(r)
    return BinaryTree(n, nl, nr)


class RMQIndex:
    """Answers argmin queries over the original array without storing it."""

    def __init__(self, nav: NavIndex, n: int, blob: HsBlob):
        self.nav = nav
        self.n = n
        self.blob = blob

    def query(self, i: int, j: int) -> int:
        if not 1 <= i <= j <= self.n:
            raise IndexError(f"bad interval [{i}, {j}]")
        nav = self.nav
        u = nav.inorder_select(i)
        v = nav.inorder_select(j)
        return nav.inorder_rank(nav.lca(u, v))

    def query_many(self, li, ri):
        """Vectorized queries; numpy arrays of 1-based interval endpoints."""
        import numpy as np

        li = np.asarray(li, dtype=np.int64)
        ri = np.asarray(ri, dtype=np.int64)
        if li.shape != ri.shape:
            raise ValueError("mismatched query arrays")
        if len(li) and (li.min() < 1 or ri.max() > self.n or (li > ri).any()):
            raise IndexError("bad interval in batch")
        nav = self.nav
        mi, ul = nav.batch_select_local(li)
        mj, vl = nav.batch_select_local(ri)
        W, wl = nav.batch_lca_local(mi, ul, mj, vl)
        return nav.batch_inorder_rank(W, wl)


def rmq_build(values, B: int | None = None) -> RMQIndex:
    """Encode the Cartesian tree of ``values`` and index it, at the codec's
    default block unless ``B`` is given. The CLI's ``rmq build`` writes this
    blob."""
    t = cartesian_tree(values)
    cover = decompose_binary(t, B)
    return RMQIndex(NavIndex(cover), t.n, hs_encode_binary(t, cover=cover))


# ---------------------------------------------------------------------------
# runs

class RunsProfile:
    __slots__ = ("n", "r", "s", "bound_bits", "narayana_bits")

    def __init__(self, n, r, s):
        self.n = n
        self.r = r
        self.s = s
        self.bound_bits = 2.0 * lg_binom(n, r)
        self.narayana_bits = lg_narayana(n, r)

    def __repr__(self):
        return (f"RunsProfile(n={self.n}, r={self.r}, s={self.s}, "
                f"narayana_bits={self.narayana_bits:.2f})")


def lg_narayana(n: int, r: int) -> float:
    """lg N_{n,r} with N_{n,r} = C(n,r) C(n,r-1) / n (log-gamma based)."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return lg_binom(n, r) + lg_binom(n, r - 1) - math.log2(n)


def runs_profile(values) -> RunsProfile:
    """Count maximal nondecreasing runs (r) and singleton runs (s)."""
    n = len(values)
    if n < 1:
        raise ValueError("empty array")
    r = 1
    s = 0
    run_len = 1
    for k in range(1, n):
        if values[k - 1] > values[k]:
            r += 1
            if run_len == 1:
                s += 1
            run_len = 1
        else:
            run_len += 1
    if run_len == 1:
        s += 1
    return RunsProfile(n, r, s)


def bp_encode_postorder_variant(t: BinaryTree, out: BitBuf | None = None) -> BitBuf:
    """The runs-analysis BP variant: code(t) = code(L) "(" code(R) ")".

    Nodes appear at their inorder position; peaks of the resulting Dyck path
    are exactly the run ends of the underlying array.
    """
    buf = out if out is not None else BitBuf()
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
