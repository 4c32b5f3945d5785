"""Range-minimum queries through the compressed Cartesian tree: build the
min-rooted Cartesian tree (leftmost tie-breaking), encode it, and answer

    rmq(i, j) = inorder_rank(LCA(inorder_select(i), inorder_select(j)))

plus runs analysis with the Narayana lower bound."""

from __future__ import annotations

import math

import numpy as np

from .cover import _decompose_binary_links
from .hypercodec import HsBlob, _write_blob
from .navigate import NavIndex
from .sources.models import lg_binom
from .trees import BinaryTree


def cartesian_tree(values) -> BinaryTree:
    """Min-rooted Cartesian tree; ties resolve to the leftmost minimum, which
    is fixed at construction time. Node with inorder rank j holds values[j-1]."""
    left, right, _, _ = _cartesian_links(values)
    return BinaryTree(len(values), left.tolist(), right.tolist())


def _cartesian_links(values):
    """The Cartesian tree's left child, right child, parent and subtree size
    by preorder id, as int64 arrays (entry 0 is 0): what
    ``cover._binary_links`` gives for ``cartesian_tree(values)``.

    One stack pass over the values is the only place they are compared, so
    any comparable sequence works. Position j (its inorder id) records
    ``psv[j]``, the stack top it lands on (its nearest smaller-or-equal
    value to the left, 0 for none), and ``nsv[x] = j`` for each x it pops
    (x's nearest smaller value to the right, n + 1 for none). The rest is
    array arithmetic:

    - j's subtree is the inorder interval (psv[j], nsv[j]);
    - j is the left child of k = nsv[j] when k popped nothing below j, that
      is when psv[k] == psv[j]; otherwise the right child of psv[j] (the
      root if that is 0);
    - j's preorder id is psv[j] + 1 plus the number of its ancestors to its
      right. Every node k <= psv[j] precedes j in preorder, every other node
      before j is such an ancestor, and the nodes k with psv[k] < j are
      exactly the j nodes up to j and those ancestors. So a cumulative
      count of psv gives every preorder id, with no sort and no walk.
    """
    n = len(values)
    if n < 1:
        raise ValueError("empty array")
    psv = [0] * (n + 1)
    nsv = [0] + [n + 1] * n
    ids = [0]  # the rightmost spine, over a sentinel id 0 with no value
    top = []   # the values of ids[1:]
    for j, x in enumerate(values, 1):
        while top and top[-1] > x:
            top.pop()
            nsv[ids.pop()] = j
        psv[j] = ids[-1]
        ids.append(j)
        top.append(x)
    psv = np.fromiter(psv, np.int64, n + 1)
    nsv = np.fromiter(nsv, np.int64, n + 1)
    j = np.arange(n + 1)
    is_left = np.append(psv, -1)[nsv] == psv
    below = np.cumsum(np.bincount(psv[1:], minlength=n + 1))
    pre = psv + 1 + below[j - 1] - j
    pre[0] = 0
    up = pre[np.where(is_left, nsv, psv)]
    kids = np.zeros((2, n + 1), dtype=np.int64)
    kids[1 - is_left, up] = pre
    kids[:, 0] = 0
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[pre] = up
    size = np.zeros(n + 1, dtype=np.int64)
    size[pre] = nsv - psv - 1
    size[0] = 0
    return kids[0], kids[1], parent, size


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
    cover = _decompose_binary_links(len(values), B, *_cartesian_links(values))
    blob = _write_blob("binary", cover.n, cover.shape_bps, cover.shape_id, cover.fields)
    return RMQIndex(NavIndex(cover), cover.n, blob)


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
