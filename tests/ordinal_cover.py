"""The paper's ordinal Farzan-Munro cover (Farzan & Munro, "A uniform
paradigm to succinctly encode various families of trees", Algorithmica
2014), kept as the reference that criterion 10 and the cover tests check.
No blob is written from it: an ordinal blob is the binary blob of
``fcns(t)``.

Sealing rule: a component is declared permanent the moment its size reaches
``B`` during greedy packing (checked after a node merges its children's
active components). Children are processed left to right. Ordinal micro trees
may share nodes, but only as the common root of every component containing
them; a node at which a seal happened never travels upward, which is what
keeps that invariant. An ordinal micro tree's shape row is its size and the
local parent of each node.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import chain

import numpy as np

from hypertree.cover import CoverStats, _follow, default_block
from hypertree.trees import OrdinalTree

# parent edge types of ordinal micro trees, in the order (i)..(v)
EDGE_NEW_LEFT, EDGE_CONT_LEFT, EDGE_NEW_RIGHT, EDGE_CONT_RIGHT, EDGE_EXTERNAL = range(5)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector and restore its state after.
    Code that allocates millions of small lists and tuples otherwise spends
    a third or more of its time in collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class OrdinalCover:
    """An ordinal cover as arrays. Micro trees are numbered in top-tier
    preorder, which is the preorder of their roots in the tree.

    - ``members[starts[i]:starts[i + 1]]``: the nodes of micro i in local
      preorder (ascending ids), so its root is ``members[starts[i]]``;
    - ``shape_id[i]`` indexes ``shape_bps``, the BP strings of the distinct
      local shapes;
    - ``fields[i]``: the micro tree's connections, one row per micro tree.

    Micro trees share a node only as the root of each. Shape ids number the
    distinct shapes in the order the micro trees first name them.
    ``fields[i]`` is micro i's external portal, its local preorder id and
    the 1-based child rank at which the external children go in ((0, 0) for
    none), and its parent edge type (``EDGE_*``). The top tier is an
    ``OrdinalTree`` with a dummy root, node 1; micro i is node i + 2.
    """

    __slots__ = ("top_tier", "B", "n", "members", "starts", "shape_id",
                 "shape_bps", "fields")

    def __init__(self, top_tier, B, n, members, starts, shape_id, shape_bps, fields):
        self.top_tier = top_tier
        self.B = B
        self.n = n
        self.members = members
        self.starts = starts
        self.shape_id = shape_id
        self.shape_bps: list[str] = shape_bps
        self.fields = fields


class _Comp:
    """A component of the ordinal decomposition."""

    __slots__ = ("members", "permanent", "left_att", "right_att", "ext_att")

    def __init__(self, members):
        self.members = members
        self.permanent = False
        self.left_att: list[list["_Comp"]] = []
        self.right_att: list[list["_Comp"]] = []
        self.ext_att: tuple[list["_Comp"], int, int] | None = None


# ---------------------------------------------------------------------------
# ordinal decomposition

# the greedy loop allocates lists per node; collecting them doubles its time
@_gc_paused()
def decompose_ordinal(t: OrdinalTree, B: int | None = None) -> OrdinalCover:
    n = t.n
    if n < 1:
        raise ValueError("cannot decompose the empty tree")
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    children = t.children
    parent, size = _parent_size(t)
    size = size.tolist()

    ret: list[_Comp | None] = [None] * (n + 1)
    rooted: dict[int, list[_Comp]] = {}
    sealed: list[_Comp] = []

    def seal(c: _Comp):
        c.permanent = True
        sealed.append(c)
        rooted.setdefault(min(c.members), []).append(c)

    for v in range(n, 0, -1):
        kids = children[v]
        heavy = [c for c in kids if size[c] >= B]
        if len(heavy) >= 2:
            mode = ("branch", set(heavy))
        elif len(heavy) == 1 and ret[heavy[0]].permanent:
            mode = ("gap", heavy[0])
        else:
            mode = None
        ret[v] = _pack(v, kids, ret, seal, rooted, B, mode)

    if not ret[t.root].permanent:
        seal(ret[t.root])
    return _finalize_ordinal(t, B, parent, sealed, rooted)


def _pack(v, kids, ret, seal, rooted, B, mode) -> _Comp:
    """Greedy packing of v's children; returns the component containing v."""
    gap_child = mode[1] if mode and mode[0] == "gap" else None
    branch_heavy = mode[1] if mode and mode[0] == "branch" else None
    c: _Comp | None = None
    seals = 0
    pack_count = 0
    last_sealed: _Comp | None = None
    pending: list[int] = []

    def flush(target: _Comp):
        for hchild in pending:
            target.left_att.append(rooted[hchild])
        pending.clear()

    for u in kids:
        hc = ret[u]
        if u == gap_child:
            if c is None:
                c = _Comp([v])
            c.ext_att = (rooted[u], v, pack_count + 1)
            continue
        if branch_heavy is not None and u in branch_heavy:
            if not hc.permanent:
                seal(hc)
            if c is not None:
                seal(c)
                seals += 1
                last_sealed = c
                flush(c)
                c = None
                pack_count = 0
            if last_sealed is not None:
                last_sealed.right_att.append(rooted[u])
            else:
                pending.append(u)
            continue
        # light child, or the single heavy child with an active component
        if c is None:
            c = hc
            c.members.append(v)
        else:
            c.members.extend(hc.members)
            c.left_att.extend(hc.left_att)
            c.right_att.extend(hc.right_att)
            if hc.ext_att is not None:
                if c.ext_att is not None:
                    raise AssertionError("two external edges in one component")
                c.ext_att = hc.ext_att
        pack_count += 1
        if len(c.members) >= B:
            seal(c)
            seals += 1
            last_sealed = c
            if branch_heavy is not None:
                flush(c)
            c = None
            pack_count = 0

    if branch_heavy is not None:
        if c is not None:
            seal(c)
            flush(c)
            return c
        if last_sealed is not None:
            return last_sealed
        c = _Comp([v])
        seal(c)
        flush(c)
        return c
    if c is None:
        if last_sealed is not None:
            # children were consumed exactly by seals; v lives in the last one
            return last_sealed
        c = _Comp([v])  # leaf
    if seals and not c.permanent:
        seal(c)
    return c


def _finalize_ordinal(t: OrdinalTree, B: int, parent: np.ndarray, sealed: list[_Comp],
                      rooted: dict[int, list[_Comp]]) -> OrdinalCover:
    n = t.n
    root_groups = rooted.get(t.root, [])
    if not root_groups:
        raise AssertionError("no component rooted at the tree root")
    # DFS over the attachment structure = preorder of the dummy-rooted top tier
    order: list[_Comp] = []
    etype: list[int] = []
    kids_of: list[list[_Comp]] = []
    stack = [(c, EDGE_NEW_LEFT if k == 0 else EDGE_CONT_LEFT)
             for k, c in reversed(list(enumerate(root_groups)))]
    while stack:
        c, ty = stack.pop()
        order.append(c)
        etype.append(ty)
        kids: list[tuple[_Comp, int]] = []
        for group in c.left_att:
            for j, ch in enumerate(group):
                kids.append((ch, EDGE_NEW_LEFT if j == 0 else EDGE_CONT_LEFT))
        for group in c.right_att:
            for j, ch in enumerate(group):
                kids.append((ch, EDGE_NEW_RIGHT if j == 0 else EDGE_CONT_RIGHT))
        if c.ext_att is not None:
            for ch in c.ext_att[0]:
                kids.append((ch, EDGE_EXTERNAL))
        kids_of.append([k[0] for k in kids])
        stack.extend(reversed(kids))
    if len(order) != len(sealed):
        raise AssertionError("top tier does not reach every micro tree")
    m = len(order)
    index = {id(c): i for i, c in enumerate(order)}

    # members sorted by (micro, id): ascending ids are the local preorder
    sizes = np.fromiter((len(c.members) for c in order), np.int64, m)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    micro = np.repeat(np.arange(m), sizes)
    key = micro * (n + 1) + np.fromiter(
        chain.from_iterable(c.members for c in order), np.int64, int(starts[-1]))
    key.sort()
    members = key - micro * (n + 1)

    def local(i, v):
        """The local preorder id of member v of micro i."""
        return np.searchsorted(key, i * (n + 1) + v) - starts[i] + 1

    # shape id: one row (size, local parent of each local node) per micro,
    # compared as bytes; a member's local parent is its parent in the tree
    x = np.arange(1, len(members) + 1) - starts[micro]
    w = int(sizes.max())
    rows = np.zeros((m, 1 + w), dtype=np.int16 if w < 1 << 15 else np.int64)
    rows[:, 0] = sizes
    rows[micro, x] = np.where(x > 1, local(micro, parent[members]), 0)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # number the shapes in the order the micro trees first name them
    by_first = np.argsort(first)
    shape_id = np.argsort(by_first)[inverse.reshape(-1)]
    shape_bps = []
    for row in rows[first[by_first]].tolist():
        # node x is "(" then the closes down to node x + 1's depth
        mu, depth = row[0], [-1] + [0] * (row[0] + 1)
        for x in range(1, mu + 1):
            depth[x] = depth[row[x]] + 1
        shape_bps.append("".join("(" + ")" * (depth[x] - depth[x + 1] + 1)
                                 for x in range(1, mu + 1)))

    fields = np.zeros((m, 3), dtype=np.int64)
    fields[:, 2] = etype
    ext = [(i, *c.ext_att[1:]) for i, c in enumerate(order) if c.ext_att is not None]
    i, v, rank = np.array(ext, dtype=np.int64).reshape(-1, 3).T
    fields[i, :2] = np.column_stack((local(i, v), rank))

    ch_top = [[], [index[id(c)] + 2 for c in root_groups]]
    ch_top += [[index[id(c)] + 2 for c in kids] for kids in kids_of]
    return OrdinalCover(OrdinalTree(m + 1, ch_top), B, n, members, starts,
                        shape_id, shape_bps, fields)


def _ordinal_links(t: OrdinalTree):
    """The children of nodes 1..n in order, flattened, and each node's
    number of children."""
    deg = np.fromiter(map(len, t.children[1:]), np.int64, t.n)
    return np.fromiter(chain.from_iterable(t.children[1:]), np.int64, int(deg.sum())), deg


def _parent_size(t: OrdinalTree):
    """Each node's parent and subtree size (entry 0 is 0). A subtree ends
    at its last node in preorder, found by following last children with
    pointer jumping."""
    n = t.n
    ids = np.arange(n + 1)
    kids, deg = _ordinal_links(t)
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[kids] = np.repeat(ids[1:], deg)
    last = ids.copy()
    has = deg > 0
    last[1:][has] = kids[np.cumsum(deg)[has] - 1]
    size = _follow(last) - ids + 1
    size[0] = 0
    return parent, size


# ---------------------------------------------------------------------------
# validation

def validate_ordinal_cover(cover: OrdinalCover, t=None):
    """Check the ordinal cover's structural invariants, as
    ``hypertree.cover.validate_cover`` checks a binary one.

    Returns CoverStats if every invariant holds, otherwise the list of
    violation strings (violations are data, not exceptions). Passing the
    source tree enables the adjacency and heaviness checks.
    """
    out: list[str] = []
    if _validate_arrays(cover, out):
        _validate_ordinal(cover, t, out)
    if out:
        return out
    return _stats(cover, t)


def _stats(cover, t):
    heavy = light = 0
    if t is not None:
        parent, size = _parent_size(t)
        big = size >= cover.B
        heavy = int(np.count_nonzero(big))
        light = int(np.count_nonzero(big[parent[1:]] & (size[1:] < cover.B)))
    return CoverStats(len(cover.shape_id), heavy, light)


def _validate_arrays(cover, out: list[str]) -> bool:
    """The ranges and counts that the other checks index by. Returns False
    where one fails that they need."""
    n, B = cover.n, cover.B
    members, starts = np.asarray(cover.members), np.asarray(cover.starts)
    shape_id, fields = np.asarray(cover.shape_id), np.asarray(cover.fields)
    m = len(shape_id)
    if (m < 1 or members.ndim != 1 or starts.shape != (m + 1,)
            or fields.shape != (m, 3) or starts[0] != 0 or starts[-1] != len(members)):
        out.append("cover arrays have inconsistent lengths")
        return False
    mu = np.diff(starts)
    for i in np.flatnonzero((mu < 1) | (mu > 2 * B)).tolist():
        out.append(f"micro {i}: size {mu[i]} outside [1, {2 * B}]")
    if m > max(1, 8 * n // B):
        out.append(f"m={m} exceeds 8n/B")
    if (mu < 1).any():
        return False
    micro = np.repeat(np.arange(m), mu)
    for i in np.unique(micro[(members < 1) | (members > n)]).tolist():
        out.append(f"micro {i}: node id out of range")
    if shape_id.min() < 0 or shape_id.max() >= len(cover.shape_bps):
        out.append("shape id out of range")
        return False
    shape_mu = np.array([len(bp) // 2 for bp in cover.shape_bps])
    for i in np.flatnonzero(shape_mu[shape_id] != mu).tolist():
        out.append(f"micro {i}: shape size differs from member count")
    # each shape is a balanced BP string of one tree
    text = "".join(cover.shape_bps)
    opens = np.cumsum(np.frombuffer(text.encode(), dtype=np.uint8) == ord("("))
    excess = 2 * opens - np.arange(1, len(text) + 1)
    ends = np.cumsum([len(bp) for bp in cover.shape_bps]) - 1
    if not out and (not set(text) <= {"(", ")"} or excess.min() < 0 or excess[ends].any()
                    or np.count_nonzero(excess == 0) != len(ends)):
        out.append("a shape is not a balanced BP string")
    return not out


def _validate_ordinal(cover: OrdinalCover, t, out: list[str]):
    n, B = cover.n, cover.B
    members, starts = cover.members, cover.starts
    m = len(cover.shape_id)
    mu = np.diff(starts)
    micro = np.repeat(np.arange(m), mu)
    count = np.bincount(members, minlength=n + 1)
    for g in np.flatnonzero(count[1:] == 0).tolist():
        out.append(f"node {g + 1} not covered")
    # a node in several micro trees is the root of each
    at = np.flatnonzero((count[members] > 1) & (members != members[starts[micro]]))
    for g, i in zip(members[at].tolist(), micro[at].tolist()):
        out.append(f"node {g} shared but not the root of micro {i}")
    pos, rank, etype = cover.fields.T
    bad = (pos < 0) | (pos > mu) | (rank < 0) | ((pos == 0) != (rank == 0))
    bad |= (etype < 0) | (etype > EDGE_EXTERNAL)
    for i in np.flatnonzero(bad).tolist():
        out.append(f"micro {i}: fields out of range")
    # the top tier: micro i is node i + 2, each a child once; an external
    # portal holds the micro trees below it with edge type (v)
    top = cover.top_tier
    if top.n != m + 1 or len(top.children) != m + 2:
        out.append(f"top tier has {top.n} nodes, not m + 1={m + 1}")
        return
    kids, deg = _ordinal_links(top)
    kids -= 2
    if ((kids < 0) | (kids >= m)).any() or (np.bincount(kids, minlength=m) != 1).any():
        out.append("top tier does not reach every micro tree once")
        return
    up = np.repeat(np.arange(-1, m), deg)[etype[kids] == EDGE_EXTERNAL]
    has_ext = np.zeros(m, dtype=bool)
    has_ext[up[up >= 0]] = True
    for i in np.flatnonzero((pos != 0) & ~has_ext).tolist():
        out.append(f"micro {i}: external portal without children")
    for i in np.flatnonzero((pos == 0) & has_ext).tolist():
        out.append(f"micro {i}: external children without a portal")
    if t is None or out:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    _, size = _parent_size(t)
    roots = members[starts[:-1]]
    for i in np.flatnonzero(size[roots] < min(B, n)).tolist():
        out.append(f"micro {i}: root {roots[i]} is light")
    # a member's children that lie in its micro tree alone form one run in
    # sibling order, or two around a one-node gap, at most once per micro
    # tree (path-node packing)
    kids, deg = _ordinal_links(t)
    sole = np.full(n + 1, -1)
    sole[members] = micro
    sole[count != 1] = -1
    s = sole[kids]
    par = np.repeat(np.arange(1, n + 1), deg)
    cont = np.zeros(len(kids), dtype=bool)
    cont[1:] = (par[1:] == par[:-1]) & (s[1:] == s[:-1])
    start = (s >= 0) & ~cont
    pairs, runs = np.unique(par[start] * m + s[start], return_counts=True)
    held = np.isin(pairs, members * m + micro)
    pairs, runs = pairs[held], runs[held]
    for p, r in zip(pairs[runs > 2].tolist(), runs[runs > 2].tolist()):
        out.append(f"micro {p % m}: node {p // m} children split into {r} runs")
    for i in np.flatnonzero(np.bincount(pairs[runs == 2] % m, minlength=m) > 1).tolist():
        out.append(f"micro {i}: more than one child gap")
