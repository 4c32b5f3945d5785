"""Farzan-Munro tree covering: decomposition of binary and ordinal trees into
micro trees with bounded size and limited connections, the contracted top
tier, and an executable validator for the structural guarantees.

Sealing rule: a component is declared permanent the moment its size reaches
``B`` during greedy packing (checked after a node merges its children's
active components). Children are processed left to right. Ordinal micro trees
may share nodes, but only as the common root of every component containing
them; a node at which a seal happened never travels upward, which is what
keeps that invariant.
"""

from __future__ import annotations

import math

from .trees import BinaryTree, OrdinalTree, annotate

# parent edge types of ordinal micro trees, in the order (i)..(v)
EDGE_NEW_LEFT, EDGE_CONT_LEFT, EDGE_NEW_RIGHT, EDGE_CONT_RIGHT, EDGE_EXTERNAL = range(5)


def default_block(n: int) -> int:
    """Block parameter B = max(1, ceil(lg(n)/8))."""
    if n <= 1:
        return 1
    return max(1, math.ceil(math.log2(n) / 8))


class MicroTree:
    """One micro tree: local shape plus its connections to other micro trees.

    Portal null ranks are 0-based in the left-to-right (inorder) order of the
    local shape's null pointers.
    """

    __slots__ = (
        "shape", "local_to_global", "root_global",
        "left_portal", "right_portal", "left_slot", "right_slot",
        "left_child", "right_child",
        "ext_portal", "ext_children", "left_groups", "right_groups",
        "shared_root", "parent_edge_type",
    )

    def __init__(self):
        self.shape = None
        self.local_to_global: list[int] = [0]
        self.root_global = 0
        self.left_portal: int | None = None
        self.right_portal: int | None = None
        self.left_slot: tuple[int, int] | None = None   # (local node, 0=L 1=R)
        self.right_slot: tuple[int, int] | None = None
        self.left_child: int | None = None              # micro index
        self.right_child: int | None = None
        self.ext_portal: tuple[int, int] | None = None  # (local preorder pos, child rank)
        self.ext_children: list[int] = []
        self.left_groups: list[list[int]] = []
        self.right_groups: list[list[int]] = []
        self.shared_root = False
        self.parent_edge_type: int | None = None

    @property
    def size(self) -> int:
        return len(self.local_to_global) - 1


class CoverStats:
    __slots__ = ("m", "heavy_count", "max_light_trees")

    def __init__(self, m, heavy_count, max_light_trees):
        self.m = m
        self.heavy_count = heavy_count
        self.max_light_trees = max_light_trees

    def __repr__(self):
        return (f"CoverStats(m={self.m}, heavy_count={self.heavy_count}, "
                f"max_light_trees={self.max_light_trees})")


class BinaryCover:
    __slots__ = ("micro", "top_tier", "B", "n", "node_micro")

    def __init__(self, micro, top_tier, B, n, node_micro):
        self.micro: list[MicroTree] = micro        # in top-tier preorder
        self.top_tier: BinaryTree = top_tier
        self.B = B
        self.n = n
        self.node_micro: list[int] = node_micro    # global node -> micro index


class OrdinalCover:
    __slots__ = ("micro", "top_tier", "B", "n", "node_micros")

    def __init__(self, micro, top_tier, B, n, node_micros):
        self.micro: list[MicroTree] = micro        # in top-tier preorder
        self.top_tier: OrdinalTree = top_tier      # has a dummy root
        self.B = B
        self.n = n
        self.node_micros: list[list[int]] = node_micros


class _Comp:
    __slots__ = ("members", "edges", "permanent",
                 "portals", "left_att", "right_att", "ext_att")

    def __init__(self, members):
        self.members = members
        self.edges: list[tuple[int, int]] = []     # ordinal-only local edges
        self.permanent = False
        self.portals: list[tuple[int, int, "_Comp"]] = []  # binary (node, side, child)
        self.left_att: list[list["_Comp"]] = []
        self.right_att: list[list["_Comp"]] = []
        self.ext_att: tuple[list["_Comp"], int, int] | None = None


# ---------------------------------------------------------------------------
# binary decomposition

def decompose_binary(t: BinaryTree, B: int | None = None) -> BinaryCover:
    n = t.n
    if n < 1:
        raise ValueError("cannot decompose the empty tree")
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    left, right = t.left, t.right
    size = [0] * (n + 1)
    for v in range(n, 0, -1):
        size[v] = 1 + size[left[v]] + size[right[v]]

    # components as linked node lists: O(1) merging, plain int arrays
    nxt = [0] * (n + 1)
    heads: list[int] = [0]   # comp id 0 unused
    tails: list[int] = [0]
    csize: list[int] = [0]
    perm: list[bool] = [False]
    portals: dict[int, list[tuple[int, int, int]]] = {}  # cid -> (node, side, child cid)
    comp_of = [0] * (n + 1)
    sealed: list[int] = []

    for v in range(n, 0, -1):
        l, r = left[v], right[v]
        lc = comp_of[l] if l else 0
        rc = comp_of[r] if r else 0
        heavy_l = l != 0 and size[l] >= B
        heavy_r = r != 0 and size[r] >= B
        if heavy_l and heavy_r:
            # branching node: seal everything, v stays alone
            if not perm[lc]:
                perm[lc] = True
                sealed.append(lc)
            if not perm[rc]:
                perm[rc] = True
                sealed.append(rc)
            c = len(heads)
            heads.append(v)
            tails.append(v)
            csize.append(1)
            perm.append(True)
            sealed.append(c)
            portals[c] = [(v, 0, lc), (v, 1, rc)]
        else:
            if heavy_l or heavy_r:
                hc, other, side = (lc, rc, 0) if heavy_l else (rc, lc, 1)
                if perm[hc]:
                    c = len(heads)
                    heads.append(v)
                    tails.append(v)
                    csize.append(1)
                    perm.append(False)
                    portals[c] = [(v, side, hc)]
                else:
                    c = hc
                    nxt[v] = heads[c]
                    heads[c] = v
                    csize[c] += 1
            else:
                other = rc
                if lc:
                    c = lc
                    nxt[v] = heads[c]
                    heads[c] = v
                    csize[c] += 1
                else:
                    c = len(heads)
                    heads.append(v)
                    tails.append(v)
                    csize.append(1)
                    perm.append(False)
            if other:
                nxt[tails[c]] = heads[other]
                tails[c] = tails[other]
                csize[c] += csize[other]
                p2 = portals.pop(other, None)
                if p2:
                    pl = portals.get(c)
                    if pl is None:
                        portals[c] = p2
                    else:
                        pl.extend(p2)
            if csize[c] >= B and not perm[c]:
                perm[c] = True
                sealed.append(c)
        comp_of[v] = c

    rootc = comp_of[t.root]
    if not perm[rootc]:
        perm[rootc] = True
        sealed.append(rootc)
    return _finalize_binary(t, B, sealed, rootc, heads, nxt, csize, portals)


class _ShapeInfo:
    __slots__ = ("tree", "inorder", "left_size")

    def __init__(self, llocal, rlocal):
        mu = len(llocal) - 1
        self.tree = BinaryTree(mu, list(llocal), list(rlocal))
        ann = annotate(self.tree)
        self.inorder = ann.inorder_rank
        ls = [0] * (mu + 1)
        for j in range(1, mu + 1):
            ls[j] = ann.subtree_size[llocal[j]] if llocal[j] else 0
        self.left_size = ls


def _finalize_binary(t: BinaryTree, B: int, sealed: list[int], root_cid: int,
                     heads, nxt, csize, portals) -> BinaryCover:
    import numpy as np

    n = t.n
    m = len(sealed)
    # stamp each node with its (sealed) component index
    pre_id = [0] * (n + 1)
    for i, cid in enumerate(sealed):
        v = heads[cid]
        while v:
            pre_id[v] = i
            v = nxt[v]
    cid_to_i = {cid: i for i, cid in enumerate(sealed)}

    # group nodes by component, ascending ids (= local preorder); compute
    # local indices and the induced left/right structure, all vectorized
    comp_arr = np.asarray(pre_id, dtype=np.int64)
    perm = np.argsort(comp_arr[1:], kind="stable") + 1   # nodes grouped by comp
    sizes = np.bincount(comp_arr[1:], minlength=m)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    loc_sorted = np.arange(n, dtype=np.int64) - starts[comp_arr[perm]] + 1
    loc_of = np.zeros(n + 1, dtype=np.int64)
    loc_of[perm] = loc_sorted
    left_np = np.asarray(t.left, dtype=np.int64)[perm]
    right_np = np.asarray(t.right, dtype=np.int64)[perm]
    comp_ext = comp_arr.copy()
    comp_ext[0] = -1
    comp_sorted = comp_arr[perm]
    lloc = np.where((left_np != 0) & (comp_ext[left_np] == comp_sorted),
                    loc_of[left_np], 0).astype(np.int16)
    rloc = np.where((right_np != 0) & (comp_ext[right_np] == comp_sorted),
                    loc_of[right_np], 0).astype(np.int16)

    shape_registry: dict[tuple[bytes, bytes], _ShapeInfo] = {}
    nodes_sorted = perm.tolist()
    starts_list = starts.tolist()
    micros: list[MicroTree] = [None] * m  # type: ignore[list-item]
    infos_of: list[_ShapeInfo] = [None] * m  # type: ignore[list-item]
    new_micro = MicroTree.__new__
    for i in range(m):
        a = starts_list[i]
        b = starts_list[i + 1]
        key = (lloc[a:b].tobytes(), rloc[a:b].tobytes())
        info = shape_registry.get(key)
        if info is None:
            info = _ShapeInfo([0] + lloc[a:b].tolist(), [0] + rloc[a:b].tolist())
            shape_registry[key] = info
        infos_of[i] = info
        mt = new_micro(MicroTree)
        mem = nodes_sorted[a:b]
        mem.insert(0, 0)
        mt.local_to_global = mem
        mt.root_global = mem[1]
        mt.shape = info.tree
        mt.left_portal = mt.right_portal = None
        mt.left_slot = mt.right_slot = None
        mt.left_child = mt.right_child = None
        mt.ext_portal = None
        mt.ext_children = ()
        mt.left_groups = mt.right_groups = ()
        mt.shared_root = False
        mt.parent_edge_type = None
        micros[i] = mt

    ports: list[list[tuple[int, int, int, int]]] = [()] * m  # type: ignore[list-item]
    for cid, pl in portals.items():
        i = cid_to_i[cid]
        if len(pl) > 2:
            raise AssertionError("binary micro tree with >2 portals")
        info = infos_of[i]
        infos = []
        for (gv, side, child_cid) in pl:
            lv = int(loc_of[gv])
            thresh = lv + 1 if side == 0 else lv + info.left_size[lv] + 1
            infos.append((thresh, side, lv, cid_to_i[child_cid]))
        infos.sort(key=lambda x: (x[0], x[1]))
        ports[i] = infos

    # explicit top-tier DFS fixes the final micro order
    order: list[int] = []
    stack = [cid_to_i[root_cid]]
    while stack:
        i = stack.pop()
        order.append(i)
        pl = ports[i]
        for k in range(len(pl) - 1, -1, -1):
            stack.append(pl[k][3])
    if len(order) != m:
        raise AssertionError("top tier does not reach every micro tree")
    final_of = [0] * m
    for new, old in enumerate(order):
        final_of[old] = new

    node_micro_np = np.asarray(final_of, dtype=np.int64)[comp_arr]
    node_micro_np[0] = 0
    node_micro = node_micro_np.tolist()
    micros = [micros[old] for old in order]

    lft = [0] * (m + 1)
    rgt = [0] * (m + 1)
    for cid in portals:
        old = cid_to_i[cid]
        new = final_of[old]
        mt = micros[new]
        info = infos_of[old]
        for k, (_, side, lv, child_i) in enumerate(ports[old]):
            rank = info.inorder[lv] - 1 if side == 0 else info.inorder[lv]
            chid = final_of[child_i]
            if k == 0:
                mt.left_slot, mt.left_portal, mt.left_child = (lv, side), rank, chid
                lft[new + 1] = chid + 1
            else:
                mt.right_slot, mt.right_portal, mt.right_child = (lv, side), rank, chid
                rgt[new + 1] = chid + 1
    top = BinaryTree(m, lft, rgt)
    return BinaryCover(micros, top, B, n, node_micro)


# ---------------------------------------------------------------------------
# ordinal decomposition

def decompose_ordinal(t: OrdinalTree, B: int | None = None) -> OrdinalCover:
    n = t.n
    if n < 1:
        raise ValueError("cannot decompose the empty tree")
    if B is None:
        B = default_block(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    children = t.children
    size = [0] * (n + 1)
    for v in range(n, 0, -1):
        s = 1
        for c in children[v]:
            s += size[c]
        size[v] = s

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
    return _finalize_ordinal(t, B, sealed, rooted)


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
            c.edges.extend(hc.edges)
            c.left_att.extend(hc.left_att)
            c.right_att.extend(hc.right_att)
            if hc.ext_att is not None:
                if c.ext_att is not None:
                    raise AssertionError("two external edges in one component")
                c.ext_att = hc.ext_att
        c.edges.append((v, u))
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


def _finalize_ordinal(t: OrdinalTree, B: int, sealed: list[_Comp],
                      rooted: dict[int, list[_Comp]]) -> OrdinalCover:
    n = t.n
    root_groups = rooted.get(t.root, [])
    if not root_groups:
        raise AssertionError("no component rooted at the tree root")
    # DFS over the attachment structure = preorder of the dummy-rooted top tier
    order: list[_Comp] = []
    parent_type: dict[int, int] = {}
    children_of: dict[int, list[_Comp]] = {}
    stack: list[tuple[_Comp, int]] = []
    for k in range(len(root_groups) - 1, -1, -1):
        stack.append((root_groups[k], EDGE_NEW_LEFT if k == 0 else EDGE_CONT_LEFT))
    while stack:
        c, etype = stack.pop()
        parent_type[id(c)] = etype
        order.append(c)
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
        children_of[id(c)] = [k[0] for k in kids]
        stack.extend(reversed(kids))
    if len(order) != len(sealed):
        raise AssertionError("top tier does not reach every micro tree")

    index = {id(c): i for i, c in enumerate(order)}
    micros: list[MicroTree] = []
    node_micros: list[list[int]] = [[] for _ in range(n + 1)]
    for i, c in enumerate(order):
        c.members.sort()
        mem = c.members
        for g in mem:
            node_micros[g].append(i)
        mt = MicroTree()
        mt.local_to_global = [0] + mem
        mt.root_global = mem[0]
        loc = {g: j + 1 for j, g in enumerate(mem)}
        mu = len(mem)
        ch: list[list[int]] = [[] for _ in range(mu + 1)]
        for (p, u) in c.edges:
            ch[loc[p]].append(loc[u])
        mt.shape = OrdinalTree(mu, ch)
        mt.parent_edge_type = parent_type[id(c)]
        mt.left_groups = [[index[id(x)] for x in g] for g in c.left_att]
        mt.right_groups = [[index[id(x)] for x in g] for g in c.right_att]
        if c.ext_att is not None:
            group, pnode, rank = c.ext_att
            mt.ext_children = [index[id(x)] for x in group]
            mt.ext_portal = (loc[pnode], rank)
        micros.append(mt)
    for v in range(1, n + 1):
        if len(node_micros[v]) > 1:
            for i in node_micros[v]:
                micros[i].shared_root = True

    m = len(micros)
    ch_top: list[list[int]] = [[] for _ in range(m + 2)]
    ch_top[1] = [index[id(c)] + 2 for c in root_groups]
    for i, c in enumerate(order):
        ch_top[i + 2] = [index[id(x)] + 2 for x in children_of[id(c)]]
    top = OrdinalTree(m + 1, ch_top)
    return OrdinalCover(micros, top, B, n, node_micros)


# ---------------------------------------------------------------------------
# validation

def validate_cover(cover: BinaryCover | OrdinalCover, t=None):
    """Check the cover's structural invariants.

    Returns CoverStats if every invariant holds, otherwise the list of
    violation strings (violations are data, not exceptions). Passing the
    source tree enables the adjacency and heaviness checks.
    """
    out: list[str] = []
    if isinstance(cover, BinaryCover):
        _validate_binary(cover, t, out)
    else:
        _validate_ordinal(cover, t, out)
    if out:
        return out
    return _stats(cover, t)


def _stats(cover, t):
    heavy = 0
    light_max = 0
    if t is not None:
        size = annotate(t).subtree_size
        heavy = sum(1 for x in range(1, t.n + 1) if size[x] >= cover.B)
        if isinstance(t, OrdinalTree):
            kids_of = t.children
            for x in range(1, t.n + 1):
                if size[x] >= cover.B:
                    for c in kids_of[x]:
                        if size[c] < cover.B:
                            light_max += 1
        else:
            for x in range(1, t.n + 1):
                if size[x] >= cover.B:
                    for c in (t.left[x], t.right[x]):
                        if c and size[c] < cover.B:
                            light_max += 1
    return CoverStats(len(cover.micro), heavy, light_max)


def _hang_sizes_binary(cover: BinaryCover) -> list[int]:
    m = len(cover.micro)
    hang = [0] * m
    for i in range(m - 1, -1, -1):
        mt = cover.micro[i]
        s = mt.size
        for chi in (mt.left_child, mt.right_child):
            if chi is not None:
                s += hang[chi]
        hang[i] = s
    return hang


def _validate_binary(cover: BinaryCover, t, out: list[str]):
    n, B = cover.n, cover.B
    seen = [0] * (n + 1)
    for i, mt in enumerate(cover.micro):
        if not 1 <= mt.size <= 2 * B:
            out.append(f"micro {i}: size {mt.size} outside [1, {2 * B}]")
        if mt.shape.n != mt.size:
            out.append(f"micro {i}: shape size differs from member count")
            return
        for g in mt.local_to_global[1:]:
            if 1 <= g <= n:
                seen[g] += 1
            else:
                out.append(f"micro {i}: node id {g} out of range")
    for g in range(1, n + 1):
        if seen[g] != 1:
            out.append(f"node {g} covered {seen[g]} times")
    if len(cover.micro) > max(1, 8 * n // B):
        out.append(f"m={len(cover.micro)} exceeds 8n/B")
    hang = _hang_sizes_binary(cover)
    for i, mt in enumerate(cover.micro):
        if hang[i] < min(B, n):
            out.append(f"micro {i}: root subtree size {hang[i]} < B={B}")
        both = mt.left_slot is not None and mt.right_slot is not None
        if both:
            nonroot = sum(1 for s in (mt.left_slot, mt.right_slot) if s[0] != 1)
            if nonroot > 1:
                out.append(f"micro {i}: two portals, none at the root")
    if t is None:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    for i, mt in enumerate(cover.micro):
        loc = mt.local_to_global
        sh = mt.shape
        ok = True
        for j in range(1, mt.size + 1):
            g = loc[j]
            for side, gch in ((0, t.left[g]), (1, t.right[g])):
                lch = sh.left[j] if side == 0 else sh.right[j]
                inside = bool(gch) and cover.node_micro[gch] == i
                if inside != bool(lch) or (inside and loc[lch] != gch):
                    ok = False
        if not ok:
            out.append(f"micro {i}: local shape is not the induced subtree")
        for slot, chi in ((mt.left_slot, mt.left_child),
                          (mt.right_slot, mt.right_child)):
            if slot is None:
                continue
            gv = loc[slot[0]]
            target = t.left[gv] if slot[1] == 0 else t.right[gv]
            if chi is None or cover.micro[chi].root_global != target:
                out.append(f"micro {i}: portal does not match a tree edge")


def _validate_ordinal(cover: OrdinalCover, t, out: list[str]):
    n, B = cover.n, cover.B
    for g in range(1, n + 1):
        ms = cover.node_micros[g]
        if not ms:
            out.append(f"node {g} not covered")
        elif len(ms) > 1:
            for i in ms:
                if cover.micro[i].root_global != g:
                    out.append(f"node {g} shared but not the root of micro {i}")
    for i, mt in enumerate(cover.micro):
        if not 1 <= mt.size <= 2 * B:
            out.append(f"micro {i}: size {mt.size} outside [1, {2 * B}]")
        if mt.ext_portal is not None and not mt.ext_children:
            out.append(f"micro {i}: external portal without children")
    if len(cover.micro) > max(1, 8 * n // B):
        out.append(f"m={len(cover.micro)} exceeds 8n/B")
    if t is None:
        return
    if t.n != n:
        out.append("tree size mismatch")
        return
    size = annotate(t).subtree_size
    for i, mt in enumerate(cover.micro):
        if size[mt.root_global] < min(B, n):
            out.append(f"micro {i}: root {mt.root_global} is light")
    # per-member children inside the micro form one interval, with at most
    # one single-node gap per micro (path-node packing)
    for i, mt in enumerate(cover.micro):
        gaps = 0
        loc = mt.local_to_global
        for j in range(1, mt.size + 1):
            g = loc[j]
            runs = 0
            prev_in = False
            for cch in t.children[g]:
                now = cover.node_micros[cch] == [i]
                if now and not prev_in:
                    runs += 1
                prev_in = now
            if runs > 2:
                out.append(f"micro {i}: node {g} children split into {runs} runs")
            elif runs == 2:
                gaps += 1
        if gaps > 1:
            out.append(f"micro {i}: more than one child gap")
