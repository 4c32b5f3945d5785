import random
from itertools import accumulate

import pytest

from hypertree.bits import BitBuf
from hypertree.cover import BinaryCover
from hypertree.hypercodec import hs_encode_binary
from hypertree.trees import BinaryTree, OrdinalTree, bp_decode_binary, bp_decode_ordinal
from hypertree import sources as S

# The 20-node worked example: node label = inorder number, edges from the
# published drawing; subtree-size annotations (root 18/20 etc.) pin the
# structure. Its subtree-size entropy is ~28.74 bits.
FIGURE_EDGES = [
    (19, 20), (19, 10), (10, 16), (10, 9), (9, 5), (5, 7), (5, 4), (4, 2),
    (2, 3), (2, 1), (7, 8), (7, 6), (16, 18), (16, 14), (14, 15), (14, 13),
    (13, 12), (12, 11), (18, 17),
]

# BP under the recursive "(" L ")" R encoding (derived from the edges above)
FIGURE_BP = "((((((())()))(())()))((((())))())(()))()"
# the wrap-style string printed alongside the figure: "(" L R ")"
FIGURE_BP_WRAPPED = "((((((()()))(()())))((((()))())(())))())"


def figure_tree() -> BinaryTree:
    left = {i: 0 for i in range(1, 21)}
    right = {i: 0 for i in range(1, 21)}
    for p, c in FIGURE_EDGES:
        if c < p:
            left[p] = c
        else:
            right[p] = c
    return BinaryTree.from_links(19, left, right)


def random_bst(rng: random.Random, n: int) -> BinaryTree:
    left = {}
    right = {}
    stack = [(1, n, None, None)]
    root = None
    while stack:
        lo, hi, par, side = stack.pop()
        if lo > hi:
            continue
        r = rng.randint(lo, hi)
        left[r] = 0
        right[r] = 0
        if par is None:
            root = r
        elif side == 0:
            left[par] = r
        else:
            right[par] = r
        stack.append((lo, r - 1, r, 0))
        stack.append((r + 1, hi, r, 1))
    return BinaryTree.from_links(root, left, right)


def micro_shapes(cov) -> list:
    """Each micro tree's local shape, decoded from the cover's BP strings."""
    decode = bp_decode_binary if isinstance(cov, BinaryCover) else bp_decode_ordinal
    shapes = [decode(BitBuf(bp)) for bp in cov.shape_bps]
    return [shapes[k] for k in cov.shape_id.tolist()]


def induced_shapes(t, cov) -> list:
    """Each micro tree's shape as the subtree of ``t`` that its members
    induce, computed from ``t`` and the members alone."""
    out = []
    members, starts = cov.members.tolist(), cov.starts.tolist()
    for a, b in zip(starts, starts[1:]):
        loc = {g: j + 1 for j, g in enumerate(members[a:b])}
        if isinstance(t, BinaryTree):
            kids = [[0] + [loc.get(side[g], 0) for g in members[a:b]]
                    for side in (t.left, t.right)]
            out.append(BinaryTree(b - a, *kids))
        else:
            kids = [[loc[c] for c in t.children[g] if c in loc] for g in members[a:b]]
            out.append(OrdinalTree(b - a, [[]] + kids))
    return out


def shuffled_uniform(n: int, seed) -> BinaryTree:
    """A uniform binary tree of n nodes, drawn as ``sources.sample`` drew
    them before it shuffled with numpy: ``random.shuffle`` of n opens and
    n + 1 closes, rotated to just after the first prefix-sum minimum. Tests
    that pin bytes of uniform trees draw them here, so that their hashes
    follow the format and not the sampler."""
    arr = [1] * n + [0] * (n + 1)
    random.Random(seed).shuffle(arr)
    level = list(accumulate(2 * b - 1 for b in arr))
    first_min = level.index(min(level))
    return bp_decode_binary(BitBuf("".join(map(str, arr[first_min + 1:] + arr[:first_min]))))


def flipped_bst_blob() -> bytes:
    """A seeded BST blob with bit 60 flipped: the last bit of the header's
    stream length, so the CRC is looked for one bit early and a byte of
    data seems to follow it."""
    raw = bytearray(hs_encode_binary(S.sample(S.BstSource(), 398, 179)).to_bytes())
    raw[60 // 8] ^= 0x80 >> (60 % 8)
    return bytes(raw)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
