"""The compressed tree code: canonical Huffman over occurring micro-tree
shapes, a length-restricted escape, and the five-part (binary) / six-part
(ordinal) serialization with portals and parent edge types.

Blob layout (bit stream, MSB-first):

  binary:  gamma(n+1) gamma(m+1) | BP(top tier) | codebook |
           restricted codewords in top-tier DFS order | 2 portal fields/micro
  ordinal: same, with the dummy-rooted top tier, (pos, rank) portal fields,
           and 3 edge-type bits per micro appended.

The codebook stores gamma(|alphabet|+1), then per shape in canonical order
(codeword length ascending, BP string ascending) gamma(size+1), the BP bits,
and gamma(length+1); canonical codewords are reconstructed from lengths.
Portal fields are sized from the largest codebook shape so a blob decodes
without knowing B.

Both kinds share one writer (``_write_blob``) and one reader
(``_read_blob``). The writer builds each part as a numpy bit block and packs
them once: the top tier's BP (``bp_encode_binary`` places each node's open
paren directly), the codewords by gathering each distinct shape's restricted
codeword per micro tree, and the portal fields and edge types as fixed-width
blocks. The reader reads by the word: canonical codewords through a
first-code/limit table over a peeked window, the top tier's BP with numpy,
and the portal fields and edge types as fixed-width blocks. After the last
field only the zero byte padding may remain.

A blob holds the same five names as a cover: n, the top tier, the distinct
shapes' BP strings (the codebook, in canonical order), one shape id per
micro tree, and the portal fields (see ``cover.BinaryCover``). The writer
takes them, and the reader returns them; an escaped codeword must name a
codebook shape. The reader also makes every check that a binary layout
describes one tree, once and vectorized: the micro sizes add up to n, and
each portal field matches a top-tier child, names a null of its shape, and
the first lies below the second. ``hs_decode_binary`` then gathers the
global ids of ``cover.BinaryPlacement``, which the navigation index reads
too.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np

from .bits import BitBuf, BitCursor, MalformedStream, gamma_decode, gamma_encode
from .cover import (
    EDGE_CONT_LEFT, EDGE_CONT_RIGHT, EDGE_EXTERNAL, EDGE_NEW_LEFT, EDGE_NEW_RIGHT,
    BinaryCover, BinaryPlacement, OrdinalCover, decompose_binary, decompose_ordinal,
)
from .trees import (
    BinaryTree, OrdinalTree, bp_decode_binary, bp_decode_ordinal, bp_encode_binary,
    bp_encode_ordinal,
)

MAGIC = b"HST1"
KIND_BINARY = 0x00
KIND_ORDINAL = 0x01


class ShapeCode:
    """Canonical Huffman code over micro-tree shapes (keyed by BP string)."""

    def __init__(self, freq: dict[str, int]):
        if not freq:
            raise ValueError("need at least one shape")
        self.freq = dict(freq)
        lengths = _huffman_lengths(self.freq)
        # canonical order: (codeword length asc, BP string lex asc)
        self._canonize(sorted(lengths, key=lambda s: (lengths[s], s)), lengths)

    def _canonize(self, order: list[str], lengths: dict[str, int]) -> None:
        """Assign canonical codewords in ``order`` and the decode table: per
        distinct length, the limit of its codewords left-justified to
        ``max_len`` bits, and the offset from a codeword to its symbol's
        index in ``order``."""
        self.order = order
        self.index = {s: i for i, s in enumerate(order)}
        self.code_len = lengths
        self.max_len = max(lengths.values())
        self.codewords: dict[str, tuple[int, int]] = {}
        self._limits: list[int] = []
        self._lens: list[int] = []
        self._offsets: list[int] = []
        code = 0
        prev = 0
        for i, s in enumerate(order):
            L = lengths[s]
            code <<= L - prev
            if code >= (1 << L):
                raise MalformedStream("codebook lengths violate Kraft")
            self.codewords[s] = (code, L)
            if L != prev:
                self._lens.append(L)
                self._offsets.append(i - code)
                self._limits.append(0)
            code += 1
            self._limits[-1] = code << (self.max_len - L)
            prev = L

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.code_len.values())

    def total_bits(self, freq: dict[str, int] | None = None) -> int:
        f = self.freq if freq is None else freq
        return sum(self.code_len[s] * c for s, c in f.items())

    def read_codewords(self, cur: BitCursor, m: int) -> list[int]:
        """Read ``m`` restricted codewords (see ``restrict``) as indices
        into ``order``; an escape must spell a shape of ``order``.

        The cursor stands at the start of a window of ``span`` bits, of
        which the low ``have`` are unread; each codeword is decoded from its
        first 1 + ``max_len`` of them. The left-justified codewords of each
        length form one interval, so the first length whose limit exceeds
        them is the codeword's (Moffat & Turpin 1997). Moving the cursor on
        to a new window checks that the codewords read end in the stream.
        """
        L = self.max_len
        width = 1 + L
        span = max(width, 57)
        wmask, cmask = (1 << width) - 1, (1 << L) - 1
        limits, lens, offsets = self._limits, self._lens, self._offsets
        nlim = len(limits)
        ids = []
        word, have = cur.peek(span), span
        for _ in range(m):
            if have < width:
                cur.skip(span - have)
                word, have = cur.peek(span), span
            win = (word >> (have - width)) & wmask
            if not win >> L:  # escape
                cur.skip(span - have + 1)
                at = cur.pos
                sid = self.index.get(_read_sized_bp(cur))
                if sid is None:
                    raise MalformedStream("escaped shape not in the codebook",
                                          bit_offset=at)
                ids.append(sid)
                word, have = cur.peek(span), span
                continue
            win &= cmask
            k = bisect_right(limits, win)
            if k == nlim:
                raise MalformedStream("unknown Huffman codeword",
                                      bit_offset=cur.pos + span - have)
            ids.append(offsets[k] + (win >> (L - lens[k])))
            have -= 1 + lens[k]
        cur.skip(span - have)
        return ids

    @classmethod
    def from_lengths(cls, shapes_and_lengths: list[tuple[str, int]]) -> "ShapeCode":
        obj = cls.__new__(cls)
        obj.freq = {s: 1 for s, _ in shapes_and_lengths}
        lengths = dict(shapes_and_lengths)
        # a Huffman code over k > 1 symbols is no deeper than k - 1; the
        # bound also keeps a corrupt length from building a huge codeword
        k = len(shapes_and_lengths)
        if min(lengths.values()) < 1 or max(lengths.values()) > max(1, k - 1):
            raise MalformedStream("codeword length out of range")
        order = [s for s, _ in shapes_and_lengths]
        if sorted(order, key=lambda s: (lengths[s], s)) != order:
            raise MalformedStream("codebook not in canonical order")
        obj._canonize(order, lengths)
        return obj


def _huffman_lengths(freq: dict[str, int]) -> dict[str, int]:
    if len(freq) == 1:
        return {next(iter(freq)): 1}
    heap = []
    for tie, (s, f) in enumerate(sorted(freq.items())):
        heap.append((f, tie, s))
    heapq.heapify(heap)
    tie = len(freq)
    parent: dict[str | int, tuple] = {}
    nodes = 0
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        nodes += 1
        parent[a] = nodes
        parent[b] = nodes
        heapq.heappush(heap, (fa + fb, tie, nodes))
        tie += 1
    lengths = {}
    for s in freq:
        d = 0
        x: str | int = s
        while x in parent:
            x = parent[x]
            d += 1
        lengths[s] = d
    return lengths


def build_shape_code(shapes: list[str] | dict[str, int]) -> ShapeCode:
    """Build the canonical Huffman code for a sequence of shapes (BP strings)."""
    if isinstance(shapes, dict):
        return ShapeCode(shapes)
    freq: dict[str, int] = {}
    for s in shapes:
        freq[s] = freq.get(s, 0) + 1
    return ShapeCode(freq)


def _escape_threshold(size: int) -> int:
    return 2 * size + 2 * ((size + 1).bit_length() - 1)


def _escaped(code: ShapeCode, bp: str) -> bool:
    """Whether a shape is written as an escape: its codeword is longer than
    the restricted length allows (or the code lacks it)."""
    cw = code.codewords.get(bp)
    return cw is None or cw[1] > _escape_threshold(len(bp) // 2)


def restrict(code: ShapeCode, bp: str, out: BitBuf | None = None) -> BitBuf:
    """Length-restricted codeword: 1*C(shape) or the escape 0*gamma(|s|+1)*BP."""
    buf = out if out is not None else BitBuf()
    if _escaped(code, bp):
        buf.append_bit(0)
        _write_sized_bp(bp, buf)
    else:
        cw = code.codewords[bp]
        buf.append_bit(1)
        buf.append_bits(cw[0], cw[1])
    return buf


def _write_sized_bp(bp: str, buf: BitBuf) -> None:
    """gamma(size+1), then the BP bits of a shape."""
    gamma_encode(len(bp) // 2 + 1, buf)
    bits = BitBuf(bp)
    buf.append_bits(bits.to_int(), len(bits))


def _read_sized_bp(cur: BitCursor) -> str:
    """Inverse of ``_write_sized_bp``: the BP bits are read as one field."""
    width = 2 * (gamma_decode(cur) - 1)
    return BitBuf.from_int(cur.read_bits(width), width).to_paren()


class HsBlob:
    """A serialized tree: kind tag plus the self-delimiting bit stream."""

    __slots__ = ("kind", "bits", "parts")

    def __init__(self, kind: str, bits: BitBuf, parts: dict[str, int] | None = None):
        self.kind = kind
        self.bits = bits
        self.parts = parts or {}

    def __len__(self) -> int:
        return len(self.bits)

    def to_bytes(self) -> bytes:
        kind = KIND_BINARY if self.kind == "binary" else KIND_ORDINAL
        return MAGIC + bytes([kind]) + self.bits.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HsBlob":
        if len(data) < 5 or data[:4] != MAGIC:
            raise MalformedStream("not a HST1 blob")
        if data[4] == KIND_BINARY:
            kind = "binary"
        elif data[4] == KIND_ORDINAL:
            kind = "ordinal"
        else:
            raise MalformedStream(f"unknown kind byte {data[4]:#x}")
        payload = data[5:]
        return cls(kind, BitBuf.from_bytes(payload, 8 * len(payload)))


# ---------------------------------------------------------------------------
# shared pieces

def _emit_codebook(code: ShapeCode, buf: BitBuf) -> None:
    gamma_encode(len(code.order) + 1, buf)
    for s in code.order:
        _write_sized_bp(s, buf)
        gamma_encode(code.code_len[s] + 1, buf)


def _read_codebook(cur: BitCursor) -> ShapeCode:
    k = gamma_decode(cur) - 1
    if k < 1:
        raise MalformedStream("empty codebook")
    # (BP string, codeword length) per shape, in canonical order
    code = ShapeCode.from_lengths(
        [(_read_sized_bp(cur), gamma_decode(cur) - 1) for _ in range(k)])
    # each shape is balanced: the excess of all of them in a row never drops
    # below 0 and is 0 where each ends
    bits = BitBuf("".join(code.order)).to_array().astype(np.int64)
    excess = np.cumsum(2 * bits - 1)
    ends = np.cumsum([len(s) for s in code.order]) - 1
    if len(bits) and (excess.min() < 0 or excess[ends[ends >= 0]].any()):
        raise MalformedStream("codebook shape not balanced")
    return code


def _portal_width(code: ShapeCode) -> int:
    mu_star = max(len(s) // 2 for s in code.order)
    return max(1, math.ceil(math.log2(mu_star + 2)))


def _cover_shapes(cover: BinaryCover | OrdinalCover) -> tuple[list[str], np.ndarray]:
    """The distinct shape BP strings of a cover and each micro tree's index
    into them."""
    if isinstance(cover, BinaryCover):
        return cover.shape_bps, cover.shape_id
    index: dict[str, int] = {}
    ids = [index.setdefault(bp_encode_ordinal(mt.shape).to_paren(), len(index))
           for mt in cover.micro]
    return list(index), np.asarray(ids, dtype=np.int64)


def _shape_code(shape_bps: list[str], shape_id: np.ndarray) -> ShapeCode:
    freq = np.bincount(shape_id, minlength=len(shape_bps)).tolist()
    return build_shape_code(dict(zip(shape_bps, freq)))


def _field_block(values, width: int) -> np.ndarray:
    """Each value as a ``width``-bit field, MSB first, in one bit block."""
    values = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    return ((values >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8).ravel()


def _write_blob(kind: str, n: int, top_bits: np.ndarray, shape_bps: list[str],
                shape_id: np.ndarray, fields: np.ndarray, edge_types=()) -> HsBlob:
    """Serialize either kind from bit blocks, packed once: header, top-tier
    BP, codebook, restricted codewords (one per distinct shape, gathered per
    micro tree), one pair of portal fields per micro tree, 3-bit edge types.
    Micro tree i has shape ``shape_bps[shape_id[i]]`` and portal fields
    ``fields[i]``."""
    m = len(shape_id)
    code = _shape_code(shape_bps, shape_id)
    header = gamma_encode(n + 1)
    gamma_encode(m + 1, header)
    codebook = BitBuf()
    _emit_codebook(code, codebook)
    words = [restrict(code, s).to_array() for s in shape_bps]
    lens = np.array([len(wd) for wd in words], dtype=np.int64)
    table = np.zeros((len(words), int(lens.max())), dtype=np.uint8)
    for k, wd in enumerate(words):
        table[k, :len(wd)] = wd
    codewords = table[shape_id][np.arange(table.shape[1]) < lens[shape_id][:, None]]
    blocks = {
        "header": header.to_array(),
        "topTierBP": top_bits,
        "codebook": codebook.to_array(),
        "codewords": codewords,
        "portals": _field_block(fields, _portal_width(code)),
        "edgeTypes": _field_block(edge_types, 3),
    }
    parts = {name: len(block) for name, block in blocks.items()}
    bits = np.concatenate(list(blocks.values()))
    parts["huffman"] = code.total_bits()
    parts["total"] = len(bits)
    return HsBlob(kind, BitBuf.from_array(bits), parts)


def _read_blob(blob: HsBlob, kind: str):
    """Read every part of a blob of ``kind`` and check that only the byte
    padding follows. Returns (n, top tier, shape BP strings, shape id per
    micro, portal field pairs as an (m, 2) array, edge type per micro; no
    edge types for binary). A ``MalformedStream`` from here names the part
    and the payload bit."""
    if blob.kind != kind:
        raise MalformedStream(f"expected a {kind} blob, got {blob.kind}")
    cur = BitCursor(blob.bits)
    part = "header"
    try:
        n = gamma_decode(cur) - 1
        m = gamma_decode(cur) - 1
        if n < 1 or m < 1:
            raise MalformedStream("bad header")
        part = "top tier"
        # the ordinal top tier has a dummy root above the m micro trees
        width = 2 * m if kind == "binary" else 2 * m + 2
        top_bits = BitBuf.from_int(cur.read_bits(width), width)
        top = bp_decode_binary(top_bits) if kind == "binary" else bp_decode_ordinal(top_bits)
        part = "codebook"
        code = _read_codebook(cur)
        part = "codewords"
        shape_id = np.asarray(code.read_codewords(cur, m), dtype=np.int64)
        mu = np.array([len(s) // 2 for s in code.order], dtype=np.int64)[shape_id]
        if mu.min() < 1:
            raise MalformedStream("empty micro tree")
        # binary micro trees partition the nodes (ordinal ones share roots)
        if kind == "binary" and mu.sum() != n:
            raise MalformedStream("micro tree sizes do not add up to the header size")
        part = "portals"
        fields = cur.read_block(2 * m, _portal_width(code)).reshape(m, 2)
        if kind == "binary":
            _check_portals(top, mu, fields)
        types: list[int] = []
        if kind == "ordinal":
            part = "edge types"
            types = cur.read_block(m, 3).tolist()
            if max(types) > EDGE_EXTERNAL:
                raise MalformedStream("bad edge type")
        cur.finish()
    except MalformedStream as exc:
        exc.part = part
        if exc.bit_offset is None:
            exc.bit_offset = cur.pos
        raise
    return n, top, code.order, shape_id, fields, types


def _check_portals(top: BinaryTree, mu: np.ndarray, fields: np.ndarray) -> None:
    """Check that binary portal fields describe one tree: a field is set
    exactly where the top tier has that child, names one of the mu + 1 nulls
    of its shape, and a second portal lies after the first (a lone portal
    is the first). A layout that passes decodes to a tree of the header's
    size."""
    kids = np.array([top.left[1:], top.right[1:]]).T
    if ((fields != 0) != (kids != 0)).any():
        raise MalformedStream("portal fields do not match the top tier")
    if (fields > mu[:, None] + 1).any():
        raise MalformedStream("portal field past the last null")
    first, second = fields.T
    if ((second != 0) & ((first == 0) | (first >= second))).any():
        raise MalformedStream("portal fields out of order")


# ---------------------------------------------------------------------------
# binary encode / decode

BinaryLayout = namedtuple("BinaryLayout", "n top_tier shape_bps shape_id fields")


def hs_encode_binary(t: BinaryTree, B: int | None = None,
                     cover: BinaryCover | None = None) -> HsBlob:
    if t.n < 1:
        raise ValueError("cannot encode the empty tree")
    if cover is None:
        cover = decompose_binary(t, B)
    return _write_blob("binary", cover.n, bp_encode_binary(cover.top_tier).to_array(),
                       cover.shape_bps, cover.shape_id, cover.fields)


def parse_binary_blob(blob: HsBlob) -> BinaryLayout:
    """Parse and check the parts of a binary blob without materializing
    the tree: the layout that ``hs_encode_binary`` wrote from the cover."""
    return BinaryLayout(*_read_blob(blob, "binary")[:5])


def hs_decode_binary(blob: HsBlob) -> BinaryTree:
    """Gather each node's children by global id: a local child's id
    follows from the placement, the left one is always the next id, and a
    portal's child is the root of the micro tree hanging there."""
    layout = parse_binary_blob(blob)
    p = BinaryPlacement(layout)
    n = layout.n
    micro = np.repeat(np.arange(len(p.mu)), p.mu)
    x = np.arange(1, n + 1) - (np.cumsum(p.mu) - p.mu)[micro]
    s = p.sid[micro]
    g = p.global_id(micro, x)
    rx = p.tables.right[s, x]
    kids = np.zeros((2, n + 1), dtype=np.int64)
    kids[0, g] = np.where(p.tables.left[s, x] != 0, g + 1, 0)
    kids[1, g] = np.where(rx != 0, p.global_id(micro, rx), 0)
    k, i = np.nonzero(p.has)
    kids[p.side[k, i], p.global_id(i, p.owner[k, i])] = p.root_pre[p.child[k, i]]
    return BinaryTree(n, *kids.tolist())


# ---------------------------------------------------------------------------
# ordinal encode / decode

def hs_encode_ordinal(t: OrdinalTree, B: int | None = None,
                      cover: OrdinalCover | None = None) -> HsBlob:
    if t.n < 1:
        raise ValueError("cannot encode the empty tree")
    if cover is None:
        cover = decompose_ordinal(t, B)
    fields = [mt.ext_portal or (0, 0) for mt in cover.micro]
    types = [mt.parent_edge_type for mt in cover.micro]
    return _write_blob("ordinal", t.n, bp_encode_ordinal(cover.top_tier).to_array(),
                       *_cover_shapes(cover), fields, types)


def hs_decode_ordinal(blob: HsBlob) -> OrdinalTree:
    n, top, shape_bps, shape_id, fields, types = _read_blob(blob, "ordinal")
    m = len(shape_id)
    portals = fields.tolist()

    # the codebook's shapes decode as one forest; each string must be one tree
    forest = bp_decode_ordinal(BitBuf("".join(shape_bps)), forest=True)
    if [sh.n for sh in forest] != [len(s) // 2 for s in shape_bps]:
        raise MalformedStream("micro tree shape is not a single tree")
    local = [forest[k] for k in shape_id.tolist()]

    # expand micro trees bottom-up (reverse top-tier preorder); nodes are
    # nested python lists (the children lists), merged in place
    expanded: list[list | None] = [None] * m
    for i in range(m - 1, -1, -1):
        sh = local[i]
        objs: list[list] = [None] * (sh.n + 1)  # type: ignore[list-item]
        for v in range(sh.n, 0, -1):
            objs[v] = [objs[c] for c in sh.children[v]]
        kids_micro = [c - 2 for c in top.children[i + 2]]
        left_roots, right_roots, ext_root = _merge_groups(
            kids_micro, types, expanded)
        if ext_root is not None:
            pos, rank = portals[i]
            if not (1 <= pos <= sh.n) or not (1 <= rank <= len(objs[pos]) + 1):
                raise MalformedStream("bad external portal")
            objs[pos].insert(rank - 1, ext_root)
        elif portals[i][0] != 0:
            raise MalformedStream("portal without external children")
        root_obj = objs[1]
        if left_roots or right_roots:
            merged = left_roots + root_obj + right_roots
            root_obj[:] = merged
        expanded[i] = root_obj

    root_micros = [c - 2 for c in top.children[1]]
    if not root_micros:
        raise MalformedStream("empty top tier")
    if types[root_micros[0]] != EDGE_NEW_LEFT or any(
            types[j] != EDGE_CONT_LEFT for j in root_micros[1:]):
        raise MalformedStream("bad root edge types")
    root = expanded[root_micros[0]]
    for j in root_micros[1:]:
        root.extend(expanded[j])

    # number the object tree in preorder
    children: list[list[int]] = [[]]
    stack = [root]
    order: list[list] = []
    ids: dict[int, int] = {}
    cnt = 0
    while stack:
        obj = stack.pop()
        cnt += 1
        ids[id(obj)] = cnt
        children.append([])
        order.append(obj)
        stack.extend(reversed(obj))
    if cnt != n:
        raise MalformedStream("decoded tree size mismatch")
    for obj in order:
        children[ids[id(obj)]] = [ids[id(c)] for c in obj]
    return OrdinalTree(n, children)


def _merge_groups(kids_micro, types, expanded):
    left_roots: list[list] = []
    right_roots: list[list] = []
    ext_root: list | None = None
    for j in kids_micro:
        ty = types[j]
        ex = expanded[j]
        if ty == EDGE_NEW_LEFT:
            left_roots.append(ex)
        elif ty == EDGE_CONT_LEFT:
            if not left_roots:
                raise MalformedStream("continued child without a head")
            left_roots[-1].extend(ex)
        elif ty == EDGE_NEW_RIGHT:
            right_roots.append(ex)
        elif ty == EDGE_CONT_RIGHT:
            if not right_roots:
                raise MalformedStream("continued child without a head")
            right_roots[-1].extend(ex)
        else:  # external
            if ext_root is None:
                ext_root = ex
            else:
                ext_root.extend(ex)
    return left_roots, right_roots, ext_root


# ---------------------------------------------------------------------------

def space_report(t: BinaryTree | OrdinalTree, B: int | None = None) -> dict[str, int]:
    """Per-part bit counts of the encoding of ``t`` plus the unrestricted
    Huffman total (key ``huffman``)."""
    if isinstance(t, BinaryTree):
        blob = hs_encode_binary(t, B)
    else:
        blob = hs_encode_ordinal(t, B)
    return dict(blob.parts)


def cover_stats(cover: BinaryCover | OrdinalCover) -> dict:
    """Cover statistics for reports: the number of micro trees, distinct
    shapes, mean micro-tree size and the number of micro trees whose
    codeword is written as an escape."""
    bps, ids = _cover_shapes(cover)
    code = _shape_code(bps, ids)
    freq = code.freq
    return {
        "m": len(ids),
        "distinctShapes": len(freq),
        "meanMicroSize": sum(len(s) // 2 * f for s, f in freq.items()) / len(ids),
        "escapes": sum(f for s, f in freq.items() if _escaped(code, s)),
    }


def write_hst(path: str, blob: HsBlob) -> None:
    with open(path, "wb") as fh:
        fh.write(blob.to_bytes())


def read_hst(path: str) -> HsBlob:
    with open(path, "rb") as fh:
        return HsBlob.from_bytes(fh.read())
