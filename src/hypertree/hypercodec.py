"""The compressed tree code, format HST2: every micro tree is one symbol of
a canonical prefix code, its shape together with its portal fields, and the
binary top tier is derived from the symbols, not written.

Blob layout (bit stream, MSB-first):

  gamma(r+1) gamma(n+1) gamma(m+1) | codebook |
  one codeword per micro tree, in top-tier preorder | CRC-32

A blob's kind byte is 0x00 for a binary tree and 0x02 for an ordinal one,
whose bit stream is that of the binary tree ``fcns(t)`` (first child ->
left, next sibling -> right; Knuth's natural correspondence), which keeps
the preorder ids. The reader refuses any other kind byte, such as 0x01, an
earlier ordinal layout with its own top tier and edge types.

r counts the bits after its own field, the CRC's included, so the reader
finds the stream's end and checks the CRC, ``zlib.crc32`` of every bit before
it (packed MSB-first and zero-padded to a byte), before it parses anything
else. Only the zero byte padding may follow the CRC.

A symbol is a shape's BP string and its two portal fields (1 + the null
rank of its first and second portal, 0 for none). The codebook is
gamma(k+1) and the k occurring symbols in strictly increasing canonical
order (codeword length, shape BP, fields): per symbol, gamma(1 + its length
less the previous one's), gamma(size+1), the BP bits and each portal field
in ceil(lg(size+2)) bits. Canonical codewords follow from the lengths,
which are at most L = max(16, ceil(lg k)): Huffman's where it is no deeper,
else package-merge (Larmore & Hirschberg 1990).

The binary top tier follows from the symbols: micro trees are numbered in
top-tier preorder, the first field is set exactly where the top tier has a
left child, the second where it has a right one, and a lone portal is the
first. So the reader returns the same five names as a cover, n, the top
tier, the distinct shapes' BP strings, one shape id per micro tree and the
portal fields (see ``cover.BinaryCover``), which the writer takes.

The writer finds the distinct symbols with one ``np.unique`` over packed
(shape id, fields) keys, and writes every part as fixed-width fields of one
numpy bit block (a gamma code is a field, and so is each BP bit), packed
once. The reader decodes every codeword through a 2^Lmax table of (symbol,
length) looked up at every bit position at once, then walks over every
fourth codeword start (Moffat & Turpin 1997), and gathers the shape ids and
fields from the symbol table. It checks once per distinct symbol that a
field names a null of its shape and that a second portal lies after the
first, and once, vectorized, that the micro sizes add up to n and that the
portal fields close the top tier exactly at the last micro tree.
``hs_decode_binary`` then gathers the global ids of
``cover.BinaryPlacement``, which the navigation index reads too;
``hs_decode_ordinal`` inverts ``fcns`` on the result, and refuses a binary
tree whose root has a right child, which would code a forest.
"""

from __future__ import annotations

import zlib
from collections import namedtuple

import numpy as np

from .bits import BitBuf, BitCursor, MalformedStream, gamma_decode
from .cover import BinaryCover, BinaryPlacement, OrdinalCover, decompose_binary
from .trees import BinaryTree, OrdinalTree, binary_from_child_flags, fcns, fcns_inverse

MAGIC = b"HST2"
KIND_BINARY = 0x00
KIND_ORDINAL = 0x02
CRC_BITS = 32


def _length_cap(k: int) -> int:
    """The longest codeword of a code over ``k`` symbols: max(16, ceil(lg k))."""
    return max(16, (k - 1).bit_length())


def _code_lengths(weights: list[int]) -> tuple[list[int], int]:
    """Codeword lengths, in the order of ``weights``, of an optimal prefix
    code whose codewords are at most ``_length_cap`` bits long, and the total
    cost of an unrestricted Huffman code.

    Huffman first, with two queues over the sorted weights (ties by index);
    only where it is deeper than the cap, package-merge: each level's list is
    the leaves merged with the pairs of the level below, and a leaf's length
    is the number of levels whose selected prefix holds it.
    """
    k = len(weights)
    if k == 1:
        return [1], weights[0]
    order = sorted(range(k), key=weights.__getitem__)
    ws = [weights[i] for i in order]
    # nodes 0..k-1 are the sorted leaves, k.. the merges in creation order
    parent = [0] * (2 * k - 1)
    merged: list[int] = []
    a = b = 0
    for node in range(k, 2 * k - 1):
        w = 0
        for _ in (0, 1):
            if a < k and (b == len(merged) or ws[a] <= merged[b]):
                w += ws[a]
                parent[a] = node
                a += 1
            else:
                w += merged[b]
                parent[k + b] = node
                b += 1
        merged.append(w)
    depth = [0] * (2 * k - 1)
    for node in range(2 * k - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    cap = _length_cap(k)
    lengths = depth[:k]
    if max(lengths) > cap:
        leaves = np.asarray(ws, dtype=np.int64)
        level_lists = [(leaves, np.ones(k, dtype=bool))]
        for _ in range(cap - 1):
            below = level_lists[-1][0]
            pairs = below[0:len(below) - 1:2] + below[1::2]
            items = np.concatenate((leaves, pairs))
            by = np.argsort(items, kind="stable")
            level_lists.append((items[by], by < k))
        lengths = np.zeros(k, dtype=np.int64)
        take = 2 * k - 2
        for _, is_leaf in reversed(level_lists):
            leaf_count = int(is_leaf[:take].sum())
            lengths[:leaf_count] += 1
            take = 2 * (take - leaf_count)
        lengths = lengths.tolist()
    out = [0] * k
    for i, length in zip(order, lengths):
        out[i] = length
    return out, sum(merged)


class ShapeCode:
    """Canonical prefix code over symbols: BP strings, or any keys that
    compare with each other, such as the (shape BP, fields) tuples of a
    blob. Lengths come from ``_code_lengths``; codewords are assigned in
    canonical order (length, then symbol). ``huffman_bits`` is the cost of
    the unrestricted Huffman code over ``freq``."""

    def __init__(self, freq: dict):
        if not freq:
            raise ValueError("need at least one symbol")
        self.freq = dict(freq)
        lengths, self.huffman_bits = _code_lengths(list(self.freq.values()))
        code_len = dict(zip(self.freq, lengths))
        self._canonize(sorted(self.freq, key=lambda s: (code_len[s], s)), code_len)

    def _canonize(self, order: list, lengths: dict) -> None:
        """Assign canonical codewords in ``order``, whose lengths do not
        decrease: left-justified to the longest, each codeword is the sum of
        the spans 2^(max - length) of the codewords before it."""
        self.order = order
        self.code_len = lengths
        lens = np.array([lengths[s] for s in order], dtype=np.int64)
        self.max_len = L = int(lens.max())
        ends = np.cumsum(1 << (L - lens))
        if ends[-1] > 1 << L:
            raise MalformedStream("codebook lengths violate Kraft")
        codes = (ends - (1 << (L - lens))) >> (L - lens)
        self.codewords = dict(zip(order, zip(codes.tolist(), lens.tolist())))

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.code_len.values())

    def total_bits(self, freq: dict | None = None) -> int:
        f = self.freq if freq is None else freq
        return sum(self.code_len[s] * c for s, c in f.items())

    def read_codewords(self, cur: BitCursor, m: int) -> np.ndarray:
        """Read ``m`` codewords that fill the rest of the cursor's stream,
        as indices into ``order``.

        Each symbol owns the 2^(Lmax - length) entries of a 2^Lmax table
        that start with its codeword, so one lookup of the Lmax-bit window
        at a bit position gives the codeword starting there (Moffat &
        Turpin 1997). The lookups are made at every position at once, and
        so is the jump from each position to the start four codewords on;
        the walk over every fourth codeword start is one step per four
        micro trees.
        """
        L = self.max_len
        lens = np.array([self.code_len[s] for s in self.order], dtype=np.int64)
        span = 1 << (L - lens)
        filled = int(span.sum())
        sym = np.repeat(np.arange(len(lens)), span)
        length = np.zeros(1 << L, dtype=np.int64)
        length[:filled] = np.repeat(lens, span)
        win = cur.windows(L)
        rest = len(win)
        if m > rest:
            raise MalformedStream("more codewords than bits", bit_offset=cur.pos)
        len_at = np.append(length[win], 0)
        # the next codeword's start after each position, and the second and
        # fourth next; the walk visits every fourth start, and gathers fill
        # in the three between
        step = np.minimum(np.arange(rest + 1) + len_at, rest)
        step2 = step[step]
        quads = np.empty((m + 3) // 4, dtype=np.int64)
        # memoryviews give and take Python ints without a list of them
        step4, out = memoryview(step2[step2]), memoryview(quads)
        p = 0
        for i in range(len(quads)):
            out[i] = p
            p = step4[p]
        starts = np.column_stack((quads, step[quads], step2[quads],
                                  step[step2[quads]])).reshape(-1)[:m]
        got = len_at[starts]
        if not got.all():
            at = int(starts[np.argmin(got != 0)])
            msg = "bit stream exhausted" if at == rest else "unknown Huffman codeword"
            raise MalformedStream(msg, bit_offset=cur.pos + at)
        end = int(starts[-1] + got[-1])
        if end != rest:
            msg = "bit stream exhausted" if end > rest else "trailing data after the last codeword"
            raise MalformedStream(msg, bit_offset=cur.pos + min(end, rest))
        cur.skip(rest)
        return sym[win[starts]]

    @classmethod
    def from_lengths(cls, symbols_and_lengths: list[tuple]) -> "ShapeCode":
        """The code a codebook lists: (symbol, length) pairs of distinct
        symbols in strictly increasing canonical order. A length runs from
        1 to the cap, and to k - 1 for k > 1 symbols, as no optimal code is
        deeper."""
        obj = cls.__new__(cls)
        obj.freq = {s: 1 for s, _ in symbols_and_lengths}
        obj.huffman_bits = None
        lengths = dict(symbols_and_lengths)
        k = len(symbols_and_lengths)
        longest = min(_length_cap(k), max(1, k - 1))
        if min(lengths.values()) < 1 or max(lengths.values()) > longest:
            raise MalformedStream("codeword length out of range")
        keys = [(l, s) for s, l in symbols_and_lengths]
        if any(a >= b for a, b in zip(keys, keys[1:])) or len(lengths) < k:
            raise MalformedStream("codebook not in strictly increasing canonical "
                                  "order, or a symbol listed twice")
        obj._canonize([s for s, _ in symbols_and_lengths], lengths)
        return obj


def build_shape_code(shapes: list | dict) -> ShapeCode:
    """Build the canonical code for a sequence of symbols, or for a dict of
    symbol frequencies."""
    if isinstance(shapes, dict):
        return ShapeCode(shapes)
    freq: dict = {}
    for s in shapes:
        freq[s] = freq.get(s, 0) + 1
    return ShapeCode(freq)


def _read_sized_bp(cur: BitCursor) -> str:
    """gamma(size+1), then the BP bits of a shape, read as one field."""
    width = 2 * (gamma_decode(cur) - 1)
    return BitBuf.from_int(cur.read_bits(width), width).to_paren()


def _field_width(bp: str) -> int:
    """Bits of a portal field of a shape: its values run from 0 to size + 1."""
    return (len(bp) // 2 + 1).bit_length()


def _payload_crc(data: bytes, nbits: int) -> int:
    """``zlib.crc32`` of the first ``nbits`` bits of ``data``, zero-padded
    to a byte."""
    whole, rest = divmod(nbits, 8)
    crc = zlib.crc32(memoryview(data)[:whole])
    if rest:
        crc = zlib.crc32(bytes([data[whole] & (0xFF << (8 - rest)) & 0xFF]), crc)
    return crc


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
            raise MalformedStream("not a HST2 blob")
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

def _symbols(shape_bps: list[str], shape_id: np.ndarray,
             fields: np.ndarray) -> tuple[list[tuple], np.ndarray, list[int]]:
    """The distinct (shape BP, *fields) symbols of the micro trees, each
    micro tree's index into them, and their counts."""
    rows = np.column_stack((shape_id, fields)).T
    dims = rows.max(axis=1) + 1
    # one int64 key per row: np.unique over rows (axis=0) is far slower
    keys, inverse, counts = np.unique(np.ravel_multi_index(rows, dims),
                                      return_inverse=True, return_counts=True)
    uniq = np.column_stack(np.unravel_index(keys, dims)).tolist()
    symbols = [(shape_bps[r[0]], *r[1:]) for r in uniq]
    return symbols, inverse, counts.tolist()


def _field_bits(values, widths) -> np.ndarray:
    """Each value as a field of its width, MSB first, in one bit block."""
    values, widths = np.asarray(values, dtype=np.int64), np.asarray(widths, dtype=np.int64)
    ends = np.cumsum(widths)
    shift = np.repeat(ends, widths) - 1 - np.arange(ends[-1])
    return ((np.repeat(values, widths) >> shift) & 1).astype(np.uint8)


def _gamma_widths(values) -> np.ndarray:
    """The width of the Elias gamma code of each value x >= 1, 2 lg x + 1:
    gamma(x) is x as a field of that width, its leading zeros the code's."""
    return 2 * np.frexp(values)[1] - 1


def _codebook_bits(code: ShapeCode) -> np.ndarray:
    """The codebook as one bit block: gamma(k+1), then per symbol in
    canonical order gamma(1 + its length less the previous one's),
    gamma(size+1), the BP bits and the two portal fields in
    ``_field_width`` bits, each BP bit a field of width 1."""
    symbols = code.order
    k = len(symbols)
    mu = np.array([len(s[0]) // 2 for s in symbols], dtype=np.int64)
    lens = np.array([code.code_len[s] for s in symbols], dtype=np.int64)
    gammas = np.array([np.diff(lens, prepend=0) + 1, mu + 1]).T
    fw = np.frexp(mu + 1)[1]
    # per symbol: two gamma fields, 2 mu BP bits, then two portal fields
    per = 4 + 2 * mu
    first = np.cumsum(per) - per + 1
    values = np.zeros(1 + int(per.sum()), dtype=np.int64)
    widths = np.ones_like(values)
    values[0] = k + 1
    widths[0] = _gamma_widths(k + 1)
    at = first[:, None] + [0, 1]
    values[at], widths[at] = gammas, _gamma_widths(gammas)
    bp_at = np.repeat(first + 2 - np.cumsum(2 * mu) + 2 * mu, 2 * mu) + np.arange(2 * mu.sum())
    values[bp_at] = BitBuf("".join(s[0] for s in symbols)).to_array()
    at = (first + 2 + 2 * mu)[:, None] + [0, 1]
    values[at], widths[at] = [s[1:] for s in symbols], fw[:, None]
    return _field_bits(values, widths)


def _write_blob(kind: str, n: int, shape_bps: list[str], shape_id: np.ndarray,
                fields: np.ndarray) -> HsBlob:
    """Serialize a binary layout from bit blocks, packed once: header,
    codebook, one codeword per micro tree (one per distinct symbol,
    gathered) and the CRC. Micro tree i has shape
    ``shape_bps[shape_id[i]]`` and the (m, 2) portal fields
    ``fields[i]``."""
    m = len(shape_id)
    symbols, inverse, counts = _symbols(shape_bps, shape_id, fields)
    code = ShapeCode(dict(zip(symbols, counts)))
    codebook = _codebook_bits(code)
    words = np.array([code.codewords[s] for s in symbols], dtype=np.int64)
    codewords = _field_bits(*words[inverse].T)
    # the header starts with the number of bits after its first field
    sizes = np.array([n + 1, m + 1])
    rest = _gamma_widths(sizes).sum() + len(codebook) + len(codewords) + CRC_BITS
    head = np.append(rest + 1, sizes)
    header = _field_bits(head, _gamma_widths(head))
    body = np.concatenate((header, codebook, codewords))
    crc = _payload_crc(np.packbits(body).tobytes(), len(body))
    bits = np.concatenate((body, _field_bits([crc], [CRC_BITS])))
    # the top tier is derived and the portal fields are in the codebook
    parts = {"header": len(header), "topTierBP": 0,
             "codebook": len(codebook), "codewords": len(codewords),
             "portals": 0, "edgeTypes": 0, "crc": CRC_BITS,
             "huffman": code.huffman_bits, "total": len(bits)}
    return HsBlob(kind, BitBuf.from_array(bits), parts)


def _read_codebook(cur: BitCursor) -> ShapeCode:
    """Read the codebook's symbols and lengths; check that each shape is
    one balanced BP string and, once per symbol, its portal fields."""
    k = gamma_decode(cur) - 1
    if k < 1:
        raise MalformedStream("empty codebook")
    listed = []
    length = 0
    for _ in range(k):
        length += gamma_decode(cur) - 1
        bp = _read_sized_bp(cur)
        if not bp:
            raise MalformedStream("empty micro tree")
        width = _field_width(bp)
        listed.append(((bp, cur.read_bits(width), cur.read_bits(width)), length))
    code = ShapeCode.from_lengths(listed)
    # each shape is balanced: the excess of all of them in a row never drops
    # below 0 and is 0 where each ends
    bps = [s[0] for s in code.order]
    bits = BitBuf("".join(bps)).to_array().astype(np.int64)
    excess = np.cumsum(2 * bits - 1)
    ends = np.cumsum([len(s) for s in bps]) - 1
    if excess.min() < 0 or excess[ends].any():
        raise MalformedStream("codebook shape not balanced")
    fields = np.array([s[1:] for s in code.order], dtype=np.int64)
    mu = np.array([len(s) // 2 for s in bps], dtype=np.int64)
    if (fields > mu[:, None] + 1).any():
        raise MalformedStream("portal field past the last null")
    first, second = fields.T
    if ((second != 0) & (first >= second)).any():
        raise MalformedStream("portal fields out of order")
    return code


BinaryLayout = namedtuple("BinaryLayout", "n top_tier shape_bps shape_id fields")


def _read_blob(blob: HsBlob, kind: str) -> tuple[BinaryLayout, int]:
    """Check the CRC, then read every part of a blob of ``kind``. Returns
    the ``BinaryLayout`` it codes and the payload bit at which its
    codewords start. A ``MalformedStream`` from here names the part and the
    payload bit."""
    if blob.kind != kind:
        raise MalformedStream(f"expected a {kind} blob, got {blob.kind}")
    cur = BitCursor(blob.bits)
    part = "header"
    try:
        end = gamma_decode(cur) - 1 + cur.pos
        part = "crc"
        if not cur.pos + CRC_BITS <= end <= len(blob.bits):
            raise MalformedStream("stream length out of range")
        BitCursor(blob.bits, end).finish()
        data = blob.bits.to_bytes()
        stored = BitCursor(blob.bits, end - CRC_BITS).read_bits(CRC_BITS)
        if stored != _payload_crc(data, end - CRC_BITS):
            raise MalformedStream("CRC mismatch", bit_offset=end - CRC_BITS)
        cur = BitCursor(BitBuf.from_bytes(data, end - CRC_BITS), cur.pos)
        part = "header"
        n = gamma_decode(cur) - 1
        m = gamma_decode(cur) - 1
        if n < 1 or m < 1:
            raise MalformedStream("bad header")
        part = "codebook"
        code = _read_codebook(cur)
        part = "codewords"
        words_at = cur.pos
        sym = code.read_codewords(cur, m)
        # the distinct shapes, in the order the symbols first name them
        index: dict[str, int] = {}
        sym_shape = np.array([index.setdefault(s[0], len(index)) for s in code.order],
                             dtype=np.int64)
        shape_bps = list(index)
        shape_id = sym_shape[sym]
        fields = np.array([s[1:] for s in code.order], dtype=np.int64)[sym]
        mu = np.array([len(s) // 2 for s in shape_bps], dtype=np.int64)[shape_id]
        if mu.sum() != n:
            raise MalformedStream("micro tree sizes do not add up to the header size")
        has = fields != 0
        if (has[:, 1] & ~has[:, 0]).any():
            raise MalformedStream("second portal without a first")
        top = binary_from_child_flags(has[:, 0], has[:, 1])
    except MalformedStream as exc:
        exc.part = part
        if exc.bit_offset is None:
            exc.bit_offset = cur.pos
        raise
    return BinaryLayout(n, top, shape_bps, shape_id, fields), words_at


# ---------------------------------------------------------------------------
# encode / decode

def hs_encode_binary(t: BinaryTree, B: int | None = None,
                     cover: BinaryCover | None = None) -> HsBlob:
    if t.n < 1:
        raise ValueError("cannot encode the empty tree")
    if cover is None:
        cover = decompose_binary(t, B)
    return _write_blob("binary", cover.n, cover.shape_bps, cover.shape_id, cover.fields)


def parse_binary_blob(blob: HsBlob) -> BinaryLayout:
    """Parse and check the parts of a binary blob without materializing
    the tree: the layout that ``hs_encode_binary`` wrote from the cover."""
    return _read_blob(blob, "binary")[0]


def hs_decode_binary(blob: HsBlob) -> BinaryTree:
    """Gather each node's children by global id from the placement (see
    ``BinaryPlacement.children``)."""
    layout = parse_binary_blob(blob)
    return BinaryTree(layout.n, *BinaryPlacement(layout).children().tolist())


def hs_encode_ordinal(t: OrdinalTree, B: int | None = None,
                      cover: BinaryCover | None = None) -> HsBlob:
    """The binary blob of ``fcns(t)`` under the ordinal kind; ``cover``, if
    given, is the binary cover of ``fcns(t)``."""
    if t.n < 1:
        raise ValueError("cannot encode the empty tree")
    if cover is None:
        cover = decompose_binary(fcns(t), B)
    return _write_blob("ordinal", cover.n, cover.shape_bps, cover.shape_id, cover.fields)


def hs_decode_ordinal(blob: HsBlob) -> OrdinalTree:
    """Decode the binary tree and invert ``fcns``. A root with a right
    child, a sibling, would make the blob a forest: the root lies in the
    first micro tree, so the fault is in the first codeword."""
    layout, words_at = _read_blob(blob, "ordinal")
    kids = BinaryPlacement(layout).children()
    if kids[1, 1]:
        raise MalformedStream("the root has a sibling: the blob codes a forest",
                              part="codewords", bit_offset=words_at)
    # the binary tree holds the placement's arrays, not lists: it only passes
    # through fcns_inverse, whose BP encoder reads arrays as they are
    return fcns_inverse(BinaryTree(layout.n, kids[0], kids[1]))[0]


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
    shapes, mean micro-tree size and distinct symbols (the codebook's size)."""
    ids = cover.shape_id
    return {
        "m": len(ids),
        "distinctShapes": len(np.unique(ids)),
        "meanMicroSize": len(cover.members) / len(ids),
        "distinctSymbols": len(_symbols(cover.shape_bps, ids, cover.fields)[0]),
    }


def write_hst(path: str, blob: HsBlob) -> None:
    with open(path, "wb") as fh:
        fh.write(blob.to_bytes())


def read_hst(path: str) -> HsBlob:
    with open(path, "rb") as fh:
        return HsBlob.from_bytes(fh.read())
