"""Batch command-line interface: encode/decode, sampling, analysis, RMQ, and
CSV benchmarks. All commands are pure functions of (flags, input bytes, seed).

Exit codes: 0 success, 1 malformed input, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bits import MalformedStream
from .cover import decompose_binary
from .hypercodec import (
    cover_stats, hs_decode_binary, hs_decode_ordinal, hs_encode_binary,
    hs_encode_ordinal, read_hst, write_hst,
)
from .rmq import RMQIndex, rmq_build, runs_profile
from .navigate import build_nav
from . import sources as srcs
from .trees import (
    BinaryTree, bp_decode_binary, bp_decode_ordinal, bp_encode_binary,
    bp_encode_ordinal, fcns, parse_bp,
)

CSV_FIELDS = [
    "source", "n", "replicate", "seed", "B", "m",
    "bitsTotal", "bitsPerNode", "headerBits", "topTierBits", "codebookBits",
    "codewordBits", "portalBits", "edgeTypeBits", "huffmanBits",
    "logProbBits", "entropyPerNode",
]


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _read_bp_file(path: str, kind: str):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != 1:
        raise MalformedStream(f"{path}: expected exactly one BP line, got {len(lines)}")
    buf = parse_bp(lines[0])
    if kind == "binary":
        return bp_decode_binary(buf)
    return bp_decode_ordinal(buf)


def _read_array(path: str) -> list[int]:
    with open(path) as fh:
        vals = [int(x) for x in fh.read().split()]
    if not vals:
        raise MalformedStream(f"{path}: empty array")
    return vals


def _encode(t, block):
    """The binary cover the blob of ``t`` is written from (that of
    ``fcns(t)`` for an ordinal tree), and the blob."""
    if isinstance(t, BinaryTree):
        cover = decompose_binary(t, block)
        return cover, hs_encode_binary(t, cover=cover)
    cover = decompose_binary(fcns(t), block)
    return cover, hs_encode_ordinal(t, cover=cover)


def cmd_encode(args) -> int:
    t = _read_bp_file(args.infile, args.kind)
    if args.kind == "binary":
        blob = hs_encode_binary(t, args.block)
    else:
        blob = hs_encode_ordinal(t, args.block)
    write_hst(args.outfile, blob)
    return 0


def cmd_decode(args) -> int:
    blob = read_hst(args.infile)
    if blob.kind == "binary":
        t = hs_decode_binary(blob)
        bp = bp_encode_binary(t)
    else:
        t = hs_decode_ordinal(blob)
        bp = bp_encode_ordinal(t)
    with open(args.outfile, "w") as fh:
        fh.write(bp.to_paren() + "\n")
    return 0


def cmd_sample(args) -> int:
    source = srcs.parse_source(args.source)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for rep in range(args.count):
            seed = srcs.derive_seed(args.seed, args.source, args.size, rep)
            t = srcs.sample(source, args.size, seed)
            bp = bp_encode_binary(t) if isinstance(t, BinaryTree) else bp_encode_ordinal(t)
            out.write(bp.to_paren() + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_analyze(args) -> int:
    source = srcs.parse_source(args.source) if args.source else None
    kind = args.kind or (source.kind if source is not None else "binary")
    if source is not None and source.kind != kind:
        return _fail(f"source {args.source} gives {source.kind} trees, not {kind} ones")
    with open(args.infile) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    for ln in lines:
        buf = parse_bp(ln)
        t = bp_decode_binary(buf) if kind == "binary" else bp_decode_ordinal(buf)
        row: dict = {"n": t.n, "kind": kind}
        if isinstance(t, BinaryTree):
            row["typeEntropy"] = round(srcs.type_entropy(t, args.order), 6)
            row["subtreeSizeEntropy"] = round(srcs.subtree_size_entropy(t), 6)
        else:
            row["degreeEntropy"] = round(srcs.degree_entropy(t), 6)
            row["shapeEntropy"] = round(srcs.shape_entropy(t, args.order), 6)
        cover, blob = _encode(t, args.block)
        if source is not None:
            rep = source.log_prob(t)
            row["logProbBits"] = round(rep.log_prob_bits, 6)
            row["entropyPerNode"] = round(rep.per_node, 6)
        row["space"] = blob.parts
        row["B"] = cover.B
        row.update(cover_stats(cover))
        if args.dump_cover:
            row["cover"] = _cover_dump(cover)
        print(json.dumps(row, sort_keys=True))
    return 0


def _cover_dump(cover):
    """Per micro tree of a binary cover: its nodes and its portals' null
    ranks."""
    members, starts = cover.members.tolist(), cover.starts.tolist()
    out = []
    for i, f in enumerate(cover.fields.tolist()):
        nodes = members[starts[i]:starts[i + 1]]
        d = {"i": i, "root": nodes[0], "nodes": nodes}
        for key, field in zip(("leftPortal", "rightPortal"), f):
            if field:
                d[key] = field - 1
        out.append(d)
    return out


def cmd_rmq(args) -> int:
    if args.action == "build":
        vals = _read_array(args.arg1)
        if args.arg2 is None:
            raise MalformedStream("rmq build needs IN OUT")
        write_hst(args.arg2, rmq_build(vals, args.block).blob)
        return 0
    if args.action == "query":
        blob = read_hst(args.arg1)
        nav = build_nav(blob)
        if args.arg2 is None or args.arg3 is None:
            raise MalformedStream("rmq query needs IN I J")
        i, j = int(args.arg2), int(args.arg3)
        try:
            print(RMQIndex(nav, nav.n, blob).query(i, j))
        except IndexError as exc:
            return _fail(str(exc))
        return 0
    if args.action == "runs":
        vals = _read_array(args.arg1)
        rp = runs_profile(vals)
        print(json.dumps({
            "n": rp.n, "r": rp.r, "s": rp.s,
            "boundBits": round(rp.bound_bits, 6),
            "narayanaBits": round(rp.narayana_bits, 6),
        }, sort_keys=True))
        return 0
    raise MalformedStream(f"unknown rmq action {args.action}")


def cmd_bench(args) -> int:
    source = srcs.parse_source(args.source)
    sizes = [int(x) for x in args.sizes.split(",") if x]
    if not sizes:
        raise MalformedStream("empty size list")
    rows = []
    for n in sizes:
        for rep in range(args.reps):
            seed = srcs.derive_seed(args.seed, args.source, n, rep)
            t = srcs.sample(source, n, seed)
            cover, blob = _encode(t, args.block)
            p = blob.parts
            lp = source.log_prob(t)
            rows.append({
                "source": args.source, "n": t.n, "replicate": rep, "seed": seed,
                "B": cover.B, "m": len(cover.shape_id),
                "bitsTotal": p["total"],
                "bitsPerNode": f"{p['total'] / t.n:.6f}",
                # the CSV keeps its columns: the CRC counts with the header
                "headerBits": p["header"] + p["crc"], "topTierBits": p["topTierBP"],
                "codebookBits": p["codebook"], "codewordBits": p["codewords"],
                "portalBits": p["portals"], "edgeTypeBits": p["edgeTypes"],
                "huffmanBits": p["huffman"],
                "logProbBits": f"{lp.log_prob_bits:.6f}",
                "entropyPerNode": f"{lp.per_node:.6f}",
            })
    with open(args.csv, "w") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in CSV_FIELDS) + "\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypertree",
                                 description="compressed tree codec toolbox")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="encode a BP text file to a .hst blob")
    p.add_argument("--kind", choices=["binary", "ordinal"], required=True)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode a .hst blob back to BP text")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("sample", help="sample trees from a source")
    p.add_argument("--source", required=True)
    p.add_argument("--size", type=int, required=True,
                   help="size (fixed-size families), height (avl-height), or size cap (processes)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("analyze", help="entropies, log-probability, and space report")
    p.add_argument("--source", default=None)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--kind", choices=["binary", "ordinal"], default=None)
    p.add_argument("--dump-cover", action="store_true")
    p.add_argument("infile")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("rmq", help="range-minimum utilities")
    p.add_argument("action", choices=["build", "query", "runs"])
    p.add_argument("arg1")
    p.add_argument("arg2", nargs="?")
    p.add_argument("arg3", nargs="?")
    p.add_argument("--block", type=int, default=None)
    p.set_defaults(fn=cmd_rmq)

    p = sub.add_parser("bench", help="CSV space benchmark over sampled trees")
    p.add_argument("--source", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MalformedStream as exc:
        if exc.part is None:
            return _fail(str(exc))
        return _fail(f"{exc} (in the {exc.part}, at payload bit {exc.bit_offset})")
    except (ValueError, srcs.EmptyClassError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
