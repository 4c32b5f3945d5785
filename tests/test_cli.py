import hashlib
import json

import pytest

from conftest import FIGURE_BP, flipped_bst_blob, shuffled_uniform
from hypertree import sources as S
from hypertree.cli import main
from hypertree.cover import decompose_binary
from hypertree.hypercodec import (
    HsBlob, hs_encode_binary, hs_encode_ordinal, parse_binary_blob, write_hst,
)
from hypertree.rmq import rmq_build
from hypertree.trees import (
    BinaryTree, bp_decode_binary, bp_encode_binary, bp_encode_ordinal, parse_bp,
)


def run(*argv):
    return main(list(argv))


def test_encode_decode_roundtrip(tmp_path):
    src = tmp_path / "t.bp"
    src.write_text(FIGURE_BP + "\n")
    hst = tmp_path / "t.hst"
    out = tmp_path / "t2.bp"
    assert run("encode", "--kind", "binary", str(src), str(hst)) == 0
    assert run("decode", str(hst), str(out)) == 0
    assert out.read_text() == src.read_text()


def test_encode_decode_ordinal(tmp_path):
    src = tmp_path / "o.bp"
    src.write_text("(()()(()))\n")
    hst = tmp_path / "o.hst"
    out = tmp_path / "o2.bp"
    assert run("encode", "--kind", "ordinal", "--block", "2", str(src), str(hst)) == 0
    assert run("decode", str(hst), str(out)) == 0
    assert out.read_text() == src.read_text()


def test_encode_rejects_malformed(tmp_path, capsys):
    src = tmp_path / "bad.bp"
    src.write_text("(()\n")
    hst = tmp_path / "bad.hst"
    assert run("encode", "--kind", "binary", str(src), str(hst)) == 1
    assert "error:" in capsys.readouterr().err


def test_decode_rejects_flipped_blob(tmp_path, capsys):
    hst = tmp_path / "flip.hst"
    hst.write_bytes(flipped_bst_blob())
    assert run("decode", str(hst), str(tmp_path / "out.bp")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the reader names the part and the payload bit where it failed
    assert "in the crc, at payload bit 1104" in err


def test_decode_rejects_ordinal_forest_blob(tmp_path, capsys):
    # the binary blob of a tree whose root has a right child, as an ordinal
    # blob, codes a forest
    blob = hs_encode_binary(BinaryTree(3, [0, 2, 0, 0], [0, 3, 0, 0]))
    hst = tmp_path / "forest.hst"
    write_hst(str(hst), HsBlob("ordinal", blob.bits))
    assert run("decode", str(hst), str(tmp_path / "out.bp")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "in the codewords" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as se:
        run("encode", "--kind", "weird", "a", "b")
    assert se.value.code == 2


def test_sample_deterministic(tmp_path):
    a = tmp_path / "a.bp"
    b = tmp_path / "b.bp"
    assert run("sample", "--source", "bst", "--size", "50", "--seed", "9",
               "--count", "4", "--out", str(a)) == 0
    assert run("sample", "--source", "bst", "--size", "50", "--seed", "9",
               "--count", "4", "--out", str(b)) == 0
    assert a.read_text() == b.read_text()
    assert len(a.read_text().splitlines()) == 4


def test_sample_every_cli_source(tmp_path):
    for spec, size in [("bst", 40), ("uniform", 40), ("binomial:0.5", 40),
                       ("almostpath:2", 40), ("fringebalanced:1", 41),
                       ("avl-size", 20), ("avl-height", 4), ("llrb", 12),
                       ("wb:2/7", 15), ("motzkin", 64),
                       ("memoryless:0.25,0.25,0.25,0.25", 64),
                       ("composition", 40), ("lrm", 40)]:
        out = tmp_path / "s.bp"
        assert run("sample", "--source", spec, "--size", str(size),
                   "--seed", "1", "--out", str(out)) == 0, spec
        assert out.read_text().strip(), spec


def test_analyze_figure_tree(tmp_path, capsys):
    src = tmp_path / "t.bp"
    src.write_text(FIGURE_BP + "\n")
    assert run("analyze", "--source", "bst", str(src)) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["n"] == 20
    assert abs(row["logProbBits"] - 28.74) < 0.01
    assert row["space"]["total"] > 0
    # default B = 1 for 20 nodes: one single-node micro tree per node
    assert row["m"] == 20 and row["distinctShapes"] == 1
    assert row["meanMicroSize"] == 1.0
    assert row["distinctSymbols"] == _distinct_symbols(FIGURE_BP, None)
    assert run("analyze", "--block", "3", str(src)) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["B"] == 3 and 1 <= row["distinctShapes"] <= row["m"]
    assert row["meanMicroSize"] == 20 / row["m"]
    assert row["distinctSymbols"] == _distinct_symbols(FIGURE_BP, 3)


def _distinct_symbols(bp: str, B) -> int:
    """The number of distinct (shape, portal fields) pairs of the cover."""
    cov = decompose_binary(bp_decode_binary(parse_bp(bp)), B)
    return len({(cov.shape_bps[k], *f)
                for k, f in zip(cov.shape_id.tolist(), cov.fields.tolist())})


def test_analyze_rejects_source_of_other_kind(tmp_path, capsys):
    src = tmp_path / "b.bp"
    src.write_text("(())()\n")
    assert run("analyze", "--source", "lrm", "--kind", "binary", str(src)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert run("analyze", "--source", "bst", "--kind", "ordinal", str(src)) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_ordinal_and_dump(tmp_path, capsys):
    src = tmp_path / "o.bp"
    src.write_text("(()()())\n")
    assert run("analyze", "--source", "lrm", "--order", "1",
               "--dump-cover", str(src)) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["kind"] == "ordinal"
    assert "shapeEntropy" in row and "cover" in row


def test_analyze_ordinal_reports_its_blob(tmp_path, capsys):
    # the space and the micro-tree count are those of the blob that
    # ``encode`` writes
    t = S.sample(S.LrmSource(), 500, 17)
    src = tmp_path / "o.bp"
    src.write_text(bp_encode_ordinal(t).to_paren() + "\n")
    for B in (2, 5):
        assert run("analyze", "--kind", "ordinal", "--block", str(B), str(src)) == 0
        row = json.loads(capsys.readouterr().out)
        blob = hs_encode_ordinal(t, B)
        assert row["space"]["total"] == len(blob)
        assert row["m"] == len(parse_binary_blob(HsBlob("binary", blob.bits)).shape_id)


def test_rmq_commands(tmp_path, capsys):
    arr = tmp_path / "a.txt"
    arr.write_text("2 3 4 1 6 5 7 9 10 8\n")
    hst = tmp_path / "a.hst"
    assert run("rmq", "build", str(arr), str(hst)) == 0
    assert hst.read_bytes() == rmq_build([2, 3, 4, 1, 6, 5, 7, 9, 10, 8]).blob.to_bytes()
    assert run("rmq", "query", str(hst), "5", "8") == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run("rmq", "query", str(hst), "1", "10") == 0
    assert capsys.readouterr().out.strip() == "4"
    for i, j in [("4", "2"), ("0", "3"), ("2", "11")]:
        assert run("rmq", "query", str(hst), i, j) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
    assert run("rmq", "runs", str(arr)) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["r"] == 4
    bad = tmp_path / "bad.txt"
    bad.write_text("\n")
    assert run("rmq", "runs", str(bad)) == 1


def test_bench_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bench", "--source", "bst", "--sizes", "64,256", "--seed", "7",
            "--reps", "2"]
    assert run(*args, "--csv", str(a)) == 0
    assert run(*args, "--csv", str(b)) == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("source,n,replicate,seed,B,m,bitsTotal")
    assert len(lines) == 1 + 4
    row = lines[1].split(",")
    header = lines[0].split(",")
    total = int(row[header.index("bitsTotal")])
    parts = sum(int(row[header.index(k)]) for k in
                ["headerBits", "topTierBits", "codebookBits", "codewordBits",
                 "portalBits", "edgeTypeBits"])
    assert total == parts


def test_bench_ordinal_source(tmp_path):
    out = tmp_path / "o.csv"
    assert run("bench", "--source", "lrm", "--sizes", "128", "--seed", "3",
               "--reps", "2", "--csv", str(out)) == 0
    assert len(out.read_text().splitlines()) == 3


# ``analyze --dump-cover`` of seeded trees: one binary tree (B = 3), as the
# dump read before the covers became arrays, and one ordinal tree (B = 2),
# whose dump is the binary cover of its fcns tree
DUMP_PINNED = {
    ("bst", 3, "binary"): [
        {"i": 0, "leftPortal": 2, "nodes": [1, 2], "root": 1},
        {"i": 1, "leftPortal": 0, "nodes": [3], "rightPortal": 1, "root": 3},
        {"i": 2, "leftPortal": 0, "nodes": [4], "rightPortal": 1, "root": 4},
        {"i": 3, "nodes": [5, 6, 7, 8], "root": 5},
        {"i": 4, "nodes": [9, 10, 11], "root": 9},
        {"i": 5, "leftPortal": 0, "nodes": [12, 23, 24], "root": 12},
        {"i": 6, "leftPortal": 3, "nodes": [13, 14, 15, 16], "root": 13},
        {"i": 7, "leftPortal": 3, "nodes": [17, 18, 19], "root": 17},
        {"i": 8, "nodes": [20, 21, 22], "root": 20}],
    ("lrm", 2, "ordinal"): [
        {"i": 0, "leftPortal": 0, "nodes": [1], "root": 1},
        {"i": 1, "leftPortal": 3, "nodes": [2, 3, 4], "root": 2},
        {"i": 2, "leftPortal": 0, "nodes": [5], "rightPortal": 1, "root": 5},
        {"i": 3, "nodes": [6, 7], "root": 6},
        {"i": 4, "leftPortal": 1, "nodes": [8, 9], "root": 8},
        {"i": 5, "leftPortal": 0, "nodes": [10], "rightPortal": 1, "root": 10},
        {"i": 6, "leftPortal": 1, "nodes": [11], "root": 11},
        {"i": 7, "nodes": [12, 13], "root": 12},
        {"i": 8, "leftPortal": 0, "nodes": [14], "rightPortal": 1, "root": 14},
        {"i": 9, "nodes": [15, 16], "root": 15},
        {"i": 10, "leftPortal": 0, "nodes": [17], "root": 17},
        {"i": 11, "leftPortal": 1, "nodes": [18, 19], "root": 18},
        {"i": 12, "leftPortal": 1, "nodes": [20, 21], "root": 20},
        {"i": 13, "nodes": [22, 23, 24], "root": 22}],
}
# the same dumps of two seeded trees per source, at B = 1, 3 and 5, hashed
DUMP_PINNED_SHA256 = "e4db4ff889ebec11cdec5aa69cd8dc996fe092f98f557d7c16fa2f4b6516e4c5"


def _dumps(tmp_path, capsys, spec, size, seed, count, kind, blocks):
    src = tmp_path / "t.bp"
    if spec == "uniform":
        # the trees `sample` drew before it shuffled with numpy, so that the
        # hash follows the dump format and not the sampler
        src.write_text("".join(
            bp_encode_binary(shuffled_uniform(size, S.derive_seed(seed, spec, size, rep)))
            .to_paren() + "\n" for rep in range(count)))
    else:
        assert run("sample", "--source", spec, "--size", str(size), "--seed", str(seed),
                   "--count", str(count), "--out", str(src)) == 0
    for B in blocks:
        assert run("analyze", "--kind", kind, "--block", str(B), "--dump-cover", str(src)) == 0
        yield from (json.loads(line)["cover"]
                    for line in capsys.readouterr().out.splitlines())


def test_analyze_dump_cover_pinned(tmp_path, capsys):
    for (spec, B, kind), want in DUMP_PINNED.items():
        assert list(_dumps(tmp_path, capsys, spec, 24, 3, 1, kind, [B])) == [want]
    h = hashlib.sha256()
    for spec, kind in (("bst", "binary"), ("uniform", "binary"),
                       ("lrm", "ordinal"), ("composition", "ordinal")):
        for dump in _dumps(tmp_path, capsys, spec, 400, 4, 2, kind, (1, 3, 5)):
            h.update(json.dumps(dump, sort_keys=True).encode())
    assert h.hexdigest() == DUMP_PINNED_SHA256
