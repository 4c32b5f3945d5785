"""The two workloads. Each samples its input with the package's samplers, then
runs whole rounds of the same operations against the public API until the
run's seconds are spent, checking every output against `reference`.

Both workloads run the same round on a pair of inputs: a binary tree of N
nodes and an array of N distinct values whose min-rooted Cartesian tree is
that tree. `uniform-tree` samples the tree and derives the array;
`random-perm` samples the array and derives the tree. A round encodes the
tree to `.hst` bytes, decodes them, builds a navigation index from them, runs
scalar queries on it, builds an RMQ index over the array and runs batched
range-minimum queries on it, so every workload reports every metric.

Load is one closed loop in one process: each call is made after the
previous one returns. Every timing is CPU time: of the process
(`time.process_time`) for throughputs and set-up, of the calling thread
(`time.thread_time_ns`, the cheaper clock) for per-call latencies. CPU time
leaves out the time a shared host gives to other machines; the code is
single-threaded and does no I/O, so on an unshared machine it equals wall
time.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

import hypertree as ht
from hypertree import sources as S
from reference import (ArgminTable, BinaryReference, cartesian_children, deep_size,
                       is_cartesian_tree)

N = 1 << 17                 # tree nodes = array elements
SETUP_REPEATS = 5           # samplings per run; setup_s takes their median
QUERIES_PER_ROUND = 50_000  # scalar navigation calls per round
FIRST_BATCH = 1_000         # the query_many call that builds the lazy tables
WARM_BATCHES = 5            # warm query_many calls per round
BATCH = 100_000             # intervals per warm call
SCALAR_OPS = ["lca", "parent", "subtree_size", "inorder_rank", "inorder_select"]
# per-layer name -> key in blob.parts; binary blobs have no edge types
BLOB_PARTS = {"header": "header", "top_tier": "topTierBP", "codebook": "codebook",
              "codewords": "codewords", "portals": "portals", "huffman": "huffman"}

# CPU seconds one gauge pass takes at the reference speed. The 2-vCPU
# machine of the README's reference figures took 0.028-0.041 s.
GAUGE_REF_S = 0.04

cpu = time.process_time
wall = time.perf_counter


def _median(values, unit: str):
    """(median, unit), or None when every round that would give a value
    failed."""
    return (statistics.median(values), unit) if values else None


class Gauge:
    """The machine's speed, measured between the steps of a run.

    One pass builds the Cartesian tree of a fixed permutation of 2^14 values
    and its traversal tables, with the benchmark's own code and the garbage
    collector off, so no change to the package moves it. The shared host
    this benchmark was tuned on ran the same code at speeds up to 1.5x apart
    from one minute to the next, and every step's CPU time moved with it;
    the ratio of a step's time to the gauge's moved about a third as much.
    """

    SIZE = 1 << 14

    def __init__(self):
        self.values = np.random.default_rng(0).permutation(self.SIZE).tolist()
        self.seconds: list[float] = []

    def __call__(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = cpu()
        left, right = cartesian_children(self.values)
        BinaryReference(left, right, 1, self.SIZE)
        self.seconds.append(cpu() - t0)
        if enabled:
            gc.enable()

    def slowdown(self) -> float:
        """Mean pass time over the reference: above 1 on a slower machine."""
        return statistics.fmean(self.seconds) / GAUGE_REF_S


class Workload:
    """A workload's input, its round of checked operations and its metrics.
    Subclasses define sample, same_input and pair."""

    name = ""
    ops_per_round = 4 + QUERIES_PER_ROUND + FIRST_BATCH + WARM_BATCHES * BATCH

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tr = tracer
        self.gauge = Gauge()
        self.traced = False         # is the current round traced
        self.attempted = 0
        self.failed = 0             # raised, or returned a wrong answer
        self.parts: dict[str, int] = {}
        self.index = None           # the last round's NavIndex, for finish()
        self.index_bytes = None
        self.bits_per_node: list[float] = []
        # step -> [items done, CPU seconds] over the run's rounds
        self.work = {k: [0, 0.0] for k in ("encode", "decode", "index", "rmq_build", "warm")}
        self.latency_ns: list[np.ndarray] = []

    def derive(self, *label) -> int:
        return S.derive_seed("perfbench", self.name, self.seed, *label)

    def record(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    @contextmanager
    def phase(self, name: str):
        """Runs the gauge, then tags the spans of one step of a round; in a
        traced round, also records the step itself as the parent span of its
        calls."""
        self.gauge()
        if not self.traced:
            yield
            return
        self.tr.phase = name
        try:
            with self.tr.span("bench." + name):
                yield
        finally:
            self.tr.phase = ""

    def sample(self):
        raise NotImplementedError

    def same_input(self, a, b) -> bool:
        raise NotImplementedError

    def pair(self) -> None:
        """Sets self.tree and self.values from the sampled input."""
        raise NotImplementedError

    def prepare(self) -> None:
        """The other input of the pair, reference answers and query streams,
        made after set-up is timed."""
        self.pair()
        t, values = self.tree, self.values
        if not is_cartesian_tree(t.left, t.right, t.root, t.n, values):
            raise RuntimeError("the tree is not the Cartesian tree of the array")
        ref = BinaryReference(t.left, t.right, t.root, t.n)
        rng = random.Random(self.derive("queries"))
        q = QUERIES_PER_ROUND
        self.ops = [rng.randrange(len(SCALAR_OPS)) for _ in range(q)]
        self.xs = [rng.randint(1, N) for _ in range(q)]
        self.ys = [rng.randint(1, N) for _ in range(q)]
        op, x, y = (np.asarray(a, dtype=np.int64) for a in (self.ops, self.xs, self.ys))
        answers = [ref.lca(x, y), ref.parent[x], ref.size[x], ref.rank[x], ref.at_inorder[x]]
        expected = np.choose(op, answers).tolist()
        # the root's parent is None
        self.expected = [None if o == 1 and e == 0 else e for o, e in zip(self.ops, expected)]

        table = ArgminTable(values)
        nrng = np.random.default_rng(self.derive("intervals"))
        self.batches = []
        for size in [FIRST_BATCH] + [BATCH] * WARM_BATCHES:
            i = nrng.integers(1, N + 1, size)
            j = nrng.integers(1, N + 1, size)
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            self.batches.append((lo, hi, table.query(lo - 1, hi - 1) + 1))

    def finish(self) -> None:
        """Memory of the last round's index, walked after the timed window."""
        if self.index is not None:
            self.index_bytes = deep_size(self.index) / N

    def done(self, step: str, items: int, seconds: float) -> None:
        self.work[step][0] += items
        self.work[step][1] += seconds

    def rate(self, step: str, unit: str):
        """Items per CPU second of `step` over the whole run, the run's work
        over its time: it moves less between runs than a median of per-round
        rates. None when no round finished the step."""
        items, seconds = self.work[step]
        return (items / seconds, unit) if items else None

    def check_blob(self, blob, data: bytes) -> bool:
        """The parts add up to the payload, and the bytes are the 5-byte
        header and that payload, padded to a whole byte."""
        parts = blob.parts
        layout = sum(v for k, v in parts.items() if k not in ("huffman", "total"))
        self.parts = dict(parts)
        self.bits_per_node.append(8 * len(data) / N)
        return layout == len(blob) and len(data) == 5 + (len(blob) + 7) // 8

    def check_batch(self, got, want) -> None:
        got = np.asarray(got)
        self.record(len(want), int(np.count_nonzero(got != want)) if got.shape == want.shape
                    else len(want))

    def round(self):
        t = self.tree
        with self.phase("encode"):
            t0 = cpu()
            blob = ht.hs_encode_binary(t)
            data = blob.to_bytes()
            t1 = cpu()
        self.record(1, failed=not self.check_blob(blob, data))
        self.done("encode", N, t1 - t0)

        with self.phase("decode"):
            t0 = cpu()
            back = ht.hs_decode_binary(ht.HsBlob.from_bytes(data))
            t1 = cpu()
        self.record(1, failed=not (back.n == t.n and back.left == t.left
                                   and back.right == t.right))
        self.done("decode", N, t1 - t0)

        with self.phase("index"):
            t0 = cpu()
            nav = ht.build_nav(ht.HsBlob.from_bytes(data))
            t1 = cpu()
        self.record(1)      # its answers are checked below
        self.done("index", N, t1 - t0)
        with self.phase("queries"):
            got, lat = self.stream(nav)
        failed = 0
        if got != self.expected:
            failed = sum(1 for a, b in zip(got, self.expected) if a != b)
        self.record(len(got), failed)
        self.latency_ns.append(lat)
        self.index = nav

        (lo, hi, want), warm = self.batches[0], self.batches[1:]
        with self.phase("rmq_build"):
            t0 = cpu()
            idx = ht.rmq_build(self.values)
            t1 = cpu()
        self.record(1)      # its answers are checked below
        with self.phase("first_batch"):
            t2 = cpu()
            got = idx.query_many(lo, hi)
            t3 = cpu()
        self.check_batch(got, want)
        self.done("rmq_build", N, (t1 - t0) + (t3 - t2))
        spent = 0.0
        with self.phase("warm"):
            for lo, hi, want in warm:
                t0 = cpu()
                got = idx.query_many(lo, hi)
                spent += cpu() - t0
                self.check_batch(got, want)
        self.done("warm", WARM_BATCHES * BATCH, spent)

    def stream(self, nav):
        ns = time.thread_time_ns
        lca = nav.lca
        unary = [None, nav.parent, nav.subtree_size, nav.inorder_rank, nav.inorder_select]
        q = len(self.ops)
        got = [None] * q
        lat = np.empty(q, dtype=np.int64)
        for k, (op, x, y) in enumerate(zip(self.ops, self.xs, self.ys)):
            if op == 0:
                s = ns()
                r = lca(x, y)
                e = ns()
            else:
                f = unary[op]
                s = ns()
                r = f(x)
                e = ns()
            got[k] = r
            lat[k] = e - s
        return got, lat

    def metrics(self):
        out = {
            "encode_nodes_per_s": self.rate("encode", "nodes/s"),
            "decode_nodes_per_s": self.rate("decode", "nodes/s"),
            "bits_per_node": _median(self.bits_per_node, "bits/node"),
            "index_build_nodes_per_s": self.rate("index", "nodes/s"),
            "rmq_build_elements_per_s": self.rate("rmq_build", "elements/s"),
            "rmq_queries_per_s": self.rate("warm", "queries/s"),
        }
        if self.index_bytes is not None:
            out["index_bytes_per_node"] = (self.index_bytes, "bytes/node")
        if self.latency_ns:
            lat_us = np.concatenate(self.latency_ns) / 1e3
            out["nav_query_us.p50"] = (float(np.percentile(lat_us, 50)), "us")
            out["nav_query_us.p99"] = (float(np.percentile(lat_us, 99)), "us")
        return out

    def layer_metrics(self, spans):
        per_batch = 1 / WARM_BATCHES
        out = {
            # both calls of a round: hs_encode_binary and rmq_build
            "cover.decompose_s": spans.per_round("cover.decompose", own=True),
            "hypercodec.encode_s": spans.per_round("hypercodec.encode", own=True),
            "hypercodec.decode_s": spans.per_round("hypercodec.decode", "decode"),
            "hypercodec.parse_s": spans.per_round("hypercodec.parse", "index"),
            "navigate.index_build_s": spans.per_round("navigate.index_build", "index", own=True),
            "rmq.cartesian_tree_s": spans.per_round("rmq.cartesian_tree", "rmq_build"),
            "navigate.from_cover_s": spans.per_round("navigate.from_cover", "rmq_build"),
            "navigate.first_batch_s": spans.per_round("rmq.query_many", "first_batch"),
            "navigate.batch_select_s": spans.per_round("navigate.batch_select", "warm", scale=per_batch),
            "navigate.batch_lca_s": spans.per_round("navigate.batch_lca", "warm", scale=per_batch),
            "navigate.batch_rank_s": spans.per_round("navigate.batch_rank", "warm", scale=per_batch),
        }
        for op in SCALAR_OPS:
            out[f"navigate.{op}_us"] = spans.per_call_us(f"navigate.{op}", "queries")
        out.update({f"hypercodec.{name}_bpn": (self.parts[key] / N, "bits/node")
                    for name, key in BLOB_PARTS.items() if key in self.parts})
        return out


class UniformTree(Workload):
    """A uniform binary tree; the array holds, at inorder position k, the
    preorder number of the k-th node, so its Cartesian tree is the tree."""

    name = "uniform-tree"

    def sample(self):
        self.tree = S.sample(S.UniformSource(), N, self.derive())
        return self.tree

    def same_input(self, a, b):
        return a.n == b.n and a.left == b.left and a.right == b.right

    def pair(self):
        # nodes are numbered in preorder, so the inorder walk gives the array
        t = self.tree
        values, stack, v = [], [], t.root
        while stack or v:
            while v:
                stack.append(v)
                v = t.left[v]
            v = stack.pop()
            values.append(v)
            v = t.right[v]
        self.values = values


class RandomPerm(Workload):
    """A uniform random permutation of 0..N-1 and its Cartesian tree, which
    is distributed as a random binary search tree."""

    name = "random-perm"

    def sample(self):
        # the package has no permutation sampler; the draw is seeded through
        # its derive_seed and traced under the same span name as sample()
        with self.tr.span("sources.sample") if self.traced else nullcontext():
            rng = np.random.default_rng(self.derive())
            self.values = rng.permutation(N).tolist()
        return self.values

    def same_input(self, a, b):
        return a == b

    def pair(self):
        left, right = cartesian_children(self.values)
        self.tree = ht.BinaryTree(N, left, right)


WORKLOADS = {w.name: w for w in (UniformTree, RandomPerm)}


class SpanStats:
    """Per-layer figures from the spans of the traced rounds."""

    def __init__(self, tracer, rounds: list[int]):
        self.tr = tracer
        self.rounds = rounds

    def per_round(self, name, phase=None, own=False, scale=1.0):
        """Median over traced rounds of the seconds spent in `name` during
        `phase` (any phase if None); `own` counts self time only. A function
        that the code no longer has, or that a round did not call, counts
        0 s."""
        vals = []
        for r in self.rounds:
            spans = self.tr.select(name, r, phase)
            ns = sum(s[5] if own else s[3] - s[2] for s in spans)
            vals.append(ns / 1e9 * scale)
        return _median(vals, "s")

    def per_call_us(self, name, phase):
        durs = [s[3] - s[2] for r in self.rounds for s in self.tr.select(name, r, phase)]
        return (statistics.median(durs) / 1e3, "us") if durs else None


def scaled(metrics: dict, slowdown: float) -> dict:
    """Timings at the reference speed: seconds and microseconds divided by
    the gauge's slowdown, rates multiplied by it; sizes as they are. The
    measured figures go to standard error."""
    print("perfbench: gauge slowdown %.4f; measured: %s" % (slowdown, ", ".join(
        f"{k} {v[0]:.6g}" for k, v in metrics.items() if v is not None)), file=sys.stderr)
    out = {}
    for k, v in metrics.items():
        if v is not None and v[1] in ("s", "us"):
            v = (v[0] / slowdown, v[1])
        elif v is not None and v[1].endswith("/s"):
            v = (v[0] * slowdown, v[1])
        out[k] = v
    return out


def run(name: str, seed: int, seconds: float, tracer, import_s: float) -> tuple[dict, int]:
    """One run: timed setup, then rounds until `seconds` are spent. With a
    tracer, odd rounds are traced and even ones give the untraced time the
    tracing overhead is measured against. Returns the result and the
    number of rounds run."""
    w = WORKLOADS[name](seed, tracer)
    correct = True
    sample_s = []
    first = None
    w.traced = tracer is not None
    if tracer:
        tracer.phase = "setup"
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            w.gauge()
            gc.collect()
            t0 = cpu()
            inp = w.sample()
            sample_s.append(cpu() - t0)
            if first is None:
                first = inp
            elif not w.same_input(first, inp):
                correct = False         # the same seed gave another input
    finally:
        if tracer:
            tracer.uninstall()
            tracer.phase = ""
    del first, inp
    w.traced = False
    w.prepare()

    walls: list[float] = []         # per round, for the window
    busy: list[float] = []          # per round, CPU seconds
    traced_rounds: list[int] = []
    min_rounds = 2 if tracer else 1
    start = wall()
    for r in itertools.count():
        w.index = None
        gc.collect()
        w.traced = tracer is not None and r % 2 == 1
        if w.traced:
            tracer.round = r
            traced_rounds.append(r)
            tracer.install()
        before = w.attempted
        w0, c0 = wall(), cpu()
        try:
            w.round()
        except Exception:       # a failing round must not end the run
            traceback.print_exc()
            left = w.ops_per_round - (w.attempted - before)
            w.attempted += left
            w.failed += left
        finally:
            if w.traced:
                tracer.uninstall()
        busy.append(cpu() - c0)
        walls.append(wall() - w0)
        if r + 1 >= min_rounds and wall() - start + statistics.mean(walls) > seconds:
            break
    w.traced = False
    w.finish()

    if tracer:
        spans = SpanStats(tracer, traced_rounds)
        untraced = [busy[r] for r in range(len(busy)) if r not in traced_rounds]
        traced = [busy[r] for r in traced_rounds]
        metrics = {
            "sources.sample_s": (statistics.median(
                s[3] - s[2] for s in tracer.select("sources.sample", phase="setup")) / 1e9, "s"),
            **w.layer_metrics(spans),
            "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        }
    else:
        metrics = {"setup_s": (import_s + statistics.median(sample_s), "s"), **w.metrics()}
        metrics = scaled(metrics, w.gauge.slowdown())
    return {
        "correct": correct and w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v is not None},
    }, len(walls)
