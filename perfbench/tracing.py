"""Spans recorded from the benchmark's side of the package boundary.

`install` replaces each public function or method listed below by a wrapper
that records a span around the call, in every `hypertree` module that binds
it, so calls made from inside the package are caught too (`hs_encode_binary`
calling `decompose_binary`, `rmq_build` calling `cartesian_tree`). Names that
do not exist in the code being measured are skipped, so deleting one of them
does not break the benchmark. `uninstall` puts the originals back.

A span is (id, name, start_ns, end_ns, parent id, self_ns, round, phase).
Start and end are CPU-time stamps of the process (`time.process_time_ns`),
like the end-to-end throughputs. Self time is the span's duration minus
that of its direct children; calls are synchronous, so children never
overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name)
FUNCTIONS = [
    ("hypertree.sources.sampling", "sample", "sources.sample"),
    ("hypertree.cover", "decompose_binary", "cover.decompose"),
    ("hypertree.hypercodec", "hs_encode_binary", "hypercodec.encode"),
    ("hypertree.hypercodec", "hs_decode_binary", "hypercodec.decode"),
    ("hypertree.hypercodec", "parse_binary_blob", "hypercodec.parse"),
    ("hypertree.navigate", "build_nav", "navigate.index_build"),
    ("hypertree.rmq", "cartesian_tree", "rmq.cartesian_tree"),
    ("hypertree.rmq", "rmq_build", "rmq.build"),
]

# (module, class, attribute, span name)
METHODS = [
    ("hypertree.navigate", "NavIndex", "from_cover", "navigate.from_cover"),
    ("hypertree.navigate", "NavIndex", "lca", "navigate.lca"),
    ("hypertree.navigate", "NavIndex", "parent", "navigate.parent"),
    ("hypertree.navigate", "NavIndex", "subtree_size", "navigate.subtree_size"),
    ("hypertree.navigate", "NavIndex", "inorder_rank", "navigate.inorder_rank"),
    ("hypertree.navigate", "NavIndex", "inorder_select", "navigate.inorder_select"),
    ("hypertree.navigate", "NavIndex", "batch_select_local", "navigate.batch_select"),
    ("hypertree.navigate", "NavIndex", "batch_lca_local", "navigate.batch_lca"),
    ("hypertree.navigate", "NavIndex", "batch_inorder_rank", "navigate.batch_rank"),
    ("hypertree.rmq", "RMQIndex", "query_many", "rmq.query_many"),
]

FIELDS = ["id", "name", "start_ns", "end_ns", "parent", "self_ns", "round", "phase"]


class Tracer:
    """Keeps spans in memory; `write` saves them once, at the end."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[list] = []     # [id, start_ns, child_ns]
        self._undo: list[tuple] = []
        self._ids = itertools.count()
        self.round = -1
        self.phase = ""

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        clock = time.process_time_ns
        sid = next(self._ids)
        rec = [sid, clock(), 0]
        self._open.append(rec)
        try:
            yield
        finally:
            end = clock()
            self._open.pop()
            dur = end - rec[1]
            parent = -1
            if self._open:
                parent = self._open[-1][0]
                self._open[-1][2] += dur
            self.spans.append((sid, name, rec[1], end, parent, dur - rec[2],
                               self.round, self.phase))

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            return
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "hypertree" or k.startswith("hypertree."))]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(orig, name)
            for mod in loaded:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name))
            else:
                new = self.wrap(raw, name)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def select(self, name: str, rnd: int | None = None, phase: str | None = None):
        return [s for s in self.spans
                if s[1] == name and (rnd is None or s[6] == rnd)
                and (phase is None or s[7] == phase)]

    def write(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": FIELDS, "spans": self.spans}, fh)
