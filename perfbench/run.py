"""Run one benchmark workload against the hypertree sources of this checkout.

    python3 perfbench/run.py --workload uniform-tree --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics; with `--trace 1` they are the per-layer metrics, and
the spans are written to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 9
# One thread per process: numpy's BLAS would otherwise start a thread per
# core at import, whose start-up took the import from 0.09 s to 0.16 s of
# CPU time and nearly doubled its spread. Set before numpy is imported here,
# and inherited by the import timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_IMPORT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.process_time()
import hypertree, hypertree.sources
print(time.process_time() - t)
"""


def import_seconds() -> float:
    """Median CPU time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    if not (SRC / "hypertree" / "__init__.py").is_file():
        print(f"perfbench: no hypertree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, run

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_seconds()
    tracer = Tracer() if args.trace else None
    result, rounds = run(args.workload, args.seed, args.seconds, tracer, import_s)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds", file=sys.stderr)
    if tracer:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
