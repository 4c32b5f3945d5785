"""Steadiness check: run each workload several times from one seed and
report, for every end-to-end metric, the median and the quartile spread
against the metric's bound in BENCHMARK.json, then run once on the next seed.

    python3 perfbench/steady.py --runs 10 --seed 1
    python3 perfbench/steady.py --workload random-perm --runs 5 --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    for wl in args.workload or names:
        second = args.seed + 1
        runs = [run_once(wl, args.seed, seconds) for _ in range(args.runs)]
        extra = run_once(wl, second, seconds)
        shares = sorted({r["failed"] / r["attempted"] for r in runs + [extra]})
        print(f"== {wl}: {args.runs} runs on seed {args.seed}, "
              f"then seed {second}; run_seconds {seconds}")
        print(f"   correct: {all(r['correct'] for r in runs + [extra])}; "
              f"failed/attempted: {', '.join(f'{s:.6g}' for s in shares)}")
        print(f"   {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  {'verdict':<9}{'seed ' + str(second):>14}{'vs med':>9}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not vals:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = bounds[name]
            verdict = ("steady" if spread <= bound / 3 else
                       "in bound" if spread <= bound else "WIDE")
            other = extra["metrics"].get(name, {}).get("value")
            dev = "" if other is None else f"{(other - med) / med:+.3f}"
            other = "" if other is None else f"{other:.6g}"
            print(f"   {name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                  f"{bound:>7}  {verdict:<9}{other:>14}{dev:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
