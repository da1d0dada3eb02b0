"""Run one workload over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload fuller-adm --seeds 1-10 --seconds 20 [--trace 1]

Runs ``bench/run.py`` once per seed, one run at a time, from the root of the
checkout, and prints every run's metrics followed by the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third less first quartile, as a share of the median) of each metric, plus
the failed/attempted counts seen.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values, counts = {}, set()
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((out["failed"], out["attempted"]))
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
        print(f"seed {seed}: wall {wall:.1f} s, correct {out['correct']}, "
              f"failed/attempted {out['failed']}/{out['attempted']}, {shown}", flush=True)
    print(f"failed/attempted seen: {sorted(counts)}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}  (n={len(vals)})")


if __name__ == "__main__":
    main()
