"""Run alternating parent/change benchmark pairs and write one summary file.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload combinatorial --pairs 10 --first-seed 2101 --out BENCH_21.json

``--parent`` and ``--change`` are the roots of two source checkouts; each
runs ``bench/run.py --trace 0`` from its own root, so each benchmarks its own
``src``, for the ``run_seconds`` that the change checkout's
``BENCHMARK.json`` fixes.  Pair ``i`` of a workload uses seed
``first_seed + i`` (the next workload's seeds follow on), and the side that
runs first alternates: the parent at even ``i``, the change at odd ``i``.
``--workload`` repeats.

The output holds the machine (CPU count, Python and numpy versions), each
side's commit and ``src`` digest, and per workload:

* ``records``: the run records ``bench/run.py`` wrote to ``bench/runs/``,
  unchanged, per side in pair order;
* ``summary``: for each end-to-end metric, the median and quartiles of each
  side (``statistics.quantiles(values, n=4)``, as ``bench/spread.py`` takes
  them) and the number of pairs in which the change read lower (and equal);
  the failed and attempted operation counts per side; whether
  ``objective_sum`` is equal seed by seed;
* ``seconds_by_kind`` (workloads that record it, such as ``combinatorial``):
  per kind of solve, the median over each run's passes, summarised the same
  way, so a change to one solver is judged on its own seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("solve_s", "setup_s", "peak_rss_mb", "objective_sum")
SIDES = ("parent", "change")


def _commit(root: Path):
    """The checkout's HEAD commit, or None when it is not a git work tree."""
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: Path) -> str:
    """sha256 over the checkout's ``src`` Python files, names and bytes, so a
    record names the code it measured also outside a git work tree."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run from ``root``; returns the record it wrote."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    record_path = root / "bench" / "runs" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record_path.read_text())


def _quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "iqr": q3 - q1}


def _compare(parent, change) -> dict:
    """Quartiles of both sides and the pairs in which the change read lower."""
    return {
        "parent": _quartiles(parent),
        "change": _quartiles(change),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "equal_in_pairs": sum(c == p for p, c in zip(parent, change)),
    }


def summarize(records: dict) -> dict:
    """The summary block of one workload from its per-side record lists."""
    def metric(side, name):
        return [r["metrics"][name]["value"] for r in records[side]]

    summary = {name: _compare(metric("parent", name), metric("change", name))
               for name in METRICS}
    summary["failed_of_attempted"] = {
        side: [sum(r["failed"] for r in records[side]),
               sum(r["attempted"] for r in records[side])]
        for side in SIDES
    }
    summary["correct"] = {side: all(r["correct"] for r in records[side]) for side in SIDES}
    summary["objective_sum_equal_seed_by_seed"] = (
        metric("parent", "objective_sum") == metric("change", "objective_sum"))
    if all("seconds_by_kind" in r for side in SIDES for r in records[side]):
        def kind_medians(side, kind):
            return [statistics.median(p[kind] for p in r["seconds_by_kind"])
                    for r in records[side]]

        kinds = records["parent"][0]["seconds_by_kind"][0]
        summary["seconds_by_kind"] = {
            kind: _compare(kind_medians("parent", kind), kind_medians("change", kind))
            for kind in kinds
        }
    return summary


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((roots["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    out = {
        "command": (f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds:g} "
                    "--trace 0, from the root of each checkout; the parent runs first "
                    "in even pairs, the change in odd ones"),
        "machine": {"cpu_count": os.cpu_count(), "python": sys.version,
                    "numpy": np.__version__},
        "commit": {side: _commit(root) for side, root in roots.items()},
        "src_sha256": {side: _src_digest(root) for side, root in roots.items()},
        "seeds": {},
        "workloads": {},
    }
    seed = args.first_seed
    for workload in args.workload:
        seeds = list(range(seed, seed + args.pairs))
        seed += args.pairs
        records = {side: [] for side in SIDES}
        for i, s in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                records[side].append(_run(roots[side], workload, s, seconds))
                print(f"{workload} seed {s} {side}: solve_s "
                      f"{records[side][-1]['metrics']['solve_s']['value']:.4f}", flush=True)
        out["seeds"][workload] = seeds
        out["workloads"][workload] = {"summary": summarize(records), "records": records}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
