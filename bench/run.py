"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fuller-adm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run builds the workload's inputs (timed as
``setup_s`` from the first statement of this file), makes one untimed
warm-up solve, then repeats whole passes over the workload's solves until
``--seconds`` have elapsed (at least one pass), and checks every output
against references computed apart from the program.  The set-up and pass
times are rescaled to a fixed reference speed of the CPU (``speed.py``);
``solve_s`` is the median rescaled pass time.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
adds one traced pass after the untraced ones and reports the per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run records and span files go to ``bench/runs/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One process with one BLAS thread: the machine has two CPUs and the
# numbers should not depend on how a BLAS pool is scheduled.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402  (imports numpy, so after the thread settings)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / "runs"


def _import_program():
    """Import switchopt from this checkout's sources, or exit with an error."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import switchopt
    except ImportError as exc:
        sys.exit(f"cannot import switchopt from {SRC_DIR}: {exc}")
    if Path(switchopt.__file__).resolve().parent.parent != SRC_DIR:
        sys.exit(f"switchopt was imported from {switchopt.__file__}, not from {SRC_DIR}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _timed_passes(workload, seconds):
    """Whole passes until ``seconds`` have elapsed.

    Returns the pass results, their ``SpeedProbe`` readings, and the peak
    resident memory at the end of the first pass.  Later passes only add allocator
    fragmentation, which grows with the number of passes that fit into the
    run, so they would make the memory figure depend on the CPU's speed.
    """
    results, probes = [], []
    started = time.perf_counter()
    while True:
        with speed.SpeedProbe() as probe:
            results.append(workload.run_pass())
        probes.append(probe)
        if len(results) == 1:
            peak_rss_mb = _peak_rss_mb()
        if time.perf_counter() - started >= seconds:
            return results, probes, peak_rss_mb


def _traced_pass(workload, tracer):
    if hasattr(workload, "instrument"):
        workload.instrument(tracer)
    tracer.install()
    try:
        t = time.perf_counter()
        result = workload.run_pass()
        elapsed = time.perf_counter() - t
    finally:
        tracer.uninstall()
        if hasattr(workload, "uninstrument"):
            workload.uninstrument()
    return result, elapsed


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=RUNS_DIR, prefix=f"{tag}-") as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        workload.setup()
        setup_wall_s = time.perf_counter() - T0
        # Rescaled by the CPU's speed right after set-up, like the passes.
        setup_s = setup_wall_s * speed.reference_ratio()
        workload.warm_up()

        results, probes, peak_rss_mb = _timed_passes(workload, args.seconds)
        solve_s = statistics.median(p.scaled_s for p in probes)
        wall_s = statistics.median(p.wall_s for p in probes)
        print(f"passes: {len(probes)}, median wall time {wall_s:.4f} s, "
              f"rescaled {solve_s:.4f} s")
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "setup_s": setup_s, "setup_wall_s": setup_wall_s,
            "pass_seconds": [p.scaled_s for p in probes],
            "pass_wall_seconds": [p.wall_s for p in probes],
            "probe_kernel_median_s": [statistics.median(p.samples) for p in probes],
            "objective_sum": workload.objective_sum(results[-1]),
            "peak_rss_mb": peak_rss_mb,
        }
        if "seconds_by_kind" in results[-1]:
            record["seconds_by_kind"] = [r["seconds_by_kind"] for r in results]

        failures = workload.check(results)
        if args.trace:
            tracer = tracing.Tracer()
            traced, traced_s = _traced_pass(workload, tracer)
            failures.extend(f"traced pass: {msg}" for msg in workload.check([traced]))
            results.append(traced)
            layers, withheld = tracer.layer_metrics()
            # Raw wall times on both sides: the traced pass runs without the probe.
            layers["trace.overhead_s"] = (traced_s - wall_s, "s")
            if "relaxed.gradient_evals" in layers and "relaxed.iterations" in layers:
                ok, grads, expected = tracing.gradient_consistency(layers)
                print(f"gradient consistency: {grads} model-boundary gradients, "
                      f"{expected} = relaxed solves + accepted iterations: "
                      f"{'ok' if ok else 'MISMATCH'}")
                if not ok:
                    failures.append(f"gradient consistency: {grads} != {expected}")
            for name in withheld:
                print(f"per-layer metric {name}: missing (a traced entry point is gone: "
                      f"{', '.join(tracer.missing)})")
            tracer.dump(RUNS_DIR / f"{tag}-spans.json")
            metrics = layers
            record["traced_pass_s"] = traced_s
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "solve_s": (solve_s, "s"),
                "objective_sum": (record["objective_sum"], "1"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.9g} {unit}")
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(out, failures=failures)
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
