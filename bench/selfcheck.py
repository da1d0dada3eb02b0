"""Show that every output check of the benchmark rejects a wrong output.

    python3 bench/selfcheck.py

Each case takes a correct output of the program on a small instance,
confirms that its check accepts it, then corrupts it in one place (one
flipped interval, an objective off by 1e-6, a control outside its bounds)
and confirms that the same check rejects it.  Exits with status 1 if any
check accepts a corrupted output or rejects a correct one.
"""

import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import switchopt  # noqa: E402
import switchopt.cli as cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

OFF = 1e-6


def flip(values, k):
    """Copy with the first component of interval k switched."""
    out = np.array(values, copy=True)
    if out.ndim == 1:
        out[k] = 1 - out[k]
    else:
        out[k, 0] = 1 - out[k, 0]
    return out


def next_mode(onehot, k):
    """Copy with interval k moved to the next mode of a one-hot path."""
    out = np.array(onehot, copy=True)
    out[k] = np.roll(out[k], 1)
    return out


def cases(scratch):
    """(name, correct-output check, corrupted-output check) triples."""
    rng = np.random.default_rng(0)

    # Fuller through the CLI: closed-form objective and dwell feasibility.
    rec = cli.run(cli.RunConfig(problem="fuller", method="adm-sur", tau_min=0.05,
                                n_intervals=100, output_path=str(scratch), label="f"))
    v = checks.read_controls_csv(scratch / rec["controls_file"])["v1"].astype(np.int64)
    obj = rec["objective"]
    yield ("fuller objective", lambda: checks.check_fuller(v, obj, 0.05, "f"),
           lambda: checks.check_fuller(v, obj + OFF, 0.05, "f"))
    yield ("fuller path", lambda: checks.check_fuller(v, obj, 0.05, "f"),
           lambda: checks.check_fuller(flip(v, 50), obj, 0.05, "f"))
    yield ("fuller feasible other path", lambda: checks.check_fuller(v, obj, 0.05, "f"),
           lambda: checks.check_fuller(np.zeros_like(v), obj, 0.05, "f"))

    # Translines through the CLI, at a loose tolerance to keep it short.
    rec = cli.run(cli.RunConfig(problem="translines", method="adm", tau_min=1.0, n_intervals=52,
                                volumes_per_line=2, epsilon=1.0, output_path=str(scratch),
                                label="t"))
    system, grid, _ = switchopt.build_translines(
        switchopt.translines_subgrid_config(volumes_per_line=2, n_time_steps=52))
    cols = checks.read_controls_csv(scratch / rec["controls_file"])
    tv, tu = checks.numbered_columns(cols, "v"), checks.numbered_columns(cols, "u")
    tobj = rec["objective"]

    def translines(v=tv, u=tu, objective=tobj):
        return checks.check_translines(system, grid.step, v, u, objective, 2, "t")

    yield ("translines objective", translines, lambda: translines(objective=tobj + OFF))
    yield ("translines path", translines, lambda: translines(v=flip(tv, 20)))
    yield ("translines feasible other path", translines,
           lambda: translines(v=np.ones_like(tv)))
    bad_u = tu.copy()
    bad_u[10, 0] = system.control_upper[0] + 0.5
    yield ("translines control bounds", translines, lambda: translines(u=bad_u))

    # Weighted dwell projection against the reference DP.
    for modewise, switches, d, budget in ((True, 3, 4, 6), (False, 2, 3, 5)):
        modes = switchopt.enumerate_modes(switches)
        g = switchopt.TimeGrid(0.0, 1.0, 60)
        w = switchopt.RelaxedControlPath(g, rng.dirichlet(np.full(modes.n_modes, 0.5), size=60))
        spec = switchopt.CombinatorialSpec.uniform(
            1 if modewise else switches, d, max_switches=budget,
            representation=switchopt.MODEWISE if modewise else switchopt.COMPONENTWISE)
        path = switchopt.dwell_project_weighted(w, modes, spec, g).values
        bad = path.copy()
        bad[30] = modes.values[(modes.index_of(path[30]) + 1) % modes.n_modes]

        def dwell(p, w=w, modes=modes, d=d, budget=budget, modewise=modewise):
            return checks.check_dwell_projection(
                w.values, modes.values, p, 1 / 60, d, budget, modewise, "dp")

        kind = "modewise" if modewise else "componentwise"
        yield (f"dwell projection {kind} path", lambda p=path, f=dwell: f(p),
               lambda b=bad, f=dwell: f(b))
        hold = np.repeat(modes.values[:1], 60, axis=0)
        yield (f"dwell projection {kind} feasible other path", lambda p=path, f=dwell: f(p),
               lambda b=hold, f=dwell: f(b))

    # CIAP: reported deviation, feasibility and optimality.
    g = switchopt.TimeGrid(0.0, 1.0, 100)
    w = rng.dirichlet(np.full(6, 0.5), size=100)
    spec = switchopt.CombinatorialSpec.uniform(1, 4, representation=switchopt.MODEWISE)
    res = switchopt.constrained_ciap(switchopt.RelaxedControlPath(g, w), spec, g)
    ctrl = res.control.values

    def ciap(control=ctrl, deviation=res.deviation, proven=res.proven_optimal):
        return checks.check_ciap(w, control, deviation, proven, g.step, 4, None, "ciap")

    yield ("ciap deviation", ciap, lambda: ciap(deviation=res.deviation + OFF))
    yield ("ciap path", ciap, lambda: ciap(control=next_mode(ctrl, 50)))
    hold = np.zeros_like(ctrl)
    hold[:, 0] = 1.0
    yield ("ciap feasible other path", ciap, lambda: ciap(control=hold))
    yield ("ciap optimality", ciap,
           lambda: ciap(control=hold, deviation=checks.max_deviation(w, hold, g.step)))

    small_g = switchopt.TimeGrid(0.0, 1.0, 10)
    small_w = rng.dirichlet(np.full(3, 0.5), size=10)
    small = switchopt.constrained_ciap(
        switchopt.RelaxedControlPath(small_g, small_w),
        switchopt.CombinatorialSpec.uniform(1, 3, representation=switchopt.MODEWISE), small_g)

    def exhaustive(deviation=small.deviation):
        return checks.check_ciap_exhaustive(small_w, deviation, small.proven_optimal,
                                            small_g.step, 3, "small")

    yield ("ciap exhaustive minimum", exhaustive,
           lambda: exhaustive(deviation=small.deviation + OFF))

    # Sum-up rounding.
    g = switchopt.TimeGrid(0.0, 1.0, 200)
    w = rng.dirichlet(np.full(4, 0.5), size=200)
    sur = switchopt.sum_up_rounding(switchopt.RelaxedControlPath(g, w), g).values
    yield ("sur path", lambda: checks.check_sur(w, sur, "sur"),
           lambda: checks.check_sur(w, next_mode(sur, 100), "sur"))

    # Oracle against the benchmark's own enumeration.
    system, g, spec = switchopt.build_fuller(switchopt.FullerConfig(tau_min=0.1, n_intervals=20))
    res = switchopt.global_oracle(system, g, spec)
    ref = checks.fuller_oracle_reference(20, 0.1)
    opath = res.best_control.values[:, 0]

    def oracle(path=opath, value=res.best_value):
        return checks.check_oracle(path, value, 20, 0.1, ref)

    yield ("oracle optimum", oracle, lambda: oracle(value=res.best_value + OFF))
    yield ("oracle path", oracle, lambda: oracle(path=flip(opath, 0)))
    yield ("oracle feasible other path", oracle, lambda: oracle(path=np.zeros_like(opath)))

    # Gradient evaluations at the model boundary against the solver counts.
    good = {"relaxed.gradient_evals": (158, "count"), "relaxed.solves": (14, "count"),
            "relaxed.iterations": (144, "count")}
    bad = dict(good, **{"relaxed.iterations": (143, "count")})
    def consistency(metrics):
        ok, grads, expected = tracing.gradient_consistency(metrics)
        return [] if ok else [f"{grads} != {expected}"]

    yield ("gradient consistency", lambda: consistency(good), lambda: consistency(bad))


def main():
    broken = 0
    runs = Path(__file__).resolve().parent / "runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs, prefix="selfcheck-") as scratch:
        for name, correct, corrupted in cases(Path(scratch)):
            accepted = correct()
            rejected = corrupted()
            ok = not accepted and rejected
            broken += not ok
            detail = rejected[0] if rejected else "corrupted output accepted"
            if accepted:
                detail = f"correct output rejected: {accepted[0]}"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main()
