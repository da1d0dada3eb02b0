"""Print one sha256 per solver output, to check that a change keeps results bitwise.

Run from the repository root on two checkouts and diff the printed lines:

    PYTHONPATH=src python tools/output_hashes.py > hashes.txt

Covered outputs:

* the CLI artifacts (result record without its wall time, trace JSON,
  controls and trajectory CSVs) of Fuller ``poc``/``sur``/``ciap``/``adm``/
  ``adm-sur`` at tau_min 0.02, 0.05 and 0.1, the Fuller ``oracle`` at N=20,
  and translines ``adm``/``adm-sur``/``ciap`` (52 steps, 2 volumes per line);
* ``dwell_project_weighted``, ``constrained_ciap`` and ``global_oracle`` on
  seeded instances, with and without maximum dwell times and switch budgets;
* ``global_oracle`` budget exits (Fuller N=20 at 20 and 50 nodes) and a
  four-step translines instance whose leaves solve for continuous controls;
* ``adm_penalty`` called as a library function (Fuller N=100, tau_min 0.05,
  both variants), which runs in its own forward-sweep memo scope rather than
  the one ``cli.run`` enters;
* library calls outside both of those scopes: ``solve_relaxed_poc`` on
  Fuller N=50 and on the 52-step translines instance,
  ``best_response_continuous`` on that translines instance, and
  ``sur_heuristic`` and ``ciap_heuristic`` on Fuller N=100.
* ``global_oracle`` budget exits deep in the walk: Fuller N=20 at 20,000
  and 57,309 nodes (one short of its tree) and Fuller N=16 componentwise,
  d=3, at 1,000 of its 2,550 nodes.
* the benchmark's budgeted ``constrained_ciap`` instance (4 modes, N=60,
  d=3, budget 8) at its 100,000-node budget, which pushes no leaf.
* a modewise ``dwell_project_weighted`` instance (4 modes, N=200, d=4,
  budget 2048) whose automaton has 65,568 states, more than an int16
  predecessor table can index, and whose path reaches states past 32,767.

Lines are only ever appended, so two checkouts of different ages can be
compared on the lines both print.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import switchopt
from switchopt.cli import RunConfig, run

FULLER_METHODS = ("poc", "sur", "ciap", "adm", "adm-sur")
FULLER_TAUS = (0.02, 0.05, 0.1)
TRANSLINES_METHODS = ("adm", "adm-sur", "ciap")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _cli_lines(out_dir: Path):
    runs = [
        (f"fuller {method} tau={tau}", RunConfig(problem="fuller", method=method, tau_min=tau))
        for tau in FULLER_TAUS for method in FULLER_METHODS
    ]
    runs.append(("fuller oracle N=20", RunConfig(
        problem="fuller", method="oracle", tau_min=0.1, n_intervals=20)))
    runs += [
        (f"translines {method}", RunConfig(
            problem="translines", method=method, tau_min=1.0, n_intervals=52,
            volumes_per_line=2))
        for method in TRANSLINES_METHODS
    ]
    for i, (name, config) in enumerate(runs):
        config.output_path = str(out_dir / str(i))
        config.label = "out"
        record = run(config)
        record.pop("wall_time_seconds")
        files = [json.dumps(record, sort_keys=True).encode()]
        for key in ("trace_file", "controls_file", "trajectory_file"):
            if record[key] is not None:
                files.append(Path(config.output_path, record[key]).read_bytes())
        yield f"cli {name}", _digest(*files)


def _multipliers(rng, n, m):
    grid = switchopt.TimeGrid(0.0, 1.0, n)
    return grid, switchopt.RelaxedControlPath(grid, rng.dirichlet(np.full(m, 0.5), size=n))


def _library_lines():
    rng = np.random.default_rng(20)
    # (switches, N, min dwell, max dwell, budget, modewise)
    for switches, n, d, dmax, budget, modewise in (
        (2, 120, 3, None, None, True), (3, 200, 5, 7, None, True),
        (4, 200, 5, None, 10, True), (3, 400, 6, None, 20, True),
        (2, 150, 4, 6, 5, False), (4, 400, 8, None, 16, False),
    ):
        modes = switchopt.enumerate_modes(switches)
        grid, w = _multipliers(rng, n, modes.n_modes)
        spec = switchopt.CombinatorialSpec.uniform(
            1 if modewise else switches, d, max_dwell=dmax, max_switches=budget,
            representation=switchopt.MODEWISE if modewise else switchopt.COMPONENTWISE,
        )
        out = switchopt.dwell_project_weighted(w, modes, spec, grid)
        yield (f"dwell_project_weighted {switches} switches N={n} d={d} dmax={dmax} "
               f"budget={budget} modewise={modewise}", _digest(out.values.tobytes()))

    # (modes, N, min dwell, max dwell, budget, max nodes)
    for m, n, d, dmax, budget, max_nodes in (
        (6, 100, 4, None, None, 1_000_000), (4, 80, 3, 5, None, 1_000_000),
        (3, 40, 2, None, 4, 20_000), (4, 60, 3, None, 8, 20_000),
    ):
        for i in range(4):
            grid, w = _multipliers(rng, n, m)
            spec = switchopt.CombinatorialSpec.uniform(
                1, d, max_dwell=dmax, max_switches=budget, representation=switchopt.MODEWISE
            )
            res = switchopt.constrained_ciap(w, spec, grid, max_nodes=max_nodes)
            yield (f"constrained_ciap {m} modes N={n} d={d} dmax={dmax} budget={budget} #{i}",
                   _digest(res.control.values.tobytes(), res.deviation, res.nodes_explored,
                           res.proven_optimal))

    fuller, _, _ = switchopt.build_fuller(switchopt.FullerConfig(tau_min=0.1, n_intervals=20))
    # (N, min dwell, max dwell, budget, representation)
    for n, d, dmax, budget, rep in (
        (12, 2, None, None, switchopt.COMPONENTWISE), (12, 1, 3, None, switchopt.COMPONENTWISE),
        (14, 2, None, 3, switchopt.COMPONENTWISE), (12, 2, 4, 4, switchopt.MODEWISE),
    ):
        grid = switchopt.TimeGrid(0.0, 1.0, n)
        spec = switchopt.CombinatorialSpec.uniform(
            1, d, max_dwell=dmax, max_switches=budget, representation=rep
        )
        res = switchopt.global_oracle(fuller, grid, spec)
        yield (f"global_oracle fuller N={n} d={d} dmax={dmax} budget={budget} {rep}",
               _digest(res.best_control.values.tobytes(), res.best_value,
                       res.nodes_explored, res.proven_optimal))

    # Budget exits of the node-by-node walk, then leaf solves over controls.
    fuller, grid, spec = switchopt.build_fuller(switchopt.FullerConfig(tau_min=0.1, n_intervals=20))
    for max_nodes in (20, 50):
        res = switchopt.global_oracle(fuller, grid, spec, max_nodes=max_nodes)
        yield (f"global_oracle fuller N=20 max_nodes={max_nodes}",
               _digest(res.best_control.values.tobytes(), res.best_value,
                       res.nodes_explored, res.proven_optimal))
    res = switchopt.global_oracle(*_small_controlled_translines())
    yield ("global_oracle translines N=4 with controls",
           _digest(res.best_control.values.tobytes(), res.best_value, res.nodes_explored,
                   res.proven_optimal, res.best_u.tobytes()))

    fuller, grid, spec = switchopt.build_fuller(
        switchopt.FullerConfig(tau_min=0.05, n_intervals=100))
    for variant in (switchopt.ADM_PLAIN, switchopt.ADM_SUR):
        options = switchopt.AdmOptions(variant=variant)
        res = switchopt.adm_penalty(fuller, grid, spec, options=options)
        yield f"adm_penalty fuller N=100 tau=0.05 {variant}", _result_digest(res)

    yield from _unscoped_solve_lines()
    yield from _budgeted_oracle_lines()
    yield _budgeted_ciap_line()
    yield _wide_dwell_line()


def _result_digest(res) -> str:
    return _digest(res.u_final.values.tobytes(), res.v_final.values.tobytes(),
                   res.v_tilde_final.values.tobytes(), res.relaxed_w_final.values.tobytes(),
                   res.objective, res.penalty_value, res.rho_final, res.feasible,
                   res.converged, res.p_eps_certificate, res.trace)


def _unscoped_solve_lines():
    """Relaxed solves and heuristics called as library functions."""
    options = switchopt.RelaxedSolveOptions(max_iterations=200)
    translines = switchopt.build_translines(
        switchopt.translines_subgrid_config(volumes_per_line=2, n_time_steps=52))
    fuller_50 = switchopt.build_fuller(switchopt.FullerConfig(tau_min=0.05, n_intervals=50))
    for name, (system, grid, _) in (("fuller N=50", fuller_50), ("translines N=52", translines)):
        v_tilde = switchopt.BinaryControlPath.constant(grid, system.modes.values[0])
        start = (
            switchopt.ContinuousControlPath.midpoint(
                grid, system.control_lower, system.control_upper),
            switchopt.RelaxedControlPath.uniform(grid, system.modes.n_modes),
        )
        res = switchopt.solve_relaxed_poc(system, grid, v_tilde, 0.1, start, options)
        yield (f"solve_relaxed_poc {name} rho=0.1",
               _digest(res.u.values.tobytes(), res.w.values.tobytes(), res.value,
                       res.stationarity, res.iterations, res.converged))

    system, grid, _ = translines
    m = system.modes.n_modes
    u, value = switchopt.best_response_continuous(
        system, grid, np.eye(m)[np.arange(grid.n_intervals) % m], options)
    yield "best_response_continuous translines N=52", _digest(u.tobytes(), value)

    fuller, grid, spec = switchopt.build_fuller(
        switchopt.FullerConfig(tau_min=0.05, n_intervals=100))
    for heuristic in (switchopt.sur_heuristic, switchopt.ciap_heuristic):
        res = heuristic(fuller, grid, spec)
        yield f"{heuristic.__name__} fuller N=100 tau=0.05", _result_digest(res)


def _budgeted_oracle_lines():
    fuller, grid, spec = switchopt.build_fuller(switchopt.FullerConfig(tau_min=0.1, n_intervals=20))
    cases = [("fuller N=20", grid, spec, max_nodes) for max_nodes in (20_000, 57_309)]
    cases.append(("fuller N=16 d=3 componentwise", switchopt.TimeGrid(0.0, 1.0, 16),
                  switchopt.CombinatorialSpec.uniform(1, 3), 1_000))
    for name, grid, spec, max_nodes in cases:
        res = switchopt.global_oracle(fuller, grid, spec, max_nodes=max_nodes)
        yield (f"global_oracle {name} max_nodes={max_nodes}",
               _digest(res.best_control.values.tobytes(), res.best_value,
                       res.nodes_explored, res.proven_optimal))


def _budgeted_ciap_line():
    grid, w = _multipliers(np.random.default_rng(7), 60, 4)
    spec = switchopt.CombinatorialSpec.uniform(
        1, 3, max_switches=8, representation=switchopt.MODEWISE)
    res = switchopt.constrained_ciap(w, spec, grid, max_nodes=100_000)
    return ("constrained_ciap 4 modes N=60 d=3 budget=8 max_nodes=100000",
            _digest(res.control.values.tobytes(), res.deviation, res.nodes_explored,
                    res.proven_optimal))


def _wide_dwell_line():
    grid, w = _multipliers(np.random.default_rng(22), 200, 4)
    spec = switchopt.CombinatorialSpec.uniform(
        1, 4, max_switches=2048, representation=switchopt.MODEWISE)
    out = switchopt.dwell_project_weighted(w, switchopt.enumerate_modes(2), spec, grid)
    return ("dwell_project_weighted 2 switches N=200 d=4 budget=2048 modewise",
            _digest(out.values.tobytes()))


def _small_controlled_translines():
    """Four steps of a one-volume-per-line network with two power controls."""
    cfg = switchopt.translines_subgrid_config(volumes_per_line=2, n_time_steps=52)
    return switchopt.build_translines(switchopt.TranslinesConfig(
        nodes=cfg.nodes, lines=cfg.lines, switch_groups=cfg.switch_groups,
        producers=cfg.producers,
        consumers=tuple(
            (node, ((0.0, q0), (2.0, q0)))
            for (node, _), q0 in zip(cfg.consumers, (0.4, 0.3, 0.5, 0.2, 0.3))
        ),
        volumes_per_line=1, n_time_steps=4, t_end=2.0, tau_min=1.0,
    ))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for lines in (_cli_lines(Path(tmp)), _library_lines()):
            for name, digest in lines:
                print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
