"""The three benchmark workloads: inputs, one pass of solves, and checks.

A workload object is built after ``switchopt`` is importable.  ``setup``
builds every input (this is what ``setup_s`` times), ``warm_up`` runs one
untimed solve so that lazy set-up finishes, ``run_pass`` runs the timed
operations once and returns what they produced, and ``check`` compares the
outputs of the passes with references computed apart from the program.

Every call into the program goes through a module attribute looked up at
call time (``cli.run``, ``switchopt.constrained_ciap``, ...), so the traced
pass sees the wrappers that ``tracing.Tracer`` installs there.
"""

from __future__ import annotations

import time

import numpy as np

import switchopt
import switchopt.cli as cli

import checks

# Dirichlet concentration of the random multiplier rows: most of the mass
# on one or two modes, like the relaxed solutions the projections receive.
ALPHA = 0.5


class _Adm:
    """Solves through ``switchopt.cli.run``, one artifact set per solve."""

    problem = ""
    solves = ()          # (method, tau_min)
    n_intervals = 0
    volumes = 2

    def __init__(self, seed, out_dir):
        # The problems are fixed test cases; the seed is recorded only.
        self.seed = seed
        self.out_dir = out_dir

    def _config(self, method, tau, **extra):
        return cli.RunConfig(
            problem=self.problem, method=method, tau_min=tau,
            n_intervals=self.n_intervals, volumes_per_line=self.volumes,
            output_path=str(self.out_dir), label=f"{method}_tau{tau}", **extra,
        )

    def setup(self):
        self.configs = [self._config(method, tau) for method, tau in self.solves]

    def warm_up(self):
        # Same problem and code paths, at a loose tolerance that makes it cheap.
        method, tau = self.solves[0]
        cli.run(self._config(method, tau, epsilon=1.0))

    def run_pass(self):
        records = []
        for config in self.configs:
            records.append(cli.run(config))
        return {
            "records": records,
            "attempted": len(records),
            "failed": sum(1 for r in records if r["error"] or not r["feasible"]),
        }

    def objective_sum(self, result):
        return float(sum(r["objective"] for r in result["records"]))

    def check(self, results):
        last = results[-1]["records"]
        failures = []
        for result in results[:-1]:
            if [r["objective"] for r in result["records"]] != [r["objective"] for r in last]:
                failures.append("objectives differ between passes")
        for (method, tau), record in zip(self.solves, last):
            label = f"{self.problem} {method} tau={tau}"
            columns = checks.read_controls_csv(self.out_dir / record["controls_file"])
            failures.extend(self.check_solve(record, columns, tau, label))
        return failures


class FullerAdm(_Adm):
    """Fuller, N=100, three dwell times, both alternation variants."""

    problem = "fuller"
    solves = tuple((method, tau) for tau in (0.02, 0.05, 0.10) for method in ("adm-sur", "adm"))
    n_intervals = 100

    def check_solve(self, record, columns, tau, label):
        return checks.check_fuller(
            columns["v1"].astype(np.int64), record["objective"], tau, label
        )


class TranslinesAdm(_Adm):
    """Transmission-line subgrid, 52 steps, 2 volumes per line, componentwise."""

    problem = "translines"
    solves = (("adm", 1.0), ("adm-sur", 1.0))
    n_intervals = 52

    def setup(self):
        super().setup()
        # The checks re-simulate each result over the per-mode right-hand side.
        self.system, self.grid, _ = switchopt.build_translines(
            switchopt.translines_subgrid_config(
                volumes_per_line=self.volumes, n_time_steps=self.n_intervals, tau_min=1.0,
            )
        )

    def check_solve(self, record, columns, tau, label):
        return checks.check_translines(
            self.system, self.grid.step,
            checks.numbered_columns(columns, "v"), checks.numbered_columns(columns, "u"),
            record["objective"], checks.dwell_count(tau, self.grid.horizon, self.n_intervals),
            label,
        )


class Combinatorial:
    """Integer-side solvers on seeded multipliers, plus the Fuller oracle."""

    # (label, modes switched, N, min dwell, switch budget, modewise)
    DWELL = (
        ("dwell modewise 16x200", 4, 200, 5, 10, True),
        ("dwell modewise 8x400", 3, 400, 6, 20, True),
        ("dwell componentwise 4x400", 4, 400, 8, 16, False),
    )
    # Unbudgeted modewise CIAP: count, modes, N, min dwell.  Many small
    # instances, because the node count of one instance varies by orders of
    # magnitude from seed to seed.
    CIAP = (48, 6, 100, 4)
    # The budgeted CIAP instance does not depend on the seed: with a switch
    # budget the branch and bound spends any node budget without proving
    # optimality, so it counts as a failed operation on every run.
    BUDGETED = dict(seed=7, modes=4, n=60, min_dwell=3, budget=8, max_nodes=100_000)
    SUR = (8, 5000)
    ORACLE = (20, 0.1)   # N, tau_min of the Fuller oracle
    # Small instance whose CIAP optimum is checked against exhaustive search.
    SMALL = (3, 10, 3)   # modes, N, min dwell

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.oracle_reference = None  # enumerated outside the timed passes

    def setup(self):
        rng = np.random.default_rng(self.seed)

        def multipliers(n, m, generator=rng):
            grid = switchopt.TimeGrid(0.0, 1.0, n)
            return grid, switchopt.RelaxedControlPath(grid, generator.dirichlet(np.full(m, ALPHA), size=n))

        self.dwell = []
        for label, switches, n, d, budget, modewise in self.DWELL:
            modes = switchopt.enumerate_modes(switches)
            grid, w = multipliers(n, modes.n_modes)
            spec = switchopt.CombinatorialSpec.uniform(
                1 if modewise else switches, d, max_switches=budget,
                representation=switchopt.MODEWISE if modewise else switchopt.COMPONENTWISE,
            )
            self.dwell.append((label, w, modes, spec, grid, d, budget, modewise))

        count, m, n, d = self.CIAP
        spec = switchopt.CombinatorialSpec.uniform(1, d, representation=switchopt.MODEWISE)
        b = self.BUDGETED
        grid, w = multipliers(b["n"], b["modes"], np.random.default_rng(b["seed"]))
        budgeted_spec = switchopt.CombinatorialSpec.uniform(
            1, b["min_dwell"], max_switches=b["budget"], representation=switchopt.MODEWISE
        )
        # The budgeted solve runs first: its search tree sets the peak memory,
        # which should not depend on what the seeded solves left behind.
        self.ciap = [("ciap budgeted", grid, w, budgeted_spec, b["min_dwell"], b["budget"], b["max_nodes"])]
        self.ciap += [(f"ciap {i}", *multipliers(n, m), spec, d, None, 1_000_000) for i in range(count)]

        self.sur_grid, self.sur_w = multipliers(self.SUR[1], self.SUR[0])
        n, tau = self.ORACLE
        self.oracle = switchopt.build_fuller(switchopt.FullerConfig(tau_min=tau, n_intervals=n))

        m, n, d = self.SMALL
        self.small_grid, self.small_w = multipliers(n, m)
        self.small_spec = switchopt.CombinatorialSpec.uniform(1, d, representation=switchopt.MODEWISE)

    def instrument(self, tracer):
        """Count the model calls of the oracle's system in a traced pass."""
        system, grid, spec = self.oracle
        self._plain_oracle = self.oracle
        self.oracle = (tracer.instrument_system(system), grid, spec)

    def uninstrument(self):
        self.oracle = self._plain_oracle

    def warm_up(self):
        self.small = switchopt.constrained_ciap(self.small_w, self.small_spec, self.small_grid)
        _, w, modes, spec, grid, *_ = self.dwell[0]
        switchopt.dwell_project_weighted(w, modes, spec, grid)
        switchopt.sum_up_rounding(self.sur_w, self.sur_grid)
        system, _, _ = self.oracle
        small_grid = switchopt.TimeGrid(0.0, 1.0, 8)
        switchopt.global_oracle(system, small_grid, switchopt.CombinatorialSpec.uniform(1, 2))

    def run_pass(self):
        seconds = {"dwell_dp": 0.0, "ciap": 0.0, "ciap_budgeted": 0.0, "sur": 0.0, "oracle": 0.0}
        clock = time.perf_counter
        t = clock()
        dwell = [switchopt.dwell_project_weighted(w, modes, spec, grid)
                 for _, w, modes, spec, grid, *_ in self.dwell]
        seconds["dwell_dp"] += clock() - t
        ciap = []
        for label, grid, w, spec, _, budget, max_nodes in self.ciap:
            t = clock()
            ciap.append(switchopt.constrained_ciap(w, spec, grid, max_nodes=max_nodes))
            seconds["ciap" if budget is None else "ciap_budgeted"] += clock() - t
        t = clock()
        sur = switchopt.sum_up_rounding(self.sur_w, self.sur_grid)
        seconds["sur"] += clock() - t
        t = clock()
        oracle = switchopt.global_oracle(*self.oracle)
        seconds["oracle"] += clock() - t
        return {
            "dwell": dwell, "ciap": ciap, "sur": sur, "oracle": oracle,
            "seconds_by_kind": seconds,
            "attempted": len(dwell) + len(ciap) + 2,
            "failed": sum(1 for r in ciap if not r.proven_optimal),
        }

    def objective_sum(self, result):
        return float(sum(r.deviation for r in result["ciap"]))

    @staticmethod
    def _signature(result):
        return (
            [p.values.tobytes() for p in result["dwell"]],
            [(r.deviation, r.nodes_explored, r.control.values.tobytes()) for r in result["ciap"]],
            result["sur"].values.tobytes(),
            (result["oracle"].best_value, result["oracle"].nodes_explored),
        )

    def check(self, results):
        last = results[-1]
        failures = []
        if any(self._signature(r) != self._signature(last) for r in results[:-1]):
            failures.append("results differ between passes")
        for (label, w, modes, spec, grid, d, budget, modewise), path in zip(self.dwell, last["dwell"]):
            failures.extend(checks.check_dwell_projection(
                w.values, modes.values, path.values, grid.step, d, budget, modewise, label
            ))
        for (label, grid, w, spec, d, budget, _), res in zip(self.ciap, last["ciap"]):
            failures.extend(checks.check_ciap(
                w.values, res.control.values, res.deviation, res.proven_optimal,
                grid.step, d, budget, label,
            ))
        failures.extend(checks.check_ciap_exhaustive(
            self.small_w.values, self.small.deviation, self.small.proven_optimal,
            self.small_grid.step, self.SMALL[2], "small ciap",
        ))
        failures.extend(checks.check_sur(self.sur_w.values, last["sur"].values, "sur"))
        n, tau = self.ORACLE
        if self.oracle_reference is None:
            self.oracle_reference = checks.fuller_oracle_reference(n, tau)
        oracle = last["oracle"]
        failures.extend(checks.check_oracle(
            oracle.best_control.values[:, 0], oracle.best_value, n, tau, self.oracle_reference
        ))
        if not oracle.proven_optimal:
            failures.append("oracle: enumeration was truncated")
        return failures


WORKLOADS = {
    "fuller-adm": FullerAdm,
    "translines-adm": TranslinesAdm,
    "combinatorial": Combinatorial,
}
