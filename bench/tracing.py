"""Spans and model-boundary counters recorded from outside switchopt.

A traced pass replaces selected module attributes of the installed program
with wrappers that open a span (name, start, end, parent) around each call,
and wraps the callables of every ``SwitchedSystem`` the traced entry points
build so that each model evaluation is counted and timed.  Model calls are
not spans of their own: their count and time go to the innermost open span,
which keeps the trace small (a Fuller pass makes about a million model
calls) and keeps the counts independent of how ``simulate`` is organised.

Spans live in memory and are written out once, when the run ends.  Layer
self time is a span's duration less its child spans and less the model time
charged to it directly.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time

# Model-boundary call kinds, in the column order of ``Tracer._acc`` rows.
STAGE, JACOBIAN, TERMINAL, TERMINAL_GRAD = range(4)
MODEL_S = 4

_SYSTEM_CALLABLES = (
    ("rhs_stack", STAGE),
    ("rhs", STAGE),
    ("rhs_jac_state", JACOBIAN),
    ("rhs_jac_control", JACOBIAN),
    ("combined_jac_state", JACOBIAN),
    ("combined_jac_control", JACOBIAN),
    ("terminal_cost", TERMINAL),
    ("terminal_cost_gradient", TERMINAL_GRAD),
)

CLI = "cli.run"
ADM = "adm.adm_penalty"
RELAXED = "relaxed.solve_relaxed_poc"
PROJECTION = "relaxed.project_rows_to_simplex"
FORWARD = "simulate.integrate_values"
ADJOINT = "simulate.adjoint_values"
SUR = "rounding.sum_up_rounding"
DWELL = "rounding.dwell_project_weighted"
CIAP = "rounding.constrained_ciap"
ORACLE = "rounding.global_oracle"

# (module, attribute, span name).  Private sweep entry points are looked up
# by name in every module that imports them; a target that no longer exists
# is recorded as missing and the metrics built on its span are withheld.
SPAN_TARGETS = (
    ("switchopt.cli", "run", CLI),
    ("switchopt.cli", "adm_penalty", ADM),
    ("switchopt.adm", "solve_relaxed_poc", RELAXED),
    ("switchopt.relaxed", "project_rows_to_simplex", PROJECTION),
    ("switchopt.simulate", "_integrate_values", FORWARD),
    ("switchopt.relaxed", "_integrate_values", FORWARD),
    ("switchopt.rounding", "_integrate_values", FORWARD),
    ("switchopt.relaxed", "_adjoint_values", ADJOINT),
    ("switchopt.rounding", "_adjoint_values", ADJOINT),
    ("switchopt.adm", "sum_up_rounding", SUR),
    ("switchopt.adm", "dwell_project_weighted", DWELL),
    ("switchopt.adm", "constrained_ciap", CIAP),
    ("switchopt", "sum_up_rounding", SUR),
    ("switchopt", "dwell_project_weighted", DWELL),
    ("switchopt", "constrained_ciap", CIAP),
    ("switchopt", "global_oracle", ORACLE),
)

# Problem constructors whose returned systems get counted callables.
PROBLEM_TARGETS = (
    ("switchopt.cli", "build_fuller"),
    ("switchopt.cli", "build_translines"),
)


def dwell_dp_cells(w, modes, spec, grid) -> int:
    """Intervals times automaton states of one weighted dwell projection.

    Computed from the instance parameters: a state is (value, run length
    saturated at the lock horizon, first-run flag, switches used).
    """
    def states(n_values, c):
        d = spec.min_dwell[c]
        run_cap = d if spec.max_dwell is None else spec.max_dwell[c] + 1
        levels = 1 if spec.max_switches is None else spec.max_switches[c] + 1
        return n_values * run_cap * 2 * levels

    if spec.representation == "modewise":
        return grid.n_intervals * states(modes.n_modes, 0)
    return grid.n_intervals * sum(states(2, c) for c in range(spec.n_components))


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        # Per span id (-1 is the root): [stage, jacobian, terminal,
        # terminal-gradient calls, model seconds] charged directly to it.
        self._acc = {-1: [0, 0, 0, 0, 0.0]}
        self._stack = [-1]
        self.harvest = {
            "adm_inner_steps": 0, "adm_outer_sweeps": 0,
            "relaxed_iterations": 0, "dwell_dp_cells": 0,
            "ciap_nodes": 0, "oracle_nodes": 0,
        }
        self.installed = set()
        self.missing = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        acc, stack, clock = self._acc, self._stack, time.perf_counter
        harvest = _HARVESTERS.get(name)

        def call(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(None)
            acc[sid] = [0, 0, 0, 0, 0.0]
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if harvest is not None:
                harvest(self.harvest, args, kwargs, out)
            return out

        return call

    def _counted(self, fn, kind):
        acc, stack, clock = self._acc, self._stack, time.perf_counter

        def call(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            row = acc[stack[-1]]
            row[kind] += 1
            row[MODEL_S] += dt
            return out

        return call

    def instrument_system(self, system):
        """Copy of ``system`` whose model callables are counted and timed."""
        changes = {
            field: self._counted(getattr(system, field), kind)
            for field, kind in _SYSTEM_CALLABLES
            if getattr(system, field, None) is not None
        }
        return dataclasses.replace(system, **changes)

    def _instrumented_problem(self, make_problem):
        def make(*args, **kwargs):
            system, grid, spec = make_problem(*args, **kwargs)
            return self.instrument_system(system), grid, spec

        return make

    def _patch(self, module_name, attr, replacement_of):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return False
        self._patches.append((module, attr, original))
        setattr(module, attr, replacement_of(original))
        return True

    def install(self):
        absent = set()
        for module_name, attr, name in SPAN_TARGETS:
            if not self._patch(module_name, attr, lambda fn, n=name: self._spanned(fn, n)):
                absent.add(name)
        # A span counts as installed only where every call site is wrapped;
        # otherwise its time would silently move into its caller's self time.
        self.installed = {name for _, _, name in SPAN_TARGETS} - absent
        for module_name, attr in PROBLEM_TARGETS:
            self._patch(module_name, attr, self._instrumented_problem)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- derived figures ---------------------------------------------------

    def layer_metrics(self):
        """Per-layer figures, and the names withheld because a span is missing."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        self_s = [dur[i] - child[i] - self._acc[i][MODEL_S] for i in range(n)]

        def total(name, values):
            return sum(v for i, v in enumerate(values) if self.names[i] == name)

        def count(name):
            return sum(1 for x in self.names if x == name)

        # Model-boundary counts charged anywhere below a relaxed solve.
        inside_relaxed = [False] * n
        relaxed_calls = [0, 0, 0, 0]
        for i in range(n):
            p = self.parents[i]
            inside_relaxed[i] = self.names[i] == RELAXED or (p >= 0 and inside_relaxed[p])
            if inside_relaxed[i]:
                for kind in range(4):
                    relaxed_calls[kind] += self._acc[i][kind]
        calls = [sum(row[kind] for row in self._acc.values()) for kind in range(4)]
        model_s = sum(row[MODEL_S] for row in self._acc.values())

        cli_overhead = sum(
            dur[i] - sum(dur[j] for j in range(n) if self.parents[j] == i and self.names[j] == ADM)
            for i in range(n) if self.names[i] == CLI
        )
        h = self.harvest
        gradient_evals = relaxed_calls[TERMINAL_GRAD]
        trials = relaxed_calls[TERMINAL] - gradient_evals
        adjoint_stage = sum(
            self._acc[i][STAGE] for i in range(n) if self.names[i] == ADJOINT
        )
        metrics = {
            "cli.run_s": (total(CLI, dur), "s", (CLI,)),
            "cli.overhead_s": (cli_overhead, "s", (CLI, ADM)),
            "adm.solve_s": (total(ADM, dur), "s", (ADM,)),
            "adm.self_s": (total(ADM, self_s), "s", (ADM,)),
            "adm.inner_steps": (h["adm_inner_steps"], "count", (ADM,)),
            "adm.outer_sweeps": (h["adm_outer_sweeps"], "count", (ADM,)),
            "relaxed.solves": (count(RELAXED), "count", (RELAXED,)),
            "relaxed.iterations": (h["relaxed_iterations"], "count", (RELAXED,)),
            "relaxed.self_s": (total(RELAXED, self_s), "s", (RELAXED, PROJECTION, FORWARD, ADJOINT)),
            "relaxed.gradient_evals": (gradient_evals, "count", (RELAXED,)),
            "relaxed.trials": (trials, "count", (RELAXED,)),
            "relaxed.accepted_per_trial": (
                h["relaxed_iterations"] / trials if trials else 0.0, "1", (RELAXED,)
            ),
            "relaxed.projection_s": (total(PROJECTION, dur), "s", (PROJECTION,)),
            "simulate.forward_sweeps": (calls[TERMINAL], "count", ()),
            "simulate.adjoint_sweeps": (calls[TERMINAL_GRAD], "count", ()),
            "simulate.stage_evals": (calls[STAGE], "count", ()),
            "simulate.adjoint_stage_evals": (adjoint_stage, "count", (ADJOINT,)),
            "simulate.jacobian_evals": (calls[JACOBIAN], "count", ()),
            "simulate.self_s": (
                total(FORWARD, self_s) + total(ADJOINT, self_s), "s", (FORWARD, ADJOINT)
            ),
            "benchmarks.model_s": (model_s, "s", ()),
            "benchmarks.model_calls": (sum(calls), "count", ()),
            "rounding.sur_s": (total(SUR, dur), "s", (SUR,)),
            "rounding.dwell_dp_s": (total(DWELL, dur), "s", (DWELL,)),
            "rounding.dwell_dp_cells": (h["dwell_dp_cells"], "count", (DWELL,)),
            "rounding.ciap_s": (total(CIAP, dur), "s", (CIAP,)),
            "rounding.ciap_nodes": (h["ciap_nodes"], "count", (CIAP,)),
            "rounding.oracle_s": (total(ORACLE, dur), "s", (ORACLE,)),
            "rounding.oracle_nodes": (h["oracle_nodes"], "count", (ORACLE,)),
        }
        available, withheld = {}, []
        for name, (value, unit, needs) in metrics.items():
            if all(span in self.installed for span in needs):
                available[name] = (float(value) if unit in ("s", "1") else int(value), unit)
            else:
                withheld.append(name)
        return available, withheld

    def dump(self, path):
        spans = [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]] + self._acc[i]
            for i in range(len(self.names))
        ]
        payload = {
            "columns": ["name", "start", "end", "parent", "stage_calls",
                        "jacobian_calls", "terminal_calls",
                        "terminal_gradient_calls", "model_s"],
            "root": self._acc[-1],
            "missing_targets": self.missing,
            "spans": spans,
        }
        path.write_text(json.dumps(payload))


def gradient_consistency(metrics):
    """Model-boundary gradients against the solver's own iteration counts.

    Each relaxed solve evaluates one gradient at its warm start and one per
    accepted iteration, so the two totals are independent witnesses of the
    same number.  Returns (agree, gradients counted, solves + iterations).
    """
    grads = metrics["relaxed.gradient_evals"][0]
    expected = metrics["relaxed.solves"][0] + metrics["relaxed.iterations"][0]
    return grads == expected, grads, expected


def _harvest_adm(h, args, kwargs, result):
    h["adm_inner_steps"] += len(result.trace)
    h["adm_outer_sweeps"] += len({rec.outer_index for rec in result.trace})


def _harvest_relaxed(h, args, kwargs, result):
    h["relaxed_iterations"] += result.iterations


def _harvest_dwell(h, args, kwargs, result):
    h["dwell_dp_cells"] += dwell_dp_cells(*args, **kwargs)


def _harvest_ciap(h, args, kwargs, result):
    h["ciap_nodes"] += result.nodes_explored


def _harvest_oracle(h, args, kwargs, result):
    h["oracle_nodes"] += result.nodes_explored


_HARVESTERS = {
    ADM: _harvest_adm,
    RELAXED: _harvest_relaxed,
    DWELL: _harvest_dwell,
    CIAP: _harvest_ciap,
    ORACLE: _harvest_oracle,
}
