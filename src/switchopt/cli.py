"""Batch front end: run one solver pipeline or sweep a small parameter grid.

Results are machine-readable artifacts: a JSON record per run with a fixed
key order (documented in ``RECORD_KEYS``), a trace JSON with solver
internals, and CSV files with the stored trajectory and controls.  All
numbers in CSVs use decimal notation with 12 significant digits.  Exit
codes: 0 success, 2 configuration error, 3 solver reported infeasibility,
4 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .adm import (
    ADM_PLAIN,
    ADM_SUR,
    AdmOptions,
    PenaltySchedule,
    _poc_solution,
    adm_penalty,
    ciap_heuristic,
    sur_heuristic,
)
from .benchmarks import (
    FullerConfig,
    TransLine,
    TranslinesConfig,
    build_fuller,
    build_translines,
    translines_subgrid_config,
)
from .core import (
    BinaryControlPath,
    ContinuousControlPath,
    RelaxedControlPath,
    binary_to_onehot,
    switch_count,
)
from .errors import ConfigurationError, InfeasibleError, SwitchOptError
from .rounding import global_oracle
from .simulate import integrate, objective

PROBLEMS = ("fuller", "translines", "custom-file")
METHODS = ("poc", "sur", "ciap", "adm", "adm-sur", "oracle")

ENV_OUTPUT_DIR = "SWITCHOPT_OUT"

#: Fixed key order of the per-run result record.
RECORD_KEYS = (
    "problem", "method", "tau_min", "n_intervals", "volumes_per_line",
    "epsilon", "rho_initial", "rho_increment_factor", "rho_max", "seed",
    "objective", "penalty_value", "feasible", "switch_counts", "rho_final",
    "wall_time_seconds", "trace_file", "controls_file", "trajectory_file",
    "error",
)


@dataclass
class RunConfig:
    problem: str = "fuller"
    method: str = "adm-sur"
    tau_min: float = 0.05
    n_intervals: int = 100
    volumes_per_line: int = 2
    epsilon: float = 1e-3
    rho_initial: float = 1e-3
    rho_increment_factor: float = 10.0
    rho_max: float = 1e6
    seed: int = 0
    output_path: str = "."
    problem_file: Optional[str] = None
    label: Optional[str] = None

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.method == "oracle" and self.n_intervals > 32:
            raise ConfigurationError("the oracle needs n_intervals <= 32")
        for name in ("tau_min", "epsilon", "rho_initial", "rho_increment_factor", "rho_max"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.n_intervals < 1 or self.volumes_per_line < 1:
            raise ConfigurationError("interval and volume counts must be >= 1")
        if self.problem == "custom-file" and not self.problem_file:
            raise ConfigurationError("custom-file problems need --problem-file")


def _fmt(x: float) -> str:
    """Decimal notation with 12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False, trim="-"
    )


def _load_problem(config: RunConfig):
    if config.problem == "fuller":
        return build_fuller(
            FullerConfig(tau_min=config.tau_min, n_intervals=config.n_intervals)
        )
    if config.problem == "translines":
        return build_translines(translines_subgrid_config(
            volumes_per_line=config.volumes_per_line,
            n_time_steps=config.n_intervals,
            tau_min=config.tau_min,
        ))
    raw = _read_yaml(config.problem_file, "problem file")
    return build_translines(_translines_config_from_dict(raw))


def _read_yaml(path: str, what: str):
    try:
        return yaml.safe_load(Path(path).read_text())
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"cannot load {what} {path}: {exc}") from exc


def _translines_config_from_dict(raw: dict) -> TranslinesConfig:
    try:
        lines = tuple(
            TransLine(d["start"], d["end"], float(d.get("length", 1.0)))
            for d in raw["lines"]
        )
        consumers = tuple(
            (d["node"], tuple((float(t), float(q)) for t, q in d["demand"]))
            for d in raw["consumers"]
        )
        producers = tuple(
            (d["node"], float(d.get("lower", 0.0)), float(d.get("upper", 1.0)))
            for d in raw["producers"]
        )
        kwargs = {
            key: raw[key]
            for key in (
                "lambda_plus", "lambda_minus", "volumes_per_line",
                "n_time_steps", "t_end", "tau_min", "representation",
            )
            if key in raw
        }
        if "damping" in raw:
            kwargs["damping"] = tuple(tuple(row) for row in raw["damping"])
        return TranslinesConfig(
            nodes=tuple(raw["nodes"]),
            lines=lines,
            switch_groups=tuple(tuple(g) for g in raw["switch_groups"]),
            producers=producers,
            consumers=consumers,
            **kwargs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad problem file: {exc}") from exc


def _execute(config: RunConfig, system, grid, spec):
    """Dispatch one method; returns (u, v_binary or None, w_relaxed or None,
    objective, penalty_value, feasible, rho_final, extras)."""
    schedule = PenaltySchedule(
        rho_initial=config.rho_initial,
        increment_factor=config.rho_increment_factor,
        rho_max=config.rho_max,
    )
    if config.method == "poc":
        sol = _poc_solution(system, grid)
        return dict(
            u=sol.u, v=None, w=sol.w, objective=sol.value, penalty_value=0.0,
            feasible=False, rho_final=0.0,
            extras={"converged": sol.converged, "iterations": sol.iterations,
                    "stationarity": sol.stationarity},
        )
    if config.method in ("sur", "ciap"):
        run = (sur_heuristic if config.method == "sur" else ciap_heuristic)(
            system, grid, spec
        )
        return dict(
            u=run.u_final, v=run.v_final, w=None, objective=run.objective,
            penalty_value=run.penalty_value, feasible=run.feasible,
            rho_final=run.rho_final, extras={"converged": run.converged},
        )
    if config.method in ("adm", "adm-sur"):
        options = AdmOptions(
            epsilon=config.epsilon,
            variant=ADM_SUR if config.method == "adm-sur" else ADM_PLAIN,
        )
        run = adm_penalty(system, grid, spec, schedule, options)
        extras = {
            "converged": run.converged,
            "trace": [dataclasses.asdict(rec) for rec in run.trace],
        }
        if run.p_eps_certificate is not None:
            extras["certificate"] = dataclasses.asdict(run.p_eps_certificate)
        return dict(
            u=run.u_final, v=run.v_final, w=None, objective=run.objective,
            penalty_value=run.penalty_value, feasible=run.feasible,
            rho_final=run.rho_final, extras=extras,
        )
    res = global_oracle(system, grid, spec)
    u_path = (
        ContinuousControlPath(grid, res.best_u, system.control_lower, system.control_upper)
        if res.best_u is not None
        else ContinuousControlPath.midpoint(grid, system.control_lower, system.control_upper)
    )
    return dict(
        u=u_path, v=res.best_control, w=None, objective=res.best_value,
        penalty_value=0.0, feasible=True, rho_final=0.0,
        extras={"proven_optimal": res.proven_optimal,
                "nodes_explored": res.nodes_explored},
    )


def _write_csv(path: Path, header, rows):
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _store_outputs(config: RunConfig, system, grid, outcome, out_dir: Path, label: str):
    """Trajectory/control CSVs plus the trace JSON; returns their names."""
    u = outcome["u"]
    controls_file = f"{label}_controls.csv"
    trajectory_file = f"{label}_trajectory.csv"
    trace_file = f"{label}_trace.json"

    if outcome["v"] is not None:
        w_path = binary_to_onehot(outcome["v"], system.modes)
        control_cols = [
            (f"v{c + 1}", outcome["v"].values[:, c])
            for c in range(outcome["v"].n_components)
        ]
    else:
        w_path = outcome["w"]
        control_cols = [
            (f"w{i + 1}", w_path.values[:, i]) for i in range(w_path.n_modes)
        ]
    control_cols.extend(
        (f"u{ch + 1}", u.values[:, ch]) for ch in range(u.n_channels)
    )
    t_left = grid.nodes()[:-1]
    _write_csv(
        out_dir / controls_file,
        ["t"] + [name for name, _ in control_cols],
        (
            [t_left[k]] + [col[k] for _, col in control_cols]
            for k in range(grid.n_intervals)
        ),
    )

    traj = integrate(system, grid, u, w_path)
    state_names = system.state_names or tuple(
        f"y{i + 1}" for i in range(system.state_dim)
    )
    _write_csv(
        out_dir / trajectory_file,
        ["t"] + list(state_names),
        (
            [grid.nodes()[k]] + list(traj.states[k])
            for k in range(grid.n_intervals + 1)
        ),
    )
    (out_dir / trace_file).write_text(json.dumps(outcome["extras"], indent=1))
    return controls_file, trajectory_file, trace_file


def _record(config: RunConfig, outcome, wall_time, files, error=None) -> dict:
    switch_counts = None
    if outcome is not None and outcome["v"] is not None:
        v = outcome["v"]
        switch_counts = [
            switch_count(v, c, 0, v.grid.n_intervals)
            for c in range(v.n_components)
        ]
    controls_file, trajectory_file, trace_file = files or (None, None, None)
    record = {
        "problem": config.problem,
        "method": config.method,
        "tau_min": config.tau_min,
        "n_intervals": config.n_intervals,
        "volumes_per_line": config.volumes_per_line if config.problem != "fuller" else None,
        "epsilon": config.epsilon,
        "rho_initial": config.rho_initial,
        "rho_increment_factor": config.rho_increment_factor,
        "rho_max": config.rho_max,
        "seed": config.seed,
        "objective": None if outcome is None else outcome["objective"],
        "penalty_value": None if outcome is None else outcome["penalty_value"],
        "feasible": None if outcome is None else outcome["feasible"],
        "switch_counts": switch_counts,
        "rho_final": None if outcome is None else outcome["rho_final"],
        "wall_time_seconds": wall_time,
        "trace_file": trace_file,
        "controls_file": controls_file,
        "trajectory_file": trajectory_file,
        "error": error,
    }
    assert tuple(record.keys()) == RECORD_KEYS
    return record


def run(config: RunConfig) -> dict:
    """Execute one configured run and write its artifacts.

    Returns the result record; raises ConfigurationError for bad configs and
    lets solver infeasibility surface as a record with an error entry.
    """
    config.validate()
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = config.label or f"{config.problem}_{config.method}"
    system, grid, spec = _load_problem(config)
    started = time.perf_counter()
    try:
        outcome = _execute(config, system, grid, spec)
    except InfeasibleError as exc:
        wall = time.perf_counter() - started
        record = _record(config, None, wall, None, error=f"infeasible: {exc}")
        (out_dir / f"{label}_result.json").write_text(json.dumps(record, indent=1))
        record["_exit_code"] = 3
        return record
    wall = time.perf_counter() - started
    files = _store_outputs(config, system, grid, outcome, out_dir, label)
    record = _record(config, outcome, wall, files)
    (out_dir / f"{label}_result.json").write_text(json.dumps(record, indent=1))
    return record


def load_controls_csv(path, grid, system):
    """Rebuild control paths from a stored controls CSV.

    Returns (u, v or None, w): binary columns when the file stores a binary
    result, relaxed multiplier columns otherwise.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    data = np.array(rows)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    v_names = sorted((n for n in header if n.startswith("v")), key=lambda s: int(s[1:]))
    w_names = sorted((n for n in header if n.startswith("w")), key=lambda s: int(s[1:]))
    u_names = sorted((n for n in header if n.startswith("u")), key=lambda s: int(s[1:]))
    u_vals = (
        np.column_stack([cols[n] for n in u_names])
        if u_names else np.zeros((grid.n_intervals, 0))
    )
    u = ContinuousControlPath(grid, u_vals, system.control_lower, system.control_upper)
    if v_names:
        v_vals = np.column_stack([cols[n] for n in v_names]).astype(np.int64)
        return u, BinaryControlPath(grid, v_vals), None
    w_vals = np.column_stack([cols[n] for n in w_names])
    return u, None, RelaxedControlPath(grid, w_vals)


def sweep(base: RunConfig, methods, tau_min_values=None, rho_factor_values=None,
          max_cells: int = 100) -> Path:
    """Cross one swept parameter with a method list into a summary table.

    Each cell runs independently and failures are recorded as NA with the
    reason; the summary CSV is written once at the end with deterministic
    row order.
    """
    if tau_min_values is not None and rho_factor_values is not None:
        raise ConfigurationError("sweep one parameter at a time")
    param_name = (
        "rho_increment_factor" if rho_factor_values is not None else "tau_min"
    )
    values = list(
        rho_factor_values if rho_factor_values is not None else (tau_min_values or [])
    )
    if len(values) * len(methods) > max_cells:
        raise ConfigurationError(
            f"sweep of {len(values) * len(methods)} cells exceeds the cap {max_cells}"
        )
    out_dir = Path(base.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_rows = []
    for value in values:
        row = [value]
        for method in methods:
            cell = dataclasses.replace(
                base, method=method,
                label=f"sweep_{param_name}_{_fmt(value)}_{method}",
            )
            setattr(cell, param_name, value)
            try:
                record = run(cell)
                if record.get("error"):
                    row.append(f"NA({record['error']})")
                else:
                    row.append(record["objective"])
            except SwitchOptError as exc:
                row.append(f"NA({exc})")
        table_rows.append(row)
    table_path = out_dir / "sweep.csv"
    with table_path.open("w") as fh:
        fh.write(",".join([param_name] + list(methods)) + "\n")
        for row in table_rows:
            fh.write(
                ",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n"
            )
    return table_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchopt",
        description="Switched-system optimal control with dwell-time constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--problem", choices=PROBLEMS, default=None)
        p.add_argument("--tau-min", type=float, default=None)
        p.add_argument("--n-intervals", type=int, default=None)
        p.add_argument("--volumes", type=int, default=None,
                       help="finite volumes per line (translines only)")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--rho-init", type=float, default=None)
        p.add_argument("--rho-factor", type=float, default=None)
        p.add_argument("--rho-max", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None, help="YAML file with the same keys")
        p.add_argument("--problem-file", default=None,
                       help="network description for custom-file problems")

    run_p = sub.add_parser("run", help="execute one solver pipeline")
    add_shared(run_p)
    run_p.add_argument("--method", choices=METHODS, default=None)

    sweep_p = sub.add_parser("sweep", help="run a small parameter/method grid")
    add_shared(sweep_p)
    sweep_p.add_argument("--methods", default="",
                         help="comma-separated method list")
    sweep_p.add_argument("--tau-min-values", default=None,
                         help="comma-separated dwell times (rows)")
    sweep_p.add_argument("--rho-factor-values", default=None,
                         help="comma-separated penalty increment factors (rows)")
    return parser


_FLAG_TO_FIELD = {
    "problem": "problem", "method": "method", "tau_min": "tau_min",
    "n_intervals": "n_intervals", "volumes": "volumes_per_line",
    "eps": "epsilon", "rho_init": "rho_initial",
    "rho_factor": "rho_increment_factor", "rho_max": "rho_max",
    "seed": "seed", "out": "output_path", "problem_file": "problem_file",
}

_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}


def _config_from_args(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        raw = _read_yaml(args.config, "config file") or {}
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {args.config} must hold a mapping")
        for key, value in raw.items():
            if key not in _FIELD_DEFAULTS:
                raise ConfigurationError(f"unknown config key {key!r}")
            default = _FIELD_DEFAULTS[key]
            if value is not None or default is not None:
                # Parsed from its text as the command-line flag would be.
                try:
                    value = (str if default is None else type(default))(str(value))
                except ValueError as exc:
                    raise ConfigurationError(f"config key {key!r}: {exc}") from exc
            setattr(config, key, value)
    for flag, field_name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, field_name, value)
    if config.output_path == ".":
        config.output_path = os.environ.get(ENV_OUTPUT_DIR, ".")
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "run":
            record = run(config)
            if record.get("error"):
                print(f"infeasible: {record['error']}", file=sys.stderr)
                return 3
            print(json.dumps(record, indent=1))
            return 0
        methods = [m for m in args.methods.split(",") if m]
        for m in methods:
            if m not in METHODS:
                raise ConfigurationError(f"unknown method {m!r}")
        taus = (
            [float(x) for x in args.tau_min_values.split(",") if x]
            if args.tau_min_values else None
        )
        factors = (
            [float(x) for x in args.rho_factor_values.split(",") if x]
            if args.rho_factor_values else None
        )
        table = sweep(config, methods, taus, factors)
        print(str(table))
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except SwitchOptError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
