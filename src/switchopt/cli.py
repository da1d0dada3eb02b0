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

from .adm import (
    AdmOptions,
    AdmResult,
    PenaltySchedule,
    _integer_result,
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
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    InfeasibleError,
    RepresentationError,
    SwitchOptError,
)
from .rounding import MAX_ORACLE_INTERVALS, global_oracle
from .simulate import _sweep_memo, integrate

PROBLEMS = ("fuller", "translines", "custom-file")
METHODS = ("poc", "sur", "ciap", "adm", "adm-sur", "oracle")

ENV_OUTPUT_DIR = "SWITCHOPT_OUT"
MAX_SWEEP_CELLS = 100

#: Fixed key order of the per-run result record.  ``seed`` is recorded
#: only: no solver draws random numbers, so it does not change any result.
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

    def validate(self) -> PenaltySchedule:
        """Check the config; returns its penalty ladder."""
        if self.problem not in PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        for name in ("tau_min", "epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if self.n_intervals < 1 or self.volumes_per_line < 1:
            raise ConfigurationError("interval and volume counts must be >= 1")
        if self.problem == "custom-file" and not self.problem_file:
            raise ConfigurationError("custom-file problems need --problem-file")
        if self.label is not None and (Path(self.label).name != self.label or "\0" in self.label):
            raise ConfigurationError(f"label {self.label!r} must be a plain file name")
        try:
            return PenaltySchedule(
                rho_initial=self.rho_initial,
                increment_factor=self.rho_increment_factor,
                rho_max=self.rho_max,
            )
        except DimensionError as exc:
            raise ConfigurationError(f"penalty ladder: {exc}") from exc


def _output_dir(path: str) -> Path:
    """The output directory, created with its parents if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigurationError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def _fmt(x: float) -> str:
    """Decimal notation with 12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False, trim="-"
    )


def _load_problem(config: RunConfig):
    """Build the configured problem; returns the config of the settings that
    run (a problem file's own for custom-file) and (system, grid, spec)."""
    if config.problem == "fuller":
        return config, build_fuller(
            FullerConfig(tau_min=config.tau_min, n_intervals=config.n_intervals)
        )
    if config.problem == "translines":
        return config, build_translines(translines_subgrid_config(
            volumes_per_line=config.volumes_per_line,
            n_time_steps=config.n_intervals,
            tau_min=config.tau_min,
        ))
    parsed = _translines_config_from_dict(_read_yaml(config.problem_file, "problem file"))
    try:
        problem = build_translines(parsed)
    except (CapacityError, DimensionError, RepresentationError) as exc:
        raise ConfigurationError(f"bad problem file: {exc}") from exc
    ran = dataclasses.replace(
        config, tau_min=float(parsed.tau_min), n_intervals=parsed.n_time_steps,
        volumes_per_line=parsed.volumes_per_line,
    )
    return ran, problem


def _read_yaml(path: str, what: str):
    import yaml  # only runs that read YAML pay for its import

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


def _execute(config: RunConfig, schedule: PenaltySchedule, system, grid, spec):
    """Run the configured method; returns (AdmResult, trace payload)."""
    if config.method == "poc":
        sol = _poc_solution(system, grid)
        result = AdmResult(
            u_final=sol.u, v_final=None, v_tilde_final=None, objective=sol.value,
            penalty_value=0.0, rho_final=0.0, feasible=False, p_eps_certificate=None,
            trace=(), method="poc", converged=sol.converged, relaxed_w_final=sol.w,
        )
        return result, {"converged": sol.converged, "iterations": sol.iterations,
                        "stationarity": sol.stationarity}
    if config.method == "oracle":
        res = global_oracle(system, grid, spec)
        u = (ContinuousControlPath.empty(grid) if res.best_u is None else
             ContinuousControlPath(grid, res.best_u, system.control_lower, system.control_upper))
        result = _integer_result(
            system, grid, spec, u, binary_to_onehot(res.best_control, system.modes),
            method="oracle", converged=res.proven_optimal,
        )
        return result, {"proven_optimal": res.proven_optimal,
                        "nodes_explored": res.nodes_explored}
    if config.method in ("sur", "ciap"):
        result = (sur_heuristic if config.method == "sur" else ciap_heuristic)(
            system, grid, spec
        )
        return result, {"converged": result.converged}
    options = AdmOptions(epsilon=config.epsilon, variant=config.method)
    result = adm_penalty(system, grid, spec, schedule, options)
    payload = {
        "converged": result.converged,
        "trace": [dataclasses.asdict(rec) for rec in result.trace],
    }
    if result.p_eps_certificate is not None:
        payload["certificate"] = dataclasses.asdict(result.p_eps_certificate)
    return result, payload


def _write_csv(path: Path, header, rows):
    """Numbers in ``_fmt`` notation; string cells (a sweep's NA) as they are."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")


def _store_outputs(system, grid, result: AdmResult, payload, out_dir: Path, label: str):
    """Trajectory/control CSVs plus the trace JSON; returns their names."""
    u = result.u_final
    controls_file = f"{label}_controls.csv"
    trajectory_file = f"{label}_trajectory.csv"
    trace_file = f"{label}_trace.json"

    v = result.v_final
    if v is not None:
        w_path = binary_to_onehot(v, system.modes)
        control_cols = [(f"v{c + 1}", v.values[:, c]) for c in range(v.n_components)]
    else:
        w_path = result.relaxed_w_final
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
    (out_dir / trace_file).write_text(json.dumps(payload, indent=1))
    return controls_file, trajectory_file, trace_file


def _record(config: RunConfig, result: Optional[AdmResult], wall_time, files,
            error=None) -> dict:
    switch_counts = None
    v = None if result is None else result.v_final
    if v is not None:
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
        "objective": None if result is None else result.objective,
        "penalty_value": None if result is None else result.penalty_value,
        "feasible": None if result is None else result.feasible,
        "switch_counts": switch_counts,
        "rho_final": None if result is None else result.rho_final,
        "wall_time_seconds": wall_time,
        "trace_file": trace_file,
        "controls_file": controls_file,
        "trajectory_file": trajectory_file,
        "error": error,
    }
    assert tuple(record.keys()) == RECORD_KEYS
    return record


@_sweep_memo()
def run(config: RunConfig) -> dict:
    """Execute one configured run and write its artifacts.

    Returns the result record; raises ConfigurationError for bad configs and
    lets solver infeasibility surface as a record with an error entry.  The
    solve and the stored trajectory share one forward-sweep memo
    (``simulate._sweep_memo``), so the trajectory of a just-swept control is
    not integrated again.
    """
    schedule = config.validate()
    out_dir = _output_dir(config.output_path)
    label = config.label or f"{config.problem}_{config.method}"
    config, (system, grid, spec) = _load_problem(config)
    if config.method == "oracle" and grid.n_intervals > MAX_ORACLE_INTERVALS:
        raise ConfigurationError(f"the oracle needs at most {MAX_ORACLE_INTERVALS} intervals")
    started = time.perf_counter()
    try:
        result, payload = _execute(config, schedule, system, grid, spec)
    except InfeasibleError as exc:
        wall = time.perf_counter() - started
        record = _record(config, None, wall, None, error=f"infeasible: {exc}")
        (out_dir / f"{label}_result.json").write_text(json.dumps(record, indent=1))
        return record
    wall = time.perf_counter() - started
    files = _store_outputs(system, grid, result, payload, out_dir, label)
    record = _record(config, result, wall, files)
    (out_dir / f"{label}_result.json").write_text(json.dumps(record, indent=1))
    return record


def load_controls_csv(path, grid, system):
    """Rebuild control paths from a stored controls CSV.

    Returns (u, v or None, w): binary columns when the file stores a binary
    result, relaxed multiplier columns otherwise.  An empty or ragged table,
    or a ``t`` cell that is not the grid's left node at the writer's 12
    significant digits, raises DimensionError; a cell that is not a number, a
    column other than ``t`` and distinct numbered u, v and w columns, or no v
    or w column raises RepresentationError.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = [line.strip().split(",") for line in fh if line.strip()]
    if not lines or any(len(cells) != len(header) for cells in lines):
        raise DimensionError(f"{path}: the controls table is empty or ragged")
    known = all(name == "t" or (name[:1] in "uvw" and name[1:].isdecimal()) for name in header)
    if not known or len(set(header)) < len(header):
        raise RepresentationError(f"{path}: the columns are not t and numbered u, v and w")
    try:
        data = np.array([[float(x) for x in cells] for cells in lines])
    except ValueError:
        raise RepresentationError(f"{path}: a controls cell is not a number") from None
    if "t" in header:
        times = data[:, header.index("t")]
        if any(_fmt(t) != _fmt(node) for t, node in zip(times, grid.nodes()[:-1])):
            raise DimensionError(f"{path}: the t column is not this grid's left nodes")

    def numbered(prefix):
        """The columns named ``prefix`` and a number, in number order."""
        order = sorted((int(name[1:]), i) for i, name in enumerate(header) if name[0] == prefix)
        return data[:, [i for _, i in order]]

    v_vals, w_vals = numbered("v"), numbered("w")
    if not (v_vals.shape[1] or w_vals.shape[1]):
        raise RepresentationError(f"{path}: the controls table has neither v nor w columns")
    u = ContinuousControlPath(grid, numbered("u"), system.control_lower, system.control_upper)
    if v_vals.shape[1]:
        return u, BinaryControlPath(grid, v_vals), None
    return u, None, RelaxedControlPath(grid, w_vals)


def sweep(base: RunConfig, methods, tau_min_values=None, rho_factor_values=None) -> Path:
    """Cross one swept parameter with a method list into a summary table.

    Each cell runs independently and failures are recorded as NA with the
    reason; the summary CSV is written once at the end with deterministic
    row order.
    """
    if tau_min_values is not None and rho_factor_values is not None:
        raise ConfigurationError("sweep one parameter at a time")
    if tau_min_values is not None and base.problem == "custom-file":
        raise ConfigurationError("custom-file problems take tau_min from their file")
    param_name = (
        "rho_increment_factor" if rho_factor_values is not None else "tau_min"
    )
    values = list(
        rho_factor_values if rho_factor_values is not None else (tau_min_values or [])
    )
    if len(values) * len(methods) > MAX_SWEEP_CELLS:
        raise ConfigurationError(
            f"sweep of {len(values) * len(methods)} cells exceeds the cap {MAX_SWEEP_CELLS}"
        )
    out_dir = _output_dir(base.output_path)
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
    _write_csv(table_path, [param_name] + list(methods), table_rows)
    return table_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchopt",
        description="Switched-system optimal control with dwell-time constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        # Every dest but --config's is the RunConfig field the flag sets.
        p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--tau-min", type=float)
        p.add_argument("--n-intervals", type=int)
        p.add_argument("--volumes", type=int, dest="volumes_per_line",
                       help="finite volumes per line (translines only)")
        p.add_argument("--eps", type=float, dest="epsilon")
        p.add_argument("--rho-init", type=float, dest="rho_initial")
        p.add_argument("--rho-factor", type=float, dest="rho_increment_factor")
        p.add_argument("--rho-max", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="output_path", help="output directory")
        p.add_argument("--config", help="YAML file with the same keys")
        p.add_argument("--problem-file",
                       help="network description for custom-file problems")

    run_p = sub.add_parser("run", help="execute one solver pipeline")
    add_shared(run_p)
    run_p.add_argument("--method", choices=METHODS)

    sweep_p = sub.add_parser("sweep", help="run a small parameter/method grid")
    add_shared(sweep_p)
    sweep_p.add_argument("--methods", default="",
                         help="comma-separated method list")
    sweep_p.add_argument("--tau-min-values",
                         help="comma-separated dwell times (rows)")
    sweep_p.add_argument("--rho-factor-values",
                         help="comma-separated penalty increment factors (rows)")
    return parser


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
            if value is None and default is not None:
                raise ConfigurationError(f"config key {key!r} cannot be null")
            if value is not None:
                # Parsed from its text as the command-line flag would be.
                try:
                    value = (str if default is None else type(default))(str(value))
                except ValueError as exc:
                    raise ConfigurationError(f"config key {key!r}: {exc}") from exc
            setattr(config, key, value)
    for key in _FIELD_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if config.output_path == ".":
        config.output_path = os.environ.get(ENV_OUTPUT_DIR, ".")
    return config


def _float_list(text, flag):
    """Comma-separated numbers of a sweep flag; None when the flag is absent."""
    if not text:
        return None
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from exc


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
        taus = _float_list(args.tau_min_values, "--tau-min-values")
        factors = _float_list(args.rho_factor_values, "--rho-factor-values")
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
