import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import switchopt as so
from switchopt import cli
from switchopt.cli import RECORD_KEYS, RunConfig, load_controls_csv


def run_config(tmp_path, **kwargs):
    base = dict(
        problem="fuller", method="sur", tau_min=0.05, n_intervals=40,
        output_path=str(tmp_path),
    )
    base.update(kwargs)
    return RunConfig(**base)


class TestRun:
    def test_record_key_order_and_files(self, tmp_path):
        record = cli.run(run_config(tmp_path))
        assert tuple(record.keys()) == RECORD_KEYS
        stored = json.loads((tmp_path / "fuller_sur_result.json").read_text())
        assert tuple(stored.keys()) == RECORD_KEYS
        for name in ("controls", "trajectory", "trace"):
            assert (tmp_path / stored[f"{name}_file"]).exists()

    def test_sur_on_fuller_reports_infeasible_flag(self, tmp_path):
        record = cli.run(run_config(tmp_path))
        assert record["feasible"] is False
        assert record["error"] is None

    def test_adm_sur_run_feasible(self, tmp_path):
        record = cli.run(run_config(tmp_path, method="adm-sur", n_intervals=100))
        assert record["feasible"] is True
        assert record["penalty_value"] < 1e-4
        assert record["switch_counts"] is not None

    def test_infeasible_solver_exit_path(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise so.InfeasibleError("synthetic")

        monkeypatch.setattr(cli, "_execute", explode)
        record = cli.run(run_config(tmp_path))
        assert record["error"] == "infeasible: synthetic"
        assert record["_exit_code"] == 3
        stored = json.loads((tmp_path / "fuller_sur_result.json").read_text())
        assert stored["objective"] is None
        code = cli.main([
            "run", "--problem", "fuller", "--method", "sur",
            "--n-intervals", "30", "--out", str(tmp_path),
        ])
        assert code == 3

    def test_oracle_run(self, tmp_path):
        record = cli.run(run_config(
            tmp_path, method="oracle", n_intervals=20, tau_min=0.2,
        ))
        assert record["feasible"] is True
        trace = json.loads((tmp_path / record["trace_file"]).read_text())
        assert trace["proven_optimal"] is True

    def test_oracle_grid_cap_is_config_error(self, tmp_path):
        with pytest.raises(so.ConfigurationError):
            cli.run(run_config(tmp_path, method="oracle", n_intervals=50))

    def test_controls_roundtrip_reproduces_objective(self, tmp_path):
        record = cli.run(run_config(tmp_path, method="adm-sur", n_intervals=50))
        system, grid, spec = so.build_fuller(so.FullerConfig(0.05, 50))
        u, v, _ = load_controls_csv(
            tmp_path / record["controls_file"], grid, system
        )
        assert v is not None
        report = so.check_feasible(v, spec, grid)
        assert report.feasible == record["feasible"]
        w = so.binary_to_onehot(v, system.modes)
        obj = so.objective(system, so.integrate(system, grid, u, w))
        assert obj == pytest.approx(record["objective"], abs=1e-10)

    def test_poc_roundtrip_with_relaxed_columns(self, tmp_path):
        record = cli.run(run_config(tmp_path, method="poc", n_intervals=30))
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 30))
        u, v, w = load_controls_csv(
            tmp_path / record["controls_file"], grid, system,
        )
        assert v is None and w is not None
        obj = so.objective(system, so.integrate(system, grid, u, w))
        assert obj == pytest.approx(record["objective"], abs=1e-10)

    def test_determinism_modulo_wall_time(self, tmp_path):
        rec1 = cli.run(run_config(tmp_path / "a", method="adm", n_intervals=50))
        rec2 = cli.run(run_config(tmp_path / "b", method="adm", n_intervals=50))
        for key in RECORD_KEYS:
            if key == "wall_time_seconds":
                continue
            assert rec1[key] == rec2[key], key
        csv1 = (tmp_path / "a" / rec1["controls_file"]).read_text()
        csv2 = (tmp_path / "b" / rec2["controls_file"]).read_text()
        assert csv1 == csv2

    def test_translines_run(self, tmp_path):
        record = cli.run(run_config(
            tmp_path, problem="translines", method="ciap",
            tau_min=1.0, n_intervals=52, volumes_per_line=2,
        ))
        assert record["feasible"] is True
        assert record["error"] is None

    def test_translines_roundtrip_with_continuous_columns(self, tmp_path, translines_coarse):
        record = cli.run(run_config(
            tmp_path, problem="translines", method="poc",
            tau_min=1.0, n_intervals=52, volumes_per_line=2,
        ))
        system, grid, _ = translines_coarse
        u, v, w = load_controls_csv(
            tmp_path / record["controls_file"], grid, system,
        )
        assert v is None
        assert u.n_channels == 2 and w.n_modes == 4
        obj = so.objective(system, so.integrate(system, grid, u, w))
        assert obj == pytest.approx(record["objective"], abs=1e-10)

    def test_csv_uses_positional_decimal_notation(self, tmp_path):
        record = cli.run(run_config(tmp_path, method="poc", n_intervals=30))
        body = (tmp_path / record["trajectory_file"]).read_text()
        assert "e-" not in body and "E-" not in body

    def test_custom_problem_file(self, tmp_path):
        problem = {
            "nodes": ["src", "dst"],
            "lines": [{"start": "src", "end": "dst", "length": 1.0}],
            "switch_groups": [[0]],
            "producers": [{"node": "src", "lower": 0.0, "upper": 2.0}],
            "consumers": [{"node": "dst", "demand": [[0.0, 0.4], [8.0, 0.4]]}],
            "volumes_per_line": 2,
            "n_time_steps": 16,
            "t_end": 8.0,
            "tau_min": 1.0,
        }
        pfile = tmp_path / "net.yaml"
        pfile.write_text(yaml.safe_dump(problem))
        record = cli.run(run_config(
            tmp_path, problem="custom-file", method="sur",
            problem_file=str(pfile), tau_min=1.0, n_intervals=16,
        ))
        assert record["error"] is None
        assert np.isfinite(record["objective"])


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = cli.main([
            "run", "--problem", "fuller", "--method", "sur",
            "--tau-min", "0.05", "--n-intervals", "30",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["method"] == "sur"

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = cli.main([
            "run", "--problem", "fuller", "--method", "oracle",
            "--n-intervals", "64", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, body", [
        ("--config", "a: [1, 2"),
        ("--config", "- problem\n- fuller\n"),
        ("--config", "tau_min: abc\n"),
        ("--config", None),
        ("--problem-file", None),
        ("--problem-file", "nodes: [src, dst"),
    ], ids=[
        "config-malformed", "config-list", "config-mistyped", "config-missing",
        "problem-file-missing", "problem-file-malformed",
    ])
    def test_bad_input_file_exit_two(self, tmp_path, capsys, flag, body):
        path = tmp_path / "input.yaml"
        if body is not None:
            path.write_text(body)
        argv = ["run", "--method", "sur", "--out", str(tmp_path), flag, str(path)]
        if flag == "--problem-file":
            argv += ["--problem", "custom-file"]
        assert cli.main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        yaml.safe_dump(
            {"problem": "fuller", "method": "sur", "tau_min": 0.05,
             "n_intervals": 30, "output_path": str(tmp_path)},
            cfg_file.open("w"),
        )
        code = cli.main(["run", "--config", str(cfg_file), "--method", "ciap"])
        assert code == 0
        assert (tmp_path / "fuller_ciap_result.json").exists()

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "from_env"))
        code = cli.main([
            "run", "--problem", "fuller", "--method", "sur",
            "--tau-min", "0.05", "--n-intervals", "30",
        ])
        assert code == 0
        assert (tmp_path / "from_env" / "fuller_sur_result.json").exists()

    def test_internal_failure_exit_four(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise so.DivergenceError("synthetic blow-up", interval=3)

        monkeypatch.setattr(cli, "_execute", explode)
        code = cli.main([
            "run", "--problem", "fuller", "--method", "sur",
            "--n-intervals", "30", "--out", str(tmp_path),
        ])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err


class TestSweep:
    def test_tau_sweep_table(self, tmp_path):
        base = run_config(tmp_path, method="adm-sur", n_intervals=40)
        table = cli.sweep(base, ["sur", "adm-sur"], tau_min_values=[0.05, 0.1])
        lines = Path(table).read_text().strip().splitlines()
        assert lines[0] == "tau_min,sur,adm-sur"
        assert len(lines) == 3
        # every cell is backed by a record file
        assert len(list(tmp_path.glob("sweep_*_result.json"))) == 4

    def test_empty_grid_header_only(self, tmp_path):
        base = run_config(tmp_path)
        table = cli.sweep(base, ["sur"], tau_min_values=[])
        lines = Path(table).read_text().splitlines()
        assert lines == ["tau_min,sur"]

    def test_cell_cap(self, tmp_path):
        base = run_config(tmp_path)
        with pytest.raises(so.ConfigurationError):
            cli.sweep(base, ["sur"] * 11, tau_min_values=[0.01 * k for k in range(1, 11)])

    def test_failed_cell_records_na(self, tmp_path):
        base = run_config(tmp_path, method="oracle", n_intervals=64)
        table = cli.sweep(base, ["oracle"], tau_min_values=[0.1])
        body = Path(table).read_text()
        assert "NA(" in body

    def test_rho_factor_sweep_deterministic(self, tmp_path):
        base = run_config(
            tmp_path / "s1", problem="translines", method="adm",
            tau_min=1.0, n_intervals=52, volumes_per_line=2,
        )
        t1 = cli.sweep(base, ["adm"], rho_factor_values=[10.0])
        base2 = run_config(
            tmp_path / "s2", problem="translines", method="adm",
            tau_min=1.0, n_intervals=52, volumes_per_line=2,
        )
        t2 = cli.sweep(base2, ["adm"], rho_factor_values=[10.0])
        assert Path(t1).read_text() == Path(t2).read_text()
