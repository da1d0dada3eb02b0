import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import switchopt as so
from switchopt import cli, simulate
from switchopt.cli import RECORD_KEYS, RunConfig, load_controls_csv

from conftest import record_sweep_points


def write_problem_file(tmp_path, **overrides):
    """A two-node network file, 16 Euler steps over t in [0, 8]."""
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
    problem.update(overrides)
    pfile = tmp_path / "net.yaml"
    pfile.write_text(yaml.safe_dump(problem))
    return pfile


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
        trace = json.loads((tmp_path / record["trace_file"]).read_text())["trace"]
        assert trace and all(
            rec["relaxed_iterations"] >= 0 and rec["relaxed_stationarity"] >= 0
            for rec in trace
        )

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

    @pytest.mark.parametrize("problem", ["translines-4x2", "fuller-8"])
    def test_oracle_result_is_the_enumerated_optimum(self, problem):
        if problem == "fuller-8":
            system, grid, spec = so.build_fuller(so.FullerConfig(tau_min=0.2, n_intervals=8))
        else:
            cfg = so.translines_subgrid_config(volumes_per_line=2, n_time_steps=52)
            system, grid, spec = so.build_translines(so.TranslinesConfig(
                nodes=cfg.nodes, lines=cfg.lines, switch_groups=cfg.switch_groups,
                producers=cfg.producers,
                consumers=tuple(
                    (node, ((0.0, q0), (2.0, q0)))
                    for (node, _), q0 in zip(cfg.consumers, (0.4, 0.3, 0.5, 0.2, 0.3))
                ),
                volumes_per_line=1, n_time_steps=4, t_end=2.0, tau_min=1.0,
            ))
        result, _ = cli._execute(
            RunConfig(method="oracle"), so.PenaltySchedule(), system, grid, spec
        )
        best = so.global_oracle(system, grid, spec)
        # The re-simulated binary control reproduces the enumerated value.
        assert result.objective == best.best_value
        assert result.feasible
        assert np.array_equal(result.v_final.values, best.best_control.values)
        best_u = np.zeros((grid.n_intervals, 0)) if best.best_u is None else best.best_u
        assert np.array_equal(result.u_final.values, best_u)

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

    @pytest.mark.parametrize("entry, loads", [("1.0", True), ("0.9", False), ("nan", False)])
    def test_controls_csv_binary_entries_are_not_truncated(self, tmp_path, entry, loads):
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 4))
        path = tmp_path / "controls.csv"
        rows = zip(grid.nodes()[:-1], ("0", "1", entry, "0"))
        path.write_text("t,v0\n" + "".join(f"{t},{v}\n" for t, v in rows))
        if loads:
            _, v, _ = load_controls_csv(path, grid, system)
            assert v.values[:, 0].tolist() == [0, 1, 1, 0]
        else:
            with pytest.raises(so.RepresentationError):
                load_controls_csv(path, grid, system)

    @pytest.mark.parametrize("text, error", [
        ("t,v1\n", so.DimensionError),
        ("t,v1\n0.0\n", so.DimensionError),
        ("t,v1\n0.0,1,2\n", so.DimensionError),
        ("t\n0.0\n", so.RepresentationError),
        ("t,u1\n0.0,0.5\n", so.RepresentationError),
        ("t,v1,vx\n0.0,1,0\n", so.RepresentationError),
        ("t,v\n0.0,1\n", so.RepresentationError),
        ("t,x1\n0.0,1\n", so.RepresentationError),
        ("t,v1,v1\n0.0,1,1\n", so.RepresentationError),
        ("t,v1\n0.0,one\n", so.RepresentationError),
        ("t,v1\n5.0,1\n", so.DimensionError),
    ], ids=["no-rows", "short-row", "long-row", "no-controls", "only-u", "unnumbered",
            "bare-prefix", "unknown-column", "duplicate-column", "non-number", "off-grid-t"])
    def test_malformed_controls_csv_is_rejected(self, tmp_path, text, error):
        system, grid, _ = so.build_fuller(so.FullerConfig(0.05, 1))
        path = tmp_path / "controls.csv"
        path.write_text(text)
        with pytest.raises(error):
            load_controls_csv(path, grid, system)

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
        pfile = write_problem_file(tmp_path)
        record = cli.run(run_config(
            tmp_path, problem="custom-file", method="sur",
            problem_file=str(pfile), tau_min=1.0, n_intervals=16,
        ))
        assert record["error"] is None
        assert np.isfinite(record["objective"])

    def test_custom_problem_record_echoes_the_file_settings(self, tmp_path):
        pfile = write_problem_file(tmp_path)
        record = cli.run(run_config(
            tmp_path, problem="custom-file", method="sur", problem_file=str(pfile),
            tau_min=0.5, n_intervals=100, volumes_per_line=3,
        ))
        ran = (record["tau_min"], record["n_intervals"], record["volumes_per_line"])
        assert ran == (1.0, 16, 2)

    def test_benchmark_patch_points_are_called(self, tmp_path, monkeypatch):
        # bench/tracing.py times these module attributes; a call that bypasses
        # one of them would silently zero that layer's metrics.
        from switchopt import adm

        targets = [
            (cli, "adm_penalty"), (cli, "build_fuller"),
            (adm, "solve_relaxed_poc"), (adm, "dwell_project_weighted"),
            (adm, "sum_up_rounding"), (adm, "constrained_ciap"),
        ]
        calls = dict.fromkeys((name for _, name in targets), 0)

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for module, name in targets:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        cli.run(run_config(tmp_path, method="adm-sur", n_intervals=20))
        cli.run(run_config(tmp_path, method="ciap", n_intervals=20))
        assert all(calls.values()), calls


class TestSweepMemo:
    def test_run_sweeps_each_point_once(self, tmp_path, monkeypatch):
        # The stored trajectory is the result's own control, already swept
        # inside adm_penalty; the scope of cli.run keeps that sweep.
        asked = record_sweep_points(monkeypatch)
        sweeps = []
        forward_sweep = simulate._forward_sweep

        def counting(*args):
            sweeps.append(1)
            return forward_sweep(*args)

        monkeypatch.setattr(simulate, "_forward_sweep", counting)
        cli.run(run_config(tmp_path, method="adm"))
        assert len(asked) > len(set(asked))
        assert len(sweeps) == len(set(asked))

    def test_back_to_back_runs_write_identical_csvs(self, tmp_path, monkeypatch):
        # Two runs with the memo, then one without it (no entries kept).
        outputs = []
        for i, entries in enumerate((simulate._MEMO_ENTRIES, simulate._MEMO_ENTRIES, 0)):
            monkeypatch.setattr(simulate, "_MEMO_ENTRIES", entries)
            out = tmp_path / str(i)
            record = cli.run(run_config(out, method="adm-sur", label="run"))
            assert simulate._memo.get() is None
            outputs.append([(out / record[key]).read_bytes()
                            for key in ("controls_file", "trajectory_file")])
        assert outputs[0] == outputs[1] == outputs[2]


class TestMain:
    SHARED_FLAGS = {
        "--problem": ("problem", "translines"), "--tau-min": ("tau_min", 0.25),
        "--n-intervals": ("n_intervals", 7), "--volumes": ("volumes_per_line", 3),
        "--eps": ("epsilon", 0.125), "--rho-init": ("rho_initial", 0.5),
        "--rho-factor": ("rho_increment_factor", 3.0), "--rho-max": ("rho_max", 64.0),
        "--seed": ("seed", 9), "--out": ("output_path", "outdir"),
        "--problem-file": ("problem_file", "net.yaml"),
    }

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_every_shared_flag_sets_its_field(self, command):
        argv = [command]
        for flag, (_, value) in self.SHARED_FLAGS.items():
            argv += [flag, str(value)]
        if command == "run":
            argv += ["--method", "oracle"]
        config = cli._config_from_args(cli._build_parser().parse_args(argv))
        expected = dict(self.SHARED_FLAGS.values())
        expected["method"] = "oracle" if command == "run" else RunConfig.method
        for field, value in expected.items():
            assert getattr(config, field) == value, field
        assert config.label is None

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

    def test_dwell_time_beyond_horizon_exit_two(self, tmp_path, capsys):
        code = cli.main([
            "run", "--problem", "translines", "--method", "ciap", "--tau-min", "1e6",
            "--n-intervals", "52", "--volumes", "2", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "tau_min" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_result.json"))

    @pytest.mark.parametrize("key", ["output_path", "tau_min", "method", "seed"])
    def test_null_config_value_exit_two(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "run.yaml"
        raw = {"problem": "fuller", "method": "sur", "n_intervals": 20, key: None}
        yaml.safe_dump(raw, cfg_file.open("w"))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert f"config key {key!r} cannot be null" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_result.json"))

    def test_null_label_and_problem_file_keep_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.yaml"
        cfg_file.write_text(
            f"problem: fuller\nmethod: sur\nn_intervals: 20\noutput_path: {tmp_path}\n"
            "label: null\nproblem_file: null\n"
        )
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "fuller_sur_result.json").exists()

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

    @pytest.mark.parametrize("flag, values", [
        ("--tau-min-values", "abc"),
        ("--tau-min-values", "0.05,x"),
        ("--rho-factor-values", "10,ten"),
    ])
    def test_bad_sweep_values_exit_two(self, tmp_path, capsys, flag, values):
        code = cli.main([
            "sweep", "--problem", "fuller", "--methods", "sur",
            "--n-intervals", "20", "--out", str(tmp_path), flag, values,
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("sweep_*"))

    @pytest.mark.parametrize("flags", [
        ["--rho-factor", "1"],
        ["--rho-init", "10", "--rho-max", "1"],
        ["--rho-factor", "1.000000000001"],
    ], ids=["factor-one", "init-above-max", "factor-barely-above-one"])
    def test_bad_penalty_ladder_exit_two(self, tmp_path, capsys, flags):
        code = cli.main([
            "run", "--problem", "fuller", "--method", "adm-sur",
            "--n-intervals", "20", "--out", str(tmp_path), *flags,
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_result.json"))

    @pytest.mark.parametrize("flags", [
        ["--rho-max", "inf"],
        ["--rho-factor", "nan"],
        ["--eps", "nan"],
        ["--eps", "inf"],
        ["--tau-min", "nan"],
    ], ids=["rho-max-inf", "rho-factor-nan", "eps-nan", "eps-inf", "tau-min-nan"])
    def test_non_finite_value_exit_two(self, tmp_path, capsys, flags):
        # sur builds the penalty ladder's schedule but never walks it, so a
        # value that slips through validation shows as exit 0, not a hang.
        code = cli.main([
            "run", "--problem", "fuller", "--method", "sur",
            "--n-intervals", "20", "--out", str(tmp_path), *flags,
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_result.json"))

    @pytest.mark.parametrize("overrides, flags", [
        ({"tau_min": float("nan")}, []),
        ({"tau_min": float("inf")}, []),
        ({"switch_groups": [[0]] * 17}, []),
        ({"n_time_steps": 40}, ["--method", "oracle", "--n-intervals", "20"]),
        ({"volumes_per_line": 1.5}, []),
        ({"volumes_per_line": 2.0}, []),
        ({"n_time_steps": 16.5}, []),
        ({"lambda_plus": float("nan")}, []),
        ({"consumers": [{"node": "dst", "demand": [[0.0, float("nan")], [8.0, 0.4]]}]}, []),
        ({"lines": [{"start": "src", "end": "dst", "length": float("nan")}]}, []),
        ({"producers": [{"node": "src", "lower": 0.0, "upper": float("inf")}]}, []),
        ({"producers": [{"node": "src", "lower": 3.0, "upper": 2.0}]}, []),
        ({"switch_groups": [[0.5]]}, []),
        ({"switch_groups": [[True]], "lines": [{"start": "src", "end": "dst"}] * 2}, []),
        ({"volumes_per_line": True}, []),
        ({"n_time_steps": True, "t_end": 0.5, "tau_min": 0.5,
          "consumers": [{"node": "dst", "demand": [[0.0, 0.4], [0.5, 0.4]]}]}, []),
        ({"producers": [{"lower": 0.0, "upper": 2.0}]}, []),
    ], ids=["tau-nan", "tau-inf", "17-switch-groups", "oracle-over-file-grid",
            "volumes-1.5", "volumes-2.0", "steps-16.5", "speed-nan", "demand-nan",
            "length-nan", "upper-inf", "lower-above-upper", "group-entry-0.5",
            "group-entry-true", "volumes-true", "steps-true", "producer-without-node"])
    def test_bad_problem_file_content_exit_two(self, tmp_path, capsys, overrides, flags):
        pfile = write_problem_file(tmp_path, **overrides)
        code = cli.main([
            "run", "--method", "sur", "--out", str(tmp_path), "--problem",
            "custom-file", "--problem-file", str(pfile), *flags,
        ])
        assert code == 2
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


    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("under", [False, True])
    def test_output_path_at_a_file_exit_two(self, tmp_path, capsys, command, under):
        """An --out that is an existing file, or a path under one, is a
        configuration error, not a traceback."""
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        argv = [command, "--problem", "fuller", "--n-intervals", "20", "--out", str(out)]
        argv += ["--method", "sur"] if command == "run" else ["--methods", "sur",
                                                             "--tau-min-values", "0.1"]
        assert cli.main(argv) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("label", ["../../x", "sub/x", "nul\0byte"])
    def test_label_not_a_plain_file_name_exit_two(self, tmp_path, capsys, label):
        out = tmp_path / "a" / "b"
        cfg_file = tmp_path / "run.yaml"
        yaml.safe_dump({"problem": "fuller", "method": "sur", "n_intervals": 20,
                        "output_path": str(out), "label": label}, cfg_file.open("w"))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "plain file name" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_result.json"))

    @pytest.mark.parametrize("argv, config", [
        (["run"], {"problem": "x"}),
        (["run"], {"method": "x"}),
        (["run"], {"colour": "red"}),
        (["run", "--n-intervals", "0"], {}),
        (["run", "--problem", "custom-file"], {}),
        (["run"], {"output_path": "nul\0byte"}),
        (["sweep", "--methods", "sur,x"], {}),
        (["sweep", "--methods", "sur", "--tau-min-values", "0.1",
          "--rho-factor-values", "10"], {}),
    ], ids=["config-problem", "config-method", "config-key", "no-intervals",
            "custom-file-without-file", "out-nul-byte", "sweep-method",
            "sweep-two-parameters"])
    def test_bad_setting_exit_two(self, tmp_path, capsys, argv, config):
        cfg_file = tmp_path / "run.yaml"
        yaml.safe_dump({"n_intervals": 20, "output_path": str(tmp_path), **config},
                       cfg_file.open("w"))
        assert cli.main([*argv, "--config", str(cfg_file)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_result.json"))

    def test_sweep_exit_zero(self, tmp_path, capsys):
        code = cli.main([
            "sweep", "--problem", "fuller", "--n-intervals", "20", "--out", str(tmp_path),
            "--methods", "sur,ciap", "--tau-min-values", "0.1,0.2",
        ])
        assert code == 0
        table = Path(capsys.readouterr().out.strip())
        assert table == tmp_path / "sweep.csv"
        lines = table.read_text().splitlines()
        assert lines[0] == "tau_min,sur,ciap" and len(lines) == 3
        assert "NA(" not in table.read_text()


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

    def test_custom_problem_tau_sweep_is_config_error(self, tmp_path):
        base = run_config(
            tmp_path, problem="custom-file", problem_file=str(write_problem_file(tmp_path)),
        )
        with pytest.raises(so.ConfigurationError):
            cli.sweep(base, ["sur"], tau_min_values=[0.5, 1.0, 2.0])

    def test_failed_cell_records_na(self, tmp_path):
        base = run_config(tmp_path, method="oracle", n_intervals=64)
        table = cli.sweep(base, ["sur", "oracle"], tau_min_values=[0.1])
        record = json.loads((tmp_path / "sweep_tau_min_0.1_sur_result.json").read_text())
        # Numbers in the CSV notation, the failed cell's NA text as it is.
        assert Path(table).read_text() == (
            "tau_min,sur,oracle\n"
            f"0.1,{cli._fmt(record['objective'])},NA(the oracle needs at most 32 intervals)\n"
        )

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
