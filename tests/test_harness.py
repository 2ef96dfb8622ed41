"""Tests for configuration, experiment outputs, and the CLI."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from safebandit.cli import main
from safebandit.harness import (
    ConfigError,
    ExperimentConfig,
    TRACE_HEADER,
    apply_key,
    build_environment,
    compare_experiments,
    first_flip_epoch,
    load_config_file,
    run_experiment,
    run_replications,
)


def small_config(tmp_path, **overrides):
    base = dict(
        algorithm="falcon-plus",
        env="realizable-linear",
        tau1=4,
        delta=0.05,
        horizon=64,
        runs=2,
        seed=0,
        out=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "algorithm = safe-falcon\n"
            "env = lower-bound\n"
            "env.K = 3\n"
            "env.B = 0.05\n"
            "tau1 = 8\n"
            "delta = 0.1\n"
            "T = 256\n"
            "runs = 4\n"
            "seed = 7\n"
            "avg_epoch_test = true\n"
            "out = results\n"
        )
        cfg = load_config_file(str(path))
        assert cfg.algorithm == "safe-falcon"
        assert cfg.env == "lower-bound"
        assert cfg.env_k == 3 and cfg.env_b == 0.05
        assert cfg.tau1 == 8 and cfg.delta == 0.1 and cfg.horizon == 256
        assert cfg.runs == 4 and cfg.seed == 7
        assert cfg.avg_epoch_test is True and cfg.out == "results"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_key(ExperimentConfig(), "gamma", "2.0")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            apply_key(ExperimentConfig(), "T", "lots")
        with pytest.raises(ConfigError):
            apply_key(ExperimentConfig(), "avg_epoch_test", "maybe")

    def test_validate(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="ucb").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(env="gridworld").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=10**6, horizon=10**6).validate()
        ExperimentConfig().validate()

    def test_build_environment(self):
        assert build_environment(ExperimentConfig(env="intro-example")).K == 2
        env = build_environment(ExperimentConfig(env="lower-bound", env_k=3, env_b=0.01))
        assert env.K == 3
        with pytest.raises(ConfigError):
            build_environment(ExperimentConfig(env="lower-bound", env_b=0.9))
        # realizable instance is fixed by the config alone
        a = build_environment(ExperimentConfig(env="realizable-linear"))
        b = build_environment(ExperimentConfig(env="realizable-linear"))
        np.testing.assert_array_equal(a.intercepts, b.intercepts)


class TestRunExperiment:
    def test_trace_row_count_and_header(self, tmp_path):
        cfg = small_config(tmp_path, runs=3, horizon=50)
        paths = run_experiment(cfg)
        with open(paths["trace"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER
        assert len(rows) - 1 == 3 * 50
        # sorted by (run_id, t)
        keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_byte_determinism(self, tmp_path):
        cfg_a = small_config(tmp_path, out=str(tmp_path / "a"))
        cfg_b = small_config(tmp_path, out=str(tmp_path / "b"))
        pa, pb = run_experiment(cfg_a), run_experiment(cfg_b)
        for key in ("trace", "epochs", "svg"):
            with open(pa[key], "rb") as fa, open(pb[key], "rb") as fb:
                assert fa.read() == fb.read(), key

    def test_epochs_csv_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path, runs=2, horizon=128)
        paths = run_experiment(cfg)
        # recompute per-run epoch means from the trace and compare
        per_run = {}
        with open(paths["trace"]) as fh:
            for row in csv.DictReader(fh):
                key = (int(row["epoch"]), row["run_id"])
                per_run.setdefault(key, []).append(float(row["realized_regret"]))
        with open(paths["epochs"]) as fh:
            for row in csv.DictReader(fh):
                if row["run_id"] == "all":
                    continue
                vals = per_run[(int(row["epoch"]), row["run_id"])]
                assert abs(float(row["mean_regret"]) - np.mean(vals)) < 1e-12

    def test_aggregate_rows_present(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = run_experiment(cfg)
        with open(paths["epochs"]) as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["run_id"] == "all" for r in rows)
        svg = open(paths["svg"]).read()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_safe_falcon_traces_have_flags(self, tmp_path):
        cfg = small_config(tmp_path, algorithm="safe-falcon")
        traces = run_replications(cfg)
        assert all(t.safe.all() for t in traces)  # realizable: no flips
        assert all(first_flip_epoch(t) is None for t in traces)


class TestCompare:
    def test_compare_outputs(self, tmp_path):
        cfg_a = small_config(tmp_path, algorithm="safe-falcon")
        cfg_b = small_config(tmp_path, algorithm="falcon-plus")
        result = compare_experiments(cfg_a, cfg_b)
        with open(result["epochs"]) as fh:
            rows = list(csv.DictReader(fh))
        algos = {r["algorithm"] for r in rows}
        assert algos == {"safe-falcon", "falcon-plus"}
        with open(result["flips"]) as fh:
            flips = list(csv.DictReader(fh))
        assert len(flips) == cfg_a.runs
        assert all(r["flip_epoch"] == "" for r in flips)

    def test_mismatched_horizons_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            compare_experiments(
                small_config(tmp_path, horizon=64), small_config(tmp_path, horizon=128)
            )

    def test_mismatched_environments_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            compare_experiments(
                small_config(tmp_path, env="intro-example"),
                small_config(tmp_path, env="realizable-linear"),
            )

    def test_same_algorithm_rejected(self, tmp_path):
        # both sides' rows are keyed by algorithm, so they would collide
        with pytest.raises(ConfigError):
            compare_experiments(
                small_config(tmp_path, algorithm="safe-falcon", avg_epoch_test=True),
                small_config(tmp_path, algorithm="safe-falcon", avg_epoch_test=False),
            )
        assert not (tmp_path / "out").exists()

    def test_compare_epochs_match_run_experiment(self, tmp_path):
        cfg_a = small_config(tmp_path, algorithm="safe-falcon", avg_epoch_test=True,
                             out=str(tmp_path / "cmp"))
        cfg_b = small_config(tmp_path, algorithm="falcon-plus", seed=7,
                             out=str(tmp_path / "cmp"))
        result = compare_experiments(cfg_a, cfg_b)
        with open(result["epochs"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "algorithm"
        for cfg in (cfg_a, cfg_b):
            paths = run_experiment(replace(cfg, out=str(tmp_path / cfg.algorithm)))
            side = [rows[0][1:]] + [r[1:] for r in rows[1:] if r[0] == cfg.algorithm]
            with open(paths["epochs"], newline="") as fh:
                expected = fh.read()
            buf = io.StringIO(newline="")
            csv.writer(buf).writerows(side)
            assert buf.getvalue() == expected


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "cli_out")
        code = main(
            [
                "run",
                "--algorithm", "falcon-plus",
                "--env", "realizable-linear",
                "--tau1", "4",
                "--T", "64",
                "--runs", "1",
                "--out", out,
            ]
        )
        assert code == 0
        assert (tmp_path / "cli_out" / "trace.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("algorithm = falcon-plus\nenv = realizable-linear\nT = 64\ntau1 = 4\n")
        out = str(tmp_path / "o2")
        code = main(["run", "--config", str(path), "--T", "32", "--out", out])
        assert code == 0
        with open(tmp_path / "o2" / "trace.csv") as fh:
            assert len(list(csv.reader(fh))) - 1 == 32

    def test_config_error_exit_code(self, tmp_path):
        assert main(["run", "--algorithm", "thompson"]) == 2
        assert main(["run", "--T", "not-a-number"]) == 2
        assert main(["compare", "--a-algorithm", "safe-falcon", "--b-algorithm", "safe-falcon",
                     "--out", str(tmp_path)]) == 2

    def test_lowerbound_check(self, capsys):
        assert main(["lowerbound-check", "--K", "3", "--B", "0.05"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_rate_exit_codes(self, capsys):
        assert main(["validate-rate", "--rate", "linear", "--n-max", "10000"]) == 0
        # a common rate decaying faster than 1/n violates the floor
        code = main(
            [
                "validate-rate",
                "--rate", "common",
                "--C", "1.0",
                "--rho", "2.0",
                "--n-max", "10000",
            ]
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_compare_subcommand(self, tmp_path):
        out = str(tmp_path / "cmp")
        code = main(
            [
                "compare",
                "--a-algorithm", "safe-falcon",
                "--a-env", "realizable-linear",
                "--a-tau1", "4",
                "--a-T", "64",
                "--b-algorithm", "falcon-plus",
                "--b-env", "realizable-linear",
                "--b-tau1", "4",
                "--b-T", "64",
                "--out", out,
            ]
        )
        assert code == 0
        assert (tmp_path / "cmp" / "compare_epochs.csv").exists()
        assert (tmp_path / "cmp" / "compare_flips.csv").exists()
