"""Tests for configuration, experiment outputs, and the CLI."""

import csv
import io
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from safebandit import (
    AlgorithmConfig,
    CommonRate,
    IntroExampleEnv,
    LinearPerArmOracle,
    LowerBoundEnv,
    RealizableLinearEnv,
    realizable_linear_env,
    run_falcon_plus,
    run_safe_falcon,
)
from safebandit import cli, harness
from safebandit.analysis import aggregate_runs
from safebandit.cli import main
from safebandit.harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    TRACE_HEADER,
    apply_key,
    build_environment,
    compare_experiments,
    first_flip_epoch,
    load_config_file,
    render_regret_svg,
    run_experiment,
    run_replications,
    write_trace_csv,
)
from support import Edited, batch_of_one, shifted_realizable_k5


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

    def test_line_without_equals(self, tmp_path, capsys):
        # line 4, counting the comment and the blank line
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\n\nT = 64\nruns 2\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:4: expected key=value")):
            load_config_file(str(path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"{path}:4" in capsys.readouterr().err
        assert not out.exists()

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
        # an environment's own parameters are judged here too
        with pytest.raises(ConfigError):
            ExperimentConfig(env="lower-bound", env_b=0.9).validate()
        cfg = ExperimentConfig(env="lower-bound", env_k=3, env_b=0.01, tau1=4, horizon=64)
        algo_cfg, env = cfg.validate()
        assert algo_cfg == AlgorithmConfig(4, 0.05, 64, False)
        assert isinstance(env, LowerBoundEnv) and env.K == 3
        # intro-example reads no env_k, so it refuses none
        assert isinstance(ExperimentConfig(env_k=2.5).validate()[1], IntroExampleEnv)

    # a ConfigError before out is made, not a TypeError from deep in the run
    # or, for runs=True, a one-run replication
    NOT_INTEGERS = {
        "runs-2.5": {"runs": 2.5},
        "runs-True": {"runs": True},
        "seed-1.5": {"seed": 1.5},
        "lower-bound-env_k-2.5": {"env": "lower-bound", "env_k": 2.5},
        "realizable-env_k-3.0": {"env": "realizable-linear", "env_k": 3.0},
        "tau1-2.0": {"tau1": 2.0},
        "T-64.0": {"horizon": 64.0},
    }

    @pytest.mark.parametrize("fields", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_integer_fields_must_be_integers(self, fields, tmp_path):
        out = tmp_path / "X"
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(**{"horizon": 64, "out": str(out), **fields}))
        assert not out.exists()

    @pytest.mark.parametrize("value", ["false", "true", "", 0, 1, 1.0, None, np.array(True)])
    def test_avg_epoch_test_must_be_a_bool(self, value, tmp_path):
        # "false" is truthy: taken as it is, it would turn the average test on
        out = tmp_path / "X"
        with pytest.raises(ConfigError, match="avg_epoch_test"):
            run_experiment(ExperimentConfig(horizon=64, avg_epoch_test=value, out=str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_avg_epoch_test_takes_bools(self, value):
        algo_cfg, _ = ExperimentConfig(horizon=64, avg_epoch_test=value).validate()
        assert algo_cfg.enable_avg_epoch_test == value

    def test_build_environment(self):
        assert build_environment(ExperimentConfig(env="intro-example")).K == 2
        env = build_environment(ExperimentConfig(env="lower-bound", env_k=3, env_b=0.01))
        assert env.K == 3
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

    def test_each_run_plays_its_own_environment(self, monkeypatch):
        # stateful: every arm's reward drops by 1 after round 100 of the
        # object's life, so an environment shared by the runs would drop
        # from run 1's first round on
        def shifted():
            inner = realizable_linear_env(2, 1, coefficient_seed=5)
            return Edited(inner, lambda t, x, m, r: (x, m, r - (1.0 if t > 100 else 0.0)))

        monkeypatch.setitem(harness.ENVIRONMENTS, "shifted", ((), shifted))
        cfg = ExperimentConfig(env="shifted", horizon=256, runs=2, seed=0)
        _, second = run_replications(cfg)
        (alone,) = run_replications(replace(cfg, runs=1, seed=1))
        assert second.reward_vectors[:100].min() >= 0.0
        np.testing.assert_array_equal(second.reward_vectors, alone.reward_vectors)
        np.testing.assert_array_equal(second.actions, alone.actions)


def reference_write_trace_csv(path, traces):
    """The trace writer as a plain csv.writer loop, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for run_id, trace in enumerate(traces):
            realized = trace.realized_regret
            for i in range(len(trace)):
                ctx = ";".join(repr(float(c)) for c in trace.contexts[i])
                w.writerow(
                    [
                        run_id,
                        i + 1,
                        int(trace.epoch[i]),
                        ctx,
                        int(trace.actions[i]),
                        repr(float(trace.rewards[i])),
                        int(trace.optimal_arms[i]),
                        repr(float(trace.optimal_means[i])),
                        repr(float(realized[i])),
                        int(trace.safe[i]),
                        int(trace.m_hat[i]),
                    ]
                )


def multi_block_trace():
    """A Safe-FALCON trace over three writer blocks, the last one partial,
    with K = 11 (two-digit arms) and dim 2, edited by hand where the writer
    formats each distinct value once."""
    block = harness.TRACE_BLOCK_ROWS
    horizon = 2 * block + block // 2 + 1
    cfg = AlgorithmConfig(tau1=8, delta=0.05, horizon=horizon, enable_avg_epoch_test=True)
    env = realizable_linear_env(11, dim=2, coefficient_seed=8)
    trace = run_safe_falcon(env, LinearPerArmOracle(11, 2), cfg, seed=9)
    # two-digit fallback indices and failed checks, across a block edge
    trace.m_hat[block - 5 : block + 5] = 12
    trace.safe[block : block + 3] = False
    # the narrow m_hat column up to its largest value: 2 * m_hat + safe
    # would wrap from m_hat = 64 in the column's own dtype
    assert trace.m_hat.dtype == np.int8 and trace.actions.dtype == np.int8
    trace.m_hat[-6:] = [63, 64, 100, 127, 126, 127]
    trace.safe[-2:] = False
    # values told apart only by their bits, across a block edge: optimal
    # means and, with a reward of 0.0, realized regrets
    payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    special = [-0.0, 0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf]
    rows = np.arange(2 * block - 3, 2 * block - 3 + len(special))
    trace.optimal_means[rows] = special
    trace.rewards[rows] = 0.0
    trace.reward_vectors[rows, trace.optimal_arms[rows]] = special
    assert len(trace) % block and trace.contexts.shape[1] == 2
    assert (trace.actions >= 10).any() and (trace.optimal_arms >= 10).any()
    return trace


class TestTraceWriter:
    def test_bytes_equal_the_csv_module_reference(self, tmp_path):
        cfg = AlgorithmConfig(tau1=8, delta=0.05, horizon=1000, enable_avg_epoch_test=True)
        drop = Edited(IntroExampleEnv(), lambda t, x, m, r: (x, m, r - (50.0 if t > 300 else 0.0)),
                      batch_of_one(IntroExampleEnv()))
        drop = run_safe_falcon(drop, LinearPerArmOracle(2, 1), cfg, seed=3)
        wide = realizable_linear_env(3, dim=2, coefficient_seed=4)
        wider = realizable_linear_env(4, dim=3, coefficient_seed=6)
        odd = run_falcon_plus(IntroExampleEnv(), LinearPerArmOracle(2, 1), cfg, seed=6)
        # reprs in exponent form, the smallest subnormal and a negative zero
        special = [1e-05, 1e16, 5e-324, -0.0]
        odd.contexts[:4, 0] = special
        odd.rewards[4:8] = special
        odd.optimal_means[8:12] = special
        traces = [
            drop,
            run_safe_falcon(wide, LinearPerArmOracle(3, 2), cfg, seed=4),
            run_falcon_plus(LowerBoundEnv(3, 0.05), LinearPerArmOracle(3, 1), cfg, seed=5),
            run_safe_falcon(wider, LinearPerArmOracle(4, 3), cfg, seed=7),
            odd,
            multi_block_trace(),
            # no context dims: the context field is empty
            run_safe_falcon(RealizableLinearEnv([0.3, 0.6], np.zeros((2, 0))),
                            LinearPerArmOracle(2, 0), AlgorithmConfig(2, 0.05, 8), seed=0),
        ]
        assert drop.detection_round is not None and 300 < drop.detection_round < 1000
        assert not drop.safe.all()
        assert (drop.rewards < 0).any() and traces[1].contexts.shape[1] == 2
        assert traces[3].contexts.shape[1] == 3 and traces[6].contexts.shape[1] == 0
        write_trace_csv(str(tmp_path / "bulk.csv"), traces)
        reference_write_trace_csv(str(tmp_path / "reference.csv"), traces)
        written = (tmp_path / "bulk.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        for text in (b",1e-05,", b",1e+16,", b",5e-324,", b",-0.0,"):
            assert text in written
        for text in (b",0,12\r\n", b",1,12\r\n", b",1,64\r\n", b",1,127\r\n", b",0,127\r\n",
                     b",-0.0,-0.0,", b",nan,nan,", b",-inf,-inf,"):
            assert text in written

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        def peak(horizon):
            cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=horizon, enable_avg_epoch_test=True)
            trace = run_safe_falcon(IntroExampleEnv(), LinearPerArmOracle(2, 1), cfg, seed=0)
            tracemalloc.start()
            try:
                write_trace_csv(str(tmp_path / "trace.csv"), [trace])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2**17) <= 1.5 * peak(2**13)


def test_regret_svg_of_a_flat_negative_range():
    # one run of one epoch: its bounds equal its mean, below 0, so the y
    # range is empty until it is widened to one unit
    svg = render_regret_svg(aggregate_runs([(np.array([1]), np.array([1]), np.array([-0.25]))]))
    assert "nan" not in svg and "inf" not in svg
    labels = [float(v) for v in re.findall(r'text-anchor="end" font-size="10">([^<]+)<', svg)]
    assert labels == [-0.25, 0.25, 0.75]


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

    def test_flip_epochs_of_runs_that_detect(self, tmp_path, monkeypatch):
        # both runs detect the shift at round 4224, in epoch 8
        monkeypatch.setitem(harness.ENVIRONMENTS, "shifted", ((), shifted_realizable_k5))
        common = dict(env="shifted", tau1=64, horizon=4400, runs=2, seed=0)
        result = compare_experiments(
            small_config(tmp_path, algorithm="safe-falcon", avg_epoch_test=True, **common),
            small_config(tmp_path, algorithm="falcon-plus", **common),
        )
        with open(result["flips"], newline="") as fh:
            assert fh.read().splitlines() == ["run_id,flip_epoch", "0,8", "1,8"]

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

    def test_bad_side_b_rejected_before_side_a_runs(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "run_safe_falcon", fail)
        monkeypatch.setattr(harness, "run_falcon_plus", fail)
        with pytest.raises(ConfigError):
            compare_experiments(small_config(tmp_path, algorithm="safe-falcon"),
                                small_config(tmp_path, runs=0))
        assert not (tmp_path / "out").exists()

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
        for k in ("0", "-3", "1"):
            config = tmp_path / f"realizable-k{k}.cfg"
            config.write_text(f"env = realizable-linear\nenv.K = {k}\nT = 16\n"
                              f"out = {tmp_path / 'out'}\n")
            assert main(["run", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()
        # an environment's own parameters, judged before --out is made
        for flag, value in (("env-k", "1"), ("env-b", "0.9")):
            out = str(tmp_path / f"lower-bound-{flag}")
            assert main(["run", "--env", "lower-bound", f"--{flag}", value, "--out", out]) == 2
            assert main(["compare", "--a-algorithm", "safe-falcon", "--a-env", "lower-bound",
                         f"--a-{flag}", value, "--b-algorithm", "falcon-plus",
                         "--b-env", "lower-bound", f"--b-{flag}", value, "--out", out]) == 2
            assert not (tmp_path / f"lower-bound-{flag}").exists()
        # out-of-range values: a ConfigError, not a traceback from
        # AlgorithmConfig or from np.random.Philox
        out = str(tmp_path / "bad")
        for flag, value in (("--delta", "2"), ("--tau1", "1"), ("--T", "0"), ("--seed", "-1")):
            assert main(["run", flag, value, "--out", out]) == 2
        assert main(["compare", "--a-algorithm", "safe-falcon", "--b-algorithm", "falcon-plus",
                     "--b-seed", "-1", "--out", out]) == 2
        assert not (tmp_path / "bad").exists()

    def test_unreadable_config_file_exit_code(self, tmp_path, capsys):
        # a missing file, a directory and bytes that are not text, on both
        # subcommands and on each side of compare
        undecodable = tmp_path / "latin1.cfg"
        undecodable.write_bytes(b"T = 64\n# caf\xe9\n")
        out = str(tmp_path / "out")
        for path in (str(tmp_path / "missing.cfg"), str(tmp_path), str(undecodable)):
            assert main(["run", "--config", path, "--out", out]) == 2
            assert path in capsys.readouterr().err
            for side in ("a", "b"):
                assert main(["compare", f"--{side}-config", path, "--out", out]) == 2
        assert not (tmp_path / "out").exists()

    def test_tau1_past_int64_exit_code(self, tmp_path, capsys):
        # epoch sizes are int64 arrays: 2^63 is a config error, not an
        # OverflowError, and the largest tau1 they hold still runs
        out = str(tmp_path / "huge")
        assert main(["run", "--tau1", str(2**63), "--T", "64", "--out", out]) == 2
        assert "tau1" in capsys.readouterr().err
        assert not (tmp_path / "huge").exists()
        assert main(["run", "--tau1", str(2**63 - 1), "--T", "64", "--out", out]) == 0

    def test_over_budget_exit_code(self, tmp_path, monkeypatch):
        # 400000 runs of 1024 rounds exceed the budget; nothing may run
        def fail(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "run_safe_falcon", fail)
        out = str(tmp_path / "budget")
        assert main(["run", "--runs", "400000", "--T", "1024", "--out", out]) == 2
        assert not (tmp_path / "budget").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--T", "64"],
        ["compare", "--a-algorithm", "safe-falcon", "--a-T", "64",
         "--b-algorithm", "falcon-plus", "--b-T", "64"],
    ], ids=lambda argv: argv[0])
    def test_unusable_out_exit_code(self, command, tmp_path, monkeypatch, capsys):
        # an --out under a regular file is a config error before any round
        def fail(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "run_safe_falcon", fail)
        monkeypatch.setattr(harness, "run_falcon_plus", fail)
        (tmp_path / "afile").write_text("")
        assert main([*command, "--out", str(tmp_path / "afile" / "sub")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_config_error_leaves_the_next_call_unchanged(self, tmp_path):
        # the parser is built once per process and shared by every call
        assert cli.build_parser() is cli.build_parser()
        run = ["run", "--T", "300", "--runs", "2", "--avg-epoch-test", "true"]
        assert main([*run, "--out", str(tmp_path / "a")]) == 0
        bad = str(tmp_path / "bad")
        assert main(["run", "--algorithm", "falcon-plus", "--env", "realizable-linear",
                     "--seed", "7", "--tau1", "1", "--out", bad]) == 2
        assert main(["compare", "--a-seed", "5", "--a-algorithm", "safe-falcon",
                     "--b-algorithm", "safe-falcon", "--out", bad]) == 2
        assert main([*run, "--out", str(tmp_path / "b")]) == 0
        assert not (tmp_path / "bad").exists()
        for name in ("trace.csv", "epochs.csv", "regret.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_compare_pairs_sides_on_the_fields_their_environment_reads(self, tmp_path, capsys):
        # intro-example reads neither env.K nor env.B, realizable-linear
        # env.K alone, lower-bound both
        def compare(env, flag, value):
            return main(["compare", "--a-algorithm", "safe-falcon", "--a-T", "64", "--a-env", env,
                         flag, value, "--b-algorithm", "falcon-plus", "--b-T", "64", "--b-env", env,
                         "--out", str(tmp_path / env)])

        for env, flag, value in (("intro-example", "--a-env-k", "3"),
                                 ("intro-example", "--a-env-b", "0.1"),
                                 ("realizable-linear", "--a-env-b", "0.1")):
            assert compare(env, flag, value) == 0
        capsys.readouterr()
        for env, flag, value in (("lower-bound", "--a-env-k", "3"),
                                 ("lower-bound", "--a-env-b", "0.1"),
                                 ("realizable-linear", "--a-env-k", "3")):
            assert compare(env, flag, value) == 2
            assert "share the environment" in capsys.readouterr().err
        assert not (tmp_path / "lower-bound").exists()

    def test_check_defaults_come_from_their_owners(self, monkeypatch):
        owners = {
            ("lowerbound-check", "K"): (ExperimentConfig, "env_k"),
            ("lowerbound-check", "B"): (ExperimentConfig, "env_b"),
            ("validate-rate", "delta"): (ExperimentConfig, "delta"),
            ("validate-rate", "n0"): (CommonRate, "n0"),
        }
        for (command, dest), (owner, attr) in owners.items():
            assert getattr(cli.build_parser().parse_args([command]), dest) == getattr(owner, attr)
        # a parser built after an owner's default changes follows it
        for i, (owner, attr) in enumerate(owners.values()):
            monkeypatch.setattr(owner, attr, 100 + i)
        parser = cli.build_parser.__wrapped__()
        for i, (command, dest) in enumerate(owners):
            assert getattr(parser.parse_args([command]), dest) == 100 + i

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

    @pytest.mark.parametrize("C", ["nan", "inf"])
    def test_validate_rate_non_finite_exit_code(self, C, capsys):
        assert main(["validate-rate", "--rate", "common", "--C", C, "--n-max", "100"]) == 3
        out = capsys.readouterr().out
        assert f"FAIL: xi not finite at n=3, zeta=delta/ln(n): xi={C}" in out
        assert "rate valid" not in out

    def test_mismatched_horizons_exit_code(self, tmp_path, capsys):
        out = tmp_path / "compare"
        assert main(["compare", "--a-algorithm", "safe-falcon", "--a-avg-epoch-test", "true",
                     "--a-T", "256", "--b-algorithm", "falcon-plus", "--b-T", "512",
                     "--out", str(out)]) == 2
        assert "share the horizon T" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate-rate", "--n-max", "3"],
            ["validate-rate", "--delta", "2"],
            ["lowerbound-check", "--K", "1"],
            ["lowerbound-check", "--B", "0.9"],
        ],
        ids=" ".join,
    )
    def test_check_argument_errors_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("flag", ["--a-out", "--b-out"])
    def test_compare_has_no_side_out_flags(self, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", flag, str(tmp_path / "side")])
        assert exc.value.code == 2
        assert not (tmp_path / "side").exists()

    def test_compare_writes_only_under_out(self, tmp_path, monkeypatch):
        # a side config file's out key does not redirect compare
        side = tmp_path / "side.cfg"
        side.write_text(f"env = realizable-linear\ntau1 = 4\nT = 64\n"
                        f"out = {tmp_path / 'side'}\n")
        sides = ["--a-config", str(side), "--a-algorithm", "safe-falcon",
                 "--b-config", str(side), "--b-algorithm", "falcon-plus"]
        assert main(["compare", *sides, "--out", str(tmp_path / "cmp")]) == 0
        assert sorted(p.name for p in (tmp_path / "cmp").iterdir()) == [
            "compare_epochs.csv", "compare_flips.csv"]
        monkeypatch.chdir(tmp_path)
        assert main(["compare", *sides]) == 0
        assert (tmp_path / "out" / "compare_epochs.csv").exists()
        assert not (tmp_path / "side").exists()


# a value other than the default for each config key, as given and as parsed
KEY_VALUES = {
    "algorithm": ("falcon-plus", "falcon-plus"),
    "env": ("lower-bound", "lower-bound"),
    "env.K": ("5", 5),
    "env.B": ("0.01", 0.01),
    "tau1": ("8", 8),
    "delta": ("0.1", 0.1),
    "T": ("256", 256),
    "runs": ("3", 3),
    "seed": ("7", 7),
    "avg_epoch_test": ("yes", True),
    "out": ("results", "results"),
}


class TestConfigKeySpellings:
    """Every key of CONFIG_KEYS reaches its field, with the field's type,
    from a config file, from its run flag and from compare's side flags."""

    @pytest.fixture
    def captured(self, monkeypatch):
        configs = []

        def fake_run(cfg):
            configs.append(cfg)
            return {"trace": "t", "epochs": "e", "svg": "s"}

        def fake_compare(cfg_a, cfg_b):
            configs.extend((cfg_a, cfg_b))
            return {"epochs": "e", "flips": "f"}

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        monkeypatch.setattr(cli, "compare_experiments", fake_compare)
        return configs

    @staticmethod
    def assert_lands(cfg, key):
        field = CONFIG_KEYS[key][0]
        expected = KEY_VALUES[key][1]
        value = getattr(cfg, field)
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_config_file(self, key, captured, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {KEY_VALUES[key][0]}\n")
        assert main(["run", "--config", str(path)]) == 0
        self.assert_lands(captured[0], key)

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_run_flag(self, key, captured):
        assert main(["run", CONFIG_KEYS[key][1], KEY_VALUES[key][0]]) == 0
        self.assert_lands(captured[0], key)

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "FALSE", "No", "oFf"])
    def test_false_spellings(self, value, captured, tmp_path):
        # each overrides a true before it, so its False is parsed, not the default
        path = tmp_path / "exp.cfg"
        path.write_text(f"avg_epoch_test = true\navg_epoch_test = {value}\n")
        assert main(["run", "--config", str(path)]) == 0
        assert main(["run", "--avg-epoch-test", "true", "--avg-epoch-test", value]) == 0
        assert [cfg.avg_epoch_test for cfg in captured] == [False, False]

    @pytest.mark.parametrize("key", [k for k in CONFIG_KEYS if k != "out"])
    @pytest.mark.parametrize("side", [0, 1], ids=["a", "b"])
    def test_compare_flag(self, key, side, captured):
        flag = f"--{'ab'[side]}-{CONFIG_KEYS[key][1][2:]}"
        assert main(["compare", flag, KEY_VALUES[key][0]]) == 0
        self.assert_lands(captured[side], key)
        assert captured[1 - side] == ExperimentConfig()
