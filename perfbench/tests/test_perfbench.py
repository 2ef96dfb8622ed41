"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from check import check_trace  # noqa: E402
from safebandit import AlgorithmConfig, LinearPerArmOracle, harness, run_safe_falcon  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        writes_trace = metrics["harness.write_trace_csv.bytes"] > 0
        assert writes_trace == (metrics["harness.write_trace_csv.self_s"] > 0)
        assert writes_trace == (workload == "intro-trace")
        assert (metrics["algorithms.fallback_rounds"] > 0) == (workload == "shift-fallback")
    else:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_package_sources():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "intro-trace", "--seed", "0", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_seed_changes_the_inputs():
    size = workloads.SIZES["tiny"]["intro-trace"]
    assert workloads.argv("intro-trace", size, 0, "out") == workloads.argv("intro-trace", size, 0, "out")
    assert workloads.argv("intro-trace", size, 0, "out") != workloads.argv("intro-trace", size, 1, "out")
    assert workloads.configs("compare-long", size, 0, "o") != workloads.configs("compare-long", size, 1, "o")
    first, second = (_shift_trace(seed, horizon=512)[0] for seed in (0, 1))
    assert not np.array_equal(first.contexts, second.contexts)


def test_shift_environment_is_the_harness_realizable_instance():
    built = harness.build_environment(
        harness.ExperimentConfig(env="realizable-linear", env_k=workloads.SHIFT_K)
    )
    _, env, _ = workloads.setup("shift-fallback", workloads.SIZES["tiny"]["shift-fallback"], 0, "o")
    np.testing.assert_array_equal(env.inner.intercepts, built.intercepts)
    np.testing.assert_array_equal(env.inner.slopes, built.slopes)


def _shift_trace(seed=0, horizon=None):
    size = workloads.SIZES["tiny"]["shift-fallback"]
    config, env, oracle = workloads.setup("shift-fallback", size, seed, "o")
    if horizon is not None:
        config = dataclasses.replace(config, horizon=horizon)
    return run_safe_falcon(env, oracle, config, workloads.base_seed(seed)), config


@pytest.fixture(scope="module")
def shift():
    return _shift_trace()


@pytest.fixture(scope="module")
def intro():
    size = workloads.SIZES["tiny"]["intro-trace"]
    (cfg, env, _), = workloads.setup("intro-trace", size, 0, "o")
    config = AlgorithmConfig(cfg.tau1, cfg.delta, cfg.horizon, cfg.avg_epoch_test)
    return run_safe_falcon(env, LinearPerArmOracle(env.K, env.dim), config, cfg.seed), config


def _tampered(trace, **changes):
    arrays = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    arrays = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in arrays.items()}
    arrays.update(changes)
    return type(trace)(**arrays)


def test_untampered_traces_pass(shift, intro):
    (trace, config), (plain, plain_config) = shift, intro
    result = check_trace(trace, config, run_checks=True)
    assert result.ok, result.errors
    assert result.detection_round == trace.detection_round is not None
    assert result.fallback_rounds == config.horizon - trace.detection_round
    result = check_trace(plain, plain_config, run_checks=True)
    assert result.ok, result.errors
    assert result.detection_round is None and result.checks > 0


@pytest.mark.parametrize("offset", [-1, 1])
def test_flags_a_shifted_detection_round(shift, offset):
    trace, config = shift
    d = trace.detection_round + offset
    safe = np.arange(1, len(trace) + 1) < d
    assert not check_trace(_tampered(trace, detection_round=d), config, True).ok
    # consistent flags do not hide the shift: the replay disagrees
    assert not check_trace(_tampered(trace, detection_round=d, safe=safe), config, True).ok


def test_flags_a_flipped_safe_flag(shift, intro):
    for trace, config in (shift, intro):
        for i in (0, len(trace) - 1):
            safe = trace.safe.copy()
            safe[i] = not safe[i]
            assert not check_trace(_tampered(trace, safe=safe), config, True).ok


def test_flags_a_changed_reward(shift):
    trace, config = shift
    i = 1000  # before the shift, so the replayed tests see it
    rewards = trace.rewards.copy()
    rewards[i] += 0.25
    assert not check_trace(_tampered(trace, rewards=rewards), config, True).ok
    # changed consistently in the reward vector too: the replay now detects
    # earlier than the run recorded
    rewards[i] = -1e4
    vectors = trace.reward_vectors.copy()
    vectors[i, trace.actions[i]] = rewards[i]
    result = check_trace(_tampered(trace, rewards=rewards, reward_vectors=vectors), config, True)
    assert not result.ok
    assert result.detection_round < trace.detection_round


def test_flags_a_detection_in_a_run_without_checks(intro):
    trace, config = intro
    d = len(trace) // 2
    safe = np.arange(1, len(trace) + 1) < d
    assert not check_trace(_tampered(trace, detection_round=d, safe=safe), config, False).ok
