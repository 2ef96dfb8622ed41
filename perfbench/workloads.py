"""The benchmark's workloads.

Each workload builds its inputs from the workload seed and drives the
package only through public functions. ``setup`` builds what a user pays for
before the first round; ``run`` makes one whole workload call, which is what
the benchmark times.

- intro-trace: ``safebandit run`` through ``cli.main``; Safe-FALCON on the
  intro example with tau1 = 2 and the average-epoch test on, writing
  trace.csv, epochs.csv and regret.svg. Every check passes, so the fallback
  never fires, and the trace writer does real work.
- compare-long: ``safebandit compare`` of Safe-FALCON against FALCON+ on the
  intro example at the longest horizon, the path behind acceptance criteria
  5 and 6. No trace.csv; half the rounds run no checks; the largest oracle
  fits and the most epochs.
- shift-fallback: ``run_safe_falcon`` on a five-arm realizable linear
  environment whose rewards all drop by a constant after a fixed round. The
  only workload where a check fails and the run continues on the fallback
  kernel; the environment is stateful, so it must be played round by round.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import safebandit
from safebandit import analysis, cli, harness
from safebandit.algorithms import AlgorithmConfig
from safebandit.environments import BanditEnvironment


@dataclass(frozen=True)
class Size:
    horizon: int
    runs: int


NAMES = ("intro-trace", "compare-long", "shift-fallback")

SIZES = {
    "full": {
        "intro-trace": Size(2**13, 4),
        "compare-long": Size(2**15, 2),
        "shift-fallback": Size(2**14, 2),
    },
    # small enough for the benchmark's own tests; shift-fallback still
    # detects (at round 4224) before its horizon
    "tiny": {
        "intro-trace": Size(2**8, 2),
        "compare-long": Size(2**9, 2),
        "shift-fallback": Size(2**13, 1),
    },
}

# Replication seeds of workload seed s are s * SEED_STRIDE + run id, so
# different workload seeds never share a replication.
SEED_STRIDE = 1000

INTRO_TAU1 = 2
DELTA = 0.05
SHIFT_TAU1 = 64
SHIFT_K = 5
SHIFT_ROUND = 2048
SHIFT_BY = 5.0
# the coefficient seed harness.build_environment uses for realizable-linear
SHIFT_COEF_SEED = 20210229

# Whether every Safe-FALCON replication of the workload must detect
# (True), must not (False), or may do either (None).
EXPECT_DETECTION = {"intro-trace": False, "compare-long": None, "shift-fallback": True}


class ShiftedEnv(BanditEnvironment):
    """Lowers every arm's mean and reward by ``by`` after round ``at``."""

    def __init__(self, inner: BanditEnvironment, at: int, by: float):
        self.inner = inner
        self.K = inner.K
        self.dim = inner.dim
        self.at = at
        self.by = by
        self.t = 0

    def sample(self, rng):
        self.t += 1
        x, means, rewards = self.inner.sample(rng)
        if self.t > self.at:
            means = means - self.by
            rewards = rewards - self.by
        return x, means, rewards


def base_seed(seed: int) -> int:
    return seed * SEED_STRIDE


def configs(name: str, size: Size, seed: int, out_dir: str) -> list[dict[str, str]]:
    """Config keys of a CLI workload (intro-trace, compare-long), one dict
    per algorithm, as ``harness.apply_key`` takes them."""
    common = {"env": "intro-example", "tau1": str(INTRO_TAU1), "delta": str(DELTA),
              "T": str(size.horizon), "runs": str(size.runs), "seed": str(base_seed(seed)),
              "out": out_dir}
    if name == "intro-trace":
        return [{**common, "algorithm": "safe-falcon", "avg_epoch_test": "true"}]
    if name == "compare-long":
        return [{**common, "algorithm": "safe-falcon", "avg_epoch_test": "true"},
                {**common, "algorithm": "falcon-plus", "avg_epoch_test": "false"}]
    raise ValueError(f"{name} is not a CLI workload")


def argv(name: str, size: Size, seed: int, out_dir: str) -> list[str]:
    """``safebandit`` command line of a CLI workload."""
    def flags(cfg, prefix=""):
        return [a for k, v in cfg.items() if k != "out"
                for a in (f"--{prefix}{k.replace('_', '-')}", v)]

    cfgs = configs(name, size, seed, out_dir)
    if name == "intro-trace":
        return ["run"] + flags(cfgs[0]) + ["--out", out_dir]
    return ["compare", "--out", out_dir] + flags(cfgs[0], "a-") + flags(cfgs[1], "b-")


def setup(name: str, size: Size, seed: int, out_dir: str):
    """Build the config(s), environment and oracle a run needs before its
    first round, the way the package's own entry points build them."""
    if name == "shift-fallback":
        env = ShiftedEnv(
            safebandit.realizable_linear_env(SHIFT_K, 1, SHIFT_COEF_SEED), SHIFT_ROUND, SHIFT_BY
        )
        config = AlgorithmConfig(SHIFT_TAU1, DELTA, size.horizon, enable_avg_epoch_test=True)
        return config, env, safebandit.LinearPerArmOracle(env.K, env.dim)
    cli.build_parser().parse_args(argv(name, size, seed, out_dir))
    built = []
    for keys in configs(name, size, seed, out_dir):
        cfg = harness.ExperimentConfig()
        for key, value in keys.items():
            cfg = harness.apply_key(cfg, key, value)
        cfg.validate()
        env = harness.build_environment(cfg)
        built.append((cfg, env, safebandit.LinearPerArmOracle(env.K, env.dim)))
    return built


def rounds(name: str, size: Size) -> int:
    algorithms = 2 if name == "compare-long" else 1
    return algorithms * size.runs * size.horizon


def replications(name: str, size: Size) -> int:
    return rounds(name, size) // size.horizon


@contextmanager
def _checked_replications(session, name):
    """Check each batch of replications as ``harness.run_replications``
    returns it; the session keeps the check's time out of the workload's."""
    original = harness.run_replications

    def run_and_check(cfg):
        traces = original(cfg)
        safe = cfg.algorithm == "safe-falcon"
        config = AlgorithmConfig(cfg.tau1, cfg.delta, cfg.horizon, cfg.avg_epoch_test)
        session.check(traces, config, safe, EXPECT_DETECTION[name] if safe else False)
        return traces

    harness.run_replications = run_and_check
    try:
        yield
    finally:
        harness.run_replications = original


def run(name: str, size: Size, seed: int, out_dir: str, session) -> None:
    """One whole workload call, writing its outputs under ``out_dir``."""
    if name == "shift-fallback":
        _run_shift(size, seed, out_dir, session)
        return
    with _checked_replications(session, name):
        code = cli.main(argv(name, size, seed, out_dir))
    if code != 0:
        raise RuntimeError(f"cli.main exited with {code}")


def _run_shift(size: Size, seed: int, out_dir: str, session) -> None:
    config, env, oracle = setup("shift-fallback", size, seed, out_dir)
    oracle = session.wrap_oracle(oracle)
    traces = []
    for i in range(size.runs):
        fresh = ShiftedEnv(env.inner, SHIFT_ROUND, SHIFT_BY)
        traces.append(
            safebandit.run_safe_falcon(session.wrap_env(fresh), oracle, config, base_seed(seed) + i)
        )
    session.check(traces, config, True, EXPECT_DETECTION["shift-fallback"])
    per_run = [analysis.epoch_summaries(t) for t in traces]
    aggregate = analysis.aggregate_runs(per_run)
    os.makedirs(out_dir, exist_ok=True)
    harness.write_epochs_csv(os.path.join(out_dir, "epochs.csv"), per_run, aggregate)
    title = "safe-falcon on shifted realizable-linear: per-epoch mean regret"
    with open(os.path.join(out_dir, "regret.svg"), "w") as fh:
        fh.write(harness.render_regret_svg(aggregate, title))
