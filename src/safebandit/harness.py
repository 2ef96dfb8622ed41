"""Experiment harness: config parsing, seeded replications, CSV/SVG output."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

from .algorithms import AlgorithmConfig, run_falcon_plus, run_safe_falcon
from .analysis import aggregate_runs, epoch_summaries
from .environments import IntroExampleEnv, LowerBoundEnv, realizable_linear_env
from .oracle import LinearPerArmOracle

ALGORITHMS = ("safe-falcon", "falcon-plus")
ENVIRONMENTS = ("intro-example", "lower-bound", "realizable-linear")

# fixed seed for the realizable environment's coefficients, so the config
# alone determines the instance
_REALIZABLE_COEF_SEED = 20210229

TRACE_HEADER = [
    "run_id",
    "t",
    "epoch",
    "context",
    "action",
    "realized_reward",
    "optimal_arm",
    "optimal_mean_reward",
    "realized_regret",
    "safe",
    "m_hat",
]

EPOCHS_HEADER = ["epoch", "run_id", "mean_regret", "count", "ci_low", "ci_high"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "safe-falcon"
    env: str = "intro-example"
    env_k: int = 2
    env_b: float = 0.0625
    tau1: int = 2
    delta: float = 0.05
    horizon: int = 1024
    runs: int = 1
    seed: int = 0
    avg_epoch_test: bool = False
    out: str = "out"
    round_budget: int = 400_000_000

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.env not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.env!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.runs * self.horizon > self.round_budget:
            raise ConfigError("runs * T exceeds the round budget")
        AlgorithmConfig(self.tau1, self.delta, self.horizon, self.avg_epoch_test)


_KEYMAP = {
    "algorithm": ("algorithm", str),
    "env": ("env", str),
    "env.K": ("env_k", int),
    "env.B": ("env_b", float),
    "tau1": ("tau1", int),
    "delta": ("delta", float),
    "T": ("horizon", int),
    "runs": ("runs", int),
    "seed": ("seed", int),
    "avg_epoch_test": ("avg_epoch_test", None),
    "out": ("out", str),
}


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def load_config_file(path: str) -> ExperimentConfig:
    """Flat key=value config file; blank lines and # comments ignored."""
    cfg = ExperimentConfig()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            cfg = apply_key(cfg, key, value)
    return cfg


def apply_key(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    if key not in _KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    attr, conv = _KEYMAP[key]
    if conv is None:
        parsed = _parse_bool(value)
    else:
        try:
            parsed = conv(value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {value!r}") from e
    return replace(cfg, **{attr: parsed})


def build_environment(cfg: ExperimentConfig):
    if cfg.env == "intro-example":
        return IntroExampleEnv()
    if cfg.env == "lower-bound":
        try:
            return LowerBoundEnv(cfg.env_k, cfg.env_b)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if cfg.env == "realizable-linear":
        return realizable_linear_env(cfg.env_k, dim=1, coefficient_seed=_REALIZABLE_COEF_SEED)
    raise ConfigError(f"unknown environment {cfg.env!r}")


def run_replications(cfg: ExperimentConfig):
    """Run the configured replications; per-run seed is base seed + run id."""
    cfg.validate()
    env = build_environment(cfg)
    oracle = LinearPerArmOracle(env.K, env.dim)
    algo_cfg = AlgorithmConfig(cfg.tau1, cfg.delta, cfg.horizon, cfg.avg_epoch_test)
    runner = run_safe_falcon if cfg.algorithm == "safe-falcon" else run_falcon_plus
    traces = []
    for i in range(cfg.runs):
        traces.append(runner(env, oracle, algo_cfg, cfg.seed + i))
    return traces


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trace_csv(path: str, traces):
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
                        _fmt(float(trace.rewards[i])),
                        int(trace.optimal_arms[i]),
                        _fmt(float(trace.optimal_means[i])),
                        _fmt(float(realized[i])),
                        int(trace.safe[i]),
                        int(trace.m_hat[i]),
                    ]
                )


def _epoch_rows(per_run, aggregate):
    """epochs.csv rows: per-epoch mean regret per run, then the cross-run
    aggregate rows (run_id = 'all')."""
    for run_id, summaries in enumerate(per_run):
        for s in summaries:
            yield [s.epoch, run_id, _fmt(s.mean_realized_regret), s.count, "", ""]
    for row in aggregate:
        yield [row["epoch"], "all", _fmt(row["mean"]), "",
               _fmt(row["ci_low"]), _fmt(row["ci_high"])]


def write_epochs_csv(path: str, per_run, aggregate):
    """Per-epoch mean regret per run plus cross-run aggregate rows
    (run_id = 'all')."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EPOCHS_HEADER)
        w.writerows(_epoch_rows(per_run, aggregate))


def render_regret_svg(aggregate, title="per-epoch mean regret") -> str:
    """Minimal line chart with error bars; no plotting dependency."""
    width, height, pad = 640, 400, 50
    xs = [row["epoch"] for row in aggregate]
    los = [row["ci_low"] for row in aggregate]
    his = [row["ci_high"] for row in aggregate]
    x_min, x_max = min(xs), max(xs)
    y_min = min(min(los), 0.0)
    y_max = max(his) or 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(x):
        if x_max == x_min:
            return width / 2
        return pad + (x - x_min) / (x_max - x_min) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_min) / (y_max - y_min) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">epoch</text>',
    ]
    points = " ".join(
        f"{sx(row['epoch']):.2f},{sy(row['mean']):.2f}" for row in aggregate
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )
    for row in aggregate:
        x = sx(row["epoch"])
        parts.append(
            f'<line x1="{x:.2f}" y1="{sy(row["ci_low"]):.2f}" x2="{x:.2f}" '
            f'y2="{sy(row["ci_high"]):.2f}" stroke="steelblue"/>'
        )
        parts.append(
            f'<circle cx="{x:.2f}" cy="{sy(row["mean"]):.2f}" r="2.5" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-size="10">{row["epoch"]}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        y = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{pad - 6}" y="{sy(y) + 4:.2f}" text-anchor="end" '
            f'font-size="10">{y:.3f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run replications and write trace.csv, epochs.csv, regret.svg."""
    traces = run_replications(cfg)
    per_run = [epoch_summaries(t) for t in traces]
    aggregate = aggregate_runs(per_run)
    os.makedirs(cfg.out, exist_ok=True)
    paths = {
        "trace": os.path.join(cfg.out, "trace.csv"),
        "epochs": os.path.join(cfg.out, "epochs.csv"),
        "svg": os.path.join(cfg.out, "regret.svg"),
    }
    write_trace_csv(paths["trace"], traces)
    write_epochs_csv(paths["epochs"], per_run, aggregate)
    title = f"{cfg.algorithm} on {cfg.env}: per-epoch mean regret"
    with open(paths["svg"], "w") as fh:
        fh.write(render_regret_svg(aggregate, title))
    paths["traces"] = traces
    paths["aggregate"] = aggregate
    return paths


def first_flip_epoch(trace):
    """Epoch of the first failed safety check, or None."""
    if trace.detection_round is None:
        return None
    return int(trace.epoch[trace.detection_round - 1])


def compare_experiments(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> dict:
    """Run two configs on matched environments/horizons and write a merged
    per-epoch summary plus per-run safety-flip epochs."""
    if cfg_a.horizon != cfg_b.horizon:
        raise ConfigError("compared configs must share the horizon T")
    if (cfg_a.env, cfg_a.env_k, cfg_a.env_b) != (cfg_b.env, cfg_b.env_k, cfg_b.env_b):
        raise ConfigError("compared configs must share the environment")
    if cfg_a.algorithm == cfg_b.algorithm:
        raise ConfigError("compared configs must use different algorithms")
    out = cfg_a.out
    os.makedirs(out, exist_ok=True)
    result = {"epochs": os.path.join(out, "compare_epochs.csv"),
              "flips": os.path.join(out, "compare_flips.csv")}
    aggregates = {}
    epoch_rows = []
    flip_rows = []
    for cfg in (cfg_a, cfg_b):
        traces = run_replications(cfg)
        per_run = [epoch_summaries(t) for t in traces]
        aggregate = aggregate_runs(per_run)
        aggregates[cfg.algorithm] = aggregate
        epoch_rows += ([cfg.algorithm] + row for row in _epoch_rows(per_run, aggregate))
        if cfg.algorithm == "safe-falcon":
            for run_id, t in enumerate(traces):
                flip = first_flip_epoch(t)
                flip_rows.append([run_id, "" if flip is None else flip])
    with open(result["epochs"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm"] + EPOCHS_HEADER)
        w.writerows(epoch_rows)
    with open(result["flips"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "flip_epoch"])
        w.writerows(flip_rows)
    result["aggregates"] = aggregates
    result["flip_rows"] = flip_rows
    return result
