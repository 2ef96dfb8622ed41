"""Experiment harness: config parsing, seeded replications, CSV/SVG output."""

from __future__ import annotations

import csv
import os
import typing
from dataclasses import dataclass, replace

from .algorithms import AlgorithmConfig, run_falcon_plus, run_safe_falcon
from .analysis import aggregate_runs, epoch_summaries
from .environments import IntroExampleEnv, LowerBoundEnv, realizable_linear_env
from .oracle import LinearPerArmOracle

ALGORITHMS = ("safe-falcon", "falcon-plus")

# fixed seed for the realizable environment's coefficients, so the config
# alone determines the instance
_REALIZABLE_COEF_SEED = 20210229

# environment name -> factory taking the ExperimentConfig
ENVIRONMENTS = {
    "intro-example": lambda cfg: IntroExampleEnv(),
    "lower-bound": lambda cfg: LowerBoundEnv(cfg.env_k, cfg.env_b),
    "realizable-linear": lambda cfg: realizable_linear_env(
        cfg.env_k, dim=1, coefficient_seed=_REALIZABLE_COEF_SEED
    ),
}

# most rounds (runs * T) one config may ask for
ROUND_BUDGET = 400_000_000

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

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.env not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.env!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.runs * self.horizon > ROUND_BUDGET:
            raise ConfigError("runs * T exceeds the round budget")
        try:
            AlgorithmConfig(self.tau1, self.delta, self.horizon, self.avg_epoch_test)
        except ValueError as e:
            raise ConfigError(str(e)) from e


# config-file key -> (ExperimentConfig field, command-line flag); a value is
# parsed as its field's type
CONFIG_KEYS = {
    "algorithm": ("algorithm", "--algorithm"),
    "env": ("env", "--env"),
    "env.K": ("env_k", "--env-k"),
    "env.B": ("env_b", "--env-b"),
    "tau1": ("tau1", "--tau1"),
    "delta": ("delta", "--delta"),
    "T": ("horizon", "--T"),
    "runs": ("runs", "--runs"),
    "seed": ("seed", "--seed"),
    "avg_epoch_test": ("avg_epoch_test", "--avg-epoch-test"),
    "out": ("out", "--out"),
}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


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
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    attr = CONFIG_KEYS[key][0]
    conv = _FIELD_TYPES[attr]
    if conv is bool:
        parsed = _parse_bool(value)
    else:
        try:
            parsed = conv(value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {value!r}") from e
    return replace(cfg, **{attr: parsed})


def build_environment(cfg: ExperimentConfig):
    try:
        return ENVIRONMENTS[cfg.env](cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e


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


def write_trace_csv(path: str, traces):
    """One row per (run, round), in the csv module's excel dialect: no field
    can hold a comma or a quote, so none is quoted, and rows end in \\r\\n.
    Floats are written with ``repr``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for run_id, trace in enumerate(traces):
            contexts = [";".join(map(repr, row)) for row in trace.contexts.tolist()]
            columns = zip(
                range(1, len(trace) + 1),
                trace.epoch.tolist(),
                contexts,
                trace.actions.tolist(),
                trace.rewards.tolist(),
                trace.optimal_arms.tolist(),
                trace.optimal_means.tolist(),
                trace.realized_regret.tolist(),
                trace.safe.astype(int).tolist(),
                trace.m_hat.tolist(),
            )
            fh.writelines(
                f"{run_id},{t},{e},{c},{a},{r!r},{o},{om!r},{rr!r},{sf},{mh}\r\n"
                for t, e, c, a, r, o, om, rr, sf, mh in columns
            )


def _epoch_rows(per_run, aggregate):
    """epochs.csv rows: per-epoch mean regret per run, then the cross-run
    aggregate rows (run_id = 'all')."""
    for run_id, summaries in enumerate(per_run):
        for s in summaries:
            yield [s.epoch, run_id, s.mean_realized_regret, s.count, "", ""]
    for row in aggregate:
        yield [row["epoch"], "all", row["mean"], "", row["ci_low"], row["ci_high"]]


def _write_csv(path: str, header, rows):
    """Header and rows in the csv module's excel dialect (floats as ``repr``)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_epochs_csv(path: str, per_run, aggregate):
    """Per-epoch mean regret per run plus cross-run aggregate rows
    (run_id = 'all')."""
    _write_csv(path, EPOCHS_HEADER, _epoch_rows(per_run, aggregate))


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
    epoch_rows = []
    flip_rows = []
    for cfg in (cfg_a, cfg_b):
        traces = run_replications(cfg)
        per_run = [epoch_summaries(t) for t in traces]
        aggregate = aggregate_runs(per_run)
        epoch_rows += ([cfg.algorithm] + row for row in _epoch_rows(per_run, aggregate))
        if cfg.algorithm == "safe-falcon":
            for run_id, t in enumerate(traces):
                flip = first_flip_epoch(t)
                flip_rows.append([run_id, "" if flip is None else flip])
    _write_csv(result["epochs"], ["algorithm"] + EPOCHS_HEADER, epoch_rows)
    _write_csv(result["flips"], ["run_id", "flip_epoch"], flip_rows)
    return result
