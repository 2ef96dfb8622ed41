"""Experiment harness: config parsing, seeded replications, CSV/SVG output."""

from __future__ import annotations

import csv
import os
import typing
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import AlgorithmConfig, run_falcon_plus, run_safe_falcon
from .analysis import aggregate_runs, epoch_summaries
from .core import _at_least
from .environments import BanditEnvironment, IntroExampleEnv, LowerBoundEnv, realizable_linear_env
from .floatrepr import float_fields, int_fields
from .oracle import LinearPerArmOracle

ALGORITHMS = ("safe-falcon", "falcon-plus")

# fixed seed for the realizable environment's coefficients, so the config
# alone determines the instance
_REALIZABLE_COEF_SEED = 20210229

# environment name -> (the ExperimentConfig fields it reads, a factory
# taking their values in that order); compare pairs two sides on them
ENVIRONMENTS = {
    "intro-example": ((), IntroExampleEnv),
    "lower-bound": (("env_k", "env_b"), LowerBoundEnv),
    "realizable-linear": (
        ("env_k",),
        lambda K: realizable_linear_env(K, dim=1, coefficient_seed=_REALIZABLE_COEF_SEED),
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

    def validate(self) -> tuple[AlgorithmConfig, BanditEnvironment]:
        """The one judgement of a config: raise ConfigError unless it can run,
        else return its AlgorithmConfig and a freshly built environment."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.env not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.env!r}")
        try:
            # a float or a bool count raises TypeError, as the horizon and
            # tau1 do, and so does a non-bool avg_epoch_test in
            # AlgorithmConfig; like a ValueError it becomes a ConfigError
            _at_least(self.runs, 1, "runs")
            _at_least(self.seed, 0, "seed")
            if self.runs * self.horizon > ROUND_BUDGET:
                raise ValueError("runs * T exceeds the round budget")
            algo_cfg = AlgorithmConfig(self.tau1, self.delta, self.horizon, self.avg_epoch_test)
            return algo_cfg, build_environment(self)
        except (TypeError, ValueError) as e:
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
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(lines, 1):
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


def _environment_values(cfg: ExperimentConfig) -> tuple:
    """The values of the config fields that its environment reads."""
    return tuple(getattr(cfg, name) for name in ENVIRONMENTS[cfg.env][0])


def build_environment(cfg: ExperimentConfig):
    return ENVIRONMENTS[cfg.env][1](*_environment_values(cfg))


def _make_out_dir(path: str):
    """Create the output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e


def run_replications(cfg: ExperimentConfig):
    """Run the configured replications; per-run seed is base seed + run id.
    Each run plays a freshly built environment (run 0 the one ``validate``
    built), so a stateful environment starts every run at round 0."""
    algo_cfg, env = cfg.validate()
    oracle = LinearPerArmOracle(env.K, env.dim)
    runner = run_safe_falcon if cfg.algorithm == "safe-falcon" else run_falcon_plus
    return [
        runner(env if i == 0 else build_environment(cfg), oracle, algo_cfg, cfg.seed + i)
        for i in range(cfg.runs)
    ]


# trace.csv rows formatted and written per block: the writer's memory is set
# by this, not by the horizon
TRACE_BLOCK_ROWS = 4096


def _write_trace_block(fh, prefix: bytes, lo: int, block):
    """Rows lo + 1 .. lo + len(block) of one run, laid out as one uint8
    matrix, a row per round: each field right-aligned in its own columns
    with NULs before it (``floatrepr``), the separators and the run prefix
    as constant columns:

        run_id, | t | , | epoch | , | ctx_0 | ; | ctx_1 ... | , | action | ,
        | reward | , | optimal_arm | , | optimal_mean | , | regret | , | safe
        | , | m_hat | \\r\\n

    The rows are the matrix's bytes with its NULs dropped. The floats of
    the block are formatted in one call; of the regrets only those other
    than +0.0 (the optimal arm's rounds give 0.0), and of the optimal means
    only the distinct ones, told apart by their bits."""
    n, dim = block.contexts.shape
    regret = block.realized_regret
    nonzero = np.flatnonzero(regret.view(np.uint64))
    means, inverse = np.unique(block.optimal_means.view(np.int64), return_inverse=True)
    floats = float_fields(
        np.concatenate([block.contexts.T.reshape(-1), block.rewards, regret[nonzero], means.view(np.float64)])
    )
    *contexts, rewards, nonzero_regrets, means = np.split(floats, np.cumsum([n] * (dim + 1) + [len(nonzero)]))
    regrets = np.zeros((n, floats.shape[1]), dtype=np.uint8)
    regrets[:, -3:] = np.frombuffer(b"0.0", dtype=np.uint8)
    regrets[nonzero] = nonzero_regrets
    # the distinct means' rows, trimmed to the longest of them
    means = means[:, np.argmax(means.any(axis=0)) :]
    fields = [prefix, int_fields(np.arange(lo + 1, lo + n + 1)), b",", int_fields(block.epoch), b","]
    for d, column in enumerate(contexts):
        fields += [b";"] * (d > 0) + [column]
    fields += [
        b",", int_fields(block.actions), b",", rewards,
        b",", int_fields(block.optimal_arms), b",", means[inverse],
        b",", regrets, b",", block.safe.view(np.uint8)[:, None] + np.uint8(ord("0")),
        b",", int_fields(block.m_hat), b"\r\n",
    ]
    widths = [len(f) if isinstance(f, bytes) else f.shape[1] for f in fields]
    rows = np.empty((n, sum(widths)), dtype=np.uint8)
    at = 0
    for field, width in zip(fields, widths):
        rows[:, at : at + width] = np.frombuffer(field, dtype=np.uint8) if isinstance(field, bytes) else field
        at += width
    rows = rows.reshape(-1)
    fh.write(rows[rows != 0])


def write_trace_csv(path: str, traces):
    """One row per (run, round), in the csv module's excel dialect: no field
    can hold a comma or a quote, so none is quoted, and rows end in \\r\\n.
    Floats are written as ``repr`` writes them (``floatrepr``)."""
    with open(path, "wb") as fh:
        fh.write(",".join(TRACE_HEADER).encode() + b"\r\n")
        for run_id, trace in enumerate(traces):
            for lo in range(0, len(trace), TRACE_BLOCK_ROWS):
                block = trace.rows(lo, lo + TRACE_BLOCK_ROWS)
                _write_trace_block(fh, b"%d," % run_id, lo, block)


def _epoch_rows(per_run, aggregate):
    """epochs.csv rows: per-epoch mean regret per run, then the cross-run
    aggregate rows (run_id = 'all')."""
    for run_id, (epochs, counts, means) in enumerate(per_run):
        for m, count, mean in zip(epochs.tolist(), counts.tolist(), means.tolist()):
            yield [m, run_id, mean, count, "", ""]
    for m, mean, lo, hi in zip(*(col.tolist() for col in aggregate)):
        yield [m, "all", mean, "", lo, hi]


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
    xs, means, los, his = (col.tolist() for col in aggregate)
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
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, means))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )
    for m, mean, lo, hi in zip(xs, means, los, his):
        x = sx(m)
        parts.append(
            f'<line x1="{x:.2f}" y1="{sy(lo):.2f}" x2="{x:.2f}" '
            f'y2="{sy(hi):.2f}" stroke="steelblue"/>'
        )
        parts.append(f'<circle cx="{x:.2f}" cy="{sy(mean):.2f}" r="2.5" fill="steelblue"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-size="10">{m}</text>'
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
    # judged before out is made; run_replications judges it again
    cfg.validate()
    _make_out_dir(cfg.out)
    traces = run_replications(cfg)
    per_run = [epoch_summaries(t) for t in traces]
    aggregate = aggregate_runs(per_run)
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


def _compare_side(cfg: ExperimentConfig):
    """One side of a comparison: its epochs rows, keyed by algorithm, and
    for Safe-FALCON each run's first flip epoch."""
    traces = run_replications(cfg)
    per_run = [epoch_summaries(t) for t in traces]
    rows = [[cfg.algorithm] + row for row in _epoch_rows(per_run, aggregate_runs(per_run))]
    flips = []
    if cfg.algorithm == "safe-falcon":
        for run_id, t in enumerate(traces):
            flip = first_flip_epoch(t)
            flips.append([run_id, "" if flip is None else flip])
    return rows, flips


def compare_experiments(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> dict:
    """Run two configs on matched environments/horizons and write a merged
    per-epoch summary plus per-run safety-flip epochs. Both sides are judged,
    and their pairing checked, before out is made or any round is played."""
    cfg_a.validate()
    cfg_b.validate()
    if cfg_a.horizon != cfg_b.horizon:
        raise ConfigError("compared configs must share the horizon T")
    if (cfg_a.env, _environment_values(cfg_a)) != (cfg_b.env, _environment_values(cfg_b)):
        raise ConfigError("compared configs must share the environment")
    if cfg_a.algorithm == cfg_b.algorithm:
        raise ConfigError("compared configs must use different algorithms")
    out = cfg_a.out
    _make_out_dir(out)
    result = {"epochs": os.path.join(out, "compare_epochs.csv"),
              "flips": os.path.join(out, "compare_flips.csv")}
    epoch_rows = []
    flip_rows = []
    for cfg in (cfg_a, cfg_b):
        # summarized in a call of its own, so one side's traces are freed
        # before the other side runs
        rows, flips = _compare_side(cfg)
        epoch_rows += rows
        flip_rows += flips
    _write_csv(result["epochs"], ["algorithm"] + EPOCHS_HEADER, epoch_rows)
    _write_csv(result["flips"], ["run_id", "flip_epoch"], flip_rows)
    return result
