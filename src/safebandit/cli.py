"""Command-line interface.

Subcommands: run, compare, lowerbound-check, validate-rate.
Exit codes: 0 success, 2 config error, 3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .analysis import lower_bound_instance_regret, lower_bound_sqrt_b_bruteforce
from .harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    apply_key,
    compare_experiments,
    load_config_file,
    run_experiment,
)
from .oracle import CommonRate, LinearChiSquaredRate, validate_rate


def _add_config_flags(parser, prefix=""):
    """One flag per config key, each spelled with ``prefix`` ("" or "a-")."""
    parser.add_argument(f"--{prefix}config", dest=f"{prefix}config", metavar="FILE", default=None)
    for key, (_, flag) in CONFIG_KEYS.items():
        # compare's two sides share one --out
        if not (prefix and key == "out"):
            parser.add_argument(f"--{prefix}{flag[2:]}", dest=prefix + key, default=None, metavar="V")


def _build_config(args, prefix="") -> ExperimentConfig:
    """Parse only: the harness judges the config before it creates anything."""
    path = getattr(args, f"{prefix}config")
    cfg = load_config_file(path) if path else ExperimentConfig()
    for key in CONFIG_KEYS:
        value = getattr(args, prefix + key, None)
        if value is not None:
            cfg = apply_key(cfg, key, value)
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    paths = run_experiment(cfg)
    print(f"wrote {paths['trace']}, {paths['epochs']}, {paths['svg']}")
    return 0


def _cmd_compare(args) -> int:
    cfg_a = apply_key(_build_config(args, prefix="a-"), "out", args.out)
    cfg_b = _build_config(args, prefix="b-")
    result = compare_experiments(cfg_a, cfg_b)
    print(f"wrote {result['epochs']}, {result['flips']}")
    return 0


def _cmd_lowerbound_check(args) -> int:
    K, B = args.K, args.B
    # judged as a run's lower-bound environment is
    _, env = ExperimentConfig(env="lower-bound", env_k=K, env_b=B).validate()
    analytic = math.sqrt(env.per_arm_variance)
    brute = lower_bound_sqrt_b_bruteforce(K, B)
    print(f"sqrt(B) analytic:    {analytic:.12f}")
    print(f"sqrt(B) brute force: {brute:.12f}")
    rng = np.random.Generator(np.random.Philox(0))
    values = set()
    for _ in range(100):
        g = rng.random(K)
        values.add(round(lower_bound_instance_regret(K, B, g / g.sum()), 12))
    expected = math.sqrt((K - 1) * B)
    invariant = len(values) == 1 and abs(values.pop() - expected) < 1e-9
    print(f"instantaneous regret: {expected:.12f} (g-invariant: {invariant})")
    ok = abs(analytic - brute) < 1e-9 and invariant
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _cmd_validate_rate(args) -> int:
    if args.rate == "linear":
        rate = LinearChiSquaredRate()
    else:
        rate = CommonRate(args.C, args.rho, args.rho_prime, args.comp, args.n0)
    try:
        failures = validate_rate(rate, args.delta, args.n_max)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if not failures:
        print(f"rate valid for delta={args.delta}, n_max={args.n_max}")
        return 0
    for failure in failures:
        print(f"FAIL: {failure}")
    return 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each call parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="safebandit",
        description="Contextual-bandit simulations with a misspecification-safe fallback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run seeded replications and write outputs")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run two configs side by side")
    _add_config_flags(p_cmp, prefix="a-")
    _add_config_flags(p_cmp, prefix="b-")
    p_cmp.add_argument("--out", default=ExperimentConfig.out)
    p_cmp.set_defaults(func=_cmd_compare)

    p_lb = sub.add_parser(
        "lowerbound-check",
        help="verify the hard instance: sqrt(B) analytic vs brute force, g-invariance",
    )
    p_lb.add_argument("--K", type=int, default=ExperimentConfig.env_k)
    p_lb.add_argument("--B", type=float, default=ExperimentConfig.env_b)
    p_lb.set_defaults(func=_cmd_lowerbound_check)

    p_vr = sub.add_parser("validate-rate", help="check estimation-rate validity")
    p_vr.add_argument("--rate", choices=("linear", "common"), default="linear")
    p_vr.add_argument("--delta", type=float, default=ExperimentConfig.delta)
    p_vr.add_argument("--n-max", type=int, default=10**6)
    p_vr.add_argument("--C", type=float, default=1.0)
    p_vr.add_argument("--rho", type=float, default=1.0)
    p_vr.add_argument("--rho-prime", type=float, default=0.0)
    p_vr.add_argument("--comp", type=float, default=1.0)
    p_vr.add_argument("--n0", type=int, default=CommonRate.n0)
    p_vr.set_defaults(func=_cmd_validate_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
