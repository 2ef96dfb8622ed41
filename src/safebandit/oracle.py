"""Offline regression oracles and their estimation-rate functions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinearPerArmModel, OutcomeModel


class EstimationRate:
    """High-probability excess-risk bound xi(n, zeta) for a regression oracle.

    Implementations must accept numpy arrays for ``n`` and ``zeta`` and
    broadcast elementwise, so that validity checks can be vectorized.
    """

    def xi(self, n, zeta):
        raise NotImplementedError


class LinearChiSquaredRate(EstimationRate):
    """Rate for per-arm OLS with intercept + one slope.

    The excess risk is distributed as (1/n) chi^2 with 2 degrees of freedom,
    whose 1-zeta quantile has the closed form -2 ln(zeta).
    """

    def xi(self, n, zeta):
        return -2.0 * np.log(zeta) / np.asarray(n, dtype=float)


@dataclass(frozen=True)
class CommonRate(EstimationRate):
    """Rate of the form C ln^rho'(n) ln(1/zeta) comp / n^rho, clamped to 1 below n0."""

    C: float
    rho: float
    rho_prime: float
    comp: float
    n0: int = 2

    def xi(self, n, zeta):
        n = np.asarray(n, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        with np.errstate(divide="ignore"):
            body = (
                self.C
                * np.log(np.maximum(n, 1.0)) ** self.rho_prime
                * np.log(1.0 / zeta)
                * self.comp
                / n**self.rho
            )
        return np.where(n >= self.n0, body, 1.0)


_ZETA_GRID = (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9)


def validate_rate(rate: EstimationRate, delta: float, n_max: int) -> list[str]:
    """Check the two validity conditions on a rate over a finite grid, and
    return one message per failure found: an empty list for a valid rate.

    Condition 1: n -> xi(n, delta/ln(n)) is non-increasing. Checked on every
    integer n in [3, n_max]; the chi-squared closed form is only monotone from
    n = 3 onward, and below that zeta = delta/ln(n) exceeds delta anyway.
    Condition 2: xi(n, zeta) >= ln(1/zeta)/n, checked on a geometric subgrid
    of n crossed with the fixed ``_ZETA_GRID`` plus delta/ln(n).
    A NaN or infinite xi anywhere on either grid is a failure too.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    failures = []

    n = np.arange(3, n_max + 1, dtype=float)
    seq = np.asarray(rate.xi(n, delta / np.log(n)), dtype=float)
    bad = np.nonzero(~np.isfinite(seq))[0]
    if bad.size:
        i = int(bad[0])
        failures.append("xi not finite at n=%d, zeta=delta/ln(n): xi=%g" % (int(n[i]), seq[i]))
    else:
        bad = np.nonzero(np.diff(seq) > 1e-12)[0]
        if bad.size:
            i = int(bad[0])
            failures.append(
                "monotonicity violated at n=%d: xi=%.6g -> xi=%.6g"
                % (int(n[i]), seq[i], seq[i + 1])
            )

    n_grid = np.unique(
        np.concatenate(
            [
                np.arange(2, min(n_max, 64) + 1),
                np.round(np.geomspace(2, n_max, 200)).astype(int),
            ]
        )
    ).astype(float)
    zeta_n = delta / np.log(np.maximum(n_grid, 3.0))  # as the epoch schedule ties it to n
    fixed = [(zeta, math.log(1.0 / zeta), "%g" % zeta) for zeta in _ZETA_GRID]
    tied = [(zeta_n, np.log(1.0 / zeta_n), "delta/ln(n)")]
    # at most one failure from each group: the fixed grid's first failing zeta
    for group in (fixed, tied):
        for zeta, log_inv_zeta, name in group:
            vals = np.asarray(rate.xi(n_grid, zeta), dtype=float)
            floor = log_inv_zeta / n_grid
            bad = np.nonzero(~(np.isfinite(vals) & (vals >= floor - 1e-12)))[0]
            if bad.size:
                i = int(bad[0])
                where = "at n=%d, zeta=%s: xi=" % (int(n_grid[i]), name)
                if np.isfinite(vals[i]):
                    failures.append("floor violated " + where + "%.6g < %.6g" % (vals[i], floor[i]))
                else:
                    failures.append("xi not finite " + where + "%g" % vals[i])
                break
    return failures


@dataclass(frozen=True)
class Dataset:
    """One epoch's logged rounds as arrays: contexts (n, dim) as the run
    trace records them, chosen arms (n,) and their rewards (n,)."""

    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


class RegressionOracle:
    """Offline regression oracle: deterministic fit of a model in its class."""

    rate: EstimationRate

    def fit(self, data: Dataset) -> OutcomeModel:
        """Fit on one epoch's logged rounds."""
        raise NotImplementedError


class LinearPerArmOracle(RegressionOracle):
    """Ordinary least squares of reward on (1, context), separately per arm.

    Arms with no samples predict 0.5; a design of rank below dim + 1 (as any
    with no more samples than context dims has) falls back to an
    intercept-only fit: the mean reward, with zero slopes.

    Raises ValueError unless the actions are integers in 0..K-1, one per
    reward, and every context and reward is finite: a NaN reward would make
    its arm's coefficients NaN, and every later draw would play arm 0.
    """

    def __init__(self, K: int, dim: int = 1):
        self.K = K
        self.dim = dim
        self.rate = LinearChiSquaredRate()

    def fit(self, data: Dataset) -> LinearPerArmModel:
        n_rows = len(data)
        if n_rows == 0:
            raise ValueError("cannot fit on an empty dataset")
        xs = np.asarray(data.contexts, dtype=float).reshape(n_rows, self.dim)
        arms = np.asarray(data.actions)
        rewards = np.asarray(data.rewards, dtype=float)
        if arms.ndim != 1 or rewards.shape != arms.shape:
            raise ValueError(
                f"expected one reward per action, got {rewards.shape} rewards "
                f"for {arms.shape} actions"
            )
        if arms.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, not {arms.dtype}")
        if arms.min() < 0 or arms.max() >= self.K:
            raise ValueError(f"actions must lie in 0..{self.K - 1}")
        # before lstsq, which fails on them only after LAPACK writes to stderr
        if not np.isfinite(xs).all():
            raise ValueError("contexts must be finite")
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")

        intercepts = np.full(self.K, 0.5)
        slopes = np.zeros((self.K, self.dim))
        for a in range(self.K):
            # the arm's rows by index: cheaper than a boolean mask per column
            rows = np.flatnonzero(arms == a)
            if len(rows) == 0:
                continue
            ra = rewards.take(rows)
            # n <= dim rows: the rank is below dim + 1 for certain
            if len(rows) > self.dim:
                design = np.empty((len(rows), self.dim + 1))
                design[:, 0] = 1.0
                design[:, 1:] = xs.take(rows, axis=0)
                coef, _, rank, _ = np.linalg.lstsq(design, ra, rcond=None)
                if rank == self.dim + 1:
                    intercepts[a] = coef[0]
                    slopes[a] = coef[1:]
                    continue
            intercepts[a] = ra.mean()
        return LinearPerArmModel(intercepts, slopes)
