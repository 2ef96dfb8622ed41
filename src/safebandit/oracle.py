"""Offline regression oracles and their estimation-rate functions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def xi(rate: EstimationRate, n: int, zeta: float) -> float:
    """Evaluate an estimation rate with argument checking."""
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    return float(rate.xi(n, zeta))


@dataclass
class RateValidationReport:
    ok: bool
    failures: list = field(default_factory=list)

    def add(self, message: str):
        self.ok = False
        self.failures.append(message)


def validate_rate(
    rate: EstimationRate,
    delta: float,
    n_max: int,
    zeta_grid=(0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9),
) -> RateValidationReport:
    """Check the two validity conditions on a rate over a finite grid.

    Condition 1: n -> xi(n, delta/ln(n)) is non-increasing. Checked on every
    integer n in [3, n_max]; the chi-squared closed form is only monotone from
    n = 3 onward, and below that zeta = delta/ln(n) exceeds delta anyway.
    Condition 2: xi(n, zeta) >= ln(1/zeta)/n, checked on a geometric subgrid
    of n crossed with a fixed zeta grid plus delta/ln(n).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    report = RateValidationReport(ok=True)

    n = np.arange(3, n_max + 1, dtype=float)
    seq = np.asarray(rate.xi(n, delta / np.log(n)), dtype=float)
    diffs = np.diff(seq)
    bad = np.nonzero(diffs > 1e-12)[0]
    if bad.size:
        i = int(bad[0])
        report.add(
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
    for zeta in zeta_grid:
        vals = np.asarray(rate.xi(n_grid, zeta), dtype=float)
        floor = math.log(1.0 / zeta) / n_grid
        bad = np.nonzero(vals < floor - 1e-12)[0]
        if bad.size:
            i = int(bad[0])
            report.add(
                "floor violated at n=%d, zeta=%g: xi=%.6g < %.6g"
                % (int(n_grid[i]), zeta, vals[i], floor[i])
            )
            break
    # zeta tied to n, as used by the epoch schedule
    zeta_n = delta / np.log(np.maximum(n_grid, 3.0))
    vals = np.asarray(rate.xi(n_grid, zeta_n), dtype=float)
    floor = np.log(1.0 / zeta_n) / n_grid
    bad = np.nonzero(vals < floor - 1e-12)[0]
    if bad.size:
        i = int(bad[0])
        report.add(
            "floor violated at n=%d, zeta=delta/ln(n): xi=%.6g < %.6g"
            % (int(n_grid[i]), vals[i], floor[i])
        )
    return report


class RegressionOracle:
    """Offline regression oracle: deterministic fit of a model in its class."""

    rate: EstimationRate

    def fit(self, data) -> OutcomeModel:
        """Fit on a dataset of (context, arm, reward) triples; each context is
        the 1-d array the run trace records for its round."""
        raise NotImplementedError


class LinearPerArmOracle(RegressionOracle):
    """Ordinary least squares of reward on (1, context), separately per arm.

    Arms with no samples predict 0.5; degenerate designs (fewer samples than
    coefficients, or rank-deficient) fall back to an intercept-only fit.
    """

    def __init__(self, K: int, dim: int = 1):
        self.K = K
        self.dim = dim
        self.rate = LinearChiSquaredRate()

    def fit(self, data) -> LinearPerArmModel:
        if len(data) == 0:
            raise ValueError("cannot fit on an empty dataset")
        xs = np.atleast_2d(
            np.asarray([np.atleast_1d(x) for x, _, _ in data], dtype=float)
        )
        arms = np.asarray([a for _, a, _ in data], dtype=int)
        rewards = np.asarray([r for _, _, r in data], dtype=float)

        intercepts = np.full(self.K, 0.5)
        slopes = np.zeros((self.K, self.dim))
        for a in range(self.K):
            mask = arms == a
            n = int(mask.sum())
            if n == 0:
                continue
            xa = xs[mask]
            ra = rewards[mask]
            if n <= self.dim:
                intercepts[a] = ra.mean()
                continue
            design = np.hstack([np.ones((n, 1)), xa])
            coef, _, rank, _ = np.linalg.lstsq(design, ra, rcond=None)
            if rank < self.dim + 1:
                intercepts[a] = ra.mean()
            else:
                intercepts[a] = coef[0]
                slopes[a] = coef[1:]
        return LinearPerArmModel(intercepts, slopes)


def fit(oracle: RegressionOracle, data) -> OutcomeModel:
    return oracle.fit(data)
