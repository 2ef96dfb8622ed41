"""Offline regression oracles and their estimation-rate functions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinearPerArmModel, OutcomeModel, _at_least


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

    Raises ValueError for a delta outside (0, 1) or an n_max below 4, and
    TypeError for a bool or any other non-integer n_max.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    # a float range would check a float grid; a bool is no count either
    n_max = _at_least(n_max, 4, "n_max")
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

    Arms with no samples predict 0.5; an arm with at most dim samples, or a
    design of rank below dim + 1, falls back to an intercept-only fit: the
    mean reward, with zero slopes. With dim 0 every arm with samples takes
    its mean.

    The fit works from each arm's centred moments: its row count m, the
    means x̄ and r̄, the centred Gram G = Σ(x - x̄)(x - x̄)ᵀ and the cross
    sums c = Σ(x - x̄)(r - r̄). Each arm's rows are centred on its own means
    before any product is formed, so contexts far from zero keep their
    digits. The dim x dim system G β = c is solved by Gaussian elimination
    in order, in Python floats; the intercept is r̄ - β · x̄. Every sum is
    numpy's add reduction over one arm's rows, so the fitted bits rest on
    no BLAS or LAPACK call.

    Rank rule: with k = max(m, dim + 1) and ε the float64 machine epsilon,
    the design counts as rank deficient when some pivot of the elimination,
    G_jj after the columns before j are eliminated, is not above

        max((ε k)² (m + Σ|x|²),  16 ε k G_jj⁽⁰⁾),

    where m + Σ|x|² is the squared Frobenius norm of the design (1, x)
    and G_jj⁽⁰⁾ is the centred diagonal before elimination. The first term
    bounds the square of lstsq's default cut, ε k times the largest
    singular value, from above; it catches a column that is constant up to
    the rounding of its mean (contexts that all equal 0.1 centre on 0.1's
    rounded mean, and their tiny centred Gram is noise). The second
    catches a column that the elimination cancels to rounding noise, such
    as a context dim that is an exact multiple of another. The rule
    reproduces lstsq's fallback decisions on repeated and collinear
    contexts and on designs well within rank. Between the two it is more
    cautious: a dim whose pivot keeps no more than 16 ε k of its centred
    diagonal, nearly but not exactly collinear with the dims before it,
    takes the arm to its mean where lstsq's far smaller cut would fit.

    K must be an integer >= 1 and dim an integer >= 0 (TypeError for a
    bool or another non-integer, ValueError below the range). ``fit``
    raises ValueError unless the contexts are (n, dim), the actions are
    integers in 0..K-1, one per reward, and every context and reward is
    finite: a NaN reward would make its arm's coefficients NaN, and every
    later draw would play arm 0.
    """

    def __init__(self, K: int, dim: int = 1):
        self.K = _at_least(K, 1, "K")
        self.dim = _at_least(dim, 0, "dim")
        self.rate = LinearChiSquaredRate()

    def fit(self, data: Dataset) -> LinearPerArmModel:
        dim = self.dim
        xs = np.asarray(data.contexts, dtype=float)
        arms = np.asarray(data.actions)
        rewards = np.asarray(data.rewards, dtype=float)
        # the shapes first: a 0-d array has no length to take
        if arms.ndim != 1 or rewards.shape != arms.shape:
            raise ValueError(
                f"expected one reward per action, got {rewards.shape} rewards "
                f"for {arms.shape} actions"
            )
        n_rows = len(arms)
        if n_rows == 0:
            raise ValueError("cannot fit on an empty dataset")
        if xs.shape != (n_rows, dim):
            raise ValueError(f"expected contexts of shape ({n_rows}, {dim}), got {xs.shape}")
        if arms.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, not {arms.dtype}")
        if arms.min() < 0 or arms.max() >= self.K:
            raise ValueError(f"actions must lie in 0..{self.K - 1}")
        # one row per context dim, then the rewards: an arm's rows come out
        # of one take, and each of its moments is a reduction along a row
        columns = np.empty((dim + 1, n_rows))
        columns[:dim] = xs.T
        columns[dim] = rewards
        if not np.isfinite(columns).all():
            if not np.isfinite(columns[:dim]).all():
                raise ValueError("contexts must be finite")
            raise ValueError("rewards must be finite")

        intercepts = np.full(self.K, 0.5)
        slopes = np.zeros((self.K, dim))
        for a in range(self.K):
            # the arm's rows by index, then its block in one take
            rows = (arms == a).nonzero()[0]
            m = len(rows)
            if m == 0:
                continue
            block = columns.take(rows, axis=1)
            means = np.add.reduce(block, axis=1) / m
            # m <= dim rows: the rank is below dim + 1 for certain
            coef = _centred_ols(block, means) if m > dim else None
            if coef is None:
                intercepts[a] = means[dim]
            else:
                intercepts[a], slopes[a] = coef
        return LinearPerArmModel(intercepts, slopes)


_EPS = float(np.finfo(float).eps)


def _centred_ols(block: np.ndarray, means: np.ndarray):
    """(intercept, slopes) of one arm from ``block``, its (dim + 1, m)
    contexts and rewards by row, and their row means; None when the design
    fails the rank rule (``LinearPerArmOracle``'s docstring). Centres
    ``block`` in place."""
    dim, m = len(block) - 1, block.shape[1]
    block -= means[:, None]
    # row i: the centred Gram's row i, then the cross sum of context dim i
    moments = np.add.reduce(block[:dim, None] * block, axis=2).tolist()
    means = means.tolist()

    k = max(m, dim + 1)
    diagonal = [moments[d][d] for d in range(dim)]
    # the design's squared Frobenius norm m + Σ|x|², from the moments
    norm2 = m
    for d in range(dim):
        norm2 += diagonal[d] + m * means[d] ** 2
    floor = (_EPS * k) ** 2 * norm2
    # Gaussian elimination in order on the augmented rows [G | c]
    for j in range(dim):
        pivot = moments[j][j]
        # not above: also a NaN pivot, from contexts whose squares overflow
        if not pivot > max(floor, 16.0 * _EPS * k * diagonal[j]):
            return None
        for i in range(j + 1, dim):
            f = moments[i][j] / pivot
            for col in range(j + 1, dim + 1):
                moments[i][col] -= f * moments[j][col]
    slopes = [0.0] * dim
    for j in reversed(range(dim)):
        s = moments[j][dim]
        for col in range(j + 1, dim):
            s -= moments[j][col] * slopes[col]
        slopes[j] = s / moments[j][j]
    intercept = means[dim]
    for d in range(dim):
        intercept -= slopes[d] * means[d]
    return intercept, slopes
