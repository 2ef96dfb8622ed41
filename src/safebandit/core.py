"""Shared domain types: outcome models, epoch schedule, run traces."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np


class OutcomeModel:
    """Deterministic map from (context, arm) to a mean reward in [0, 1].

    Subclasses override ``values_batch``, which maps an (n, dim) array of
    contexts to the (n, K) array of predictions, already clamped to [0, 1].
    ``values`` gives the length-K vector for one context as row 0 of a batch
    of one, so each formula is written once.
    """

    def values_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def values(self, x) -> np.ndarray:
        # one context, a scalar or a 1-d array, as a batch of one row
        return self.values_batch(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]


class ConstantModel(OutcomeModel):
    """Context-independent model; one fixed value per arm."""

    def __init__(self, values):
        self._values = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)

    def values_batch(self, X) -> np.ndarray:
        return np.broadcast_to(self._values, (len(X), len(self._values)))


def zero_model(K: int) -> ConstantModel:
    return ConstantModel(np.zeros(K))


class LinearPerArmModel(OutcomeModel):
    """Per-arm affine model: intercept[a] + slope[a] . x, clamped to [0, 1]."""

    def __init__(self, intercepts, slopes):
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        if self.slopes.shape[0] != self.intercepts.shape[0]:
            raise ValueError("one slope row per arm required")
        # arm-major (K, 1) views, taken once: one per context dim, and the
        # intercepts
        self._slope_columns = [self.slopes[:, d, None] for d in range(self.slopes.shape[1])]
        self._intercept_column = self.intercepts[:, None]

    def values_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # Arm-major (K, n), summed over the context dims in order from +0.0:
        # each row is rounded the same way whatever the number of rows (a
        # BLAS product is not), and every op runs along the n rounds.
        total = np.zeros((len(self.intercepts), len(X)))
        for d in range(X.shape[1]):
            total += self._slope_columns[d] * X[:, d]
        # in place: addition commutes and the method is np.clip's ufunc, so
        # the bits equal np.clip(intercepts + total, 0, 1)
        total += self._intercept_column
        return total.clip(0.0, 1.0, out=total).T


class TabularModel(OutcomeModel):
    """Model on a finite context set; contexts are integer indices."""

    def __init__(self, table):
        self.table = np.clip(np.asarray(table, dtype=float), 0.0, 1.0)

    def values_batch(self, X) -> np.ndarray:
        return self.table[np.asarray(X)[:, 0].astype(int)]


@dataclass(frozen=True)
class EpochSchedule:
    """Doubling epoch boundaries: tau_0 = 0, tau_m = tau_1 * 2^(m-1)."""

    tau1: int

    def __post_init__(self):
        if self.tau1 < 2:
            raise ValueError("tau1 must be >= 2")

    def tau(self, m: int) -> int:
        if m < 0:
            raise ValueError("epoch index must be >= 0")
        if m == 0:
            return 0
        return self.tau1 << (m - 1)

    def epoch_of(self, t: int) -> int:
        if t < 1:
            raise ValueError("round index must be >= 1")
        m = 1
        boundary = self.tau1
        while t > boundary:
            boundary <<= 1
            m += 1
        return m

    def epoch_size(self, m):
        """Rounds in epoch m >= 1, an int or an int array of epochs: tau_1 in
        epochs 1 and 2, then doubling."""
        if (np.asarray(m) < 1).any():
            raise ValueError("epoch index must be >= 1")
        if np.ndim(m) == 0:
            # a Python int, exact however large the epoch
            return self.tau1 << max(int(m) - 2, 0)
        return self.tau1 << np.maximum(m - 2, 0)


@dataclass
class RunTrace:
    """Per-round record of one bandit run.

    All arrays share the same length (number of rounds actually played).
    ``reward_vectors`` holds the full realized reward vector so counterfactual
    regret against the optimal arm can be recomputed after the fact.
    """

    epoch: np.ndarray
    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    reward_vectors: np.ndarray
    optimal_arms: np.ndarray
    optimal_means: np.ndarray
    safe: np.ndarray
    m_hat: np.ndarray
    detection_round: int | None = None
    m_hat_final: int = 0

    @classmethod
    def empty(cls, T: int, dim: int, K: int) -> "RunTrace":
        """Uninitialized columns for T rounds, filled in place by the loop."""
        return cls(
            epoch=np.empty(T, dtype=int),
            contexts=np.empty((T, dim)),
            actions=np.empty(T, dtype=np.intp),
            rewards=np.empty(T),
            reward_vectors=np.empty((T, K)),
            optimal_arms=np.empty(T, dtype=np.intp),
            optimal_means=np.empty(T),
            safe=np.empty(T, dtype=bool),
            m_hat=np.empty(T, dtype=int),
        )

    def __len__(self) -> int:
        return len(self.actions)

    def rows(self, lo: int, hi: int) -> "RunTrace":
        """Rounds lo + 1 .. hi: every column sliced as a view, the scalar
        fields kept as they are."""
        columns = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                columns[f.name] = value[lo:hi]
        return replace(self, **columns)

    @property
    def realized_regret(self) -> np.ndarray:
        idx = np.arange(len(self.actions))
        return self.reward_vectors[idx, self.optimal_arms] - self.rewards
