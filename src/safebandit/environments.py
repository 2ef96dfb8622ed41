"""Synthetic bandit environments used by the simulations and analyses."""

from __future__ import annotations

import math

import numpy as np

from .core import LinearPerArmModel


class BanditEnvironment:
    """Stationary environment: a context distribution, true means, rewards.

    ``means_batch(X)`` maps (n, dim) contexts to the (n, K) true means.
    ``sample_batch(rng, n)`` draws n rounds at once as arrays: contexts
    (n, dim), means (n, K) and realized rewards (n, K). The algorithm may
    only look at the chosen arm's reward, but traces record the full vector
    so realized counterfactual regret is well defined. ``sample(rng)`` draws
    one round as (context, mean vector, reward vector).

    Subclasses override one of the two samplers. A stateless environment
    overrides ``sample_batch``, and ``sample`` returns row 0 of a batch of
    one. A stateful one overrides ``sample``, and the default
    ``sample_batch`` calls it once per round, in order.
    """

    K: int
    dim: int

    def means_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator):
        X, means, rewards = self.sample_batch(rng, 1)
        return X[0], means[0], rewards[0]

    def sample_batch(self, rng: np.random.Generator, n: int):
        if type(self).sample is BanditEnvironment.sample:
            raise NotImplementedError("override sample or sample_batch")
        K, dim, sample = self.K, self.dim, self.sample
        X, means, rewards = np.empty((n, dim)), np.empty((n, K)), np.empty((n, K))
        for i in range(n):
            x, m, r = sample(rng)
            # a row of one value would broadcast into a wider row unnoticed;
            # arrays pass on their size, anything else on np.size
            if (
                getattr(x, "size", None) != dim
                or getattr(m, "size", None) != K
                or getattr(r, "size", None) != K
            ):
                _check_row(self, x, m, r)
            X[i], means[i], rewards[i] = x, m, r
        return X, means, rewards


def _check_row(env, x, means, rewards):
    """Raise unless a ``sample`` row holds dim context values and K means and
    rewards."""
    if np.size(x) != env.dim or np.size(means) != env.K or np.size(rewards) != env.K:
        raise ValueError(
            f"{type(env).__name__}.sample returned a context of shape {np.shape(x)}, "
            f"means of shape {np.shape(means)} and rewards of shape {np.shape(rewards)}; "
            f"expected a context of shape ({env.dim},)"
            + (" or a scalar" if env.dim == 1 else "")
            + f" and means and rewards of shape ({env.K},)"
        )


class IntroExampleEnv(BanditEnvironment):
    """Two arms, x ~ Uniform[0,1]: a step arm paying 1{x > 0.5} and a flat
    arm paying 0.5, with independent N(0,1) noise added to each arm's reward.

    Arm 0 is the step arm, arm 1 the flat arm. The optimal policy picks the
    step arm iff x > 0.5, with expected reward 0.75.
    """

    K = 2
    dim = 1

    @staticmethod
    def means_batch(X) -> np.ndarray:
        means = np.empty((len(X), 2))
        means[:, 0] = X[:, 0] > 0.5
        means[:, 1] = 0.5
        return means

    def sample_batch(self, rng, n):
        X = rng.random((n, 1))
        means = self.means_batch(X)
        return X, means, means + rng.standard_normal((n, 2))


class LowerBoundEnv(BanditEnvironment):
    """Hard instance for context-blind kernels: X = (0, K) uniform, arm a
    pays alpha on its own unit interval (a, a+1] (0-indexed) and 0 elsewhere,
    with noiseless rewards and alpha = sqrt(K^2 B / (K-1)).
    """

    def __init__(self, K: int, B: float):
        if K < 2:
            raise ValueError("K must be >= 2")
        if not 0.0 <= B <= 1.0 / (2 * K):
            raise ValueError("B must lie in [0, 1/(2K)]")
        self.K = K
        self.dim = 1
        self.B = B
        self.alpha = math.sqrt(K * K * B / (K - 1))

    @property
    def per_arm_variance(self) -> float:
        """Var_x f*(x, a), identical for every arm; equals B."""
        return self.alpha**2 * (self.K - 1) / self.K**2

    def means_batch(self, X) -> np.ndarray:
        arm = np.clip(np.ceil(X[:, 0]) - 1, 0, self.K - 1).astype(int)
        means = np.zeros((len(X), self.K))
        means[np.arange(len(X)), arm] = self.alpha
        return means

    def sample_batch(self, rng, n):
        X = rng.random((n, 1)) * self.K
        means = self.means_batch(X)
        return X, means, means.copy()


class RealizableLinearEnv(BanditEnvironment):
    """Control condition: per-arm affine true means, so the linear oracle's
    class contains f*. Rewards are mean + Uniform(-0.1, 0.1), clipped to [0,1].
    """

    def __init__(self, intercepts, slopes):
        # the true means are exactly a member of the oracle's model class
        self._truth = LinearPerArmModel(intercepts, slopes)
        self.intercepts = self._truth.intercepts
        self.slopes = self._truth.slopes
        self.K, self.dim = self.slopes.shape

    def means_batch(self, X) -> np.ndarray:
        return self._truth.values_batch(X)

    def sample_batch(self, rng, n):
        X = rng.random((n, self.dim))
        means = self.means_batch(X)
        rewards = rng.uniform(-0.1, 0.1, (n, self.K))
        rewards += means
        return X, means, rewards.clip(0.0, 1.0, out=rewards)


def realizable_linear_env(K: int, dim: int, coefficient_seed: int) -> RealizableLinearEnv:
    """Draw a realizable environment with means guaranteed inside [0.1, 0.9]."""
    if K < 2:
        raise ValueError("K must be >= 2")
    rng = np.random.Generator(np.random.Philox(coefficient_seed))
    intercepts = rng.uniform(0.35, 0.65, K)
    raw = rng.uniform(-1.0, 1.0, (K, dim))
    scale = rng.uniform(0.05, 0.25, K)
    norms = np.abs(raw).sum(axis=1)
    norms[norms == 0] = 1.0
    slopes = raw * (scale / norms)[:, None]
    return RealizableLinearEnv(intercepts, slopes)


class TabularEnv(BanditEnvironment):
    """Small finite instance for brute-force checks: integer contexts, an
    explicit table of true means, Bernoulli rewards.
    """

    def __init__(self, table, context_probs=None):
        self.table = np.asarray(table, dtype=float)
        if self.table.ndim != 2:
            raise ValueError("table must be (num contexts, K)")
        if np.any(self.table < 0) or np.any(self.table > 1):
            raise ValueError("table entries must be probabilities")
        self.n_contexts, self.K = self.table.shape
        self.dim = 1
        if context_probs is None:
            context_probs = np.full(self.n_contexts, 1.0 / self.n_contexts)
        self.context_probs = np.asarray(context_probs, dtype=float)
        if abs(self.context_probs.sum() - 1.0) > 1e-12 or np.any(self.context_probs < 0):
            raise ValueError("context_probs must be a distribution")
        self._cum = np.cumsum(self.context_probs)

    def means_batch(self, X) -> np.ndarray:
        return self.table[np.asarray(X)[:, 0].astype(int)]

    def sample_batch(self, rng, n):
        i = np.minimum(np.searchsorted(self._cum, rng.random(n)), self.n_contexts - 1)
        means = self.means_batch(i[:, None])
        rewards = (rng.random((n, self.K)) < means).astype(float)
        return i[:, None].astype(float), means, rewards

    def sample(self, rng):
        X, means, rewards = self.sample_batch(rng, 1)
        return int(X[0, 0]), means[0], rewards[0]
