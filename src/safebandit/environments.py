"""Synthetic bandit environments used by the simulations and analyses."""

from __future__ import annotations

import math

import numpy as np

from .core import _ONE, _ZERO, LinearPerArmModel, _at_least, _clip, _constant

# Uniform(-0.1, 0.1) noise as -0.1 + 0.2 * random(): 0.2 is 0.1 - (-0.1) exactly
_NOISE_LOW, _NOISE_WIDTH = _constant(-0.1), _constant(0.2)


class BanditEnvironment:
    """Stationary environment: a context distribution, true means, rewards.

    ``sample_batch(rng, n)`` draws n rounds at once as arrays: contexts
    (n, dim), means (n, K) and realized rewards (n, K). The algorithm may
    only look at the chosen arm's reward, but traces record the full vector
    so realized counterfactual regret is well defined. ``sample(rng)`` draws
    one round as (context, mean vector, reward vector).

    A user environment takes one of two forms. It overrides ``sample_batch``,
    the only sampler the engine calls; or, when a round depends on the rounds
    before it, it overrides ``sample``, and the default ``sample_batch``
    calls it once per round, in order.

    The built-ins are batch environments: one round is row 0 of
    ``sample_batch(rng, 1)``. Each also has ``means_batch(X)``, which maps
    (n, dim) contexts to the (n, K) true means, and one (dim,) context to its
    (K,) means; it may return a batch's means as the transposed view of an
    arm-major (K, n) array.
    """

    K: int
    dim: int

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError("override sample or sample_batch")

    def sample_batch(self, rng: np.random.Generator, n: int):
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


def _check_batch(env, n, X, means, rewards):
    """Raise unless a ``sample_batch`` of n rounds holds (n, dim) contexts
    and (n, K) means and rewards."""
    got = np.shape(X), np.shape(means), np.shape(rewards)
    if got != ((n, env.dim), (n, env.K), (n, env.K)):
        raise ValueError(
            f"{type(env).__name__}.sample_batch returned contexts of shape {got[0]}, "
            f"means of shape {got[1]} and rewards of shape {got[2]}; expected contexts "
            f"of shape {(n, env.dim)} and means and rewards of shape {(n, env.K)}"
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
        # filled arm-major, one contiguous row per arm; returned as (2,) for
        # one context and as the (n, 2) transposed view for a batch
        means = np.empty((2,) + X.shape[:-1])
        means[0] = X[..., 0] > 0.5
        means[1] = 0.5
        return means.T

    def sample_batch(self, rng, n):
        X = rng.random((n, 1))
        means = self.means_batch(X)
        rewards = rng.standard_normal((n, 2))
        rewards += means
        return X, means, rewards


class LowerBoundEnv(BanditEnvironment):
    """Hard instance for context-blind kernels: X = (0, K) uniform, arm a
    pays alpha on its own unit interval (a, a+1] (0-indexed) and 0 elsewhere,
    with noiseless rewards and alpha = sqrt(K^2 B / (K-1)).

    K is stored as an int; a bool or any other non-integer K raises
    TypeError, and a K below 2 or a B outside [0, 1/(2K)] ValueError.
    """

    def __init__(self, K: int, B: float):
        K = _at_least(K, 2, "K")
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
        arm = np.clip(np.ceil(X[..., 0]) - 1, 0, self.K - 1).astype(int)
        means = np.zeros(X.shape[:-1] + (self.K,))
        np.put_along_axis(means, arm[..., None], self.alpha, axis=-1)
        return means

    def sample_batch(self, rng, n):
        X = rng.random((n, 1)) * self.K
        means = self.means_batch(X)
        return X, means, means.copy()


class RealizableLinearEnv(BanditEnvironment):
    """Control condition: per-arm affine true means, so the linear oracle's
    class contains f*. Rewards are mean + Uniform(-0.1, 0.1), clipped to [0,1].

    The noise is drawn as ``rng.random``, multiplied in place by 0.2 and then
    added to -0.1, both as 0-d float64 constants. ``Generator.uniform(-0.1,
    0.1)`` computes ``low + (high - low) * next_double`` on the same doubles,
    so the bits equal its draw, without its argument handling. The in-place
    clip passes its ``out`` positionally, which numpy 2 parses faster than
    ``out=``.

    It alone of the built-ins also draws one round, ``sample(rng)``, since the
    benchmark's stateful shift-fallback workload wraps it a row at a time;
    ROADMAP item 3(b) removes it together with the default per-row
    ``sample_batch``. ``_draw(rng, lead)`` draws one round for lead ``()`` and
    n rounds for lead ``(n,)``. A round has the bits of row 0 of a batch of
    one and leaves the generator where the batch would, though it takes its
    dim context and K noise uniforms in one ``rng.random(dim + K)`` call,
    where a batch makes two.
    """

    def __init__(self, intercepts, slopes):
        # the true means are exactly a member of the oracle's model class
        self._truth = LinearPerArmModel(intercepts, slopes)
        self.intercepts = self._truth.intercepts
        self.slopes = self._truth.slopes
        self.K, self.dim = self.slopes.shape

    def means_batch(self, X) -> np.ndarray:
        return self._truth.values(X)

    def _draw(self, rng, lead):
        if lead:
            X = rng.random(lead + (self.dim,))
            rewards = rng.random(lead + (self.K,))
        else:
            # one round: the dim then K doubles of a batch of one, in one call
            u = rng.random(self.dim + self.K)
            X, rewards = u[:self.dim], u[self.dim:]
        means = self.means_batch(X)
        rewards *= _NOISE_WIDTH
        rewards += _NOISE_LOW
        rewards += means
        # the ufunc ndarray.clip ends in, without its Python-level wrapper;
        # out passed positionally, which numpy 2 parses faster than out=
        return X, means, _clip(rewards, _ZERO, _ONE, rewards)

    def sample(self, rng):
        return self._draw(rng, ())

    def sample_batch(self, rng, n):
        return self._draw(rng, (n,))


def realizable_linear_env(K: int, dim: int, coefficient_seed: int) -> RealizableLinearEnv:
    """Draw a realizable environment with means guaranteed inside [0.1, 0.9].
    A bool or any other non-integer K raises TypeError, a K below 2
    ValueError."""
    _at_least(K, 2, "K")
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
        if self.table.ndim != 2 or 0 in self.table.shape:
            raise ValueError("table must be (num contexts, K), with at least one of each")
        # written so that NaN fails each check
        if not np.all((self.table >= 0) & (self.table <= 1)):
            raise ValueError("table entries must be probabilities")
        self.n_contexts, self.K = self.table.shape
        self.dim = 1
        if context_probs is None:
            context_probs = np.full(self.n_contexts, 1.0 / self.n_contexts)
        self.context_probs = np.asarray(context_probs, dtype=float)
        if self.context_probs.shape != (self.n_contexts,):
            raise ValueError(f"context_probs must have shape ({self.n_contexts},)")
        if not (abs(self.context_probs.sum() - 1.0) <= 1e-12 and np.all(self.context_probs >= 0)):
            raise ValueError("context_probs must be a distribution")
        self._cum = np.cumsum(self.context_probs)

    def means_batch(self, X) -> np.ndarray:
        # take copies the rows even for one context, whose index is 0-d
        return self.table.take(np.asarray(X)[..., 0].astype(int), axis=0)

    def sample_batch(self, rng, n):
        u = rng.random(n)
        uniforms = rng.random((n, self.K))
        i = np.minimum(np.searchsorted(self._cum, u), self.n_contexts - 1)
        means = self.means_batch(i[:, None])
        rewards = (uniforms < means).astype(float)
        return i[:, None].astype(float), means, rewards
