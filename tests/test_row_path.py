"""The in-place sampling path against the numpy-call forms it replaced.

The references below are the samplers before a stateful round got cheaper:
``RealizableLinearEnv.sample_batch`` adding the noise into a new array and
calling ``np.clip``, and the default ``sample_batch`` gathering the rows of
``sample`` with ``zip`` and ``np.array``. Addition commutes and
``ndarray.clip`` calls the same ufunc as ``np.clip``, so the two must agree
bit for bit: values, dtypes and the signs of zeros. (``test_kernel.py``
holds the ``np.clip`` form of ``LinearPerArmModel.values_batch``.)

The stateful ``NegatedEnv`` wraps a built-in environment. Its reference copy
takes each inner round as the built-ins' ``sample`` gave it before they drew
a round and a batch from one body: row 0 of ``sample_batch(rng, 1)``. So the
reference does not run the one-round path it is checked against.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import BanditEnvironment, RealizableLinearEnv, TabularEnv

ROWS = (1, 2, 17, 4096)


def reference_realizable_sample_batch(env, rng, n):
    X = rng.random((n, env.dim))
    means = env.means_batch(X)
    noise = rng.uniform(-0.1, 0.1, (n, env.K))
    return X, means, np.clip(means + noise, 0.0, 1.0)


def reference_default_sample_batch(env, rng, n):
    xs, means, rewards = zip(*(env.sample(rng) for _ in range(n)))
    X = np.array([np.atleast_1d(x) for x in xs], dtype=float)
    return X, np.array(means, dtype=float), np.array(rewards, dtype=float)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _coefficients(rng, K, dim):
    """Means that leave [0, 1] on both sides, some zero terms negative."""
    intercepts = rng.uniform(-0.5, 1.5, K)
    slopes = rng.uniform(-1.0, 1.0, (K, dim))
    slopes[rng.random((K, dim)) < 0.2] = 0.0
    intercepts[rng.random(K) < 0.2] = -0.0
    return intercepts, slopes


def batch_of_one(env):
    """``env``'s rounds as row 0 of a batch of one."""

    def row(rng):
        X, means, rewards = env.sample_batch(rng, 1)
        return X[0], means[0], rewards[0]

    return row


class NegatedEnv(BanditEnvironment):
    """Stateful: the inner environment's rows, with means and rewards
    negated after round ``at``, so rows clipped to 0 turn into -0.0. Each
    inner row comes from ``row(rng)``, by default the inner ``sample``."""

    def __init__(self, inner, at, row=None):
        self.inner, self.at = inner, at
        self.row = row or inner.sample
        self.K, self.dim = inner.K, inner.dim
        self.t = 0

    def sample(self, rng):
        self.t += 1
        x, means, rewards = self.row(rng)
        if self.t > self.at:
            return x, -means, -rewards
        return x, means, rewards


common = dict(
    K=st.integers(2, 7),
    dim=st.integers(1, 7),
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from(ROWS),
)


@settings(max_examples=60, deadline=None)
@given(**common)
def test_realizable_sample_batch_equals_reference(K, dim, seed, n):
    env = RealizableLinearEnv(*_coefficients(np.random.Generator(np.random.Philox(seed)), K, dim))
    got = env.sample_batch(np.random.Generator(np.random.Philox(seed)), n)
    want = reference_realizable_sample_batch(env, np.random.Generator(np.random.Philox(seed)), n)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@settings(max_examples=30, deadline=None)
@given(at=st.integers(0, 20), **common)
def test_default_sample_batch_equals_reference(K, dim, seed, n, at):
    inner = RealizableLinearEnv(*_coefficients(np.random.Generator(np.random.Philox(seed)), K, dim))
    envs = [NegatedEnv(inner, at), NegatedEnv(inner, at, batch_of_one(inner))]
    got = envs[0].sample_batch(np.random.Generator(np.random.Philox(seed)), n)
    want = reference_default_sample_batch(envs[1], np.random.Generator(np.random.Philox(seed)), n)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    # the rows after ``at`` continue the same round count on the next call
    got = envs[0].sample_batch(np.random.Generator(np.random.Philox(seed + 1)), 3)
    want = reference_default_sample_batch(envs[1], np.random.Generator(np.random.Philox(seed + 1)), 3)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.sampled_from(ROWS), at=st.integers(0, 20))
def test_default_sample_batch_equals_reference_on_integer_contexts(seed, n, at):
    # TabularEnv's contexts are integer-valued floats
    inner = TabularEnv(np.random.Generator(np.random.Philox(seed)).random((4, 3)))
    envs = [NegatedEnv(inner, at), NegatedEnv(inner, at, batch_of_one(inner))]
    got = envs[0].sample_batch(np.random.Generator(np.random.Philox(seed)), n)
    want = reference_default_sample_batch(envs[1], np.random.Generator(np.random.Philox(seed)), n)
    assert all(same_bits(a, b) for a, b in zip(got, want))
