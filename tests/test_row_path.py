"""The in-place sampling path against the numpy-call forms it replaced.

The references below are the samplers before a stateful round got cheaper:
``RealizableLinearEnv.sample_batch`` adding the noise into a new array and
calling ``np.clip``, ``RealizableLinearEnv.sample`` drawing its context and
its noise in two generator calls, and the default ``sample_batch`` gathering
the rows of ``sample`` with ``zip`` and ``np.array``. Addition commutes and
``ndarray.clip`` calls the same ufunc as ``np.clip``, so the two must agree
bit for bit: values, dtypes and the signs of zeros. (``test_kernel.py``
holds the ``np.clip`` form of ``LinearPerArmModel.values``.)

The stateful negated environment wraps a built-in one. Its reference copy
takes each inner round as row 0 of ``sample_batch(rng, 1)``, so over
``RealizableLinearEnv`` the reference does not run the one-round path it is
checked against. ``TabularEnv`` draws only in batches, so both copies take
its rounds that way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import RealizableLinearEnv, TabularEnv
from support import Edited, batch_of_one, coefficients, same_bits

ROWS = (1, 2, 17, 4096)


def reference_realizable_sample_batch(env, rng, n):
    X = rng.random((n, env.dim))
    means = env.means_batch(X)
    noise = rng.uniform(-0.1, 0.1, (n, env.K))
    return X, means, np.clip(means + noise, 0.0, 1.0)


def reference_realizable_sample(env, rng):
    x = rng.random(env.dim)
    means = env.means_batch(x)
    noise = rng.uniform(-0.1, 0.1, env.K)
    return x, means, np.clip(means + noise, 0.0, 1.0)


def reference_default_sample_batch(env, rng, n):
    xs, means, rewards = zip(*(env.sample(rng) for _ in range(n)))
    X = np.array([np.atleast_1d(x) for x in xs], dtype=float)
    return X, np.array(means, dtype=float), np.array(rewards, dtype=float)


def assert_negated_equals_reference(inner, row, at, seed, sizes):
    """The default ``sample_batch`` of ``inner``'s rounds as ``row(rng)``
    draws them (``inner.sample`` if None), with means and rewards negated
    after round ``at``, so rows clipped to 0 turn into -0.0, against the
    reference, over successive calls of ``sizes`` rows: the round count
    carries from one call to the next."""

    def negate(t, x, m, r):
        return (x, -m, -r) if t > at else (x, m, r)

    env, ref = Edited(inner, negate, row), Edited(inner, negate, batch_of_one(inner))
    for i, n in enumerate(sizes):
        got = env.sample_batch(np.random.Generator(np.random.Philox(seed + i)), n)
        want = reference_default_sample_batch(ref, np.random.Generator(np.random.Philox(seed + i)), n)
        assert all(same_bits(a, b) for a, b in zip(got, want))


common = dict(
    K=st.integers(2, 7),
    dim=st.integers(1, 7),
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from(ROWS),
)


@settings(max_examples=60, deadline=None)
@given(**common)
def test_realizable_sample_batch_equals_reference(K, dim, seed, n):
    env = RealizableLinearEnv(*coefficients(np.random.Generator(np.random.Philox(seed)), K, dim))
    got = env.sample_batch(np.random.Generator(np.random.Philox(seed)), n)
    want = reference_realizable_sample_batch(env, np.random.Generator(np.random.Philox(seed)), n)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(K=common["K"], dim=common["dim"], seed=common["seed"], rounds=st.integers(1, 5))
def test_realizable_sample_equals_reference(K, dim, seed, rounds):
    # one generator call per round against two: the same bits, round after
    # round, and the generator left where the two calls leave it
    env = RealizableLinearEnv(*coefficients(np.random.Generator(np.random.Philox(seed)), K, dim))
    rng, ref_rng = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    for _ in range(rounds):
        got, want = env.sample(rng), reference_realizable_sample(env, ref_rng)
        assert all(same_bits(a, b) for a, b in zip(got, want))
    assert same_bits(rng.random(3), ref_rng.random(3))


@settings(max_examples=30, deadline=None)
@given(at=st.integers(0, 20), **common)
def test_default_sample_batch_equals_reference(K, dim, seed, n, at):
    inner = RealizableLinearEnv(*coefficients(np.random.Generator(np.random.Philox(seed)), K, dim))
    assert_negated_equals_reference(inner, None, at, seed, (n, 3))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.sampled_from(ROWS), at=st.integers(0, 20))
def test_default_sample_batch_equals_reference_on_integer_contexts(seed, n, at):
    # TabularEnv's contexts are integer-valued floats
    inner = TabularEnv(np.random.Generator(np.random.Philox(seed)).random((4, 3)))
    assert_negated_equals_reference(inner, batch_of_one(inner), at, seed, (n,))
