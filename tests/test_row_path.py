"""The in-place sampling path against the numpy-call forms it replaced.

The references below are the samplers before a stateful round got cheaper:
``RealizableLinearEnv.sample_batch`` adding the noise into a new array and
calling ``np.clip``, and the default ``sample_batch`` gathering the rows of
``sample`` with ``zip`` and ``np.array``. Addition commutes and
``ndarray.clip`` calls the same ufunc as ``np.clip``, so each must agree
with its replacement bit for bit: values, dtypes and the signs of zeros.

The default ``sample_batch`` is checked on a stateful environment that wraps
``RealizableLinearEnv`` and negates its rounds after some round. It draws the
inner rounds through ``RealizableLinearEnv.sample``, while its reference copy
takes each as row 0 of ``sample_batch(rng, 1)``, so the reference does not
run the one-round path it is checked against.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import RealizableLinearEnv
from support import Edited, batch_of_one, coefficients, same_bits

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


@settings(max_examples=30, deadline=None)
@given(at=st.integers(0, 20), **common)
def test_default_sample_batch_equals_reference(K, dim, seed, n, at):
    """Means and rewards negated after round ``at``, so rows clipped to 0
    turn into -0.0, over two successive calls of n and 3 rows: the round
    count carries from one call to the next."""

    def negate(t, x, m, r):
        return (x, -m, -r) if t > at else (x, m, r)

    inner = RealizableLinearEnv(*coefficients(np.random.Generator(np.random.Philox(seed)), K, dim))
    env, ref = Edited(inner, negate), Edited(inner, negate, batch_of_one(inner))
    for i, rows in enumerate((n, 3)):
        got = env.sample_batch(np.random.Generator(np.random.Philox(seed + i)), rows)
        want = reference_default_sample_batch(ref, np.random.Generator(np.random.Philox(seed + i)), rows)
        assert all(same_bits(a, b) for a, b in zip(got, want))
