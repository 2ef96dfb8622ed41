"""The arm-major kernel against row-major references.

The references below are the row-major forms the engine used before its
per-epoch arithmetic became arm-major: numpy reductions along the short last
(arm or context) axis. Below 8 terms numpy sums such an axis in order from
+0.0, as the arm-major code does, so for K, dim < 8 the two must agree bit for
bit. From 8 terms on numpy switches to pairwise summation, so there the
arm-major code must instead give one row the same bits as that row of a batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import LinearPerArmModel, action_probs
from safebandit.algorithms import _draw_arms

ROWS = (1, 2, 17, 4096)


def reference_action_probs(values, gamma):
    values = np.asarray(values, dtype=float)
    K = values.shape[-1]
    best = np.argmax(values, axis=-1)[..., None]
    p = 1.0 / (K + gamma * (np.take_along_axis(values, best, axis=-1) - values))
    np.put_along_axis(p, best, 0.0, axis=-1)
    np.put_along_axis(p, best, 1.0 - p.sum(axis=-1, keepdims=True), axis=-1)
    return p


def reference_draw_arms(p, u):
    below = np.cumsum(p, axis=-1) < np.asarray(u)[..., None]
    return np.minimum(below.sum(axis=-1), p.shape[-1] - 1)


def reference_values_batch(intercepts, slopes, X):
    products = X[:, None, :] * slopes
    return np.clip(intercepts + products.sum(axis=-1), 0.0, 1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _values(rng, n, K, grid):
    """Values in [0, 1); on a coarse grid many rows hold tied maxima, and
    some zeros are negative."""
    V = rng.random((n, K))
    if grid:
        V = np.round(V * grid) / grid
        V[rng.random((n, K)) < 0.1] = -0.0
    return V


def _uniforms(rng, p):
    """Uniforms, some set exactly to a cumulative probability or to 1."""
    u = rng.random(len(p))
    cum = np.cumsum(p, axis=-1)
    pick = rng.random(len(p)) < 0.3
    u[pick] = cum[pick, rng.integers(0, p.shape[-1], len(p))[pick]]
    u[rng.random(len(p)) < 0.05] = 1.0
    return u


def _model(rng, K, dim):
    intercepts = rng.uniform(-0.5, 1.5, K)
    slopes = rng.uniform(-1.0, 1.0, (K, dim))
    slopes[rng.random((K, dim)) < 0.2] = 0.0
    intercepts[rng.random(K) < 0.2] = -0.0
    return intercepts, slopes


common = dict(
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from(ROWS),
    grid=st.sampled_from([0, 1, 2, 4]),
    gamma=st.floats(0.01, 1e4),
)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 7), **common)
def test_action_probs_and_draw_equal_reference(K, seed, n, grid, gamma):
    rng = np.random.Generator(np.random.Philox(seed))
    V = _values(rng, n, K, grid)
    p = action_probs(V, gamma)
    assert same_bits(p, reference_action_probs(V, gamma))
    assert same_bits(action_probs(V[0], gamma), reference_action_probs(V[0], gamma))
    u = _uniforms(rng, p)
    assert same_bits(_draw_arms(p, u), reference_draw_arms(p, u))


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(2, 7),
    dim=st.integers(1, 7),
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from(ROWS),
)
def test_values_batch_equals_reference(K, dim, seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    intercepts, slopes = _model(rng, K, dim)
    X = rng.uniform(-2.0, 2.0, (n, dim))
    X[rng.random((n, dim)) < 0.1] = -0.0
    got = LinearPerArmModel(intercepts, slopes).values_batch(X)
    assert same_bits(got, reference_values_batch(intercepts, slopes, X))


@settings(max_examples=30, deadline=None)
@given(K=st.integers(8, 12), **common)
def test_wide_kernel_row_equals_batch_row(K, seed, n, grid, gamma):
    rng = np.random.Generator(np.random.Philox(seed))
    V = _values(rng, n, K, grid)
    p = action_probs(V, gamma)
    u = _uniforms(rng, p)
    arms = _draw_arms(p, u)
    for i in {0, n // 2, n - 1}:
        assert same_bits(action_probs(V[i], gamma), p[i])
        assert same_bits(_draw_arms(p[i : i + 1], u[i : i + 1]), arms[i : i + 1])
    # pairwise and in-order sums differ only in the last bits
    np.testing.assert_allclose(p, reference_action_probs(V, gamma), rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    K=st.integers(2, 12),
    dim=st.integers(8, 10),
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from(ROWS),
)
def test_wide_values_row_equals_batch_row(K, dim, seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    intercepts, slopes = _model(rng, K, dim)
    model = LinearPerArmModel(intercepts, slopes)
    X = rng.uniform(-2.0, 2.0, (n, dim))
    batch = model.values_batch(X)
    for i in {0, n // 2, n - 1}:
        assert same_bits(model.values(X[i]), batch[i])
    np.testing.assert_allclose(
        batch, reference_values_batch(intercepts, slopes, X), rtol=1e-12, atol=1e-15
    )
