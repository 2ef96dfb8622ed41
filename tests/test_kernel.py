"""The arm-major kernel against row-major references.

The references below are the row-major forms the engine used before its
per-epoch arithmetic became arm-major: numpy reductions along the short last
(arm or context) axis. Below 8 terms numpy sums such an axis in order from
+0.0, as the arm-major code does, so for K, dim < 8 the two must agree bit for
bit. From 8 terms on numpy switches to pairwise summation, so there the
arm-major code must instead give one row the same bits as that row of a batch.

``zero_start_values`` is the arm-major model before its sum started
from the first product: it sums from +0.0, adds the intercepts in place and
calls ``np.clip``. It adds every operand in the model's order, and
``ndarray.clip`` calls the same ufunc, so the two must agree bit for bit on
any input at any K and dim, NaN payloads included. The references above
multiply and add some operands the other way round; where two NaNs meet,
IEEE 754 leaves the result's payload and sign to the operand order, so
against them a NaN only has to stay a NaN.

The ``*_form`` references below are the forms that fewer passes per epoch
replaced, each of which must still agree with its replacement bit for bit:

- ``mask_form_action_probs`` zeroes the best arm and gives it the rest by
  multiplying with a boolean arm mask, and reaches the (K, n) layout through
  ``np.moveaxis``. The kernel now writes the best arm through flat indices.
  The two agree for finite gamma > 0 on values that are finite or NaN, at any
  K: a NaN row is NaN throughout in both.
- ``row_major_intro_sample`` fills intro-example's means row by row and adds
  the noise into a new array; the environment now fills them arm by arm and
  adds them into the noise in place.
- ``fancy_index_realized_regret`` gathers the optimal arm's reward with a
  two-array fancy index; the trace now uses the engine's flat-index gather,
  ``core._gather``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import ConstantModel, IntroExampleEnv, LinearPerArmModel, RunTrace, action_probs
from safebandit.algorithms import _draw_arms, _first_max
from support import coefficients, same_bits

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


def reference_values(intercepts, slopes, X):
    products = X[:, None, :] * slopes
    return np.clip(intercepts + products.sum(axis=-1), 0.0, 1.0)


def zero_start_values(intercepts, slopes, X):
    # one (dim,) context or an (n, dim) batch, arm-major (K,) or (K, n)
    axes = tuple(range(1, X.ndim))
    total = np.zeros(intercepts.shape + X.shape[:-1])
    for d in range(X.shape[-1]):
        total += np.expand_dims(slopes[:, d], axes) * X[..., d]
    total += np.expand_dims(intercepts, axes)
    return np.clip(total, 0.0, 1.0).T


def mask_form_action_probs(values, gamma):
    values = np.asarray(values, dtype=float)
    K = values.shape[-1]
    V = np.ascontiguousarray(np.moveaxis(values, -1, 0)).reshape(K, -1)
    best, top = _first_max(V)
    p = np.subtract(top, V)
    p *= gamma
    p += K
    np.divide(1.0, p, out=p)
    is_best = best == np.arange(K)[:, None]
    p *= ~is_best
    rest = np.zeros(V.shape[1])
    for row in p:
        rest += row
    p += is_best * (1.0 - rest)
    return np.moveaxis(p.reshape((K,) + values.shape[:-1]), 0, -1)


def row_major_intro_means(X):
    means = np.empty((len(X), 2))
    means[:, 0] = X[:, 0] > 0.5
    means[:, 1] = 0.5
    return means


def row_major_intro_sample(rng, n):
    X = rng.random((n, 1))
    means = row_major_intro_means(X)
    return X, means, means + rng.standard_normal((n, 2))


def fancy_index_realized_regret(trace):
    idx = np.arange(len(trace.actions))
    return trace.reward_vectors[idx, trace.optimal_arms] - trace.rewards


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
    assert same_bits(_draw_arms(p, u, np.empty(n, dtype=np.intp)), reference_draw_arms(p, u))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 12), seed=common["seed"], n=common["n"], grid=common["grid"])
def test_first_max_equals_argmax_and_max(K, seed, n, grid):
    """NaN-free rows, tied maxima and -0.0 included: the index is
    ``np.argmax``'s, and the max equals ``np.max``'s up to the sign of a
    zero."""
    rng = np.random.Generator(np.random.Philox(seed))
    V = _values(rng, n, K, grid).T
    best, top = _first_max(V)
    assert same_bits(best, np.argmax(V, axis=0))
    assert (top == np.max(V, axis=0)).all()


def test_first_max_stops_at_the_first_nan():
    """A NaN makes the max NaN, and no arm after it can win: the index is the
    first arm reaching the max of the arms before the first NaN."""
    V = np.array([[1.0, 0.5, np.nan], [np.nan, 2.0, 1.0], [5.0, np.nan, 2.0], [0.0, 3.0, 3.0]])
    best, top = _first_max(V)
    assert best.tolist() == [0, 1, 0]
    assert np.argmax(V, axis=0).tolist() == [1, 2, 0]
    assert np.isnan(top).all()


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(2, 7),
    dim=st.integers(1, 7),
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from(ROWS),
)
def test_values_equals_reference(K, dim, seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    intercepts, slopes = coefficients(rng, K, dim)
    X = rng.uniform(-2.0, 2.0, (n, dim))
    X[rng.random((n, dim)) < 0.1] = -0.0
    got = LinearPerArmModel(intercepts, slopes).values(X)
    assert same_bits(got, reference_values(intercepts, slopes, X))
    assert same_bits(got, zero_start_values(intercepts, slopes, X))


# ±0, ±inf, ±the least subnormal, finite values, quiet NaNs of both signs with
# payloads, and a signalling NaN
SPECIAL = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 0.75, -1.5],
        np.array(
            [0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0002, 0x7FF0_0000_0000_0003], dtype=np.uint64
        ).view(float),
    ]
)
# dim 3 on fewer values per dim; each pick set still makes -0.0 products
# (-0.0 · 0.0, 5e-324 · -5e-324, 0.75 · -0.0), inf · 0, and NaN · NaN
SLOPE_PICKS = SPECIAL[[1, 4, 2, 6, 8, 10]]
CONTEXT_PICKS = SPECIAL[[0, 1, 5, 3, 7, 9]]


def _special_grid(dim):
    """Every intercept in SPECIAL with every slope row, one arm each, and
    every context: each dim's slope and context from SPECIAL (dims 1 and 2)
    or from the picks (dim 3)."""
    slope_values, context_values = (SPECIAL, SPECIAL) if dim < 3 else (SLOPE_PICKS, CONTEXT_PICKS)
    # fancy indexing copies the bits, NaN payloads included
    slope_rows = slope_values[np.indices((len(slope_values),) * dim).reshape(dim, -1).T]
    X = context_values[np.indices((len(context_values),) * dim).reshape(dim, -1).T]
    intercepts = np.tile(SPECIAL, len(slope_rows))
    slopes = np.repeat(slope_rows, len(SPECIAL), axis=0)
    return intercepts, slopes, X


def same_bits_but_nan_payloads(a, b):
    """same_bits, except that where both are NaN the bits may differ."""
    both = np.isnan(a) & np.isnan(b)
    return same_bits(np.where(both, np.nan, a), np.where(both, np.nan, b))


def test_values_special_values_grid():
    """The first-product start with the +0.0-shifted intercepts gives the
    bits of the sum from +0.0 on a grid of special values, including the
    all -0.0 product chains with a -0.0 intercept, where a first-product
    start alone would keep the -0.0."""
    for dim in (1, 2, 3):
        intercepts, slopes, X = _special_grid(dim)
        with np.errstate(invalid="ignore"):
            products = X[:, None, :] * slopes
            model = LinearPerArmModel(intercepts, slopes)
            got = model.values(X)
            rows = [model.values(x) for x in X]
            want = zero_start_values(intercepts, slopes, X)
            want_rows = [zero_start_values(intercepts, slopes, x) for x in X]
            reference = reference_values(intercepts, slopes, X)
        negative_zero = (products == 0) & np.signbit(products)
        assert (negative_zero.all(axis=-1) & (intercepts == 0) & np.signbit(intercepts)).any()
        assert same_bits(got, want)
        assert all(map(same_bits, rows, want_rows))
        # one context and a batch run different numpy loops
        assert all(map(same_bits_but_nan_payloads, rows, got))
        assert same_bits_but_nan_payloads(got, reference)


def test_values_of_dim_zero_is_the_clamped_intercepts():
    """No slope columns, so no first product: one context and a batch give
    the clamped intercepts, -0.0 made +0.0 as by a sum from +0.0."""
    intercepts = np.array([0.5, 0.2, -0.0, 1.5, -2.0])
    model = LinearPerArmModel(intercepts, np.zeros((5, 0)))
    want = np.clip(intercepts + 0.0, 0.0, 1.0)
    assert same_bits(model.values(np.zeros(0)), want)
    assert same_bits(model.values(np.zeros((3, 0))), np.tile(want, (3, 1)))
    assert same_bits(
        LinearPerArmModel([0.5, 0.2], np.zeros((2, 0))).values(np.zeros((3, 0))),
        np.array([[0.5, 0.2]] * 3),
    )


@pytest.mark.parametrize("kind", ["constant", "linear"])
@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 12), dim=st.integers(1, 10), seed=st.integers(0, 2**63 - 1))
def test_values_of_one_context_equals_batch_row(kind, K, dim, seed):
    """For both built-in models, one (dim,) context gives the (K,) bits of
    row 0 of its (1, dim) batch and of its row of a 17-row batch: -0.0
    intercepts and contexts, NaN contexts, and contexts scaled by 1e-3 and
    1e3, included."""
    rng = np.random.Generator(np.random.Philox(seed))
    intercepts, slopes = coefficients(rng, K, dim)
    model = ConstantModel(intercepts) if kind == "constant" else LinearPerArmModel(intercepts, slopes)
    X = rng.uniform(-2.0, 2.0, (17, dim)) * rng.choice([1e-3, 1.0, 1e3], (17, dim))
    X[rng.random((17, dim)) < 0.1] = -0.0
    X[rng.random((17, dim)) < 0.05] = np.nan
    batch = model.values(X)
    for x, row in zip(X, batch):
        one = model.values(x)
        assert same_bits(one, model.values(x[None])[0]) and same_bits(one, row)


@settings(max_examples=30, deadline=None)
@given(K=st.integers(8, 12), **common)
def test_wide_kernel_row_equals_batch_row(K, seed, n, grid, gamma):
    rng = np.random.Generator(np.random.Philox(seed))
    V = _values(rng, n, K, grid)
    p = action_probs(V, gamma)
    u = _uniforms(rng, p)
    arms = _draw_arms(p, u, np.empty(n, dtype=np.intp))
    for i in {0, n // 2, n - 1}:
        assert same_bits(action_probs(V[i], gamma), p[i])
        row = _draw_arms(p[i : i + 1], u[i : i + 1], np.empty(1, dtype=np.intp))
        assert same_bits(row, arms[i : i + 1])
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
    """From 8 dims on, where numpy would sum pairwise: the batch has the bits
    of the sum from +0.0 in dim order, so each row is summed as one context
    is (``test_values_of_one_context_equals_batch_row``)."""
    rng = np.random.Generator(np.random.Philox(seed))
    intercepts, slopes = coefficients(rng, K, dim)
    model = LinearPerArmModel(intercepts, slopes)
    X = rng.uniform(-2.0, 2.0, (n, dim))
    batch = model.values(X)
    assert same_bits(batch, zero_start_values(intercepts, slopes, X))
    np.testing.assert_allclose(
        batch, reference_values(intercepts, slopes, X), rtol=1e-12, atol=1e-15
    )


def _special_values(rng, V, nan_rows):
    """V with some rows NaN in one entry, and some zeros negative."""
    V = V.copy()
    if nan_rows and len(V):
        rows = rng.random(len(V)) < 0.2
        V[rows, rng.integers(0, V.shape[1], len(V))[rows]] = np.nan
    V[rng.random(V.shape) < 0.05] = -0.0
    return V


@settings(max_examples=80, deadline=None)
@given(
    K=st.integers(1, 12),
    lead=st.sampled_from([(), (1,), (2,), (17,), (7, 3), (4096,)]),
    nan_rows=st.booleans(),
    seed=common["seed"],
    grid=common["grid"],
    gamma=common["gamma"],
)
def test_action_probs_equals_mask_form(K, lead, nan_rows, seed, grid, gamma):
    """Tied maxima, -0.0 and NaN rows included, at every K: below 8 arms
    and from 8 on, where numpy would sum pairwise (neither form does)."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = int(np.prod(lead, dtype=int))
    V = _special_values(rng, _values(rng, rows, K, grid), nan_rows).reshape(lead + (K,))
    assert same_bits(action_probs(V, gamma), mask_form_action_probs(V, gamma))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.sampled_from((1, 2, 17, 4096, 16385)))
def test_intro_sample_equals_row_major_form(seed, n):
    new = IntroExampleEnv().sample_batch(np.random.Generator(np.random.Philox(seed)), n)
    old = row_major_intro_sample(np.random.Generator(np.random.Philox(seed)), n)
    for a, b in zip(new, old):
        assert same_bits(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.sampled_from(ROWS))
def test_intro_means_equal_row_major_form(seed, n):
    """Contexts at the 0.5 step, -0.0 and NaN included."""
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.random((n, 1))
    X[rng.random((n, 1)) < 0.2] = 0.5
    X[rng.random((n, 1)) < 0.1] = -0.0
    X[rng.random((n, 1)) < 0.1] = np.nan
    assert same_bits(IntroExampleEnv.means_batch(X), row_major_intro_means(X))


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 12),
    nan_rows=st.booleans(),
    seed=st.integers(0, 2**63 - 1),
    n=st.sampled_from((0,) + ROWS),
)
def test_realized_regret_equals_fancy_index_form(K, nan_rows, seed, n):
    rng = np.random.Generator(np.random.Philox(seed))
    trace = RunTrace.empty(n, 1, K)
    trace.reward_vectors[:] = _special_values(rng, rng.normal(size=(n, K)), nan_rows)
    trace.optimal_arms[:] = rng.integers(0, K, n)
    trace.rewards[:] = _special_values(rng, rng.normal(size=(n, 1)), nan_rows)[:, 0]
    assert same_bits(trace.realized_regret, fancy_index_realized_regret(trace))
