"""Unit and Monte-Carlo tests for the synthetic environments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import (
    AlgorithmConfig,
    BanditEnvironment,
    IntroExampleEnv,
    LinearPerArmOracle,
    LowerBoundEnv,
    RealizableLinearEnv,
    TabularEnv,
    realizable_linear_env,
    run_safe_falcon,
)
from support import batch_of_one, coefficients, same_bits


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestIntroExampleEnv:
    def test_true_values(self):
        env = IntroExampleEnv()
        means = env.means_batch(np.array([[0.3], [0.8]]))
        np.testing.assert_allclose(means, [[0.0, 0.5], [1.0, 0.5]])

    def test_monte_carlo_means(self):
        env = IntroExampleEnv()
        rng, draw = _rng(1), batch_of_one(env)
        n = 20_000
        rewards = np.array([draw(rng)[2] for _ in range(n)])
        # arm 0 mean = P(x > 0.5) = 0.5; arm 1 mean = 0.5; noise sd = 1
        se = 3.0 * math.sqrt((1.0 + 0.25) / n)
        assert abs(rewards[:, 0].mean() - 0.5) < se
        se = 3.0 / math.sqrt(n)
        assert abs(rewards[:, 1].mean() - 0.5) < se


class TestLowerBoundEnv:
    def test_alpha_and_variance(self):
        env = LowerBoundEnv(2, 1.0 / 16)
        assert env.alpha == pytest.approx(0.5)
        assert env.per_arm_variance == pytest.approx(1.0 / 16, abs=1e-15)
        for K in (2, 3, 5):
            for B in (0.0, 0.01, 1.0 / (2 * K)):
                env = LowerBoundEnv(K, B)
                assert env.per_arm_variance == pytest.approx(B, abs=1e-15)

    def test_interval_payout(self):
        env = LowerBoundEnv(2, 1.0 / 16)
        # x in (0, 1] pays arm 0 (0-indexed)
        means = env.means_batch(np.array([[0.4], [1.4]]))
        np.testing.assert_allclose(means, [[0.5, 0.0], [0.0, 0.5]])

    def test_noiseless(self):
        env = LowerBoundEnv(3, 0.05)
        rng, draw = _rng(3), batch_of_one(env)
        for _ in range(100):
            x, means, rewards = draw(rng)
            np.testing.assert_array_equal(means, rewards)
            assert 0.0 < float(x[0]) < 3.0
            assert np.count_nonzero(means) == 1

    def test_monte_carlo_variance(self):
        env = LowerBoundEnv(2, 1.0 / 16)
        rng, draw = _rng(4), batch_of_one(env)
        n = 20_000
        vals = np.array([draw(rng)[1][0] for _ in range(n)])
        assert abs(vals.var() - env.B) < 5e-3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LowerBoundEnv(1, 0.01)
        with pytest.raises(ValueError):
            LowerBoundEnv(2, 0.3)  # above 1/(2K)
        with pytest.raises(ValueError):
            LowerBoundEnv(2, -0.1)

    def test_arms_must_be_integers(self):
        # at construction, not as a bare TypeError from the first batch
        for K in (2.5, np.float64(3.0), True, np.True_):
            with pytest.raises(TypeError):
                LowerBoundEnv(K, 0.05)
        env = LowerBoundEnv(np.int64(3), 0.05)
        assert type(env.K) is int and env.K == 3


class TestRealizableLinearEnv:
    def test_optimal_arm_switch(self):
        env = RealizableLinearEnv([0.3, 0.6], [[0.4], [-0.2]])
        # 0.3 + 0.4x = 0.6 - 0.2x at x = 0.5
        means = env.means_batch(np.array([[0.49], [0.51]]))
        np.testing.assert_array_equal(np.argmax(means, axis=1), [1, 0])

    def test_subclass_means_batch_is_called(self):
        class Halved(RealizableLinearEnv):
            def means_batch(self, X):
                return 0.5 * super().means_batch(X)

        env = Halved([0.3, 0.6], [[0.4], [-0.2]])
        X = np.array([[0.25], [0.75]])
        np.testing.assert_array_equal(env.means_batch(X), 0.5 * RealizableLinearEnv.means_batch(env, X))
        # and the draws take their means from the override
        x, means, _ = env.sample(_rng())
        np.testing.assert_array_equal(means, env.means_batch(x))
        X, means, _ = env.sample_batch(_rng(), 5)
        np.testing.assert_array_equal(means, env.means_batch(X))

    def test_rewards_bounded(self):
        env = realizable_linear_env(3, dim=1, coefficient_seed=42)
        rng = _rng(5)
        for _ in range(200):
            _, means, rewards = env.sample(rng)
            assert np.all(means >= 0.0) and np.all(means <= 1.0)
            assert np.all(rewards >= 0.0) and np.all(rewards <= 1.0)

    def test_generated_means_inside_margin(self):
        for seed in range(5):
            env = realizable_linear_env(4, dim=1, coefficient_seed=seed)
            vals = env.means_batch(np.linspace(0, 1, 21)[:, None])
            assert np.all(vals >= 0.1 - 1e-12) and np.all(vals <= 0.9 + 1e-12)

    def test_rejects_fewer_than_two_arms(self):
        for K in (1, 0, -3):
            with pytest.raises(ValueError):
                realizable_linear_env(K, dim=1, coefficient_seed=0)

    def test_bool_arms_raise(self):
        for K in (True, np.True_):
            with pytest.raises(TypeError):
                realizable_linear_env(K, dim=1, coefficient_seed=0)

    def test_coefficient_seed_determinism(self):
        a = realizable_linear_env(2, dim=1, coefficient_seed=9)
        b = realizable_linear_env(2, dim=1, coefficient_seed=9)
        np.testing.assert_array_equal(a.intercepts, b.intercepts)
        np.testing.assert_array_equal(a.slopes, b.slopes)


class TestTabularEnv:
    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_empty_table_raises(self, shape):
        # no contexts to draw, or no arms to play
        with pytest.raises(ValueError, match="at least one"):
            TabularEnv(np.zeros(shape))

    def test_validation(self):
        with pytest.raises(ValueError):
            TabularEnv([[0.2, 1.4]])
        with pytest.raises(ValueError):
            TabularEnv([[0.2, 0.4]], context_probs=[0.5])
        with pytest.raises(ValueError):
            TabularEnv(np.zeros(3))
        # one probability per context: too few, too many or not one axis
        for probs in ([1.0], [0.2, 0.3, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="shape"):
                TabularEnv([[0.2, 0.8], [0.6, 0.4]], context_probs=probs)
        # NaN fails every range check, in the table and in the context probs
        for table, probs in (([[np.nan, 0.5], [0.2, 0.3]], None), ([[0.5, 0.5]], [np.nan]),
                             ([[0.5, 0.5], [0.2, 0.3]], [np.nan, np.nan])):
            with pytest.raises(ValueError):
                TabularEnv(table, context_probs=probs)

    def test_monte_carlo_means(self):
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4]], context_probs=[0.3, 0.7])
        rng, draw = _rng(6), batch_of_one(env)
        n = 30_000
        counts = np.zeros(2)
        sums = np.zeros((2, 2))
        for _ in range(n):
            x, means, rewards = draw(rng)
            i = int(x[0])
            assert set(np.unique(rewards)) <= {0.0, 1.0}
            counts[i] += 1
            sums[i] += rewards
        np.testing.assert_allclose(counts / n, [0.3, 0.7], atol=0.02)
        np.testing.assert_allclose(sums / counts[:, None], env.table, atol=0.02)


BUILT_IN_ENVIRONMENTS = [
    IntroExampleEnv(),
    LowerBoundEnv(3, 0.05),
    realizable_linear_env(3, dim=2, coefficient_seed=4),
    TabularEnv([[0.2, 0.8, 0.5], [0.6, 0.4, 0.1]], context_probs=[0.3, 0.7]),
]


# the built-ins that draw only in batches: all but RealizableLinearEnv
BATCH_ONLY_ENVIRONMENTS = [e for e in BUILT_IN_ENVIRONMENTS if not isinstance(e, RealizableLinearEnv)]

# built-ins, then realizable environments with -0.0 intercepts and means
# outside [0, 1] on both sides
ENVIRONMENTS = [pytest.param(e, id=type(e).__name__) for e in BUILT_IN_ENVIRONMENTS] + [
    pytest.param(
        RealizableLinearEnv(*coefficients(_rng(seed), K, dim)), id=f"clipped-K{K}-dim{dim}"
    )
    for seed, K, dim in ((29, 2, 1), (0, 5, 3), (2, 3, 9))
]
# those that also draw one round
ONE_ROUND_ENVIRONMENTS = [p for p in ENVIRONMENTS if isinstance(p.values[0], RealizableLinearEnv)]

# contexts each environment's means must map alike one at a time and in a
# batch: step and interval edges, -0.0, and NaN where the means allow it
SPECIAL_CONTEXTS = {
    IntroExampleEnv: [0.5, -0.0, np.nan],
    LowerBoundEnv: [-0.0, 1.0, 2.0, 3.0],
    RealizableLinearEnv: [-0.0, np.nan, -3.0, 4.0],
    TabularEnv: [-0.0, 1.0],
}


@pytest.mark.parametrize("env", ONE_ROUND_ENVIRONMENTS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), calls=st.integers(1, 20), n=st.integers(1, 40))
def test_one_row_equals_first_batch_row(env, seed, calls, n):
    """Successive rounds on one generator have the bits of successive
    batches of one: values, dtypes, shapes and the signs of zeros."""
    rows, batches = _rng(seed), _rng(seed)
    for _ in range(calls):
        row, batch = env.sample(rows), env.sample_batch(batches, 1)
        assert all(same_bits(a, b[0]) for a, b in zip(row, batch))
    assert same_bits(rows.random(4), batches.random(4))
    X, batch_means, batch_rewards = env.sample_batch(_rng(seed), n)
    assert X.shape == (n, env.dim)
    assert batch_means.shape == batch_rewards.shape == (n, env.K)


@pytest.mark.parametrize("env", ENVIRONMENTS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_one_context_means_equal_first_batch_row(env, seed):
    rng = _rng(seed)
    X = env.sample_batch(rng, 17)[0]
    pick = rng.random(X.shape) < 0.3
    X[pick] = rng.choice(SPECIAL_CONTEXTS[type(env)], X.shape)[pick]
    for x in X:
        assert same_bits(env.means_batch(x), env.means_batch(x[None])[0])


@pytest.mark.parametrize("env", BUILT_IN_ENVIRONMENTS, ids=lambda e: type(e).__name__)
def test_sample_batch_means_equal_means_batch(env):
    X, means, _ = env.sample_batch(_rng(8), 50)
    np.testing.assert_array_equal(env.means_batch(X), means)


def test_environment_without_sampler_raises():
    class Bare(BanditEnvironment):
        K = 2
        dim = 1

    class BatchOnly(Bare):
        def sample_batch(self, rng, n):
            return IntroExampleEnv().sample_batch(rng, n)

    cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=8)
    draws = [
        lambda env: env.sample(_rng()),
        lambda env: env.sample_batch(_rng(), 3),
        lambda env: run_safe_falcon(env, LinearPerArmOracle(2, 1), cfg, seed=0),
    ]
    for draw in draws:
        with pytest.raises(NotImplementedError, match="override sample or sample_batch"):
            draw(Bare())
    # overriding sample_batch alone is enough to play; there is no one-round
    # sampler, as in the batch-only built-ins
    sample, _, play = draws
    assert len(play(BatchOnly())) == 8
    for env in [BatchOnly(), *BATCH_ONLY_ENVIRONMENTS]:
        with pytest.raises(NotImplementedError, match="override sample or sample_batch"):
            sample(env)


class RowEnv(BanditEnvironment):
    """Stateful environment whose every ``sample`` row is the one given."""

    def __init__(self, K, dim, x, means, rewards):
        self.K, self.dim = K, dim
        self.row = x, means, rewards

    def sample(self, rng):
        return self.row


class TestStatefulRowShapes:
    # (K, dim, context, means, rewards) rows that fit
    GOOD = [
        (3, 1, np.array([0.5]), np.full(3, 0.2), np.full(3, 0.4)),
        (3, 2, np.array([0.5, 0.25]), [0.2, 0.3, 0.4], [0.0, 1.0, 0.5]),
        (3, 1, 2, np.full(3, 0.2), np.full(3, 0.4)),  # an int context, as a user's sample may give
        (3, 1, 0.5, np.full(3, 0.2), np.full(3, 0.4)),
    ]
    BAD = {
        "means-K+1": (3, 1, np.array([0.5]), np.full(4, 0.2), np.full(3, 0.4)),
        "means-1": (3, 1, np.array([0.5]), np.full(1, 0.2), np.full(3, 0.4)),
        "means-scalar": (3, 1, np.array([0.5]), 0.2, np.full(3, 0.4)),
        "rewards-K+1": (3, 1, np.array([0.5]), np.full(3, 0.2), np.full(4, 0.4)),
        "rewards-1": (3, 1, np.array([0.5]), np.full(3, 0.2), np.full(1, 0.4)),
        "rewards-list-1": (3, 1, np.array([0.5]), np.full(3, 0.2), [0.4]),
        "context-dim+1": (3, 2, np.array([0.5, 0.25, 0.1]), np.full(3, 0.2), np.full(3, 0.4)),
        "context-1": (3, 2, np.array([0.5]), np.full(3, 0.2), np.full(3, 0.4)),
        "int-context-dim-2": (3, 2, 2, np.full(3, 0.2), np.full(3, 0.4)),
    }

    @pytest.mark.parametrize("row", GOOD)
    def test_rows_that_fit_are_copied(self, row):
        K, dim, x, means, rewards = row
        X, M, R = RowEnv(*row).sample_batch(_rng(), 5)
        assert X.shape == (5, dim) and M.shape == R.shape == (5, K)
        np.testing.assert_array_equal(X, np.broadcast_to(np.atleast_1d(x), (5, dim)))
        np.testing.assert_array_equal(M, np.broadcast_to(means, (5, K)))
        np.testing.assert_array_equal(R, np.broadcast_to(rewards, (5, K)))

    @pytest.mark.parametrize("row", BAD.values(), ids=BAD.keys())
    def test_rows_of_the_wrong_size_raise(self, row):
        K, dim = row[:2]
        expected = rf"RowEnv\.sample returned .*expected a context of shape \({dim},\)"
        expected += rf".* means and rewards of shape \({K},\)"
        with pytest.raises(ValueError, match=expected):
            RowEnv(*row).sample_batch(_rng(), 5)
        # before the epoch is played, not deep in the loop or the oracle
        cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=8)
        with pytest.raises(ValueError, match=expected):
            run_safe_falcon(RowEnv(*row), LinearPerArmOracle(K, dim), cfg, seed=0)


class CutBatchEnv(BanditEnvironment):
    """Batch environment: intro-example's draw of n rounds, passed through
    ``cut(X, means, rewards)``."""

    K, dim = 2, 1

    def __init__(self, cut):
        self.cut = cut

    def sample_batch(self, rng, n):
        return self.cut(*IntroExampleEnv().sample_batch(rng, n))


class TestBatchShapes:
    # but for the engine's check, the first five would play, the trace
    # broadcasting what it got, and the last two would fail deep in the loop
    BAD = {
        "one-arm": lambda X, m, r: (X, m[:, :1], r[:, :1]),
        "rewards-one-arm": lambda X, m, r: (X, m, r[:, :1]),
        "means-one-arm": lambda X, m, r: (X, m[:, :1], r),
        "one-row": lambda X, m, r: (X[:1], m[:1], r[:1]),
        "context-one-row": lambda X, m, r: (X[:1], m, r),
        "context-1d": lambda X, m, r: (X[:, 0], m, r),
        "means-3d": lambda X, m, r: (X, m[None], r),
    }

    @pytest.mark.parametrize("cut", BAD.values(), ids=BAD.keys())
    def test_batches_of_the_wrong_shape_raise(self, cut):
        # epoch 1 is tau1 = 2 rounds; raised before anything is written
        expected = (r"CutBatchEnv\.sample_batch returned contexts of shape .*; "
                    r"expected contexts of shape \(2, 1\) and means and rewards of shape \(2, 2\)")
        cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=256)
        with pytest.raises(ValueError, match=expected):
            run_safe_falcon(CutBatchEnv(cut), LinearPerArmOracle(2, 1), cfg, seed=0)
