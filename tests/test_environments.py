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


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestIntroExampleEnv:
    def test_true_values(self):
        env = IntroExampleEnv()
        means = env.means_batch(np.array([[0.3], [0.8]]))
        np.testing.assert_allclose(means, [[0.0, 0.5], [1.0, 0.5]])

    def test_monte_carlo_means(self):
        env = IntroExampleEnv()
        rng = _rng(1)
        n = 20_000
        rewards = np.array([env.sample(rng)[2] for _ in range(n)])
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
        rng = _rng(3)
        for _ in range(100):
            x, means, rewards = env.sample(rng)
            np.testing.assert_array_equal(means, rewards)
            assert 0.0 < float(x[0]) < 3.0
            assert np.count_nonzero(means) == 1

    def test_monte_carlo_variance(self):
        env = LowerBoundEnv(2, 1.0 / 16)
        rng = _rng(4)
        n = 20_000
        vals = np.array([env.sample(rng)[1][0] for _ in range(n)])
        assert abs(vals.var() - env.B) < 5e-3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LowerBoundEnv(1, 0.01)
        with pytest.raises(ValueError):
            LowerBoundEnv(2, 0.3)  # above 1/(2K)
        with pytest.raises(ValueError):
            LowerBoundEnv(2, -0.1)


class TestRealizableLinearEnv:
    def test_optimal_arm_switch(self):
        env = RealizableLinearEnv([0.3, 0.6], [[0.4], [-0.2]])
        # 0.3 + 0.4x = 0.6 - 0.2x at x = 0.5
        means = env.means_batch(np.array([[0.49], [0.51]]))
        np.testing.assert_array_equal(np.argmax(means, axis=1), [1, 0])

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

    def test_coefficient_seed_determinism(self):
        a = realizable_linear_env(2, dim=1, coefficient_seed=9)
        b = realizable_linear_env(2, dim=1, coefficient_seed=9)
        np.testing.assert_array_equal(a.intercepts, b.intercepts)
        np.testing.assert_array_equal(a.slopes, b.slopes)


class TestTabularEnv:
    def test_validation(self):
        with pytest.raises(ValueError):
            TabularEnv([[0.2, 1.4]])
        with pytest.raises(ValueError):
            TabularEnv([[0.2, 0.4]], context_probs=[0.5])
        with pytest.raises(ValueError):
            TabularEnv(np.zeros(3))

    def test_monte_carlo_means(self):
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4]], context_probs=[0.3, 0.7])
        rng = _rng(6)
        n = 30_000
        counts = np.zeros(2)
        sums = np.zeros((2, 2))
        for _ in range(n):
            i, means, rewards = env.sample(rng)
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


@pytest.mark.parametrize("env", BUILT_IN_ENVIRONMENTS, ids=lambda e: type(e).__name__)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 40))
def test_one_row_equals_first_batch_row(env, seed, n):
    x, means, rewards = env.sample(_rng(seed))
    X, batch_means, batch_rewards = env.sample_batch(_rng(seed), 1)
    np.testing.assert_array_equal(np.atleast_1d(x), X[0])
    np.testing.assert_array_equal(means, batch_means[0])
    np.testing.assert_array_equal(rewards, batch_rewards[0])
    X, batch_means, batch_rewards = env.sample_batch(_rng(seed), n)
    assert X.shape == (n, env.dim)
    assert batch_means.shape == batch_rewards.shape == (n, env.K)


@pytest.mark.parametrize("env", BUILT_IN_ENVIRONMENTS, ids=lambda e: type(e).__name__)
def test_sample_batch_means_equal_means_batch(env):
    X, means, _ = env.sample_batch(_rng(8), 50)
    np.testing.assert_array_equal(env.means_batch(X), means)


def test_environment_without_sampler_raises():
    class Bare(BanditEnvironment):
        K = 2
        dim = 1

    cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=8)
    draws = [
        lambda env: env.sample(_rng()),
        lambda env: env.sample_batch(_rng(), 3),
        lambda env: run_safe_falcon(env, LinearPerArmOracle(2, 1), cfg, seed=0),
    ]
    for draw in draws:
        with pytest.raises(NotImplementedError, match="override sample or sample_batch"):
            draw(Bare())
    with pytest.raises(NotImplementedError):
        Bare().means_batch(np.zeros((1, 1)))


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
        (3, 1, 2, np.full(3, 0.2), np.full(3, 0.4)),  # an int context, as TabularEnv's
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
