"""Unit tests for the shared domain types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import (
    ConstantModel,
    EpochSchedule,
    LinearPerArmModel,
    RunTrace,
    TabularModel,
    zero_model,
)


class TestEpochSchedule:
    def test_boundaries(self):
        s = EpochSchedule(2)
        assert [s.tau(m) for m in range(6)] == [0, 2, 4, 8, 16, 32]
        s = EpochSchedule(32)
        assert s.tau(1) == 32 and s.tau(4) == 256

    def test_epoch_of(self):
        s = EpochSchedule(2)
        # tau_2 = 4 < 5 <= tau_3 = 8
        assert s.epoch_of(5) == 3
        assert s.epoch_of(1) == 1
        assert s.epoch_of(2) == 1
        assert s.epoch_of(3) == 2
        assert s.epoch_of(4) == 2
        assert s.epoch_of(8) == 3
        assert s.epoch_of(9) == 4

    def test_epoch_of_consistent_with_tau(self):
        s = EpochSchedule(4)
        for t in range(1, 300):
            m = s.epoch_of(t)
            assert s.tau(m - 1) < t <= s.tau(m)

    def test_epoch_size(self):
        for tau1 in (2, 3, 64):
            s = EpochSchedule(tau1)
            # scalars stay exact past int64
            want = [s.tau(m) - s.tau(m - 1) for m in range(1, 70)]
            assert [s.epoch_size(m) for m in range(1, 70)] == want
            assert s.epoch_size(np.arange(1, 12)).tolist() == want[:11]
        assert [EpochSchedule(2).epoch_size(m) for m in range(1, 5)] == [2, 2, 4, 8]

    def test_invalid(self):
        with pytest.raises(ValueError):
            EpochSchedule(1)
        with pytest.raises(ValueError):
            EpochSchedule(2).tau(-1)
        with pytest.raises(ValueError):
            EpochSchedule(2).epoch_of(0)
        with pytest.raises(ValueError):
            EpochSchedule(2).epoch_size(0)
        with pytest.raises(ValueError):
            EpochSchedule(2).epoch_size(np.array([2, 0, 3]))


class TestModels:
    def test_constant_model_clamps(self):
        m = ConstantModel([-0.5, 0.3, 1.7])
        np.testing.assert_allclose(m.values(0.0), [0.0, 0.3, 1.0])

    def test_zero_model(self):
        np.testing.assert_array_equal(zero_model(3).values(0.7), np.zeros(3))

    def test_linear_per_arm_model(self):
        m = LinearPerArmModel([0.3, 0.6], [[0.4], [-0.2]])
        np.testing.assert_allclose(m.values(0.5), [0.5, 0.5])
        np.testing.assert_allclose(m.values(0.0), [0.3, 0.6])
        # clamped to [0, 1]
        np.testing.assert_allclose(m.values(10.0), [1.0, 0.0])

    def test_linear_model_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearPerArmModel([0.1, 0.2, 0.3], [[0.4], [0.5]])

    def test_tabular_model(self):
        m = TabularModel([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_allclose(m.values(1), [0.8, 0.2])


class TestRunTrace:
    def test_realized_regret(self):
        trace = RunTrace(
            epoch=np.array([1, 1, 2]),
            contexts=np.zeros((3, 1)),
            actions=np.array([0, 1, 1]),
            rewards=np.array([0.2, 0.9, 0.1]),
            reward_vectors=np.array([[0.2, 0.7], [0.4, 0.9], [0.6, 0.1]]),
            optimal_arms=np.array([1, 1, 0]),
            optimal_means=np.array([0.7, 0.9, 0.6]),
            safe=np.ones(3, dtype=bool),
            m_hat=np.zeros(3, dtype=int),
        )
        assert len(trace) == 3
        np.testing.assert_allclose(trace.realized_regret, [0.5, 0.0, 0.5])


def _built_in_model(kind, rng, K, dim):
    if kind == "constant":
        return ConstantModel(rng.uniform(-0.5, 1.5, K))
    if kind == "linear":
        return LinearPerArmModel(rng.uniform(-1, 2, K), rng.uniform(-3, 3, (K, dim)))
    return TabularModel(rng.uniform(-0.5, 1.5, (6, K)))


@pytest.mark.parametrize("kind", ["constant", "linear", "tabular"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), K=st.integers(1, 6), dim=st.integers(1, 3),
       n=st.integers(1, 64))
def test_batch_rows_equal_one_row_values(kind, seed, K, dim, n):
    rng = np.random.Generator(np.random.Philox(seed))
    model = _built_in_model(kind, rng, K, dim)
    if kind == "tabular":
        X = rng.integers(0, 6, (n, 1)).astype(float)
    else:
        X = rng.uniform(-5, 5, (n, dim)) * rng.choice([1e-3, 1.0, 1e3], (n, dim))
    batch = model.values_batch(X)
    assert batch.shape == (n, K)
    for i in range(n):
        one = model.values(X[i, 0] if kind == "tabular" else X[i])
        assert one.shape == (K,)
        np.testing.assert_array_equal(batch[i], one)
