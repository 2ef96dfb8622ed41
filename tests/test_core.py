"""Unit tests for the shared domain types."""

import numpy as np
import pytest

from safebandit import (
    AlgorithmConfig,
    ConstantModel,
    EpochSchedule,
    LinearPerArmModel,
    RunTrace,
    zero_model,
)
from safebandit.core import _ONE, _ZERO, MAX_EPOCH, _clip
from support import same_bits


class TestEpochSchedule:
    def test_boundaries(self):
        s = EpochSchedule(2)
        assert [s.tau(m) for m in range(6)] == [0, 2, 4, 8, 16, 32]
        s = EpochSchedule(32)
        assert s.tau(1) == 32 and s.tau(4) == 256

    def test_tau_of_a_numpy_int_past_int64(self):
        s = EpochSchedule(2)
        assert s.tau(70) == 2**70
        assert s.tau(np.int64(70)) == 2**70 and type(s.tau(np.int64(70))) is int

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
        for tau1 in (2, 3, 5, 64):
            s = EpochSchedule(tau1)
            # each epoch's last and first rounds up to epoch 70, past int64,
            # and a numpy int
            edges = [s.tau(m) + d for m in range(1, 70) for d in (0, 1)]
            for t in [*range(1, 300), *edges, 2**63, 2**100 + 1, np.int64(2**62)]:
                m = s.epoch_of(t)
                assert s.tau(m - 1) < t <= s.tau(m)

    def test_epoch_size(self):
        for tau1 in (2, 3, 64):
            s = EpochSchedule(tau1)
            # scalars stay exact past int64
            want = [s.tau(m) - s.tau(m - 1) for m in range(1, 70)]
            assert [s.epoch_size(m) for m in range(1, 70)] == want
            # a run's sizes, in int64
            assert s._sizes(11).dtype == np.int64 and s._sizes(11).tolist() == want[:11]
            assert s._sizes(0).shape == (0,)
        assert [EpochSchedule(2).epoch_size(m) for m in range(1, 5)] == [2, 2, 4, 8]

    def test_epoch_size_takes_integer_epochs_only(self):
        # as tau and epoch_of: a numpy int is an int, a float is no epoch
        s = EpochSchedule(2)
        assert s.epoch_size(np.int64(3)) == 4 and type(s.epoch_size(np.int64(3))) is int
        for m in (2.5, 3.9, 2.0, np.float64(3.0), np.array(2.5)):
            with pytest.raises(TypeError):
                s.epoch_size(m)
        # nor is an array of epochs, of any dtype
        for m in (np.array([2, 3]), np.array([2.0, 3.0]), np.array([2, 3], dtype=np.uint64)):
            with pytest.raises(TypeError):
                s.epoch_size(m)

    def test_invalid(self):
        with pytest.raises(ValueError):
            EpochSchedule(1)
        # a run's epoch sizes hold tau1 as an int64
        with pytest.raises(ValueError, match="tau1"):
            EpochSchedule(2**63)
        assert EpochSchedule(2**63 - 1)._sizes(2).tolist() == [2**63 - 1] * 2
        with pytest.raises(ValueError):
            EpochSchedule(2).tau(-1)
        with pytest.raises(ValueError):
            EpochSchedule(2).epoch_of(0)
        with pytest.raises(TypeError):
            EpochSchedule(2).epoch_of(5.0)
        with pytest.raises(ValueError):
            EpochSchedule(2).epoch_size(0)
        # 3 * 2^64 rounds: an int64 array would wrap it to 0; epoch 63's
        # 3 * 2^61 rounds still fit
        assert EpochSchedule(3)._sizes(63)[-1] == 3 << 61
        for last in (64, 66, 2**70):
            with pytest.raises(ValueError, match="int64"):
                EpochSchedule(3)._sizes(last)

    def test_bool_epochs_and_rounds_raise(self):
        # operator.index takes a Python bool as 0 or 1
        s = EpochSchedule(2)
        for method in (s.tau, s.epoch_of, s.epoch_size):
            for value in (True, False, np.True_):
                with pytest.raises(TypeError):
                    method(value)
        for m in (np.array([True, True]), np.array([False])):
            with pytest.raises(TypeError):
                s.epoch_size(m)
        # nor is a bool tau1 a count of rounds, bare or through the config
        for tau1 in (True, False, np.True_):
            with pytest.raises(TypeError):
                EpochSchedule(tau1)
            with pytest.raises(TypeError):
                AlgorithmConfig(tau1, 0.05, 8)

    def test_epoch_past_the_limit_raises(self):
        # epoch MAX_EPOCH is exact; past it the exact ints would only grow
        # toward a MemoryError
        s = EpochSchedule(2)
        assert s.tau(MAX_EPOCH) == 2**MAX_EPOCH
        assert s.epoch_size(MAX_EPOCH) == 2 ** (MAX_EPOCH - 1)
        for m in (MAX_EPOCH + 1, 2**63, np.int64(2**62)):
            for method in (s.tau, s.epoch_size):
                with pytest.raises(ValueError, match=f"MAX_EPOCH = {MAX_EPOCH}"):
                    method(m)


class TestModels:
    def test_constant_model_clamps(self):
        m = ConstantModel([-0.5, 0.3, 1.7])
        np.testing.assert_allclose(m.values([0.0]), [0.0, 0.3, 1.0])

    def test_zero_model(self):
        np.testing.assert_array_equal(zero_model(3).values([0.7]), np.zeros(3))

    def test_linear_per_arm_model(self):
        m = LinearPerArmModel([0.3, 0.6], [[0.4], [-0.2]])
        np.testing.assert_allclose(m.values([0.5]), [0.5, 0.5])
        np.testing.assert_allclose(m.values([0.0]), [0.3, 0.6])
        # clamped to [0, 1]
        np.testing.assert_allclose(m.values([10.0]), [1.0, 0.0])

    def test_linear_model_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearPerArmModel([0.1, 0.2, 0.3], [[0.4], [0.5]])
        # a context with fewer or more values than the model's dim, alone
        # and in a batch
        model = LinearPerArmModel([0.1, 0.2], [[0.3, 0.5], [0.2, 0.1]])
        for x in ([0.5], [0.5] * 3):
            for values in (model.values, lambda x: model.values([x])):
                with pytest.raises(ValueError, match="model of dim 2"):
                    values(x)

    @pytest.mark.parametrize(
        "model",
        [ConstantModel([0.2, 0.5]), LinearPerArmModel([0.1, 0.2], [[0.3], [0.4]])],
        ids=["constant", "linear-per-arm"],
    )
    def test_models_take_one_context_or_a_batch(self, model):
        assert model.values([0.3]).shape == (2,)
        assert model.values(np.zeros((4, 1))).shape == (4, 2)
        # neither one context nor a batch: a scalar and 3-d arrays
        for X in (0.3, np.zeros((1, 1, 1)), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"contexts of shape \(.*\) for a "):
                model.values(X)

    def test_clip_handle_has_ndarray_clip_bits(self):
        # signed zeros and NaNs, a NaN payload, infinities, the smallest
        # subnormals, and values on both sides of [0, 1]
        specials = np.array(
            [0x8000000000000000, 0, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
             0x7FF0000000000000, 0xFFF0000000000000, 1, 0x8000000000000001],
            dtype=np.uint64,
        ).view(float)
        values = np.concatenate([specials, [-0.25, -3.0, 0.5, 1.5, 7.0]])
        rng = np.random.default_rng(0)
        for a in (values, np.stack([rng.permutation(values) for _ in range(3)], axis=1)):
            want = a.copy()
            want.clip(0.0, 1.0, out=want)
            got = a.copy()
            assert _clip(got, 0.0, 1.0, out=got) is got
            assert same_bits(got, want)

    def test_clamp_bounds_are_read_only_float64(self):
        # 0-d float64 operands run the float64 loop of 0.0 and 1.0 (+0.0,
        # not -0.0), and no caller can change them for every other one
        for bound, value in ((_ZERO, 0.0), (_ONE, 1.0)):
            assert bound.dtype == np.float64 and bound.shape == ()
            assert bound.tobytes() == np.float64(value).tobytes()
            assert not bound.flags.writeable
            with pytest.raises(ValueError):
                bound[()] = 0.5


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

    def test_empty_takes_45_bytes_per_round_at_two_arms(self):
        T = 1000
        trace = RunTrace.empty(T, 1, 2)
        columns = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
        assert sum(col.nbytes for col in columns) <= 45 * T

    @pytest.mark.parametrize(
        "K,dtype",
        [(1, np.int8), (2, np.int8), (128, np.int8), (129, np.int16), (32768, np.int16),
         (32769, np.int32)],
    )
    def test_empty_arm_columns_hold_every_arm(self, K, dtype):
        trace = RunTrace.empty(3, 1, K)
        assert trace.actions.dtype == trace.optimal_arms.dtype == dtype
        assert trace.epoch.dtype == trace.m_hat.dtype == np.int8
        trace.actions[:] = K - 1
        assert trace.actions[0] == K - 1

