"""Tests for the misspecification and regret analytics."""

import math

import numpy as np
import pytest

from safebandit import (
    AlgorithmConfig,
    EpochSchedule,
    LinearChiSquaredRate,
    LinearPerArmOracle,
    TabularEnv,
    realizable_linear_env,
    run_falcon_plus,
    run_safe_falcon,
)
from safebandit.analysis import (
    aggregate_runs,
    average_misspecification_tabular,
    epoch_summaries,
    lower_bound_instance_regret,
    m_star,
    policy_distribution,
    policy_space,
    tabular_kernel_family,
)
from support import Edited

RATE = LinearChiSquaredRate()


class TestDuality:
    def test_uniform_kernel_policy_mass(self):
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4]])
        p = np.full((2, 2), 0.5)
        policies, Q = policy_distribution(p, env)
        assert len(policies) == 4
        np.testing.assert_allclose(Q, 0.25)

    def test_deterministic_kernel_point_mass(self):
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4]])
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        policies, Q = policy_distribution(p, env)
        assert Q.sum() == pytest.approx(1.0)
        idx = int(np.argmax(Q))
        assert Q[idx] == pytest.approx(1.0)
        np.testing.assert_array_equal(policies[idx], [0, 1])

    def test_policy_space_limit(self):
        env = TabularEnv(np.full((12, 3), 0.5))
        with pytest.raises(ValueError):
            policy_space(env)


class TestAverageMisspecification:
    def test_zero_when_realizable(self):
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4]])
        tables = [env.table, [[0.5, 0.5], [0.5, 0.5]]]
        assert average_misspecification_tabular(env, tables) == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_misspecified(self):
        env = TabularEnv([[0.0, 1.0], [1.0, 0.0]])
        b = average_misspecification_tabular(env, [[[0.5, 0.5], [0.5, 0.5]]])
        assert b > 0.3

    def test_requires_models(self):
        env = TabularEnv([[0.2, 0.8]])
        with pytest.raises(ValueError):
            average_misspecification_tabular(env, [])
        # one (contexts, K) table per model: neither a (1, K) row, which
        # would broadcast across the contexts, nor a (K,) vector
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
        for table in (np.array([[0.2, 0.8]]), np.array([0.2, 0.8])):
            for analytic in (average_misspecification_tabular, tabular_kernel_family):
                with pytest.raises(ValueError, match="shape"):
                    analytic(env, [table])

    def test_kernel_family_rows_are_distributions(self):
        env = TabularEnv([[0.2, 0.8], [0.6, 0.4]])
        kernels = tabular_kernel_family(env, [[[0.9, 0.1], [0.1, 0.9]]])
        for p in kernels:
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p >= 0)


class TestLowerBoundInstance:
    def test_equality_at_k2(self):
        # K=2, B=1/16: regret 0.25 meets the bound sqrt(KB/2) = 0.25 exactly
        assert lower_bound_instance_regret(2, 1.0 / 16, [0.5, 0.5]) == pytest.approx(0.25)

    def test_g_invariance(self):
        rng = np.random.Generator(np.random.Philox(2))
        K, B = 5, 0.02
        expected = math.sqrt((K - 1) * B)
        point_mass = np.eye(K)[2]
        assert lower_bound_instance_regret(K, B, point_mass) == pytest.approx(expected)
        for _ in range(100):
            g = rng.random(K)
            g /= g.sum()
            assert lower_bound_instance_regret(K, B, g) == pytest.approx(expected, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lower_bound_instance_regret(1, 0.01, [1.0])
        with pytest.raises(ValueError):
            lower_bound_instance_regret(2, 0.5, [0.5, 0.5])
        with pytest.raises(ValueError):
            lower_bound_instance_regret(2, 0.01, [0.7, 0.7])
        with pytest.raises(ValueError):
            lower_bound_instance_regret(2, 1.0 / 16, [float("nan"), 0.5])

    def test_bound_check_raises(self):
        # K = 2 and B = 1/(2K) put the regret exactly on the bound sqrt(KB/2);
        # a g short of summing to 1 by 1e-10 passes the distribution check
        # but falls below the bound, which must raise even under python -O
        with pytest.raises(ValueError, match="below the bound"):
            lower_bound_instance_regret(2, 0.25, [0.5, 0.5 - 1e-10])


class TestMStar:
    def test_monotone_in_b(self):
        s = EpochSchedule(2)
        dp = 0.05 / 13
        values = []
        for B in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            m = m_star(B, s, RATE, dp)
            values.append(math.inf if m is None else m)
        assert values == [18, 15, 12, 8, 6]

    def test_direct_scan_agrees(self):
        # the scan runs through the last epoch of a run of 2^63 - 1 rounds,
        # the longest an int64 trace holds; at tau1 2, B = 1e-17 still holds
        # in epoch 62, past a fixed cap of 60
        dp = 0.05 / 13
        for tau1, last in ((2, 63), (3, 63), (64, 58)):
            s = EpochSchedule(tau1)
            assert last == max(m for m in range(1, 100) if s.tau(m - 1) < 2**63 - 1)
            for B in (1e-17, 0.01, 0.0):
                holds = [
                    m
                    for m in range(1, last + 1)
                    if B <= -2.0 * math.log(dp / m**2) / (s.tau(m) - s.tau(m - 1))
                ]
                expected = None if last in holds else max(holds, default=0)
                assert m_star(B, s, RATE, dp) == expected, (tau1, B)

    def test_sentinels(self):
        s = EpochSchedule(2)
        # tiny B: condition holds at the last epoch -> None ("infinite")
        assert m_star(0.0, s, RATE, 0.05 / 13) is None
        # huge B: fails already at m=1 -> 0
        assert m_star(1e9, s, RATE, 0.05 / 13) == 0
        for B in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                m_star(B, s, RATE, 0.05 / 13)
        # the schedule sets the last epoch; there is no cap to pass
        with pytest.raises(TypeError):
            m_star(0.0, s, RATE, 0.05 / 13, m_cap=0)


def mask_epoch_summaries(trace):
    """Reference: one full-length mask per epoch."""
    realized = trace.realized_regret
    epochs, counts, means = [], [], []
    for m in np.unique(trace.epoch):
        mask = trace.epoch == m
        epochs.append(int(m))
        counts.append(int(mask.sum()))
        means.append(float(realized[mask].mean()))
    return np.array(epochs), np.array(counts), np.array(means)


def reference_aggregate_runs(per_run):
    """Reference: each epoch's runs gathered into a 1-d array, one epoch at
    a time."""
    epochs = per_run[0][0].tolist()
    mean, ci_low, ci_high = [], [], []
    for i in range(len(epochs)):
        vals = np.array([run[2][i] for run in per_run])
        m = float(vals.mean())
        half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        mean.append(m)
        ci_low.append(m - half)
        ci_high.append(m + half)
    return np.array(epochs), np.array(mean), np.array(ci_low), np.array(ci_high)


def same_float_bits(a, b):
    """Equal shapes and equal bytes once both are cast to float64; dtypes may differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.astype(float).tobytes() == b.astype(float).tobytes()


def summaries(epochs, means):
    """One run's ``epoch_summaries`` arrays, one round per epoch."""
    return np.array(epochs), np.ones(len(epochs), dtype=int), np.array(means, dtype=float)


class TestEpochSummaries:
    def test_slices_equal_masks(self):
        cfg = AlgorithmConfig(tau1=8, delta=0.05, horizon=3000, enable_avg_epoch_test=True)
        drop = Edited(realizable_linear_env(3, dim=1, coefficient_seed=3),
                      lambda t, x, m, r: (x, m, r - 50.0 * (t > 300)))
        trace = run_safe_falcon(drop, LinearPerArmOracle(3, 1), cfg, seed=0)
        d = trace.detection_round
        # the detection falls inside an epoch, which is cut there and ends
        # at the horizon, not at an epoch boundary
        assert d is not None and trace.epoch[d - 1] == trace.epoch[d]
        got, want = epoch_summaries(trace), mask_epoch_summaries(trace)
        assert all(same_float_bits(a, b) for a, b in zip(got, want))

    def test_counts_and_bounds(self):
        env = realizable_linear_env(2, dim=1, coefficient_seed=3)
        cfg = AlgorithmConfig(tau1=4, delta=0.05, horizon=100)
        trace = run_falcon_plus(env, LinearPerArmOracle(2, 1), cfg, seed=0)
        epochs, counts, means = epoch_summaries(trace)
        assert counts.sum() == 100
        assert counts[0] == 4
        assert len(epochs) == len(counts) == len(means)

    @pytest.mark.parametrize("runs", [1, 2, 8, 9])
    def test_aggregate_equals_per_epoch_reference(self, runs):
        # 8 runs and more are summed pairwise: each epoch's runs must be
        # reduced as one contiguous row
        env = realizable_linear_env(3, dim=1, coefficient_seed=3)
        cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=3000)
        per_run = [
            epoch_summaries(run_falcon_plus(env, LinearPerArmOracle(3, 1), cfg, seed))
            for seed in range(runs)
        ]
        got, want = aggregate_runs(per_run), reference_aggregate_runs(per_run)
        assert all(same_float_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("runs", [1, 2, 8, 9, 130])
    def test_aggregate_equals_reference_on_wide_values(self, runs):
        rng = np.random.Generator(np.random.Philox(runs))
        vals = rng.standard_normal((runs, 6)) * rng.choice([1e-3, 1.0, 1e6], (runs, 6))
        vals[rng.random((runs, 6)) < 0.1] = -0.0
        per_run = [summaries(range(1, 7), v) for v in vals]
        got, want = aggregate_runs(per_run), reference_aggregate_runs(per_run)
        assert all(same_float_bits(a, b) for a, b in zip(got, want))

    def test_constant_regret_aggregation(self):
        epochs, mean, ci_low, ci_high = aggregate_runs([summaries([1, 2, 3], [0.1] * 3)])
        assert epochs.tolist() == [1, 2, 3]
        np.testing.assert_allclose(mean, 0.1)
        assert np.array_equal(ci_low, mean) and np.array_equal(ci_high, mean)

    def test_cross_run_ci(self):
        per_run = [summaries([1], [v]) for v in (0.1, 0.2, 0.3, 0.4)]
        _, mean, _, ci_high = aggregate_runs(per_run)
        assert mean[0] == pytest.approx(0.25)
        sem = np.std([0.1, 0.2, 0.3, 0.4], ddof=1) / 2
        assert ci_high[0] - mean[0] == pytest.approx(1.96 * sem)
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_runs_with_different_epochs_rejected(self):
        short = summaries([1, 2], [0.1] * 2)
        long = summaries([1, 2, 3], [0.1] * 3)
        shifted = summaries([2, 3, 4], [0.1] * 3)
        with pytest.raises(ValueError):
            aggregate_runs([short, long])
        with pytest.raises(ValueError):
            aggregate_runs([long, short])
        with pytest.raises(ValueError):
            aggregate_runs([long, shifted])
