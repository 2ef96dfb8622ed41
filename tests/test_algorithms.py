"""Unit and integration tests for FALCON+ / Safe-FALCON internals."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safebandit import (
    AlgorithmConfig,
    BanditEnvironment,
    CommonRate,
    Dataset,
    EpochSchedule,
    EstimationRate,
    IntroExampleEnv,
    LinearChiSquaredRate,
    LinearPerArmOracle,
    LowerBoundEnv,
    OutcomeModel,
    RegressionOracle,
    RunTrace,
    action_probs,
    avg_epoch_check,
    check_is_safe,
    choose_safe,
    gamma_m,
    l_prime,
    realizable_linear_env,
    run_falcon_plus,
    run_safe_falcon,
    safety_check_times,
    thresholds,
    zero_model,
)
from safebandit import algorithms
from safebandit.algorithms import EXPLORATION_CONSTANT, FALCON_PLUS_GAMMA_SCALE
from support import same_bits, shifted_realizable_k5

RATE = LinearChiSquaredRate()


class FixedRate(EstimationRate):
    def __init__(self, value):
        self.value = value

    def xi(self, n, zeta):
        return np.broadcast_to(self.value, np.shape(n)).astype(float)


class TestActionProbs:
    def test_frozen_example(self):
        # K=2, gamma=4, gap 0.5: non-best 1/(2+2) = 0.25, best 0.75
        p = action_probs(np.array([1.0, 0.5]), 4.0)
        np.testing.assert_allclose(p, [0.75, 0.25])

    def test_uniform_when_flat(self):
        p = action_probs(np.array([0.4, 0.4, 0.4]), 10.0)
        np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3])
        # and for any values at gamma 0
        np.testing.assert_allclose(action_probs(np.array([0.2, 0.5, 0.9]), 0.0), [1 / 3] * 3)

    @pytest.mark.parametrize("gamma", [-3.0, -1.0, -5e-324, -math.inf, math.inf, math.nan])
    def test_gamma_with_no_valid_kernel_raises(self, gamma):
        # a negative gamma gives negative mass or the best arm the least,
        # a NaN gamma NaN mass, an infinite one NaN on tied values
        for values in ([0.2, 0.5, 0.9], [0.5, 0.5, 0.2]):
            with pytest.raises(ValueError, match="gamma"):
                action_probs(np.array(values), gamma)


class TestGammaM:
    def test_epoch_one_is_one(self):
        assert gamma_m(1, EpochSchedule(2), RATE, 0.05 / 13, 2) == 1.0

    def test_unit_value_from_fixed_rate(self):
        # K=2, xi = 0.25 -> sqrt(1/8) * sqrt(2 / 0.25) = 1
        assert gamma_m(2, EpochSchedule(2), FixedRate(0.25), 0.01, 2) == pytest.approx(1.0)

    def test_frozen_linear_rate_value(self):
        # tau1=2, m=2, delta=0.05: xi(2, (0.05/13)/4) = ln(4*13/0.05) / 1
        dp = 0.05 / 13
        x = -2.0 * math.log(dp / 4) / 2
        expected = math.sqrt(2.0 / (8.0 * x))
        got = gamma_m(2, EpochSchedule(2), RATE, dp, 2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.1897, abs=5e-4)

    def test_invalid_epoch(self):
        with pytest.raises(ValueError):
            gamma_m(0, EpochSchedule(2), RATE, 0.01, 2)

    @pytest.mark.parametrize(
        "m",
        [2.5, 2.0, 1.0, np.array([1.0, 2.0]), True, False, np.array([True, False]), np.arange(1, 5)],
    )
    def test_non_integer_epoch_raises(self, m):
        with pytest.raises(TypeError):
            gamma_m(m, EpochSchedule(2), LinearChiSquaredRate(), 0.01, 2)

    @pytest.mark.parametrize("m", [65, 2**63, 2**70])
    def test_previous_epoch_past_int64_raises(self, m):
        # tau1 2: epoch 64 holds 2^63 rounds, so epoch 65 and later cannot
        # be sized in int64; epoch 64, after 2^62 rounds, still can
        assert gamma_m(64, EpochSchedule(2), LinearChiSquaredRate(), 0.01, 2) > 0
        with pytest.raises(ValueError, match=r"2\^63"):
            gamma_m(m, EpochSchedule(2), LinearChiSquaredRate(), 0.01, 2)

    @pytest.mark.parametrize("xi", [0.0, -0.25, float("nan")])
    def test_rate_without_a_positive_xi_raises(self, xi):
        assert gamma_m(1, EpochSchedule(2), FixedRate(xi), 0.01, 2) == 1.0
        with pytest.raises(ValueError, match="positive"):
            gamma_m(2, EpochSchedule(2), FixedRate(xi), 0.01, 2)


class TestLPrimeAndChooseSafe:
    def test_frozen_example(self):
        # 100 rewards of 0.9, m=1, delta'=0.05: 0.9 - sqrt(ln(20)/200)
        lp = l_prime(1, np.full(100, 0.9), 0.05)
        assert lp == pytest.approx(0.9 - math.sqrt(math.log(20) / 200), rel=1e-12)
        assert lp == pytest.approx(0.7776, abs=5e-4)

    def test_empty_epoch_raises(self):
        with pytest.raises(ValueError):
            l_prime(1, [], 0.05)

    @pytest.mark.parametrize(
        "m,error,match",
        [(0, ValueError, "epoch index"), (-1, ValueError, "epoch index"),
         (1025, ValueError, "MAX_EPOCH"), (2.5, TypeError, None), (True, TypeError, "bool"),
         (np.True_, TypeError, None)],
    )
    def test_epoch_guard(self, m, error, match):
        # the epoch guard judges l_prime's epoch, and choose_safe's through it
        with pytest.raises(error, match=match):
            l_prime(m, np.full(10, 0.9), 0.05)
        with pytest.raises(error, match=match):
            choose_safe(m, np.full(10, 0.9), 0.0, 0, 0.05)

    def test_choose_safe_improvement(self):
        rewards = np.full(100, 0.9)  # l' ~ 0.7776 > 0.5
        l_m, m_hat = choose_safe(3, rewards, 0.5, 1, 0.05)
        assert l_m > 0.5 and m_hat == 3

    def test_choose_safe_no_improvement(self):
        rewards = np.full(100, 0.45)  # l' < 0.5
        l_m, m_hat = choose_safe(3, rewards, 0.5, 1, 0.05)
        assert l_m == 0.5 and m_hat == 1

    def test_choose_safe_from_zero(self):
        l_m, m_hat = choose_safe(1, np.full(100, 0.9), 0.0, 0, 0.05)
        assert l_m == pytest.approx(0.7776, abs=5e-4) and m_hat == 1


class TestSafetyCheckTimes:
    def test_power_of_two_offsets(self):
        assert safety_check_times(3, EpochSchedule(2)) == [5, 6, 8]
        assert safety_check_times(2, EpochSchedule(4)) == [5, 6, 8]

    def test_includes_epoch_end(self):
        times = safety_check_times(4, EpochSchedule(2))
        assert times[-1] == 16 and times == [9, 10, 12, 16]

    def test_epoch_one_rejected(self):
        with pytest.raises(ValueError):
            safety_check_times(1, EpochSchedule(2))

    @pytest.mark.parametrize("m", [True, False, np.True_])
    def test_bool_epoch_raises(self, m):
        with pytest.raises(TypeError):
            safety_check_times(m, EpochSchedule(2))

    def test_numpy_int_epoch_past_int64(self):
        # epoch 70 holds rounds 2^69 + 1 .. 2^70, past int64
        s = EpochSchedule(2)
        assert safety_check_times(np.int64(70), s) == safety_check_times(70, s)
        assert safety_check_times(70, s)[-1] == 2**70


def straight_line_L_terms(t, m, l_prev, tau1, delta, K):
    """Independent transcription of the L_t formula's four terms, the
    exploration sum summed round by round: L_t = a - b - c - d."""
    dp = delta / 13.0

    def tau(j):
        return 0 if j == 0 else tau1 * 2 ** (j - 1)

    def epoch(i):
        j = 1
        while i > tau(j):
            j += 1
        return j

    total = 0.0
    for i in range(tau1 + 1, t + 1):
        e = epoch(i)
        n_prev = tau(e - 1) - tau(e - 2)
        total += math.sqrt(-2.0 * math.log((dp / e**2)) / n_prev)
    width = math.sqrt(2 * t * math.log(math.ceil(m + math.log2(tau1)) ** 3 / dp))
    return t * l_prev, tau1, width, EXPLORATION_CONSTANT * math.sqrt(K) * total


def straight_line_L(t, m, l_prev, tau1, delta, K, rate):
    """Independent transcription of the L_t formula, summed round by round."""
    a, b, c, d = straight_line_L_terms(t, m, l_prev, tau1, delta, K)
    return a - b - c - d


def assert_L_matches_transcription(got, t, m, l_prev, tau1, K):
    """L_t against its transcription, to 1e-12 of the terms' scale: at large
    t the terms nearly cancel, so summation-order rounding of about 1e-12 of
    the terms can exceed 1e-12 of L_t itself."""
    terms = straight_line_L_terms(t, m, l_prev, tau1, 0.05, K)
    want = terms[0] - terms[1] - terms[2] - terms[3]
    assert got == pytest.approx(want, abs=1e-12 * sum(map(abs, terms)))


def straight_line_avg_threshold(t, m, l_prev, tau1, delta, K):
    """Independent transcription of the average-epoch test's threshold, with
    the chi-squared rate written out."""
    dp = delta / 13.0

    def tau(j):
        return 0 if j == 0 else tau1 * 2 ** (j - 1)

    n_prev = tau(m - 1) - tau(m - 2)
    xi = -2.0 * math.log(dp / m**2) / n_prev
    n_in_epoch = t - tau(m - 1)
    log_term = math.log(math.ceil(m + math.log2(tau1)) ** 3 / dp)
    return (
        l_prev
        - EXPLORATION_CONSTANT * math.sqrt(K) * math.sqrt(xi)
        - math.sqrt(2.0 / n_in_epoch * log_term)
    )


class TestLowerBoundL:
    def test_matches_independent_transcription(self):
        dp = 0.05 / 13
        cases = [
            (4, 2, 0.4, 2, 2),
            (8, 3, 0.6, 2, 2),
            (23, 5, 0.55, 2, 2),
            (64, 6, 0.7, 2, 2),
            (9, 2, 0.4, 8, 2),
            (40, 4, 0.6, 8, 2),
            (23, 5, 0.55, 2, 5),
            (100, 5, 0.7, 8, 5),
        ]
        for t, m, l_prev, tau1, K in cases:
            got = float(thresholds(t, m, l_prev, EpochSchedule(tau1), RATE, dp, K)[0])
            want = straight_line_L(t, m, l_prev, tau1, 0.05, K, RATE)
            assert got == pytest.approx(want, rel=1e-12)

    def test_linear_in_l_prev(self):
        dp = 0.05 / 13
        for t in (10, 100, 1000):
            m = EpochSchedule(2).epoch_of(t)
            base = float(thresholds(t, m, 0.3, EpochSchedule(2), RATE, dp, 2)[0])
            bumped = float(thresholds(t, m, 0.3 + 0.01, EpochSchedule(2), RATE, dp, 2)[0])
            assert bumped - base == pytest.approx(t * 0.01, rel=1e-9)

    def test_zero_l_is_negative(self):
        assert float(thresholds(100, 7, 0.0, EpochSchedule(2), RATE, 0.05 / 13, 2)[0]) < 0

    def test_epoch_one_rejected(self):
        with pytest.raises(ValueError):
            thresholds(2, 1, 0.0, EpochSchedule(2), RATE, 0.05 / 13, 2)


# largest round the drawn checks reach
MAX_CHECK_ROUND = 2**14


@st.composite
def check_rounds(draw):
    """(tau1, m, t) with t a round of epoch m >= 2 and t <= MAX_CHECK_ROUND."""
    tau1 = draw(st.integers(2, 64))
    s = EpochSchedule(tau1)
    m = draw(st.integers(2, s.epoch_of(MAX_CHECK_ROUND)))
    t = draw(st.integers(s.tau(m - 1) + 1, min(s.tau(m), MAX_CHECK_ROUND)))
    return tau1, m, t


# a draw whose L_t (-43043.07) the two sums put 1.35e-12 of itself apart:
# 5.9e-13 of the terms' scale (about 98339)
CANCELLING_DRAW = dict(rounds=(27, 11, 27648), K=2, l_prev=1.0)


@settings(max_examples=60, deadline=None)
@given(rounds=check_rounds(), K=st.integers(2, 9), l_prev=st.floats(0.0, 1.0))
@example(**CANCELLING_DRAW)
def test_tests_match_transcriptions_at_any_round(rounds, K, l_prev):
    """Both tests' thresholds against their transcriptions, at rounds far
    past the tabulated cases: detection rounds alone cannot see an error in
    L_t, since the average test fires first on the test environments."""
    tau1, m, t = rounds
    s = EpochSchedule(tau1)
    dp = 0.05 / 13
    got = float(thresholds(t, m, l_prev, s, RATE, dp, K)[0])
    assert_L_matches_transcription(got, t, m, l_prev, tau1, K)
    threshold = straight_line_avg_threshold(t, m, l_prev, tau1, 0.05, K)
    tol = 1e-12 * abs(threshold)
    assert avg_epoch_check(t, m, l_prev, threshold + tol, s, RATE, dp, K)
    assert not avg_epoch_check(t, m, l_prev, threshold - tol, s, RATE, dp, K)


@settings(max_examples=25, deadline=None)
@given(rounds=check_rounds(), K=st.integers(2, 9), l_prev=st.floats(0.0, 1.0))
@example(**CANCELLING_DRAW)
def test_thresholds_match_transcriptions_on_a_whole_epoch(rounds, K, l_prev):
    """One call with every check round of epoch m, as the loop makes it."""
    tau1, m, _ = rounds
    s = EpochSchedule(tau1)
    ts = np.array(safety_check_times(m, s))
    floor, avg_floor = thresholds(ts, m, l_prev, s, RATE, 0.05 / 13, K)
    assert floor.shape == avg_floor.shape == ts.shape
    for t, got_L, got_avg in zip(ts.tolist(), floor.tolist(), avg_floor.tolist()):
        assert_L_matches_transcription(got_L, t, m, l_prev, tau1, K)
        want_avg = straight_line_avg_threshold(t, m, l_prev, tau1, 0.05, K)
        assert got_avg == pytest.approx(want_avg, rel=1e-12)


@pytest.mark.parametrize("tau1", [2, 3, 64])
@pytest.mark.parametrize(
    "rate", [RATE, CommonRate(2.0, 0.8, 1.0, 3.0, 4)], ids=["linear", "common"]
)
def test_run_plan_equals_per_epoch_thresholds(tau1, rate):
    """The loop's once-per-run schedule work gives each epoch the floors and
    gamma that per-epoch calls give, bit for bit, through epoch 21: the
    plan's rows in an epoch's rounds are its check times, and the floors of
    those rows are ``thresholds``' floors."""
    s = EpochSchedule(tau1)
    dp, K, T = 0.05 / 13, 5, s.tau(21) - 1
    rounds, terms = algorithms._check_plan(s, rate, dp, K, T)
    assert rounds.dtype == np.int64 and terms.dtype == float
    assert terms.shape == (4, len(rounds)) and (np.diff(rounds) > 0).all()
    covered = 0
    for m in range(2, 22):
        first, stop = np.searchsorted(rounds, (s.tau(m - 1), s.tau(m)), side="right")
        ts = rounds[first:stop]
        assert ts.tolist() == [t for t in safety_check_times(m, s) if t <= T]
        for l_prev in (0.0, 0.37):
            got = algorithms._floors(ts, l_prev, tau1, terms[:, first:stop])
            for a, b in zip(got, thresholds(ts, m, l_prev, s, rate, dp, K)):
                assert a.tobytes() == b.tobytes()
        covered += len(ts)
    assert covered == len(rounds)
    # a run of one epoch has no checks
    rounds, terms = algorithms._check_plan(s, rate, dp, K, tau1)
    assert rounds.dtype == np.int64 and rounds.shape == (0,) and terms.shape == (4, 0)
    one_by_one = np.array([gamma_m(m, s, rate, dp, K) for m in range(1, 23)])
    assert algorithms._gammas(s, rate, dp, K, 22).tobytes() == one_by_one.tobytes()


class TestThresholdsRejectRoundsOutsideTheEpoch:
    @pytest.mark.parametrize("tau1", [2, 8])
    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("edge", ["previous epoch end", "next epoch start"])
    def test_round_outside_epoch(self, tau1, m, edge):
        s = EpochSchedule(tau1)
        bad = s.tau(m - 1) if edge == "previous epoch end" else s.tau(m) + 1
        # alone, and among rounds that do lie in the epoch
        for ts in (bad, np.array([s.tau(m - 1) + 1, bad, s.tau(m)])):
            with pytest.raises(ValueError):
                thresholds(ts, m, 0.5, s, RATE, 0.05 / 13, 2)
        with pytest.raises(ValueError):
            avg_epoch_check(bad, m, 0.5, 0.0, s, RATE, 0.05 / 13, 2)

    def test_past_int64(self):
        # epoch 2 holds rounds 2^62 + 1 .. 2^63, and 2 * 2^62 is past int64
        s = EpochSchedule(2**62)
        assert np.isfinite(thresholds(2**62 + 1, 2, 0.5, s, RATE, 0.05 / 13, 2)).all()
        with pytest.raises(ValueError, match="rounds 4611686018427387905..9223372036854775808$"):
            thresholds(2**62, 2, 0.5, s, RATE, 0.05 / 13, 2)

    def test_epoch_one(self):
        with pytest.raises(ValueError):
            thresholds(np.array([1, 2]), 1, 0.0, EpochSchedule(2), RATE, 0.05 / 13, 2)
        with pytest.raises(ValueError):
            check_is_safe(1, 2, 0.0, 0.0, EpochSchedule(2), RATE, 0.05 / 13, 2)


class TestThresholdsTakeIntegerRoundsAndArms:
    @pytest.mark.parametrize(
        "ts", [3.5, 3.0, np.float64(3.0), True, np.True_, np.array([3.0, 4.0]), np.array([True, False])]
    )
    def test_non_integer_round_raises(self, ts):
        # epoch 2 of tau1 2 holds rounds 3 and 4
        with pytest.raises(TypeError):
            thresholds(ts, 2, 0.5, EpochSchedule(2), LinearChiSquaredRate(), 0.01, 2)

    def test_checks_at_a_non_integer_round_raise(self):
        s = EpochSchedule(2)
        with pytest.raises(TypeError):
            check_is_safe(2, 3.5, 0.5, 0.0, s, RATE, 0.01, 2)
        with pytest.raises(TypeError):
            avg_epoch_check(3.5, 2, 0.5, 0.0, s, RATE, 0.01, 2)

    @pytest.mark.parametrize("K, error", [(2.5, TypeError), (2.0, TypeError), (True, TypeError), (0, ValueError)])
    def test_arm_count_must_be_an_integer_of_at_least_one(self, K, error):
        # the floors and the gammas judge K alike
        with pytest.raises(error):
            thresholds(3, 2, 0.5, EpochSchedule(2), LinearChiSquaredRate(), 0.01, K)
        with pytest.raises(error):
            gamma_m(3, EpochSchedule(2), LinearChiSquaredRate(), 0.01, K)


class TestChecks:
    def test_check_is_safe_equality_passes(self):
        dp = 0.05 / 13
        L = float(thresholds(16, 4, 0.5, EpochSchedule(2), RATE, dp, 2)[0])
        assert check_is_safe(4, 16, 0.5, L, EpochSchedule(2), RATE, dp, 2)
        assert not check_is_safe(4, 16, 0.5, L - 1e-9, EpochSchedule(2), RATE, dp, 2)

    def test_check_is_safe_trivial_when_l_zero(self):
        assert check_is_safe(3, 8, 0.0, 0.0, EpochSchedule(2), RATE, 0.05 / 13, 2)

    def test_avg_epoch_widths_dominate_early(self):
        # t - tau_{m-1} = 1: widths are huge, mean 0 still passes for small l
        s = EpochSchedule(2)
        assert avg_epoch_check(s.tau(1) + 1, 2, 0.1, 0.0, s, RATE, 0.05 / 13, 2)

    @pytest.mark.parametrize("tau1", [2, 8, 64])
    @pytest.mark.parametrize("K", [2, 5])
    @pytest.mark.parametrize("delta", [0.05, 0.3])
    @pytest.mark.parametrize("l_prev", [0.0, 0.6])
    def test_avg_epoch_threshold_matches_transcription(self, tau1, K, delta, l_prev):
        s = EpochSchedule(tau1)
        dp = delta / 13.0
        for m in range(2, 11):
            for t in safety_check_times(m, s):
                threshold = straight_line_avg_threshold(t, m, l_prev, tau1, delta, K)
                tol = 1e-9 * max(1.0, abs(threshold))
                assert avg_epoch_check(t, m, l_prev, threshold + tol, s, RATE, dp, K)
                assert not avg_epoch_check(t, m, l_prev, threshold - tol, s, RATE, dp, K)

    def test_avg_epoch_fails_on_large_deficit(self):
        # huge epoch: widths are small, a deeply negative mean must fail
        s = EpochSchedule(2)
        m = 20
        t = s.tau(m - 1) + s.epoch_size(m)
        assert not avg_epoch_check(t, m, 0.7, -5.0, s, RATE, 0.05 / 13, 2)


class CollapseEnv(BanditEnvironment):
    """Pays bounded rewards around (0.9, 0.5) until round `collapse_at`,
    then a constant `crash` reward on every arm. Stateful on purpose."""

    K = 2
    dim = 1
    pay = (0.9, 0.5)

    def __init__(self, collapse_at, crash):
        self.collapse_at = collapse_at
        self.crash = crash
        self.t = 0

    def sample(self, rng):
        self.t += 1
        x = np.array([rng.random()])
        means = np.array(self.pay)
        if self.t > self.collapse_at:
            rewards = np.full(self.K, float(self.crash))
        else:
            rewards = np.clip(means + rng.uniform(-0.05, 0.05, self.K), 0.0, 1.0)
        return x, means, rewards


class TestAlgorithmConfig:
    def test_horizon_must_be_an_integer(self):
        # as EpochSchedule's tau1: a numpy int is stored as an int, a float
        # is refused at construction rather than deep inside the run
        cfg = AlgorithmConfig(2, 0.05, np.int64(1000))
        assert cfg.horizon == 1000 and type(cfg.horizon) is int
        # nor is a bool, which operator.index alone takes as 0 or 1
        for horizon in (1e3, 1000.0, np.float64(1000.0), True, False, np.True_):
            with pytest.raises(TypeError):
                AlgorithmConfig(2, 0.05, horizon)

    def test_avg_epoch_flag_must_be_a_bool(self):
        # "no" is truthy: taken as it is, it would turn the average test on
        for flag in ("no", "false", "", 0, 1, 1.0, None, np.array(True)):
            with pytest.raises(TypeError, match="enable_avg_epoch_test"):
                AlgorithmConfig(2, 0.05, 8, enable_avg_epoch_test=flag)
        for flag in (True, False, np.True_, np.False_):
            cfg = AlgorithmConfig(2, 0.05, 8, enable_avg_epoch_test=flag)
            assert cfg.enable_avg_epoch_test is bool(flag)


class TestEpochLoopIntegration:
    @pytest.mark.parametrize("run", [run_safe_falcon, run_falcon_plus])
    @pytest.mark.parametrize("seed, error", [(True, TypeError), (np.True_, TypeError), (2.5, TypeError), (-1, ValueError)])
    def test_runners_take_an_integer_seed(self, run, seed, error):
        # Philox alone would play seed True as seed 1
        with pytest.raises(error):
            run(IntroExampleEnv(), LinearPerArmOracle(2, 1), AlgorithmConfig(2, 0.05, 256), seed)

    def test_cumulative_test_flips_on_collapse(self):
        env = CollapseEnv(collapse_at=128, crash=-50.0)
        cfg = AlgorithmConfig(tau1=64, delta=0.05, horizon=512, enable_avg_epoch_test=False)
        trace = run_safe_falcon(env, LinearPerArmOracle(2, 1), cfg, seed=0)
        assert trace.detection_round is not None
        d = trace.detection_round
        assert d > 128
        # flag false from the detection round onward, true before
        assert not trace.safe[d - 1 :].any()
        assert trace.safe[: d - 1].all()
        # fallback frozen after the flip
        assert len(set(trace.m_hat[d - 1 :])) == 1
        assert trace.m_hat_final >= 1

    def test_avg_epoch_test_flips_on_milder_collapse(self):
        env = CollapseEnv(collapse_at=128, crash=-5.0)
        cfg = AlgorithmConfig(tau1=64, delta=0.05, horizon=4096, enable_avg_epoch_test=True)
        trace_with = run_safe_falcon(env, LinearPerArmOracle(2, 1), cfg, seed=0)
        assert trace_with.detection_round is not None
        # without the secondary test the cumulative test alone reacts later
        env2 = CollapseEnv(collapse_at=128, crash=-5.0)
        cfg2 = AlgorithmConfig(tau1=64, delta=0.05, horizon=4096, enable_avg_epoch_test=False)
        trace_without = run_safe_falcon(env2, LinearPerArmOracle(2, 1), cfg2, seed=0)
        if trace_without.detection_round is not None:
            assert trace_with.detection_round <= trace_without.detection_round

    def test_a_model_needs_only_values(self):
        # a user model overrides one method; the engine evaluates each
        # epoch's model once on the epoch's contexts, and the fallback once
        # more on the rounds after a detection
        calls = []

        class Favourite(OutcomeModel):
            def values(self, X):
                calls.append(len(X))
                return np.tile([0.6, 0.4], (len(X), 1))

        class FavouriteOracle(RegressionOracle):
            rate = LinearChiSquaredRate()

            def fit(self, data):
                return Favourite()

        env = CollapseEnv(collapse_at=256, crash=-50.0)
        cfg = AlgorithmConfig(tau1=64, delta=0.05, horizon=1024)
        trace = run_safe_falcon(env, FavouriteOracle(), cfg, seed=0)
        # the check at round 384 of epoch 4 (rounds 257..512) fails, and
        # epoch 3's model replays rounds 385..512 and plays epoch 5
        assert trace.detection_round == 384 and trace.m_hat_final == 3
        assert calls == [64, 128, 256, 128, 512]

    def test_safe_falcon_matches_gamma_matched_twin_when_no_flip(self):
        # with gamma scale 1 and no flip, the test-free loop is byte-identical
        env = realizable_linear_env(2, dim=1, coefficient_seed=5)
        cfg = AlgorithmConfig(tau1=8, delta=0.05, horizon=1024)
        a = run_safe_falcon(env, LinearPerArmOracle(2, 1), cfg, seed=3)
        b = reference_run(env, LinearPerArmOracle(2, 1), cfg, 3, 1.0, run_checks=False)
        assert a.detection_round is None
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.contexts, b.contexts)
        assert a.safe.all()

    def test_falcon_plus_gamma_scale_changes_play(self):
        env = realizable_linear_env(2, dim=1, coefficient_seed=5)
        cfg = AlgorithmConfig(tau1=8, delta=0.05, horizon=2048)
        scaled = run_falcon_plus(env, LinearPerArmOracle(2, 1), cfg, seed=3)
        unscaled = reference_run(env, LinearPerArmOracle(2, 1), cfg, 3, 1.0, run_checks=False)
        assert FALCON_PLUS_GAMMA_SCALE == pytest.approx(math.sqrt(2.0))
        assert not np.array_equal(scaled.actions, unscaled.actions)

    def test_trace_shapes_and_determinism(self):
        env = realizable_linear_env(3, dim=1, coefficient_seed=1)
        cfg = AlgorithmConfig(tau1=4, delta=0.1, horizon=100)
        a = run_safe_falcon(env, LinearPerArmOracle(3, 1), cfg, seed=9)
        b = run_safe_falcon(env, LinearPerArmOracle(3, 1), cfg, seed=9)
        assert len(a) == 100
        assert a.epoch[0] == 1 and a.epoch[-1] == EpochSchedule(4).epoch_of(100)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        c = run_safe_falcon(env, LinearPerArmOracle(3, 1), cfg, seed=10)
        assert not np.array_equal(a.rewards, c.rewards)

    def test_working_set_beyond_the_trace(self):
        """Each epoch's per-round arrays are written into the trace and the
        rest are freed before the fit, and the action uniforms are drawn
        after the kernel, so a run allocates at most 78 bytes per row of its
        last, largest epoch beyond the trace: about 73 measured. (With every
        epoch array kept alive through the fit it was about 150, and with
        the uniforms drawn before the kernel about 81.)"""
        T = 2**16
        cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=T, enable_avg_epoch_test=True)
        # a short run first, so that one-time allocations (lazy imports,
        # caches) are not counted when this test runs on its own
        short = dataclasses.replace(cfg, horizon=256)
        run_safe_falcon(IntroExampleEnv(), LinearPerArmOracle(2, 1), short, seed=0)
        tracemalloc.start()
        try:
            trace = run_safe_falcon(IntroExampleEnv(), LinearPerArmOracle(2, 1), cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
        assert peak - sum(col.nbytes for col in columns) <= 78 * (T // 2)


def replay_tests(trace, cfg, to_end=False):
    """Replay the misspecification tests on the trace's own rewards with the
    reference functions only. Returns the detection round, the final m_hat,
    for every epoch tested (m, its check times up to T, l_{m-1}), and each
    check round's (Crwd_t, the epoch's mean reward up to t), keyed by t. The
    replay stops at the first failing check unless ``to_end``, which replays
    every check for its statistics and returns no detection round."""
    schedule = EpochSchedule(cfg.tau1)
    K = trace.reward_vectors.shape[1]
    dp = cfg.delta_prime
    T = cfg.horizon
    crwd = np.cumsum(trace.rewards)
    l_prev, m_hat = 0.0, 0
    epochs, stats = [], {}
    m = 1
    while schedule.tau(m - 1) < T:
        lo, hi = schedule.tau(m - 1), min(schedule.tau(m), T)
        if m >= 2:
            epoch_sum = np.cumsum(trace.rewards[lo:hi])
            times = [t for t in safety_check_times(m, schedule) if t <= T]
            epochs.append((m, times, l_prev))
            for t in times:
                total, mean = float(crwd[t - 1]), float(epoch_sum[t - lo - 1]) / (t - lo)
                stats[t] = total, mean
                ok = check_is_safe(m, t, l_prev, total, schedule, RATE, dp, K)
                if ok and cfg.enable_avg_epoch_test:
                    ok = avg_epoch_check(t, m, l_prev, mean, schedule, RATE, dp, K)
                if not ok and not to_end:
                    return t, m_hat, epochs, stats
        if hi == schedule.tau(m):
            l_prev, m_hat = choose_safe(m, trace.rewards[lo:hi], l_prev, m_hat, dp)
        m += 1
    return None, m_hat, epochs, stats


class TestLoopAppliesReferenceTests:
    @pytest.mark.parametrize(
        "crash,avg_test,tau1,seed",
        [
            (crash, avg_test, tau1, seed)
            for crash in (-50.0, -5.0)
            for avg_test in (False, True)
            for tau1 in (8, 64)
            for seed in (0, 1, 2)
        ]
        + [(None, True, 8, 0)],
    )
    def test_replay_agrees(self, monkeypatch, crash, avg_test, tau1, seed):
        """The loop evaluates the thresholds at the replay's check times with
        the replay's l_{m-1}, each epoch's floors equal to ``thresholds``' bit
        for bit, compares exactly the replay's Crwd_t and epoch means against
        them, and its detection round and fallback epoch equal the replay's."""
        real = algorithms._floors
        cfg = AlgorithmConfig(tau1=tau1, delta=0.05, horizon=4096, enable_avg_epoch_test=avg_test)
        schedule = EpochSchedule(tau1)

        def run(floors):
            """Play the run with ``algorithms._floors``, which the loop calls
            once per checked epoch, replaced by ``floors``; returns the trace,
            the (m, ts, l_prev) of every call and what each call returned."""
            calls, results = [], []

            def patched(ts, l_prev, tau1, terms):
                calls.append((schedule.epoch_of(int(ts[0])), ts.tolist(), l_prev))
                results.append(floors(ts, l_prev, tau1, terms))
                return results[-1]

            monkeypatch.setattr(algorithms, "_floors", patched)
            if crash is None:
                env = realizable_linear_env(2, dim=1, coefficient_seed=5)
            else:
                env = CollapseEnv(collapse_at=128, crash=crash)
            trace = run_safe_falcon(env, LinearPerArmOracle(2, 1), cfg, seed=seed)
            monkeypatch.setattr(algorithms, "_floors", real)
            return trace, calls, results

        trace, calls, results = run(real)
        for (m, ts, l_prev), got in zip(calls, results):
            want = thresholds(np.array(ts), m, l_prev, schedule, RATE, cfg.delta_prime, 2)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        detection, m_hat, replayed, _ = replay_tests(trace, cfg)
        assert (detection, m_hat) == (trace.detection_round, trace.m_hat_final)
        assert calls == replayed
        if crash is None:
            assert trace.detection_round is None
        elif crash == -50.0:
            assert trace.detection_round is not None

        # A run on which no check fails, then the same run with each floor
        # set to the statistic the replay computes for it: every check passes
        # with equality, and the run is unchanged.
        def never_fails(ts, *_):
            return np.full(len(ts), -np.inf), np.full(len(ts), -np.inf)

        passing, _, _ = run(never_fails)
        stats = replay_tests(passing, cfg, to_end=True)[3]

        def floors_at(raised=None, which=0):
            """Floors equal to the statistics; with ``raised``, floor
            ``which`` (0 cumulative, 1 average) one ulp higher at that
            round."""

            def floors(ts, *_):
                out = np.array([stats[t] for t in ts.tolist()]).T.copy()
                hit = ts == raised
                out[which, hit] = np.nextafter(out[which, hit], np.inf)
                return out[0], out[1]

            return floors

        equal, calls, _ = run(floors_at())
        assert equal.detection_round is None
        assert sorted(t for _, ts, _ in calls for t in ts) == sorted(stats)
        np.testing.assert_array_equal(equal.actions, passing.actions)
        # one floor one ulp above its statistic: detection lands exactly there
        times = sorted(stats)
        for which in (0, 1) if avg_test else (0,):
            raised = times[(len(times) * (which + 1)) // 3]
            bumped, _, _ = run(floors_at(raised, which))
            assert bumped.detection_round == raised
            np.testing.assert_array_equal(bumped.actions[:raised], passing.actions[:raised])


def reference_run(env, oracle, cfg, seed, gamma_scale, run_checks):
    """Plain per-round transcription of the epoch loop. It consumes the same
    two substreams as the engine: each epoch's ``sample_batch`` rows from
    Philox(seed) and its action uniforms from the jumped generator, read one
    round at a time."""
    bitgen = np.random.Philox(seed)
    env_rng = np.random.Generator(bitgen)
    act_rng = np.random.Generator(bitgen.jumped())
    schedule = EpochSchedule(cfg.tau1)
    K, T, dp, rate = env.K, cfg.horizon, cfg.delta_prime, oracle.rate
    models, gammas = {1: zero_model(K)}, {1: 1.0}
    fallback_model, fallback_gamma = models[1], 1.0
    l_prev, m_hat, crwd = 0.0, 0, 0.0
    safe, detection = True, None
    names = ["epoch", "contexts", "actions", "rewards", "reward_vectors", "optimal_arms",
             "optimal_means", "safe", "m_hat"]
    cols = {name: [] for name in names}

    m = 0
    while schedule.tau(m) < T:
        m += 1
        lo, hi = schedule.tau(m - 1), min(schedule.tau(m), T)
        X, means, R = env.sample_batch(env_rng, hi - lo)
        U = act_rng.random(hi - lo)
        check_set = set()
        if run_checks and safe and m >= 2:
            check_set = set(safety_check_times(m, schedule))
        epoch_sum = 0.0
        for t in range(lo + 1, hi + 1):
            x, mu, rewards, u = X[t - lo - 1], means[t - lo - 1], R[t - lo - 1], U[t - lo - 1]
            if safe:
                p = action_probs(models[m].values(x), gammas[m])
            else:
                p = action_probs(fallback_model.values(x), fallback_gamma)
            a = min(int(np.searchsorted(np.cumsum(p), u)), K - 1)
            r = float(rewards[a])
            opt = int(np.argmax(mu))
            for name, value in zip(names, (m, x, a, r, rewards, opt, mu[opt])):
                cols[name].append(value)
            if safe and run_checks:
                crwd += r
                epoch_sum += r
                if t in check_set:
                    ok = check_is_safe(m, t, l_prev, crwd, schedule, rate, dp, K)
                    if ok and cfg.enable_avg_epoch_test:
                        ok = avg_epoch_check(
                            t, m, l_prev, epoch_sum / (t - lo), schedule, rate, dp, K
                        )
                    if not ok:
                        safe, detection = False, t
                        if m_hat >= 1:
                            fallback_model, fallback_gamma = models[m_hat], gammas[m_hat]
            cols["safe"].append(safe)
            cols["m_hat"].append(m_hat)
        if safe and hi == schedule.tau(m):
            l_prev, m_hat = choose_safe(m, cols["rewards"][lo:], l_prev, m_hat, dp)
            cols["m_hat"][-1] = m_hat
            if hi < T:
                data = Dataset(np.array(cols["contexts"][lo:]), np.array(cols["actions"][lo:]),
                               np.array(cols["rewards"][lo:]))
                models[m + 1] = oracle.fit(data)
                gammas[m + 1] = gamma_scale * gamma_m(m + 1, schedule, rate, dp, K)
    # in the engine's column dtypes, so the comparison can stay dtype-strict
    like = RunTrace.empty(0, env.dim, K)
    return RunTrace(**{name: np.array(cols[name], dtype=getattr(like, name).dtype) for name in names},
                    detection_round=detection, m_hat_final=m_hat)


def _collapse(collapse_at, crash):
    return lambda: CollapseEnv(collapse_at, crash)


class LowPayCollapseEnv(CollapseEnv):
    """CollapseEnv paying around (0.4, 0.1) before the collapse."""

    pay = (0.4, 0.1)


def _intro():
    return IntroExampleEnv()


def _realizable_k3_dim2():
    return realizable_linear_env(3, dim=2, coefficient_seed=4)


def _realizable_k9_dim9():
    return realizable_linear_env(9, dim=9, coefficient_seed=4)


def _lower_bound_k200():
    return LowerBoundEnv(200, 0.001)


@pytest.mark.parametrize(
    "make_env",
    [_intro, _realizable_k3_dim2, lambda: LowerBoundEnv(3, 1 / 6)],
    ids=["intro-example", "realizable-linear-dim2", "lower-bound-k3"],
)
@pytest.mark.parametrize("run", [run_safe_falcon, run_falcon_plus], ids=["safe-falcon", "falcon-plus"])
def test_a_run_makes_no_lapack_call(make_env, run, monkeypatch):
    """The fits rest on numpy's add reductions alone, so a run's bits do not
    depend on the LAPACK behind numpy: every public numpy.linalg function
    raises while both algorithms play."""

    def no_lapack(*args, **kwargs):
        raise AssertionError("numpy.linalg was called during a run")

    for name in np.linalg.__all__:
        # LinAlgError is the one class
        if not inspect.isclass(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, no_lapack)
    with pytest.raises(AssertionError, match="numpy.linalg was called"):
        np.linalg.lstsq(np.eye(2), np.ones(2))
    env = make_env()
    cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=1024, enable_avg_epoch_test=True)
    trace = run(env, LinearPerArmOracle(env.K, env.dim), cfg, seed=3)
    assert len(trace.actions) == 1024


# (id, env factory, tau1, T, avg test, Safe-FALCON?, expected detection round)
REFERENCE_CASES = [
    *[
        (f"collapse{crash:g}-avg{int(avg)}-seed{seed}", _collapse(128, crash), 64, 4096,
         avg, True, "any")
        for crash in (-50.0, -5.0) for avg in (False, True) for seed in (0, 1)
    ],
    # round 128 closes epoch 2 and is the only crashed round
    ("detect-at-epoch-end", _collapse(127, -1e6), 64, 1024, False, True, 128),
    # with tau1 = 8, l'_1 <= 0 on rewards near (0.4, 0.1), so m_hat is still 0
    # at the first check of epoch 2; the fit of epoch 1 is not flat, so playing
    # it instead of the uniform kernel would show
    ("detect-with-m-hat-0", lambda: LowPayCollapseEnv(8, -50.0), 8, 1024, True, True, 9),
    ("horizon-mid-epoch", _collapse(128, -50.0), 8, 1000, True, True, "any"),
    ("horizon-mid-epoch-intro", _intro, 8, 1000, True, True, "any"),
    ("horizon-below-tau1", _intro, 8, 5, True, True, None),
    ("realizable-k3-dim2", _realizable_k3_dim2, 8, 2048, True, True, None),
    # stateful, drawn a round at a time by the default sample_batch; the
    # shift at round 2048 is detected at round 4224, in epoch 8
    ("shifted-realizable-k5", shifted_realizable_k5, 64, 4400, True, True, 4224),
    # 8 or more arms or context dims: numpy would sum such a row pairwise
    ("realizable-k9-dim9", _realizable_k9_dim9, 8, 2048, True, True, None),
    # more than 128 arms: the arm columns are int16, not int8
    ("lower-bound-k200", _lower_bound_k200, 8, 1024, True, True, None),
    ("falcon-plus-intro", _intro, 2, 2048, False, False, None),
    ("falcon-plus-collapse", _collapse(128, -50.0), 64, 2048, False, False, None),
]


class TestEngineMatchesPerRoundReference:
    @pytest.mark.parametrize(
        "make_env,tau1,T,avg_test,safe_falcon,expected",
        [case[1:] for case in REFERENCE_CASES],
        ids=[case[0] for case in REFERENCE_CASES],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_traces_equal(self, make_env, tau1, T, avg_test, safe_falcon, expected, seed):
        cfg = AlgorithmConfig(tau1=tau1, delta=0.05, horizon=T, enable_avg_epoch_test=avg_test)
        env = make_env()
        oracle = LinearPerArmOracle(env.K, env.dim)
        if safe_falcon:
            engine = run_safe_falcon(env, oracle, cfg, seed)
        else:
            engine = run_falcon_plus(env, oracle, cfg, seed)
        scale = 1.0 if safe_falcon else FALCON_PLUS_GAMMA_SCALE
        reference = reference_run(make_env(), oracle, cfg, seed, scale, safe_falcon)
        for field in dataclasses.fields(RunTrace):
            a, b = getattr(engine, field.name), getattr(reference, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
        assert len(engine) == T
        if expected != "any":
            assert engine.detection_round == expected
        if expected == 9:
            assert engine.m_hat_final == 0


class TestCommonRandomNumbers:
    """No draw depends on the policy, so one seed, tau1, T and environment
    give both algorithms the same contexts and reward vectors, and their runs
    pair up."""

    @pytest.mark.parametrize(
        "make_env,tau1,T,detects",
        [
            (_intro, 2, 4096, False),
            (lambda: realizable_linear_env(3, 1, coefficient_seed=4), 2, 4096, False),
            (lambda: LowerBoundEnv(3, 1 / 6), 2, 4096, False),
            # stateful, so a fresh environment per run
            (shifted_realizable_k5, 64, 10000, True),
        ],
        ids=["intro", "realizable-linear", "lower-bound", "shifted-realizable-k5"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_both_algorithms_draw_the_same_rounds(self, make_env, tau1, T, detects, seed):
        cfg = AlgorithmConfig(tau1=tau1, delta=0.05, horizon=T, enable_avg_epoch_test=True)
        runs = []
        for algorithm in (run_safe_falcon, run_falcon_plus):
            env = make_env()
            runs.append(algorithm(env, LinearPerArmOracle(env.K, env.dim), cfg, seed))
        safe, plus = runs
        assert (safe.detection_round is not None) == detects
        assert same_bits(safe.contexts, plus.contexts)
        assert same_bits(safe.reward_vectors, plus.reward_vectors)
        # the policies differ, so the pairing is not one run seen twice
        assert not np.array_equal(safe.actions, plus.actions)
