"""FALCON+ and Safe-FALCON: inverse-gap-weighting action selection, the
exploitation schedule, safe-policy bookkeeping, and the misspecification tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EpochSchedule, OutcomeModel, RunTrace, zero_model
from .environments import BanditEnvironment
from .oracle import EstimationRate, RegressionOracle

# Constant in front of the exploration sums; (2 + C0) * sqrt(8) with C0 = 5.15,
# used literally as 20.3.
EXPLORATION_CONSTANT = 20.3

# Safe-FALCON's gamma is smaller than FALCON+'s by exactly this factor.
FALCON_PLUS_GAMMA_SCALE = math.sqrt(2.0)


@dataclass(frozen=True)
class AlgorithmConfig:
    tau1: int
    delta: float
    horizon: int
    enable_avg_epoch_test: bool = False

    def __post_init__(self):
        if self.tau1 < 2:
            raise ValueError("tau1 must be >= 2")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def delta_prime(self) -> float:
        return self.delta / 13.0


def action_probs(values: np.ndarray, gamma: float) -> np.ndarray:
    """Inverse-gap-weighted distribution over arms for one context.

    Non-best arms get 1 / (K + gamma * gap); the best arm absorbs the rest.
    """
    K = len(values)
    best = int(np.argmax(values))
    p = 1.0 / (K + gamma * (values[best] - values))
    p[best] = 0.0
    p[best] = 1.0 - p.sum()
    return p


def action_kernel(f: OutcomeModel, gamma: float, x) -> np.ndarray:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return action_probs(f.values(x), gamma)


def _xi_epoch(
    m: int, schedule: EpochSchedule, rate: EstimationRate, delta_prime: float
) -> float:
    """Estimation rate used in epoch m: xi at the previous epoch's size and
    confidence delta' / m^2."""
    return float(rate.xi(schedule.epoch_size(m - 1), delta_prime / m**2))


def gamma_m(
    m: int,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    K: int,
) -> float:
    """Exploitation parameter: 1 in epoch 1, then sqrt(K / (8 xi)) with xi
    evaluated at the previous epoch's size."""
    if m < 1:
        raise ValueError("epoch index must be >= 1")
    if m == 1:
        return 1.0
    return math.sqrt(K / (8.0 * _xi_epoch(m, schedule, rate, delta_prime)))


def l_prime(m: int, rewards, delta_prime: float) -> float:
    """Hoeffding lower bound on the value of the policy used in epoch m."""
    rewards = np.asarray(rewards, dtype=float)
    n = len(rewards)
    if n == 0:
        raise ValueError("epoch dataset must be non-empty")
    return float(rewards.mean()) - math.sqrt(math.log(m * m / delta_prime) / (2 * n))


def choose_safe(m: int, rewards, l_prev: float, m_hat: int, delta_prime: float):
    """End-of-epoch update: l_m = max(l_{m-1}, l'_m); m_hat moves to m only
    on strict improvement."""
    lp = l_prime(m, rewards, delta_prime)
    l_m = max(l_prev, lp)
    return l_m, (m if l_m != l_prev else m_hat)


def safety_check_times(m: int, schedule: EpochSchedule) -> list[int]:
    """Rounds in epoch m where the misspecification tests run: power-of-two
    offsets into the epoch, plus the epoch's final round."""
    if m < 2:
        raise ValueError("checks only run from epoch 2 onward")
    start = schedule.tau(m - 1)
    size = schedule.tau(m) - start
    times = set()
    offset = 1
    while offset <= size:
        times.add(start + offset)
        offset <<= 1
    times.add(schedule.tau(m))
    return sorted(times)


def _log_term(m: int, tau1: int, delta_prime: float) -> float:
    return math.log(math.ceil(m + math.log2(tau1)) ** 3 / delta_prime)


def _sqrt_xi_epoch(
    e: int, schedule: EpochSchedule, rate: EstimationRate, delta_prime: float
) -> float:
    return math.sqrt(_xi_epoch(e, schedule, rate, delta_prime))


def lower_bound_L(
    t: int,
    m: int,
    l_prev: float,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    K: int,
) -> float:
    """Cumulative-reward floor L_t whose violation signals misspecification.

    The exploration sum runs over rounds tau_1 + 1 .. t, grouped by epoch
    since the summand is constant within an epoch.
    """
    if m < 2:
        raise ValueError("L_t is only defined from epoch 2 onward")
    tau1 = schedule.tau1
    total = 0.0
    for e in range(2, m + 1):
        count = min(schedule.tau(e), t) - schedule.tau(e - 1)
        if count <= 0:
            continue
        total += count * _sqrt_xi_epoch(e, schedule, rate, delta_prime)
    return (
        t * l_prev
        - tau1
        - math.sqrt(2 * t * _log_term(m, tau1, delta_prime))
        - EXPLORATION_CONSTANT * math.sqrt(K) * total
    )


def check_is_safe(
    m: int,
    t: int,
    l_prev: float,
    crwd: float,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    K: int,
) -> bool:
    """Cumulative test: still safe iff Crwd_t >= L_t."""
    return crwd >= lower_bound_L(t, m, l_prev, schedule, rate, delta_prime, K)


def avg_epoch_check(
    t: int,
    m: int,
    l_prev: float,
    epoch_rewards_mean: float,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    K: int,
) -> bool:
    """Secondary test: the running within-epoch average reward must stay above
    l_{m-1} minus the exploration and concentration widths."""
    if m < 2:
        raise ValueError("checks only run from epoch 2 onward")
    n_in_epoch = t - schedule.tau(m - 1)
    threshold = (
        l_prev
        - EXPLORATION_CONSTANT
        * math.sqrt(K)
        * _sqrt_xi_epoch(m, schedule, rate, delta_prime)
        - math.sqrt(2.0 / n_in_epoch * _log_term(m, schedule.tau1, delta_prime))
    )
    return epoch_rewards_mean >= threshold


def _run_epoch_loop(
    env: BanditEnvironment,
    oracle: RegressionOracle,
    config: AlgorithmConfig,
    seed: int,
    gamma_scale: float,
    run_checks: bool,
) -> RunTrace:
    rng = np.random.Generator(np.random.Philox(seed))
    schedule = EpochSchedule(config.tau1)
    K = env.K
    rate = oracle.rate
    dp = config.delta_prime
    T = config.horizon

    models = {1: zero_model(K)}
    gammas = {1: 1.0}
    l_prev = 0.0
    m_hat = 0
    safe = True
    crwd = 0.0
    detection_round = None
    fallback_model = models[1]
    fallback_gamma = 1.0

    epochs, contexts, actions, rewards_chosen = [], [], [], []
    reward_vectors, optimal_arms, optimal_means = [], [], []
    expected_regret, safe_flags, m_hat_flags = [], [], []

    m = 0
    t = 0
    while t < T:
        m += 1
        tau_prev = schedule.tau(m - 1)
        tau_m = schedule.tau(m)
        model = models.get(m, fallback_model)
        gamma = gammas.get(m, fallback_gamma)
        check_set = ()
        if run_checks and safe and m >= 2:
            check_set = set(safety_check_times(m, schedule))
        epoch_reward_sum = 0.0
        for t in range(tau_prev + 1, min(tau_m, T) + 1):
            x, means, rewards = env.sample(rng)
            if safe:
                p = action_probs(model.values(x), gamma)
            else:
                p = action_probs(fallback_model.values(x), fallback_gamma)
            a = int(np.searchsorted(np.cumsum(p), rng.random()))
            if a >= K:
                a = K - 1
            r = float(rewards[a])
            opt = int(np.argmax(means))
            opt_mean = float(means[opt])

            epochs.append(m)
            contexts.append(np.atleast_1d(x))
            actions.append(a)
            rewards_chosen.append(r)
            reward_vectors.append(rewards)
            optimal_arms.append(opt)
            optimal_means.append(opt_mean)
            expected_regret.append(opt_mean - float(p @ means))

            if safe:
                crwd += r
                epoch_reward_sum += r
                if t in check_set:
                    ok = check_is_safe(m, t, l_prev, crwd, schedule, rate, dp, K)
                    if ok and config.enable_avg_epoch_test:
                        ok = avg_epoch_check(
                            t, m, l_prev, epoch_reward_sum / (t - tau_prev),
                            schedule, rate, dp, K,
                        )
                    if not ok:
                        safe = False
                        detection_round = t
                        if m_hat >= 1:
                            fallback_model = models[m_hat]
                            fallback_gamma = gammas[m_hat]
                        # m_hat == 0 can only happen when every l'_m so
                        # far was <= 0; fall back to the uniform epoch-1
                        # kernel in that case.
            safe_flags.append(safe)
            m_hat_flags.append(m_hat)

        if safe and t == tau_m:
            l_prev, m_hat = choose_safe(m, rewards_chosen[tau_prev:], l_prev, m_hat, dp)
            # patch the m_hat column for this epoch's final round
            m_hat_flags[-1] = m_hat
            if tau_m < T:
                models[m + 1] = oracle.fit(
                    list(zip(contexts[tau_prev:], actions[tau_prev:], rewards_chosen[tau_prev:]))
                )
                gammas[m + 1] = gamma_scale * gamma_m(m + 1, schedule, rate, dp, K)

    return RunTrace(
        epoch=np.asarray(epochs, dtype=int),
        contexts=np.asarray(contexts, dtype=float),
        actions=np.asarray(actions, dtype=int),
        rewards=np.asarray(rewards_chosen, dtype=float),
        reward_vectors=np.asarray(reward_vectors, dtype=float),
        optimal_arms=np.asarray(optimal_arms, dtype=int),
        optimal_means=np.asarray(optimal_means, dtype=float),
        expected_regret=np.asarray(expected_regret, dtype=float),
        safe=np.asarray(safe_flags, dtype=bool),
        m_hat=np.asarray(m_hat_flags, dtype=int),
        detection_round=detection_round,
        m_hat_final=m_hat,
    )


def run_safe_falcon(
    env: BanditEnvironment,
    oracle: RegressionOracle,
    config: AlgorithmConfig,
    seed: int,
) -> RunTrace:
    """Full Safe-FALCON: epoch loop, misspecification tests, safe fallback."""
    return _run_epoch_loop(env, oracle, config, seed, gamma_scale=1.0, run_checks=True)


def run_falcon_plus(
    env: BanditEnvironment,
    oracle: RegressionOracle,
    config: AlgorithmConfig,
    seed: int,
    gamma_scale: float = FALCON_PLUS_GAMMA_SCALE,
) -> RunTrace:
    """FALCON+ baseline: same epoch loop, no safety tests, gamma scaled up by
    sqrt(2). Pass gamma_scale=1.0 to get a test-free twin of Safe-FALCON."""
    return _run_epoch_loop(
        env, oracle, config, seed, gamma_scale=gamma_scale, run_checks=False
    )
