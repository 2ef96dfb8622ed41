"""FALCON+ and Safe-FALCON: inverse-gap-weighting action selection, the
exploitation schedule, safe-policy bookkeeping, and the misspecification tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EpochSchedule, RunTrace, zero_model
from .environments import BanditEnvironment
from .oracle import Dataset, EstimationRate, RegressionOracle

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


def _first_max(rows):
    """Elementwise max over the first (arm) axis and the index of the first
    arm reaching it, the arm ``np.argmax`` picks. Each step is one op over
    the rounds, with no branch per element. A max of zero may carry either
    sign when arms tie at +0.0 and -0.0."""
    best = np.zeros(rows.shape[1:], dtype=np.intp)
    top = rows[0]
    for k in range(1, len(rows)):
        # arms come in increasing order, so a strictly better arm carries
        # the largest index so far
        np.maximum(best, k * (rows[k] > top), out=best)
        top = np.maximum(top, rows[k])
    return best, top


def action_probs(values: np.ndarray, gamma: float) -> np.ndarray:
    """Inverse-gap-weighted distribution over arms, along the last axis: one
    context's length-K values give one distribution, an (n, K) array n rows.

    Non-best arms get 1 / (K + gamma * gap); the best arm absorbs the rest.
    The work runs on an arm-major (K, n) array, and sums over arms are taken
    in arm order, so one row equals the same row of a batch.
    """
    values = np.asarray(values, dtype=float)
    K = values.shape[-1]
    V = np.ascontiguousarray(np.moveaxis(values, -1, 0)).reshape(K, -1)
    best, top = _first_max(V)
    # 1 / (K + gamma * gap), in place: a fresh (K, n) array per step costs
    # more than the arithmetic
    p = np.subtract(top, V)
    p *= gamma
    p += K
    np.divide(1.0, p, out=p)
    # Zero the best arm, then give it the rest. Every p is positive and
    # finite, so multiplying by a mask is exact, and unlike a masked
    # assignment it takes no branch per element.
    is_best = best == np.arange(K)[:, None]
    p *= ~is_best
    rest = np.zeros(V.shape[1])
    for row in p:
        rest += row
    p += is_best * (1.0 - rest)
    return np.moveaxis(p.reshape((K,) + values.shape[:-1]), 0, -1)


def _draw_arms(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one arm per row of ``p``: the first arm whose
    cumulative probability reaches the row's uniform, or the last arm when
    rounding leaves the cumulative sum short of it. The K - 1 comparisons
    run on a running column sum."""
    arms = np.zeros(p.shape[:-1], dtype=np.intp)
    cum = np.zeros(p.shape[:-1])
    for k in range(p.shape[-1] - 1):
        cum += p[..., k]
        arms += cum < u
    return arms


def _xi_epoch(m, schedule: EpochSchedule, rate: EstimationRate, delta_prime: float):
    """Estimation rate used in epoch m >= 2 (an int, or an int array of
    epochs): xi at the previous epoch's size and confidence delta' / m^2."""
    # epoch_size(m - 1): epochs 1 and 2 hold tau_1 rounds, then sizes double
    n_prev = schedule.tau1 << (m - 3 + (m == 2))
    return rate.xi(n_prev, delta_prime / m**2)


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
    return math.sqrt(K / (8.0 * float(_xi_epoch(m, schedule, rate, delta_prime))))


def l_prime(m: int, rewards, delta_prime: float) -> float:
    """Hoeffding lower bound on the value of the policy used in epoch m. The
    width assumes rewards in [0, 1]; intro-example's rewards are unbounded."""
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
    since the summand is constant within an epoch. The sqrt(2t log) term
    assumes rewards in [0, 1]; intro-example's rewards are unbounded.
    """
    if m < 2:
        raise ValueError("L_t is only defined from epoch 2 onward")
    tau1 = schedule.tau1
    epochs = range(2, m + 1)
    sqrt_xi = np.sqrt(_xi_epoch(np.array(epochs), schedule, rate, delta_prime))
    total = 0.0
    # one term per epoch, summed in epoch order
    for e, value in zip(epochs, sqrt_xi.tolist()):
        count = min(tau1 << (e - 1), t) - (tau1 << (e - 2))  # tau_e, tau_{e-1}
        if count > 0:
            total += count * value
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
    l_{m-1} minus the exploration and concentration widths. The concentration
    width assumes rewards in [0, 1]; intro-example's rewards are unbounded."""
    if m < 2:
        raise ValueError("checks only run from epoch 2 onward")
    n_in_epoch = t - schedule.tau(m - 1)
    threshold = (
        l_prev
        - EXPLORATION_CONSTANT
        * math.sqrt(K)
        * math.sqrt(float(_xi_epoch(m, schedule, rate, delta_prime)))
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
    """Play one run an epoch at a time.

    The model and gamma are fixed within an epoch, and no draw depends on
    the policy: the environment draws from ``Philox(seed)`` and the action
    uniforms from the same generator jumped ahead by 2^128 draws. So each
    epoch's contexts, rewards and uniforms are drawn first and played as
    arrays. The misspecification tests run only at the epoch's check times;
    after the first failure the rest of the epoch is played again, on the
    same draws, with the fallback kernel.
    """
    bitgen = np.random.Philox(seed)
    env_rng = np.random.Generator(bitgen)
    act_rng = np.random.Generator(bitgen.jumped())
    schedule = EpochSchedule(config.tau1)
    K = env.K
    rate = oracle.rate
    dp = config.delta_prime
    T = config.horizon

    # (model, gamma) played in each epoch; epoch 1's is the uniform kernel
    policies = {1: (zero_model(K), 1.0)}
    l_prev = 0.0
    m_hat = 0
    crwd = 0.0
    detection_round = None
    trace = RunTrace.empty(T, env.dim, K)

    m = 0
    while schedule.tau(m) < T:
        m += 1
        lo, hi = schedule.tau(m - 1), min(schedule.tau(m), T)
        n = hi - lo
        X, means, R = env.sample_batch(env_rng, n)
        first_of_row = np.arange(0, n * K, K)  # flat index of (row, arm 0)
        U = act_rng.random(n)
        safe = detection_round is None
        if safe:
            model, gamma = policies[m]
        # after a detection, model and gamma stay the fallback's
        A = _draw_arms(action_probs(model.values_batch(X), gamma), U)
        r = R.ravel()[first_of_row + A]
        trace.safe[lo:hi] = safe

        if safe and run_checks:
            # seeded with the carried total, so every entry equals the
            # round-by-round sum
            running = np.cumsum(np.r_[crwd, r])[1:]
            crwd = float(running[-1])
            epoch_sum = np.cumsum(r)
            check_times = safety_check_times(m, schedule) if m >= 2 else []
            for t in check_times:
                if t > hi:
                    break
                i = t - lo - 1
                ok = check_is_safe(m, t, l_prev, float(running[i]), schedule, rate, dp, K)
                if ok and config.enable_avg_epoch_test:
                    ok = avg_epoch_check(
                        t, m, l_prev, float(epoch_sum[i]) / (t - lo), schedule, rate, dp, K
                    )
                if not ok:
                    detection_round = t
                    trace.safe[t - 1 : hi] = False
                    # m_hat == 0 can only happen when every l'_m so far was
                    # <= 0; fall back to the uniform epoch-1 kernel then.
                    model, gamma = policies[max(m_hat, 1)]
                    rest = slice(i + 1, n)
                    P = action_probs(model.values_batch(X[rest]), gamma)
                    A[rest] = _draw_arms(P, U[rest])
                    r = R.ravel()[first_of_row + A]
                    break

        trace.m_hat[lo:hi] = m_hat
        if detection_round is None and hi == schedule.tau(m):
            l_prev, m_hat = choose_safe(m, r, l_prev, m_hat, dp)
            trace.m_hat[hi - 1] = m_hat
            if hi < T:
                policies[m + 1] = (
                    oracle.fit(Dataset(X, A, r)),
                    gamma_scale * gamma_m(m + 1, schedule, rate, dp, K),
                )

        opt, opt_mean = _first_max(means.T)
        trace.epoch[lo:hi] = m
        trace.contexts[lo:hi] = X
        trace.actions[lo:hi] = A
        trace.rewards[lo:hi] = r
        trace.reward_vectors[lo:hi] = R
        trace.optimal_arms[lo:hi] = opt
        trace.optimal_means[lo:hi] = opt_mean

    trace.detection_round = detection_round
    trace.m_hat_final = m_hat
    return trace


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
) -> RunTrace:
    """FALCON+ baseline: same epoch loop, no safety tests, gamma scaled up by
    sqrt(2)."""
    return _run_epoch_loop(
        env, oracle, config, seed, gamma_scale=FALCON_PLUS_GAMMA_SCALE, run_checks=False
    )
