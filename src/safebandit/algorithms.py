"""FALCON+ and Safe-FALCON: inverse-gap-weighting action selection, the
exploitation schedule, safe-policy bookkeeping, and the misspecification tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import EpochSchedule, RunTrace, _gather, zero_model
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
        EpochSchedule(self.tau1)  # raises for a tau1 it cannot hold
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        # an int, as EpochSchedule's tau1: a non-integer horizon raises
        # TypeError here, not deep inside the run
        object.__setattr__(self, "horizon", operator.index(self.horizon))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def delta_prime(self) -> float:
        return self.delta / 13.0


def _first_max(rows):
    """Elementwise max over the first (arm) axis and the index of the first
    arm reaching it, as an intp and a float array shaped like a row, in one
    op per arm over the rounds. The index is the one ``np.argmax`` gives on
    NaN-free rows; after a NaN no arm can win, so ``[1.0, nan]`` gives 0
    where ``np.argmax`` gives 1 (the max is NaN either way). A max of zero
    may carry either sign when arms tie at +0.0 and -0.0."""
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
    V = np.ascontiguousarray(values.reshape(-1, K).T)
    n = V.shape[1]
    best, top = _first_max(V)
    # 1 / (K + gamma * gap), in place: a fresh (K, n) array per step costs
    # more than the arithmetic
    p = np.subtract(top, V)
    p *= gamma
    p += K
    np.divide(1.0, p, out=p)
    # Zero the best arm, then give it the rest, through the flat index of
    # each round's best entry. The zero is top * 0.0, so a round whose max is
    # NaN or infinite keeps a NaN there, as its 1 / (K + gamma * gap) was.
    at = best * n
    at += np.arange(n)
    flat = p.reshape(-1)
    flat[at] = top * 0.0
    rest = np.zeros(n)
    for row in p:
        rest += row
    flat[at] = 1.0 - rest
    return p.T.reshape(values.shape)


def _draw_arms(p: np.ndarray, u: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one arm per row of ``p``: the first arm whose
    cumulative probability reaches the row's uniform, or the last arm when
    rounding leaves the cumulative sum short of it. The K - 1 comparisons
    run on a running column sum. The arms go to ``arms``, an integer array
    shaped like a row of uniforms, which is returned."""
    arms[...] = 0
    cum = np.zeros(p.shape[:-1])
    for k in range(p.shape[-1] - 1):
        cum += p[..., k]
        arms += cum < u
    return arms


def _xi_epoch(m, previous_size, rate: EstimationRate, delta_prime: float):
    """Estimation rate used in epoch m >= 2 (an int, or an int array of
    epochs): xi at the previous epoch's size and confidence delta' / m^2."""
    return rate.xi(previous_size, delta_prime / m**2)


def gamma_m(
    m,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    K: int,
):
    """Exploitation parameter of epoch m (an int, or an int array of epochs):
    1 in epoch 1, then sqrt(K / (8 xi)) with xi evaluated at the previous
    epoch's size. A float for an int m. Raises ValueError for m < 1, for an
    m whose previous epoch has 2^63 rounds or more (the int64 limit of
    ``EpochSchedule.epoch_size``'s array form, which an int m goes through
    too) and for a rate whose xi is not positive; TypeError for a bool or
    any other non-integer m."""
    if np.ndim(m) == 0 and not isinstance(m, bool):
        # clamped to [0, int64 max], an int fits np.asarray and fails the
        # checks below as before; a bool is left to the dtype check, since
        # operator.index takes it as 0 or 1
        m = min(max(operator.index(m), 0), np.iinfo(np.int64).max)
    m = np.asarray(m)
    if m.dtype == bool:
        raise TypeError("epoch index must be an integer, not a bool")
    if (m < 1).any():
        raise ValueError("epoch index must be >= 1")
    from_2 = np.maximum(m, 2)
    sizes = schedule.epoch_size(np.atleast_1d(from_2 - 1)).reshape(m.shape)
    xi = _xi_epoch(from_2, sizes, rate, delta_prime)
    # epoch 1's gamma is 1 whatever the rate
    xi = np.where(m == 1, 1.0, xi)
    if not (xi > 0).all():
        raise ValueError("the rate's xi must be positive")
    gamma = np.where(m == 1, 1.0, np.sqrt(K / (8.0 * xi)))
    return float(gamma) if gamma.ndim == 0 else gamma


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
    """Rounds in epoch m where the misspecification tests run, in increasing
    order: offsets 1, 2, 4, ... below the epoch's size, then its end."""
    if m < 2:
        raise ValueError("checks only run from epoch 2 onward")
    start, size = schedule.tau(m - 1), schedule.epoch_size(m)
    return [start + (1 << k) for k in range((size - 1).bit_length())] + [start + size]


def _floor_terms(
    ts, m, schedule: EpochSchedule, rate: EstimationRate, delta_prime: float, K: int
):
    """The terms of both floors that do not depend on the run, at the rounds
    ``ts`` of epochs ``m`` >= 2 (ints, or int arrays of one shape), in the
    notation of ``thresholds``: sqrt(2 t log_m), c sqrt(K) S_t,
    c sqrt(K) sqrt(xi_m) and sqrt(2 log_m / (t - tau_{m-1})), each shaped
    like ``ts``. One call covers any mix of epochs, so a run can pay for all
    of its checks at once."""
    m = np.asarray(m)
    if m.min() < 2:
        raise ValueError("checks only run from epoch 2 onward")
    # epochs 1 .. the last asked for; epoch e >= 2 holds rounds
    # tau_{e-1} + 1 .. 2 tau_{e-1}, and its size is tau_{e-1}
    epochs = np.arange(1, m.max() + 1)
    sizes = schedule.epoch_size(epochs)
    lo = sizes[m - 1]
    # ts - lo, and lo as a Python int, since 2 * lo can pass int64
    if ((ts <= lo) | (ts - lo > lo)).any():
        where = f"epoch {m}, rounds {int(lo) + 1}..{2 * int(lo)}" if m.ndim == 0 else "their epochs"
        raise ValueError(f"check rounds must lie in {where}")
    # per-epoch arrays from epoch 2 on: epoch m is row m - 2
    row = m - 2
    sqrt_xi = np.sqrt(_xi_epoch(epochs[1:], sizes[:-1], rate, delta_prime))
    # S_t: the summand is constant within an epoch; the earlier epochs' terms
    # are added in epoch order, then epoch m's rounds so far
    full = np.cumsum(np.concatenate(([0.0], (sizes[1:-1] * sqrt_xi[:-1]))))
    explored = full[row] + (ts - lo) * sqrt_xi[row]
    log2_tau1 = math.log2(schedule.tau1)
    log_m = np.array(
        [math.log(math.ceil(e + log2_tau1) ** 3 / delta_prime) for e in range(2, len(epochs) + 1)]
    )[row]
    scale = EXPLORATION_CONSTANT * math.sqrt(K)
    return (
        np.sqrt(2.0 * ts * log_m),
        scale * explored,
        scale * sqrt_xi[row],
        np.sqrt(2.0 / (ts - lo) * log_m),
    )


def _floors(ts, l_prev: float, tau1: int, terms):
    """(L_t, average floor) at rounds ``ts`` from ``_floor_terms``' terms."""
    root_log, explored, avg_explored, avg_root_log = terms
    floor = ts * l_prev - tau1 - root_log - explored
    return floor, l_prev - avg_explored - avg_root_log


def thresholds(
    ts,
    m: int,
    l_prev: float,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    K: int,
):
    """Both misspecification tests' floors at the rounds ``ts`` (an int or an
    int array) of epoch m >= 2, given l_{m-1} = ``l_prev``. Returns (L_t,
    average floor), each shaped like ``ts``:

        L_t     = t l_{m-1} - tau_1 - sqrt(2 t log_m) - c sqrt(K) S_t
        average = l_{m-1} - c sqrt(K) sqrt(xi_m) - sqrt(2 log_m / (t - tau_{m-1}))

    The cumulative test fails when Crwd_t < L_t, the average test when the
    mean reward over rounds tau_{m-1} + 1 .. t is below the average floor.
    Here c = ``EXPLORATION_CONSTANT``, log_m = log(ceil(m + log2 tau_1)^3 /
    delta'), xi_e = rate.xi(epoch_size(e - 1), delta' / e^2) is the rate of
    epoch e, and S_t sums sqrt(xi_e) over the rounds tau_1 + 1 .. t, each
    round taking its own epoch's e. Both sqrt(2 ... log_m) widths are
    concentration widths for rewards in [0, 1]; intro-example's rewards are
    unbounded.

    Raises ValueError for m < 2 and for any round outside (tau_{m-1}, tau_m].
    """
    ts = np.asarray(ts)
    terms = _floor_terms(ts, m, schedule, rate, delta_prime, K)
    return _floors(ts, l_prev, schedule.tau1, terms)


def _check_plan(schedule: EpochSchedule, rate: EstimationRate, delta_prime: float, K: int, T: int):
    """Every check round of a T-round run up to T, in round order, as int64,
    and the (4, n) array of their floors' data-free terms, one row per term,
    from one ``_floor_terms`` call."""
    rounds, epochs = [], []
    for m in range(2, schedule.epoch_of(T) + 1):
        ts = [t for t in safety_check_times(m, schedule) if t <= T]
        rounds += ts
        epochs += [m] * len(ts)
    rounds = np.array(rounds, dtype=np.int64)
    if not epochs:
        return rounds, np.empty((4, 0))
    return rounds, np.array(_floor_terms(rounds, np.array(epochs), schedule, rate, delta_prime, K))


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
    return bool(crwd >= thresholds(t, m, l_prev, schedule, rate, delta_prime, K)[0])


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
    """Secondary test: still safe iff the mean reward over the epoch's rounds
    up to t is at least the average floor."""
    return bool(
        epoch_rewards_mean >= thresholds(t, m, l_prev, schedule, rate, delta_prime, K)[1]
    )


def _run_epoch_loop(
    env: BanditEnvironment,
    oracle: RegressionOracle,
    config: AlgorithmConfig,
    seed: int,
    checks: bool,
) -> RunTrace:
    """Play one run an epoch at a time: Safe-FALCON with ``checks``, else
    FALCON+ (no tests, gamma times ``FALCON_PLUS_GAMMA_SCALE``).

    The model and gamma are fixed within an epoch, and no draw depends on
    the policy: the environment draws from ``Philox(seed)`` and the action
    uniforms from the same generator jumped ahead by 2^128 draws. So each
    epoch's contexts, rewards and uniforms are drawn first and played as
    arrays. The misspecification tests run only at the epoch's check times;
    after the first failure the rest of the epoch is played again, on the
    same draws, with the fallback kernel.

    Every per-round array of an epoch is written straight into its rows of
    the trace, and the rest of the epoch's arrays (the environment's, the
    uniforms and the running sums) are freed before ``choose_safe`` and the
    fit, which read the trace. So a run holds its trace plus one epoch's
    working set.
    """
    bitgen = np.random.Philox(seed)
    env_rng = np.random.Generator(bitgen)
    act_rng = np.random.Generator(bitgen.jumped())
    schedule = EpochSchedule(config.tau1)
    K = env.K
    rate = oracle.rate
    dp = config.delta_prime
    T = config.horizon
    # the schedule-only work, paid once per run: every epoch's gamma and the
    # check rounds with their floors' data-free terms
    last = schedule.epoch_of(T)
    gamma_scale = 1.0 if checks else FALCON_PLUS_GAMMA_SCALE
    gammas = gamma_scale * gamma_m(np.arange(1, last + 1), schedule, rate, dp, K)
    rounds, terms = _check_plan(schedule, rate, dp, K, T) if checks else (None, None)

    # the model played in each epoch, epoch m's at m - 1; epoch 1's zero
    # model has every gap 0, so its kernel is uniform for any finite gamma
    models = [zero_model(K)]
    l_prev = 0.0
    m_hat = 0
    crwd = 0.0
    detection_round = None
    trace = RunTrace.empty(T, env.dim, K)

    for m in range(1, last + 1):
        lo, hi = schedule.tau(m - 1), min(schedule.tau(m), T)
        X, means, R = env.sample_batch(env_rng, hi - lo)
        trace.contexts[lo:hi] = X
        trace.reward_vectors[lo:hi] = R
        trace.optimal_arms[lo:hi], trace.optimal_means[lo:hi] = _first_max(means.T)
        del means
        # the epoch's rows of the trace, as views: the arms and rewards are
        # written there, and the checks and the fit read them there
        X, R = trace.contexts[lo:hi], trace.reward_vectors[lo:hi]
        A, r = trace.actions[lo:hi], trace.rewards[lo:hi]
        safe = detection_round is None
        if safe:
            model, gamma = models[m - 1], gammas[m - 1]
        # after a detection, model and gamma stay the fallback's; drawing
        # the uniforms after the kernel keeps them out of its working set
        P = action_probs(model.values_batch(X), gamma)
        U = act_rng.random(hi - lo)
        _draw_arms(P, U, A)
        del P
        _gather(R, A, r)
        trace.safe[lo:hi] = safe

        if safe and checks:
            # seeded with the carried total, so every entry equals the
            # round-by-round sum
            running = np.cumsum(np.concatenate(([crwd], r)))[1:]
            crwd = float(running[-1])
            # the epoch's checks, rounds lo + 1 .. hi; none in epoch 1
            first, stop = np.searchsorted(rounds, (lo, hi), side="right")
            if first < stop:
                ts = rounds[first:stop]
                floor, avg_floor = _floors(ts, l_prev, schedule.tau1, terms[:, first:stop])
                at = ts - lo - 1
                # negated, so that a NaN statistic fails as well
                failed = ~(running[at] >= floor)
                if config.enable_avg_epoch_test:
                    failed |= ~(np.cumsum(r)[at] / (at + 1) >= avg_floor)
                if failed.any():
                    t = int(ts[failed.argmax()])
                    detection_round = t
                    trace.safe[t - 1 : hi] = False
                    # m_hat == 0 can only happen when every l'_m so far was
                    # <= 0; fall back to the uniform epoch-1 kernel then.
                    model, gamma = models[max(m_hat, 1) - 1], gammas[max(m_hat, 1) - 1]
                    rest = slice(t - lo, None)
                    P = action_probs(model.values_batch(X[rest]), gamma)
                    _draw_arms(P, U[rest], A[rest])
                    del P
                    _gather(R[rest], A[rest], r[rest])
            del running
        del U  # before choose_safe and the fit

        trace.epoch[lo:hi] = m
        trace.m_hat[lo:hi] = m_hat
        if detection_round is None and hi == schedule.tau(m):
            l_prev, m_hat = choose_safe(m, r, l_prev, m_hat, dp)
            trace.m_hat[hi - 1] = m_hat
            if hi < T:
                models.append(oracle.fit(Dataset(X, A, r)))

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
    return _run_epoch_loop(env, oracle, config, seed, checks=True)


def run_falcon_plus(
    env: BanditEnvironment,
    oracle: RegressionOracle,
    config: AlgorithmConfig,
    seed: int,
) -> RunTrace:
    """FALCON+ baseline: same epoch loop, no safety tests, gamma scaled up by
    sqrt(2)."""
    return _run_epoch_loop(env, oracle, config, seed, checks=False)
