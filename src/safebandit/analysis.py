"""Misspecification and regret analytics: average misspecification on small
instances, the lower-bound instance identities, m*, kernel/policy duality, and
per-epoch regret aggregation.

The tabular analytics take each model as its value table: an array of shape
(contexts, K) whose row x holds the model's values at context x.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algorithms import action_probs
from .core import EpochSchedule
from .environments import LowerBoundEnv, TabularEnv
from .oracle import EstimationRate

MAX_POLICY_SPACE = 3**6

_KERNEL_GAMMAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)


def tabular_kernel_family(env: TabularEnv, tables) -> list[np.ndarray]:
    """Finite inner approximation of the kernel set induced by the models,
    each given by its (contexts, K) value table: the uniform kernel, each
    model's greedy kernel, and inverse-gap kernels on ``_KERNEL_GAMMAS``."""
    nX, K = env.n_contexts, env.K
    kernels = [np.full((nX, K), 1.0 / K)]
    for table in tables:
        table = np.asarray(table, dtype=float)
        if table.shape != (nX, K):
            raise ValueError(f"value tables must have shape {(nX, K)}, not {table.shape}")
        greedy = np.zeros((nX, K))
        greedy[np.arange(nX), np.argmax(table, axis=1)] = 1.0
        kernels.append(greedy)
        for g in _KERNEL_GAMMAS:
            kernels.append(action_probs(table, g))
    return kernels


def average_misspecification_tabular(env: TabularEnv, tables) -> float:
    """Max over the kernel family of the min over models, each given by its
    (contexts, K) value table, of the expected squared error against the
    true table; returns the square root."""
    if len(tables) == 0:
        raise ValueError("model list must be non-empty")
    tables = [np.asarray(table, dtype=float) for table in tables]
    mu = env.context_probs
    best = 0.0
    for p in tabular_kernel_family(env, tables):
        inner = min(float(np.sum(mu[:, None] * p * (table - env.table) ** 2)) for table in tables)
        best = max(best, inner)
    return math.sqrt(best)


def lower_bound_instance_regret(K: int, B: float, g) -> float:
    """Expected instantaneous regret of the context-blind randomized policy g
    on the lower-bound instance; independent of g and >= sqrt(K B / 2)."""
    alpha = LowerBoundEnv(K, B).alpha
    g = np.asarray(g, dtype=float)
    # the condition that must hold, which a NaN fails
    if not (len(g) == K and (g >= 0).all() and abs(g.sum() - 1.0) <= 1e-9):
        raise ValueError("g must be a distribution over the K arms")
    # R(pi*) = alpha; every constant-arm policy has value alpha / K.
    regret = float(np.sum(g * (alpha - alpha / K)))
    bound = math.sqrt(K * B / 2.0)
    if regret < bound - 1e-12:
        # only a g whose sum is short of 1 within the tolerance above gets here
        raise ValueError(f"regret {regret!r} is below the bound sqrt(KB/2) = {bound!r}")
    return regret


def lower_bound_sqrt_b_bruteforce(K: int, B: float) -> float:
    """Brute-force average misspecification of the lower-bound instance over
    arm-constant kernels, using a per-arm discretization of the context space.

    The class of context-constant models is minimized per arm by the weighted
    mean of the discretized true values; the max over arm distributions is
    attained at a vertex since the objective is linear in g, so it is the
    largest per-arm value.
    """
    env = LowerBoundEnv(K, B)
    # midpoints of a uniform grid on (0, K); 128 cells per unit interval
    n = K * 128
    xs = (np.arange(n) + 0.5) * (K / n)
    table = env.means_batch(xs[:, None])
    w = np.full(n, 1.0 / n)
    means = w @ table
    mse = w @ (table - means) ** 2  # per-arm min over constant models
    return math.sqrt(float(mse.max()))


def m_star(B: float, schedule: EpochSchedule, rate: EstimationRate, delta_prime: float):
    """Largest epoch m with B <= xi(tau_m - tau_{m-1}, delta'/m^2), scanned
    over the epochs of the longest run an int64 trace holds, 1 ..
    ``schedule.epoch_of(2**63 - 1)``. Returns None ("infinite") when the
    condition still holds at that last epoch, and 0 when it fails already
    at m = 1. A negative or NaN B raises ValueError."""
    # negated, so that a NaN B fails as well
    if not B >= 0:
        raise ValueError("B must be nonnegative")
    cap = schedule.epoch_of(2**63 - 1)
    last = 0
    for m in range(1, cap + 1):
        if B <= float(rate.xi(schedule.epoch_size(m), delta_prime / m**2)):
            last = m
    return None if last == cap else last


def policy_space(env: TabularEnv) -> np.ndarray:
    """All deterministic policies as rows of arm indices, one per context."""
    if env.K**env.n_contexts > MAX_POLICY_SPACE:
        raise ValueError("policy space too large to enumerate")
    return np.array(list(itertools.product(range(env.K), repeat=env.n_contexts)))


def policy_distribution(p: np.ndarray, env: TabularEnv):
    """Product measure over the policy space induced by kernel p.

    Returns (policies, Q) where Q[i] = prod_x p(policies[i][x] | x).
    """
    policies = policy_space(env)
    idx = np.arange(env.n_contexts)
    Q = np.prod(p[idx, policies], axis=1)
    return policies, Q


def kernel_from_policy_distribution(policies: np.ndarray, Q: np.ndarray, env: TabularEnv) -> np.ndarray:
    """Marginalize a policy distribution back into a kernel."""
    p = np.zeros((env.n_contexts, env.K))
    for pi, q in zip(policies, Q):
        p[np.arange(env.n_contexts), pi] += q
    return p


def policy_regret(table: np.ndarray, pi, env: TabularEnv) -> float:
    """Reg_f(pi) for the model given by a value table."""
    pi = np.asarray(pi, dtype=int)
    idx = np.arange(env.n_contexts)
    best = table.max(axis=1)
    return float(np.sum(env.context_probs * (best - table[idx, pi])))


def epoch_summaries(trace):
    """Per-epoch realized regret of one run as three arrays: the epochs, their
    round counts and their mean regret. The epoch column is sorted, so each
    epoch is one contiguous slice."""
    realized = trace.realized_regret
    epochs = trace.epoch
    bounds = [0, *(np.flatnonzero(np.diff(epochs)) + 1).tolist(), len(epochs)]
    starts, ends = bounds[:-1], bounds[1:]
    means = np.array([realized[lo:hi].mean() for lo, hi in zip(starts, ends)])
    return epochs[starts], np.subtract(ends, starts), means


def aggregate_runs(per_run):
    """Cross-run mean and normal-approximation 95% CI of per-epoch realized
    regret, from each run's ``epoch_summaries``. Returns four arrays: epochs,
    mean, ci_low and ci_high. The runs must share their epochs, as the runs
    of one config do."""
    if not per_run:
        raise ValueError("need at least one run")
    epochs = per_run[0][0]
    if any(not np.array_equal(run[0], epochs) for run in per_run):
        raise ValueError("runs must share their epochs")
    # epochs x runs with each epoch's runs contiguous, so numpy sums a row in
    # the same (pairwise) order as a 1-d array of that epoch's runs
    vals = np.column_stack([run[2] for run in per_run])
    n = vals.shape[1]
    mean = vals.mean(axis=1)
    half = 1.96 * vals.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return epochs, mean, mean - half, mean + half
