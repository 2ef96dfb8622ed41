"""Misspecification and regret analytics: average misspecification on small
instances, the lower-bound instance identities, m*, kernel/policy duality, and
per-epoch regret aggregation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import action_probs
from .core import EpochSchedule
from .environments import LowerBoundEnv, TabularEnv
from .oracle import EstimationRate

MAX_POLICY_SPACE = 3**6


def _model_table(model, env: TabularEnv) -> np.ndarray:
    if isinstance(model, np.ndarray):
        return model
    return model.values_batch(np.arange(env.n_contexts)[:, None])


def tabular_kernel_family(
    env: TabularEnv, models, gammas=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
) -> list[np.ndarray]:
    """Finite inner approximation of the kernel set induced by the models:
    the uniform kernel, each model's greedy kernel, and inverse-gap kernels
    on a gamma grid."""
    nX, K = env.n_contexts, env.K
    kernels = [np.full((nX, K), 1.0 / K)]
    for model in models:
        table = _model_table(model, env)
        greedy = np.zeros((nX, K))
        greedy[np.arange(nX), np.argmax(table, axis=1)] = 1.0
        kernels.append(greedy)
        for g in gammas:
            kernels.append(action_probs(table, g))
    return kernels


def average_misspecification_tabular(
    env: TabularEnv, models, kernels=None
) -> float:
    """Max over the kernel family of the min over models of the expected
    squared error against the true table; returns the square root."""
    if len(models) == 0:
        raise ValueError("model list must be non-empty")
    tables = [_model_table(model, env) for model in models]
    if kernels is None:
        kernels = tabular_kernel_family(env, tables)
    mu = env.context_probs
    best = 0.0
    for p in kernels:
        inner = min(float(np.sum(mu[:, None] * p * (table - env.table) ** 2)) for table in tables)
        best = max(best, inner)
    return math.sqrt(best)


def lower_bound_instance_regret(K: int, B: float, g) -> float:
    """Expected instantaneous regret of the context-blind randomized policy g
    on the lower-bound instance; independent of g and >= sqrt(K B / 2)."""
    alpha = LowerBoundEnv(K, B).alpha
    g = np.asarray(g, dtype=float)
    if len(g) != K or np.any(g < 0) or abs(g.sum() - 1.0) > 1e-9:
        raise ValueError("g must be a distribution over the K arms")
    # R(pi*) = alpha; every constant-arm policy has value alpha / K.
    regret = float(np.sum(g * (alpha - alpha / K)))
    bound = math.sqrt(K * B / 2.0)
    if regret < bound - 1e-12:
        # only a g whose sum is short of 1 within the tolerance above gets here
        raise ValueError(f"regret {regret!r} is below the bound sqrt(KB/2) = {bound!r}")
    return regret


def lower_bound_sqrt_b_bruteforce(K: int, B: float, cells_per_arm: int = 128) -> float:
    """Brute-force average misspecification of the lower-bound instance over
    arm-constant kernels, using a per-arm discretization of the context space.

    The class of context-constant models is minimized per arm by the weighted
    mean of the discretized true values; the max over arm distributions is
    attained at a vertex since the objective is linear in g, so it is the
    largest per-arm value.
    """
    env = LowerBoundEnv(K, B)
    # midpoints of a uniform grid on (0, K); equal cells per unit interval
    n = K * cells_per_arm
    xs = (np.arange(n) + 0.5) * (K / n)
    table = env.means_batch(xs[:, None])
    w = np.full(n, 1.0 / n)
    means = w @ table
    mse = w @ (table - means) ** 2  # per-arm min over constant models
    return math.sqrt(float(mse.max()))


def m_star(
    B: float,
    schedule: EpochSchedule,
    rate: EstimationRate,
    delta_prime: float,
    m_cap: int = 60,
):
    """Largest epoch m with B <= xi(tau_m - tau_{m-1}, delta'/m^2), scanned up
    to m_cap. Returns None ("infinite" within the cap) when the condition
    still holds at m_cap, and 0 when it fails already at m = 1."""
    if B < 0:
        raise ValueError("B must be nonnegative")
    last = 0
    for m in range(1, m_cap + 1):
        n = schedule.tau(m) - schedule.tau(m - 1)
        if B <= float(rate.xi(n, delta_prime / m**2)):
            last = m
    if last == m_cap:
        return None
    return last


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


def expected_inverse_probability(p: np.ndarray, pi, env: TabularEnv) -> float:
    """V(p, pi) = E_x[1 / p(pi(x) | x)]."""
    pi = np.asarray(pi, dtype=int)
    probs = p[np.arange(env.n_contexts), pi]
    if np.any(probs <= 0):
        raise ValueError("policy plays a zero-probability action")
    return float(np.sum(env.context_probs / probs))


def policy_regret(table: np.ndarray, pi, env: TabularEnv) -> float:
    """Reg_f(pi) for the model given by a value table."""
    pi = np.asarray(pi, dtype=int)
    idx = np.arange(env.n_contexts)
    best = table.max(axis=1)
    return float(np.sum(env.context_probs * (best - table[idx, pi])))


@dataclass
class EpochSummary:
    epoch: int
    count: int
    mean_realized_regret: float


def epoch_summaries(trace) -> list[EpochSummary]:
    """Per-epoch average realized regret for one run. The epoch column is
    sorted, so each epoch is one contiguous slice."""
    realized = trace.realized_regret
    epochs = trace.epoch
    bounds = [0, *(np.flatnonzero(np.diff(epochs)) + 1).tolist(), len(epochs)]
    return [
        EpochSummary(
            epoch=int(epochs[lo]),
            count=hi - lo,
            mean_realized_regret=float(realized[lo:hi].mean()),
        )
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


def aggregate_runs(per_run_summaries: list[list[EpochSummary]]):
    """Cross-run mean and normal-approximation 95% CI of per-epoch realized
    regret. Returns a list of dicts, one per epoch. The runs must share their
    epochs, as the runs of one config do."""
    if not per_run_summaries:
        raise ValueError("need at least one run")
    epochs = [s.epoch for s in per_run_summaries[0]]
    if any([s.epoch for s in run] != epochs for run in per_run_summaries):
        raise ValueError("runs must share their epochs")
    rows = []
    for i, m in enumerate(epochs):
        vals = np.array([run[i].mean_realized_regret for run in per_run_summaries])
        mean = float(vals.mean())
        if len(vals) > 1:
            half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
        else:
            half = 0.0
        rows.append(
            {
                "epoch": m,
                "mean": mean,
                "ci_low": mean - half,
                "ci_high": mean + half,
            }
        )
    return rows
