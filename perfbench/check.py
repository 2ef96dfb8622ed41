"""Output check for one replication.

The check does not depend on how the program lays out its random streams.
It checks structural invariants of the trace and then replays the
misspecification tests on the trace's own rewards, using only the package's
reference functions (``safety_check_times``, ``choose_safe``,
``check_is_safe``, ``avg_epoch_check``). The replayed detection round and
fallback epoch must equal the ones the run recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from safebandit import (
    AlgorithmConfig,
    EpochSchedule,
    LinearPerArmOracle,
    avg_epoch_check,
    check_is_safe,
    choose_safe,
    safety_check_times,
)

# A test statistic this close to its threshold, relative to its size, is
# within float rounding of it: the outcome is indeterminate, not a failure.
REL_TOL = 1e-9


@dataclass
class CheckResult:
    errors: list[str] = field(default_factory=list)
    detection_round: int | None = None
    checks: int = 0
    fallback_rounds: int = 0
    indeterminate: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


def _undecided(test, value: float) -> bool:
    """True when nudging ``value`` by the rounding tolerance flips ``test``."""
    eps = REL_TOL * max(1.0, abs(value))
    return test(value - eps) != test(value + eps)


def _invariants(trace, T: int, schedule: EpochSchedule, run_checks: bool) -> list[str]:
    errors = []
    n = len(trace)
    if n != T:
        return [f"trace has {n} rounds, expected {T}"]
    idx = np.arange(T)
    expected_epoch = np.empty(T, dtype=int)
    m = 1
    while schedule.tau(m - 1) < T:
        lo, hi = schedule.tau(m - 1), min(schedule.tau(m), T)
        if schedule.epoch_of(lo + 1) != m or schedule.epoch_of(hi) != m:
            errors.append(f"EpochSchedule.epoch_of disagrees with tau at epoch {m}")
        expected_epoch[lo:hi] = m
        m += 1
    if not np.array_equal(trace.epoch, expected_epoch):
        errors.append("epoch column does not match EpochSchedule.epoch_of")
    if not np.array_equal(trace.rewards, trace.reward_vectors[idx, trace.actions]):
        errors.append("chosen rewards differ from the reward vectors at the chosen arms")

    d = trace.detection_round
    if d is None:
        if not trace.safe.all():
            errors.append("safe flag false although no detection was recorded")
    elif not run_checks:
        errors.append(f"detection at round {d} in a run without checks")
    elif not 1 <= d <= T:
        errors.append(f"detection round {d} outside 1..{T}")
    else:
        if not trace.safe[: d - 1].all():
            errors.append("safe flag false before the detection round")
        if trace.safe[d - 1 :].any():
            errors.append("safe flag true from the detection round onward")
        if np.any(trace.m_hat[d - 1 :] != trace.m_hat_final):
            errors.append("m_hat changes after detection")
    if trace.m_hat[-1] != trace.m_hat_final:
        errors.append("last m_hat differs from m_hat_final")
    return errors


def check_trace(trace, config: AlgorithmConfig, run_checks: bool) -> CheckResult:
    """Check one replication played with ``config``.

    ``run_checks`` is true for Safe-FALCON and false for FALCON+. The result
    carries the replayed detection round, the number of check times
    evaluated, and the number of rounds played on the fallback kernel.
    """
    T = config.horizon
    schedule = EpochSchedule(config.tau1)
    result = CheckResult(errors=_invariants(trace, T, schedule, run_checks))
    if result.errors:
        return result

    K = trace.reward_vectors.shape[1]
    rate = LinearPerArmOracle(K, trace.contexts.shape[1]).rate
    dp = config.delta_prime
    rewards = np.asarray(trace.rewards, dtype=float)
    crwd = np.cumsum(rewards)
    recorded = trace.detection_round

    l_prev, m_hat, detection = 0.0, 0, None
    m = 1
    while detection is None and schedule.tau(m - 1) < T:
        lo, hi = schedule.tau(m - 1), min(schedule.tau(m), T)
        if run_checks and m >= 2:
            epoch_sum = np.cumsum(rewards[lo:hi])
            for t in safety_check_times(m, schedule):
                if t > T:
                    break
                result.checks += 1

                def cumulative(c, t=t):
                    return check_is_safe(m, t, l_prev, c, schedule, rate, dp, K)

                def average(mean, t=t):
                    return avg_epoch_check(t, m, l_prev, mean, schedule, rate, dp, K)

                tests = [(cumulative, float(crwd[t - 1]))]
                if config.enable_avg_epoch_test:
                    tests.append((average, float(epoch_sum[t - lo - 1]) / (t - lo)))
                safe = True
                for test, value in tests:
                    if _undecided(test, value):
                        result.indeterminate += 1
                        safe = recorded != t
                    else:
                        safe = test(value)
                    if not safe:
                        break
                if not safe:
                    detection = t
                    break
        if detection is None and hi == schedule.tau(m):
            l_prev, m_hat = choose_safe(m, rewards[lo:hi], l_prev, m_hat, dp)
        m += 1

    result.detection_round = detection
    if detection != recorded:
        result.errors.append(f"replayed detection round {detection} != recorded {recorded}")
    if m_hat != trace.m_hat_final:
        result.errors.append(f"replayed m_hat {m_hat} != recorded {trace.m_hat_final}")
    if detection is not None:
        result.fallback_rounds = T - detection
    return result
