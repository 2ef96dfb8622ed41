"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5 and 6 share two 50-run batches of the two-arm step/flat example at
T = 2^17; each batch takes about 5 s on a 2-core machine, and they are built
once per session.
"""

import math

import numpy as np
import pytest

from safebandit import (
    AlgorithmConfig,
    EpochSchedule,
    IntroExampleEnv,
    LinearChiSquaredRate,
    LinearPerArmOracle,
    TabularEnv,
    action_probs,
    realizable_linear_env,
    run_falcon_plus,
    run_safe_falcon,
    validate_rate,
)
from safebandit.analysis import (
    aggregate_runs,
    epoch_summaries,
    kernel_from_policy_distribution,
    lower_bound_instance_regret,
    lower_bound_sqrt_b_bruteforce,
    policy_distribution,
    policy_regret,
)
from safebandit.environments import LowerBoundEnv
from safebandit.harness import ExperimentConfig, first_flip_epoch, run_experiment

RUNS = 50
INTRO_T = 2**17
INTRO_DELTA = 0.05
INTRO_TAU1 = 2


def report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _intro_batch(runner, enable_avg_test):
    env = IntroExampleEnv()
    oracle = LinearPerArmOracle(2, 1)
    cfg = AlgorithmConfig(INTRO_TAU1, INTRO_DELTA, INTRO_T, enable_avg_test)
    return [runner(env, oracle, cfg, seed) for seed in range(RUNS)]


@pytest.fixture(scope="session")
def falcon_plus_batch():
    return _intro_batch(run_falcon_plus, False)


@pytest.fixture(scope="session")
def safe_falcon_batch():
    return _intro_batch(run_safe_falcon, True)


def _epoch_means(batch):
    epochs, mean, _, _ = aggregate_runs([epoch_summaries(t) for t in batch])
    return dict(zip(epochs.tolist(), mean.tolist()))


def test_criterion_1_kernel_laws():
    rng = np.random.Generator(np.random.Philox(0))
    ok = True
    for _ in range(10_000):
        K = int(rng.integers(2, 9))
        values = rng.random(K)
        gamma = float(rng.uniform(0.01, 200.0))
        p = action_probs(values, gamma)
        best = int(np.argmax(values))
        mask = np.arange(K) != best
        est_regret = float(np.sum(p * (values[best] - values)))
        ok = (
            ok
            and abs(p.sum() - 1.0) <= 1e-12
            and np.all(p >= 0)
            and np.all(p[mask] <= 1.0 / K + 1e-12)
            and est_regret <= K / gamma + 1e-12
        )
    assert report(1, ok, "10^4 random kernels obey the distribution and regret laws")


def test_criterion_2_lower_bound_instance():
    ok = True
    details = []
    rng = np.random.Generator(np.random.Philox(1))
    for K in (2, 3, 5):
        for B in np.linspace(0.0, 1.0 / (2 * K), 5):
            B = float(B)
            env = LowerBoundEnv(K, B)
            ok = ok and abs(env.per_arm_variance - B) < 1e-15
            brute = lower_bound_sqrt_b_bruteforce(K, B)
            ok = ok and abs(brute - math.sqrt(B)) < 1e-9
            expected = math.sqrt((K - 1) * B)
            bound = math.sqrt(K * B / 2.0)
            for _ in range(100):
                g = rng.random(K)
                g /= g.sum()
                r = lower_bound_instance_regret(K, B, g)
                ok = ok and abs(r - expected) < 1e-12 and r >= bound - 1e-12
        details.append(f"K={K} ok")
    assert report(2, ok, "; ".join(details))


def test_criterion_3_kernel_policy_duality():
    rng = np.random.Generator(np.random.Philox(2))
    ok = True
    for _ in range(100):
        n_contexts = int(rng.integers(2, 5))
        K = int(rng.integers(2, 4))
        env = TabularEnv(rng.random((n_contexts, K)))
        p = rng.random((n_contexts, K)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        policies, Q = policy_distribution(p, env)
        back = kernel_from_policy_distribution(policies, Q, env)
        ok = ok and np.max(np.abs(back - p)) <= 1e-12
        table = rng.random((n_contexts, K))
        lhs = sum(q * policy_regret(table, pi, env) for pi, q in zip(policies, Q))
        best = table.max(axis=1)
        rhs = float(np.sum(env.context_probs[:, None] * p * (best[:, None] - table)))
        ok = ok and abs(lhs - rhs) <= 1e-10
    assert report(3, ok, "100 random tabular instances")


def test_criterion_4_test_validity_realizable():
    env = realizable_linear_env(2, dim=1, coefficient_seed=20210229)
    oracle = LinearPerArmOracle(2, 1)
    cfg = AlgorithmConfig(32, 0.05, 2**14, True)
    safe_at_T = 0
    for seed in range(RUNS):
        trace = run_safe_falcon(env, oracle, cfg, seed)
        safe_at_T += int(bool(trace.safe[-1]))
    ok = safe_at_T >= 47
    assert report(4, ok, f"safe at T in {safe_at_T}/50 realizable runs (need >= 47)")


def test_criterion_5_figure1_qualitative(falcon_plus_batch):
    means = _epoch_means(falcon_plus_batch)
    values = [means[m] for m in sorted(means)]
    last3 = float(np.mean(values[-3:]))
    lowest = float(min(values))
    ok = last3 >= 1.2 * lowest
    assert report(
        5,
        ok,
        f"last-3-epoch mean {last3:.4f} vs min {lowest:.4f} "
        f"(ratio {last3 / lowest:.3f}, need >= 1.2)",
    )


def test_criterion_6_figure2_qualitative(falcon_plus_batch, safe_falcon_batch):
    schedule = EpochSchedule(INTRO_TAU1)
    flips = [first_flip_epoch(t) for t in safe_falcon_batch]
    n_flipped = sum(f is not None for f in flips)
    n_late = sum(f is not None and f >= 8 for f in flips)
    ok_a = n_flipped >= 45 and n_late >= 40

    # (b) slope of post-flip per-epoch regret per run, over epochs entirely
    # after the detection round
    contains_zero = []
    for trace in safe_falcon_batch:
        if trace.detection_round is None:
            continue
        epochs, _, means = epoch_summaries(trace)
        post = [
            (m, mean)
            for m, mean in zip(epochs.tolist(), means.tolist())
            if schedule.tau(m - 1) >= trace.detection_round
        ]
        if len(post) < 3:
            continue
        xs = np.array([m for m, _ in post], dtype=float)
        ys = np.array([mean for _, mean in post])
        X = np.column_stack([np.ones_like(xs), xs])
        beta, res, _, _ = np.linalg.lstsq(X, ys, rcond=None)
        dof = len(xs) - 2
        sigma2 = float(res[0]) / dof if len(res) and dof > 0 else 0.0
        se = math.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1]) if sigma2 > 0 else 0.0
        slope = float(beta[1])
        contains_zero.append(abs(slope) <= 1.96 * se)
    ok_b = len(contains_zero) > 0 and np.mean(contains_zero) >= 0.9

    falcon_means = _epoch_means(falcon_plus_batch)
    safe_means = _epoch_means(safe_falcon_batch)
    last = max(falcon_means)
    ok_c = safe_means[last] < falcon_means[last]

    dist = sorted(f for f in flips if f is not None)
    ok = ok_a and ok_b and ok_c
    assert report(
        6,
        ok,
        f"(a) flips {n_flipped}/50, epoch>=8 in {n_late}/50 [{'ok' if ok_a else 'fail'}]; "
        f"(b) {sum(contains_zero)}/{len(contains_zero)} slope CIs contain 0 "
        f"[{'ok' if ok_b else 'fail'}]; "
        f"(c) final-epoch {safe_means[last]:.4f} vs {falcon_means[last]:.4f} "
        f"[{'ok' if ok_c else 'fail'}]; flip epochs {dist}",
    )


def test_criterion_7_rate_validity():
    ok = True
    for delta in (0.3, 0.05, 0.01):
        ok = ok and validate_rate(LinearChiSquaredRate(), delta, 10**6) == []

    class HalfFloor(LinearChiSquaredRate):
        def xi(self, n, zeta):
            return super().xi(n, zeta) / 4.0  # half of the ln(1/zeta)/n floor

    ok = ok and validate_rate(HalfFloor(), 0.05, 10**6) != []
    assert report(7, ok, "chi^2_2 rate valid for delta in {0.3, 0.05, 0.01}; half-floor rejected")


def test_criterion_8_determinism(tmp_path):
    identical = True
    for algorithm in ("safe-falcon", "falcon-plus"):
        paths = []
        for tag in ("a", "b"):
            cfg = ExperimentConfig(
                algorithm=algorithm,
                env="intro-example",
                tau1=4,
                delta=0.05,
                horizon=256,
                runs=3,
                seed=11,
                out=str(tmp_path / f"{algorithm}-{tag}"),
            )
            paths.append(run_experiment(cfg))
        for key in ("trace", "epochs", "svg"):
            with open(paths[0][key], "rb") as fa, open(paths[1][key], "rb") as fb:
                identical = identical and fa.read() == fb.read()
    assert report(8, identical, "re-running a config reproduces CSV/SVG byte-for-byte")
