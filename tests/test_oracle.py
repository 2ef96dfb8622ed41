"""Unit tests for estimation rates, rate validation, and the OLS oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit import (
    AlgorithmConfig,
    CommonRate,
    Dataset,
    IntroExampleEnv,
    LinearChiSquaredRate,
    LinearPerArmOracle,
    run_falcon_plus,
    validate_rate,
)
from support import Edited, batch_of_one


class TestLinearChiSquaredRate:
    def test_frozen_values(self):
        rate = LinearChiSquaredRate()
        # -2 ln(0.05) / 100
        assert float(rate.xi(100, 0.05)) == pytest.approx(0.0599146, abs=1e-7)
        # 2 ln(e) / 1
        assert float(rate.xi(1, math.exp(-1))) == pytest.approx(2.0, abs=1e-12)

    def test_broadcasts(self):
        rate = LinearChiSquaredRate()
        out = rate.xi(np.array([10, 20]), 0.1)
        np.testing.assert_allclose(out, [-2 * math.log(0.1) / 10, -2 * math.log(0.1) / 20])


class TestCommonRate:
    def test_matches_formula(self):
        rate = CommonRate(C=2.0, rho=1.0, rho_prime=1.0, comp=3.0, n0=2)
        n, zeta = 50, 0.05
        expected = 2.0 * math.log(50) * math.log(1 / 0.05) * 3.0 / 50
        assert float(rate.xi(n, zeta)) == pytest.approx(expected, rel=1e-12)

    def test_clamped_below_n0(self):
        rate = CommonRate(C=1.0, rho=1.0, rho_prime=0.0, comp=1.0, n0=10)
        assert float(rate.xi(5, 0.1)) == 1.0


class TestValidateRate:
    @pytest.mark.parametrize("n_max", [4.5, 1000.0, np.float64(100), True])
    def test_non_integer_n_max_raises(self, n_max):
        # a float would check a float grid, and a bool is no count
        with pytest.raises(TypeError):
            validate_rate(LinearChiSquaredRate(), 0.05, n_max)

    def test_common_rate_passes(self):
        rate = CommonRate(C=4.0, rho=1.0, rho_prime=0.0, comp=1.0, n0=2)
        failures = validate_rate(rate, 0.05, 10_000)
        assert failures == []

    def test_half_floor_rate_fails(self):
        class HalfFloor(LinearChiSquaredRate):
            def xi(self, n, zeta):
                return super().xi(n, zeta) / 4.0  # half of ln(1/zeta)/n

        failures = validate_rate(HalfFloor(), 0.05, 1000)
        assert failures
        assert any("floor" in f for f in failures)

    def test_non_monotone_rate_fails(self):
        class Bumpy(LinearChiSquaredRate):
            def xi(self, n, zeta):
                n = np.asarray(n, dtype=float)
                return super().xi(n, zeta) * (1.0 + 0.5 * (np.floor(n) % 7 == 0))

        failures = validate_rate(Bumpy(), 0.05, 1000)
        assert failures
        assert any("monotonicity" in f for f in failures)

    def test_nan_everywhere_fails(self):
        rate = CommonRate(C=float("nan"), rho=1.0, rho_prime=0.0, comp=1.0)
        failures = validate_rate(rate, 0.05, 100)
        assert failures == [
            "xi not finite at n=3, zeta=delta/ln(n): xi=nan",
            "xi not finite at n=2, zeta=0.001: xi=nan",
            "xi not finite at n=2, zeta=delta/ln(n): xi=nan",
        ]

    def test_nan_at_one_n_fails(self):
        # n = 500 is on the monotonicity grid only, not on the floor grid
        class NanAt500(CommonRate):
            def xi(self, n, zeta):
                vals = super().xi(n, zeta)
                return np.where(np.asarray(n) == 500, np.nan, vals)

        rate = NanAt500(C=4.0, rho=1.0, rho_prime=0.0, comp=1.0)
        failures = validate_rate(rate, 0.05, 1000)
        assert failures == ["xi not finite at n=500, zeta=delta/ln(n): xi=nan"]
        assert validate_rate(NanAt500(4.0, 1.0, 0.0, 1.0), 0.05, 499) == []

    def test_inf_fails(self):
        rate = CommonRate(C=float("inf"), rho=1.0, rho_prime=0.0, comp=1.0)
        failures = validate_rate(rate, 0.05, 100)
        assert failures
        assert all("xi not finite" in f and "xi=inf" in f for f in failures)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            validate_rate(LinearChiSquaredRate(), 1.5, 100)
        with pytest.raises(ValueError):
            validate_rate(LinearChiSquaredRate(), 0.05, 3)


def dataset(rows):
    """Dataset of (context, arm, reward) rows."""
    xs, arms, rewards = zip(*rows)
    return Dataset(np.array(xs, dtype=float), np.array(arms), np.array(rewards, dtype=float))


class TestLinearPerArmOracle:
    def test_recovers_exact_linear_data(self):
        rng = np.random.Generator(np.random.Philox(7))
        intercepts = [0.3, 0.6]
        slopes = [0.4, -0.2]
        data = []
        for _ in range(60):
            x = rng.random()
            a = int(rng.integers(2))
            data.append((np.array([x]), a, intercepts[a] + slopes[a] * x))
        model = LinearPerArmOracle(K=2, dim=1).fit(dataset(data))
        np.testing.assert_allclose(model.intercepts, intercepts, atol=1e-9)
        np.testing.assert_allclose(model.slopes[:, 0], slopes, atol=1e-9)

    def test_matches_normal_equations(self):
        # independent oracle: solve X'X beta = X'y by hand for one arm
        rng = np.random.Generator(np.random.Philox(11))
        xs = rng.random(40)
        ys = 0.2 + 0.5 * xs + rng.normal(0, 0.05, 40)
        data = Dataset(xs[:, None], np.zeros(40, dtype=int), ys)
        model = LinearPerArmOracle(K=1, dim=1).fit(data)
        X = np.column_stack([np.ones(40), xs])
        beta = np.linalg.solve(X.T @ X, X.T @ ys)
        assert model.intercepts[0] == pytest.approx(beta[0], abs=1e-10)
        assert model.slopes[0, 0] == pytest.approx(beta[1], abs=1e-10)

    def test_unseen_arm_defaults_to_half(self):
        data = dataset([(np.array([0.1]), 0, 0.4), (np.array([0.9]), 0, 0.8)])
        model = LinearPerArmOracle(K=2, dim=1).fit(data)
        assert model.values([0.3])[1] == pytest.approx(0.5)

    def test_degenerate_design_falls_back_to_mean(self):
        # all contexts identical: rank-deficient design, use the mean
        data = dataset([(np.array([0.4]), 0, 0.2), (np.array([0.4]), 0, 0.6)])
        model = LinearPerArmOracle(K=1, dim=1).fit(data)
        assert model.intercepts[0] == pytest.approx(0.4)
        assert model.slopes[0, 0] == 0.0

    def test_single_sample_uses_mean(self):
        model = LinearPerArmOracle(K=1, dim=1).fit(dataset([(np.array([0.3]), 0, 0.7)]))
        assert model.intercepts[0] == pytest.approx(0.7)

    def test_no_more_samples_than_dims_uses_mean(self):
        # n <= dim: the design's rank is below dim + 1
        rng = np.random.Generator(np.random.Philox(5))
        for n in (1, 2, 3):
            xs, rewards = rng.random((n, 3)), rng.random(n)
            model = LinearPerArmOracle(K=1, dim=3).fit(Dataset(xs, np.zeros(n, dtype=int), rewards))
            assert model.intercepts[0] == rewards.mean()
            np.testing.assert_array_equal(model.slopes, np.zeros((1, 3)))

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            LinearPerArmOracle(K=2, dim=1).fit(Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), np.zeros(0)))

    def test_deterministic(self):
        rng = np.random.Generator(np.random.Philox(3))
        data = dataset([
            (np.array([rng.random()]), int(rng.integers(2)), rng.random())
            for _ in range(30)
        ])
        a = LinearPerArmOracle(K=2, dim=1).fit(data)
        b = LinearPerArmOracle(K=2, dim=1).fit(data)
        np.testing.assert_array_equal(a.intercepts, b.intercepts)
        np.testing.assert_array_equal(a.slopes, b.slopes)

    @pytest.mark.parametrize("bad", [5, 2, -1])
    def test_action_outside_the_arms_raises(self, bad):
        data = Dataset(np.zeros((3, 1)), np.array([0, 1, bad]), np.zeros(3))
        with pytest.raises(ValueError, match="0..1"):
            LinearPerArmOracle(K=2, dim=1).fit(data)

    @pytest.mark.parametrize("actions", [np.array([0.0, 0.7, 1.0]), np.array([False, True, True])])
    def test_non_integer_actions_raise(self, actions):
        data = Dataset(np.zeros((3, 1)), actions, np.zeros(3))
        with pytest.raises(ValueError, match="integers"):
            LinearPerArmOracle(K=2, dim=1).fit(data)

    def test_zero_dimensional_actions_raise_value_error(self):
        # judged by shape before any length is taken: no TypeError from len()
        data = Dataset(np.zeros((1, 1)), np.int64(0), np.zeros(1))
        with pytest.raises(ValueError, match="one reward per action"):
            LinearPerArmOracle(K=2, dim=1).fit(data)

    @pytest.mark.parametrize("n_rewards", [2, 4])
    def test_rewards_of_another_length_raise(self, n_rewards):
        data = Dataset(np.zeros((3, 1)), np.array([0, 1, 0]), np.zeros(n_rewards))
        with pytest.raises(ValueError, match="one reward per action"):
            LinearPerArmOracle(K=2, dim=1).fit(data)

    @pytest.mark.parametrize(
        "bad, arm_rows",
        [(np.inf, 3), (-np.inf, 3), (np.nan, 3), (np.nan, 1), (np.inf, 1)],
        ids=["inf-in-fitted-arm", "-inf-in-fitted-arm", "nan-in-fitted-arm",
             "nan-in-one-row-arm", "inf-in-one-row-arm"],
    )
    def test_non_finite_context_raises_before_lstsq(self, bad, arm_rows, capfd):
        # arm 0 has arm_rows rows, the last holding the bad context; with
        # one row it would take its mean, with more it would be solved (the
        # name is from the lstsq fit, where LAPACK wrote to stderr before
        # raising LinAlgError); nothing may be written either way
        xs = np.linspace(0.1, 0.9, arm_rows + 2)[:, None]
        xs[arm_rows - 1, 0] = bad
        arms = np.array([0] * arm_rows + [1, 1])
        data = Dataset(xs, arms, np.full(arm_rows + 2, 0.5))
        with pytest.raises(ValueError, match="contexts must be finite"):
            LinearPerArmOracle(K=2, dim=1).fit(data)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arm_rows", [1, 3])
    def test_non_finite_reward_raises(self, bad, arm_rows):
        # in an arm that would take its mean (one row) or be solved
        rewards = np.full(arm_rows + 2, 0.5)
        rewards[arm_rows - 1] = bad
        data = Dataset(np.linspace(0.1, 0.9, arm_rows + 2)[:, None],
                       np.array([0] * arm_rows + [1, 1]), rewards)
        with pytest.raises(ValueError, match="rewards must be finite"):
            LinearPerArmOracle(K=2, dim=1).fit(data)

    def test_nan_reward_in_a_run_raises(self):
        """One NaN reward in epoch 4 stops the run at the fit; a NaN fit
        would have epoch 5 play arm 0 in all of its 16 rounds."""

        # tau1 = 2: epoch 4 holds rounds 9 to 16
        nan_at_10 = Edited(IntroExampleEnv(),
                           lambda t, x, m, r: (x, m, np.full(2, np.nan) if t == 10 else r),
                           batch_of_one(IntroExampleEnv()))
        cfg = AlgorithmConfig(tau1=2, delta=0.05, horizon=4096)
        with pytest.raises(ValueError, match="rewards must be finite"):
            run_falcon_plus(nan_at_10, LinearPerArmOracle(2, 1), cfg, seed=0)

    @pytest.mark.parametrize("rows", [3, 7, 13])
    def test_constant_contexts_fall_back_to_mean(self, rows):
        # 0.1's mean over these rows rounds, so the centred contexts are not
        # all zero: a rule on the centred Gram alone would keep slopes of
        # 2.29 and -8.62 at 7 and 13 rows here, where lstsq sees rank 1 and
        # takes the mean
        xs = np.full((rows, 1), 0.1)
        assert np.add.reduce((xs[:, 0] - xs[:, 0].mean()) ** 2) > 0
        rewards = np.random.Generator(np.random.Philox(rows)).normal(0.5, 1.0, rows)
        data = Dataset(xs, np.zeros(rows, dtype=int), rewards)
        assert lstsq_form_fit(1, 1, data)[2] == {0}
        model = LinearPerArmOracle(K=1, dim=1).fit(data)
        assert model.intercepts[0] == rewards.mean()
        assert model.slopes[0, 0] == 0.0

    @pytest.mark.parametrize("factor", [2.0, 3.0, -0.7])
    @pytest.mark.parametrize("rows", [4, 7, 300])
    def test_dim_a_multiple_of_another_falls_back_to_mean(self, factor, rows):
        # collinear up to the rounding of factor * x: rank 2 of 3, as lstsq sees it
        rng = np.random.Generator(np.random.Philox(rows))
        x = rng.uniform(-1.0, 2.0, rows)
        xs = np.column_stack([x, factor * x])
        rewards = rng.normal(0.5, 1.0, rows)
        data = Dataset(xs, np.zeros(rows, dtype=int), rewards)
        assert lstsq_form_fit(1, 2, data)[2] == {0}
        model = LinearPerArmOracle(K=1, dim=2).fit(data)
        assert model.intercepts[0] == rewards.mean()
        np.testing.assert_array_equal(model.slopes, np.zeros((1, 2)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_contexts_far_from_zero_keep_their_digits(self, dim):
        # centred moments: raw sums of x x' at 1e4 would lose eight digits
        rng = np.random.Generator(np.random.Philox(dim))
        xs = 1e4 + rng.random((500, dim))
        arms = rng.integers(0, 2, 500)
        rewards = 0.3 + xs @ np.linspace(0.5, -0.5, dim) * 1e-4 + rng.normal(0, 0.1, 500)
        data = Dataset(xs, arms, rewards)
        model = LinearPerArmOracle(K=2, dim=dim).fit(data)
        _, slopes, fallback, _ = lstsq_form_fit(2, dim, data)
        assert fallback == set()
        np.testing.assert_allclose(model.slopes, slopes, rtol=0, atol=1e-8)

    def test_dim_zero_fits_the_means(self):
        rewards = np.array([0.2, 0.9, 0.4, -0.3, 0.7])
        arms = np.array([0, 2, 0, 2, 2])
        model = LinearPerArmOracle(K=3, dim=0).fit(Dataset(np.zeros((5, 0)), arms, rewards))
        np.testing.assert_array_equal(model.intercepts, [rewards[[0, 2]].mean(), 0.5, rewards[[1, 3, 4]].mean()])
        assert model.slopes.shape == (3, 0)
        np.testing.assert_array_equal(model.values(np.zeros((2, 0))), np.clip([model.intercepts] * 2, 0, 1))

    @pytest.mark.parametrize(
        "dim, shape",
        [(1, (4, 2)), (2, (8, 1)), (2, (8,)), (2, (16,)), (1, (8, 1, 1)), (1, (7, 1)), (0, (8,)), (0, (8, 1)),
         (1, (8,))],
        ids=lambda v: str(v).replace(" ", ""),
    )
    def test_contexts_of_another_shape_raise(self, dim, shape):
        # (4, 2) contexts for 8 rows at dim 1, or (8, 1) for 4 rows at dim
        # 2, hold as many values as the right shape: a reshape would fit
        # them; nor are flat (8,) contexts a column at dim 1
        n = 4 if shape == (8, 1) and dim == 2 else 8
        data = Dataset(np.zeros(shape), np.arange(n) % 2, np.zeros(n))
        with pytest.raises(ValueError, match="contexts of shape"):
            LinearPerArmOracle(K=2, dim=dim).fit(data)

    @pytest.mark.parametrize(
        "K, dim, error",
        [(0, 1, ValueError), (-2, 1, ValueError), (2, -1, ValueError), (2.5, 1, TypeError),
         (True, 1, TypeError), (2, True, TypeError), (2, 1.0, TypeError), ("2", 1, TypeError)],
    )
    def test_bad_arms_or_dim_raise(self, K, dim, error):
        with pytest.raises(error):
            LinearPerArmOracle(K, dim)

    def test_numpy_integer_arms_and_dim(self):
        oracle = LinearPerArmOracle(np.int64(3), np.uint8(2))
        assert (oracle.K, oracle.dim) == (3, 2)
        assert type(oracle.K) is int and type(oracle.dim) is int

    def test_unsigned_actions_fit_as_signed(self):
        rng = np.random.Generator(np.random.Philox(2))
        xs, rewards = rng.random((40, 2)), rng.random(40)
        arms = rng.integers(0, 3, 40)
        oracle = LinearPerArmOracle(K=3, dim=2)
        a = oracle.fit(Dataset(xs, arms, rewards))
        b = oracle.fit(Dataset(xs, arms.astype(np.uint8), rewards))
        assert a.intercepts.tobytes() == b.intercepts.tobytes()
        assert a.slopes.tobytes() == b.slopes.tobytes()


def mask_form_fit(K, dim, data):
    """LinearPerArmOracle.fit's formula, written out with a boolean mask per
    arm selecting its rows: the arm's contexts and rewards as rows of one
    (dim + 1, m) array, their means, each centred moment as numpy's add
    reduction of one row product, and Gaussian elimination in order under
    the rank rule of the class docstring. Returns the intercepts, the
    slopes and the set of arms that took their mean for lack of rank."""
    eps = np.finfo(float).eps
    xs = np.asarray(data.contexts, dtype=float).reshape(len(data), dim)
    arms = np.asarray(data.actions, dtype=int)
    rewards = np.asarray(data.rewards, dtype=float)
    intercepts = np.full(K, 0.5)
    slopes = np.zeros((K, dim))
    fallback = set()
    for a in range(K):
        mask = arms == a
        m = int(mask.sum())
        if m == 0:
            continue
        # one 1-d row per context dim, so the block is C-ordered and each
        # row's sum is pairwise, as in the fit
        block = np.vstack([*xs[mask].T, rewards[mask]])
        means = np.add.reduce(block, axis=1) / m
        if m <= dim:
            intercepts[a] = means[dim]
            fallback.add(a)
            continue
        centred = block - means[:, None]
        # [G | c]: row i holds sum(x_i x_j) over j < dim, then sum(x_i r)
        gc = np.array([[np.add.reduce(centred[i] * centred[j]) for j in range(dim + 1)]
                       for i in range(dim)]).reshape(dim, dim + 1)
        k = max(m, dim + 1)
        norm2 = m
        for d in range(dim):
            norm2 += gc[d, d] + m * means[d] ** 2
        floor = (eps * k) ** 2 * norm2
        g = gc.copy()
        full_rank = True
        for j in range(dim):
            if not g[j, j] > max(floor, 16.0 * eps * k * gc[j, j]):
                full_rank = False
                break
            for i in range(j + 1, dim):
                g[i, j + 1:] -= (g[i, j] / g[j, j]) * g[j, j + 1:]
        if not full_rank:
            intercepts[a] = means[dim]
            fallback.add(a)
            continue
        beta = np.zeros(dim)
        for j in reversed(range(dim)):
            s = g[j, dim]
            for col in range(j + 1, dim):
                s -= g[j, col] * beta[col]
            beta[j] = s / g[j, j]
        intercept = means[dim]
        for d in range(dim):
            intercept -= beta[d] * means[d]
        intercepts[a] = intercept
        slopes[a] = beta
    return intercepts, slopes, fallback


def lstsq_form_fit(K, dim, data):
    """The lstsq fit that the moment form replaced: a boolean mask per arm
    selects the rows, ``np.hstack`` builds the design, and lstsq (default
    rcond) runs for every arm with rows. Returns the intercepts, the slopes,
    the set of arms that took their mean and, per fitted arm, the design's
    condition number."""
    xs = np.asarray(data.contexts, dtype=float).reshape(len(data), dim)
    arms = np.asarray(data.actions, dtype=int)
    rewards = np.asarray(data.rewards, dtype=float)
    intercepts = np.full(K, 0.5)
    slopes = np.zeros((K, dim))
    fallback, conditions = set(), {}
    for a in range(K):
        mask = arms == a
        n = int(mask.sum())
        if n == 0:
            continue
        xa = xs[mask]
        ra = rewards[mask]
        design = np.hstack([np.ones((n, 1)), xa])
        coef, _, rank, singular = np.linalg.lstsq(design, ra, rcond=None)
        if rank < dim + 1:
            intercepts[a] = ra.mean()
            fallback.add(a)
        else:
            intercepts[a] = coef[0]
            slopes[a] = coef[1:]
            conditions[a] = singular[0] / singular[-1]
    return intercepts, slopes, fallback, conditions


@st.composite
def epoch_data(draw):
    """An epoch's rows where some arms have no rows, one row, at most dim
    rows or many; contexts from a coarse grid, so rows repeat and designs
    lose rank; some rewards -0.0, and in some epochs NaN."""
    K, dim = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**63 - 1))))
    counts = [draw(st.sampled_from([0, 1, dim, dim + 1, 7, 300])) for _ in range(K)]
    if sum(counts) == 0:
        counts[0] = 1
    arms = rng.permutation(np.repeat(np.arange(K), counts))
    n = len(arms)
    grid = draw(st.sampled_from([0, 1, 3]))
    xs = rng.uniform(-1.0, 2.0, (n, dim))
    if grid:
        xs = np.round(xs * grid) / grid
    rewards = rng.normal(0.5, 1.0, n)
    rewards[rng.random(n) < 0.1] = -0.0
    if draw(st.booleans()):
        rewards[rng.random(n) < 0.05] = np.nan
    return K, dim, Dataset(xs, arms, rewards)


@settings(max_examples=80, deadline=None)
@given(case=epoch_data())
def test_fit_equals_mask_form(case):
    K, dim, data = case
    if np.isnan(data.rewards).any():
        with pytest.raises(ValueError, match="rewards must be finite"):
            LinearPerArmOracle(K, dim).fit(data)
        return
    model = LinearPerArmOracle(K, dim).fit(data)
    intercepts, slopes, _ = mask_form_fit(K, dim, data)
    assert model.intercepts.tobytes() == intercepts.tobytes()
    assert model.slopes.tobytes() == slopes.tobytes()


@settings(max_examples=80, deadline=None)
@given(case=epoch_data())
def test_fit_matches_lstsq(case):
    """The same arms take their mean as under lstsq, the rest get lstsq's
    coefficients within 64 eps kappa^2 of the largest (or of 1), kappa the
    design's condition number: the moments' normal equations square it.
    Over 60000 draws of epoch_data the error stayed below 15 eps kappa^2."""
    K, dim, data = case
    if np.isnan(data.rewards).any():
        return
    model = LinearPerArmOracle(K, dim).fit(data)
    _, _, fallback = mask_form_fit(K, dim, data)
    intercepts, slopes, lstsq_fallback, conditions = lstsq_form_fit(K, dim, data)
    assert fallback == lstsq_fallback
    for a in fallback:
        assert model.intercepts[a] == intercepts[a]
        assert not model.slopes[a].any()
    for a, kappa in conditions.items():
        got = np.concatenate([[model.intercepts[a]], model.slopes[a]])
        want = np.concatenate([[intercepts[a]], slopes[a]])
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 64 * np.finfo(float).eps * kappa**2 * scale
