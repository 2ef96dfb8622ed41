"""Helpers shared by the test modules."""

import numpy as np

from safebandit import BanditEnvironment, realizable_linear_env


def same_bits(a, b):
    """Equal dtypes, shapes and bytes, so the signs of zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def batch_of_one(env):
    """``env``'s rounds as row 0 of a batch of one."""
    return lambda rng: tuple(a[0] for a in env.sample_batch(rng, 1))


def coefficients(rng, K, dim):
    """Means that leave [0, 1] on both sides, some zero terms negative."""
    intercepts = rng.uniform(-0.5, 1.5, K)
    slopes = rng.uniform(-1.0, 1.0, (K, dim))
    slopes[rng.random((K, dim)) < 0.2] = 0.0
    intercepts[rng.random(K) < 0.2] = -0.0
    return intercepts, slopes


class Edited(BanditEnvironment):
    """Stateful: ``edit(t, x, means, rewards)`` of round t, counted from 1 and
    never reset, as ``row(rng)`` draws it, by default ``inner.sample``."""

    def __init__(self, inner, edit, row=None):
        self.edit, self.row = edit, row or inner.sample
        self.K, self.dim = inner.K, inner.dim
        self.t = 0

    def sample(self, rng):
        self.t += 1
        return self.edit(self.t, *self.row(rng))


def shifted_realizable_k5():
    """Realizable K = 5 whose means and rewards drop by 5 after round 2048:
    with tau1 = 64, Safe-FALCON detects the shift in epoch 8 and plays the
    rest of the run on the fallback kernel."""
    return Edited(realizable_linear_env(5, 1, coefficient_seed=20210229),
                  lambda t, x, m, r: (x, m - 5.0, r - 5.0) if t > 2048 else (x, m, r))
