"""Shared domain types: outcome models, epoch schedule, run traces."""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from numpy._core.umath import clip as _clip


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: as a ufunc operand it runs the same
    float64 loop as the Python float, with the same bits, without the
    float's conversion and promotion that numpy 2 repeats on each call."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


# the [0, 1] clamp's bounds, for _clip on the per-round path
_ZERO, _ONE = _constant(0.0), _constant(1.0)


class OutcomeModel:
    """Deterministic map from (context, arm) to a mean reward in [0, 1].

    Subclasses override ``values``, which maps an (n, dim) array of contexts
    to the (n, K) array of predictions, already clamped to [0, 1]. The
    built-in models also map one (dim,) context to its (K,) values, with the
    bits of row 0 of a batch of that one row.
    """

    def values(self, X) -> np.ndarray:
        raise NotImplementedError


class ConstantModel(OutcomeModel):
    """Context-independent model; one fixed value per arm."""

    def __init__(self, values):
        self._values = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)

    def values(self, X) -> np.ndarray:
        # (K,) for one context, (n, K) for a batch, as LinearPerArmModel's
        shape = np.shape(X)
        if len(shape) not in (1, 2):
            raise ValueError(f"contexts of shape {shape} for a constant model")
        return np.broadcast_to(self._values, shape[:-1] + self._values.shape)


def zero_model(K: int) -> ConstantModel:
    return ConstantModel(np.zeros(K))


class LinearPerArmModel(OutcomeModel):
    """Per-arm affine model: intercept[a] + slope[a] . x, clamped to [0, 1].

    ``values`` also takes one (dim,) context and returns its (K,) values,
    with the same bits as row 0 of a batch of that one row, except that
    where two NaNs meet the result's NaN payload may differ (the two shapes
    run different numpy loops).

    It sums arm-major, starting from the first context dim's product and
    adding the other dims in order, then the intercepts plus +0.0. Those
    are the bits of a sum started from +0.0: the two starts differ only when
    every product is -0.0, and then only in the sign of the zero, which the
    intercepts' +0.0 shift settles (c + 0.0 is c, except that -0.0 becomes
    +0.0). With no context dims the values are the clamped intercepts plus
    +0.0. The clamp calls numpy's ``clip`` ufunc directly, the one
    ``ndarray.clip`` ends in for float arrays, so its bits are those of
    ``ndarray.clip`` without its Python-level wrapper; its bounds are the
    module's read-only 0-d float64 constants ``_ZERO`` and ``_ONE``, which
    skip a Python float's per-call conversion.
    """

    def __init__(self, intercepts, slopes):
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        if self.slopes.shape[0] != self.intercepts.shape[0]:
            raise ValueError("one slope row per arm required")
        # arm-major views, taken once, by the number of context axes: (K,)
        # per context dim and the shifted intercepts against one context's
        # values, (K, 1) against a batch's columns
        dims = range(self.slopes.shape[1])
        shifted = self.intercepts + 0.0
        self._arm_major = {
            1: ([self.slopes[:, d] for d in dims], shifted),
            2: ([self.slopes[:, d, None] for d in dims], shifted[:, None]),
        }

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # None unless X is one context or a batch
        views = self._arm_major.get(X.ndim)
        if views is None or X.shape[-1] != len(views[0]):
            raise ValueError(f"contexts of shape {X.shape} for a model of dim {self.slopes.shape[1]}")
        slope_columns, intercept_column = views
        # Arm-major (K,) or (K, n), summed over the context dims in order
        # from the first product: each row is rounded the same way whatever
        # the number of rows (a BLAS product is not), and every op runs
        # along the n rounds. With the intercepts' +0.0 shift the bits are
        # those of the sum started from +0.0 (class docstring).
        if slope_columns:
            total = slope_columns[0] * X[..., 0]
            for d in range(1, len(slope_columns)):
                total += slope_columns[d] * X[..., d]
            total += intercept_column
        else:
            # dim 0: no product to start from
            total = np.array(np.broadcast_to(intercept_column, self.intercepts.shape + X.shape[:-1]))
        # in place, out positional (numpy 2 parses out= on every call): _clip
        # is np.clip's ufunc, so the bits equal np.clip(total, 0, 1)
        return _clip(total, _ZERO, _ONE, total).T


# the largest epoch EpochSchedule takes: a run has at most 63 epochs, and
# tau of epoch 1024 is already an int of over 1024 bits
MAX_EPOCH = 1024


def _whole(n) -> int:
    """n as an int. A bool or any other non-integer, an array included,
    raises TypeError: ``operator.index`` alone takes a Python bool as 0 or
    1."""
    if isinstance(n, bool):
        raise TypeError("expected an integer, not a bool")
    return operator.index(n)


def _at_least(n, least: int, name: str) -> int:
    """``_whole(n)``, raising ValueError, which names ``name``, for an n
    below ``least``."""
    n = _whole(n)
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _epoch(m, least: int) -> int:
    """``_at_least(m, least)`` for an epoch, raising ValueError above
    ``MAX_EPOCH`` too."""
    m = _at_least(m, least, "epoch index")
    if m > MAX_EPOCH:
        raise ValueError(f"epoch index must be <= MAX_EPOCH = {MAX_EPOCH}")
    return m


@dataclass(frozen=True)
class EpochSchedule:
    """Doubling epoch boundaries: tau_0 = 0, tau_m = tau_1 * 2^(m-1)."""

    tau1: int

    def __post_init__(self):
        # a Python int, so that tau and epoch_of are exact for any round; a
        # bool raises TypeError, as every other count does
        object.__setattr__(self, "tau1", _whole(self.tau1))
        # a run's epoch sizes are int64 arrays
        if not 2 <= self.tau1 < 2**63:
            raise ValueError("tau1 must lie in [2, 2^63)")

    def tau(self, m: int) -> int:
        """tau_m, exact for any int epoch 0 <= m <= ``MAX_EPOCH``: a numpy
        int is taken as a Python int, so the shift does not wrap past int64.
        A bool or any other non-integer m raises TypeError."""
        m = _epoch(m, 0)
        if m == 0:
            return 0
        return self.tau1 << (m - 1)

    def epoch_of(self, t: int) -> int:
        """The epoch m with tau_{m-1} < t <= tau_m, in closed form: one plus
        the bit length of (t - 1) // tau_1. Exact for any int round t >= 1;
        a bool or any other non-integer t raises TypeError."""
        t = _at_least(t, 1, "round index")
        return 1 + ((t - 1) // self.tau1).bit_length()

    def epoch_size(self, m: int) -> int:
        """Rounds in epoch m >= 1: tau_1 in epochs 1 and 2, then doubling.
        Exact for any int epoch m <= ``MAX_EPOCH``; a bool, an array or any
        other non-integer m raises TypeError."""
        return self.tau1 << max(_epoch(m, 1) - 2, 0)

    def _sizes(self, last: int) -> np.ndarray:
        """The sizes of epochs 1 .. ``last``, an int >= 0, as int64, by the
        shifts of ``epoch_size``. A size of 2^63 or more raises ValueError,
        before any array is made."""
        last = _whole(last)
        if last - 2 > 63 - self.tau1.bit_length():
            raise ValueError("epoch sizes of 2^63 or more do not fit an int64 array")
        return self.tau1 << np.maximum(np.arange(1, last + 1) - 2, 0)


def _gather(R: np.ndarray, A: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = R[i, A[i]] for a C-contiguous (n, K) array R, through flat
    indices; returns ``out``."""
    at = np.arange(0, R.size, R.shape[1])
    at += A
    return np.take(R.reshape(-1), at, out=out)


def _narrowest_int(top: int):
    """The narrowest signed integer dtype that holds 0 .. top."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)


@dataclass
class RunTrace:
    """Per-round record of one bandit run.

    All arrays share the same length (number of rounds actually played).
    ``reward_vectors`` holds the full realized reward vector so counterfactual
    regret against the optimal arm can be recomputed after the fact.

    ``empty`` gives each integer column the narrowest signed dtype its range
    allows, derived from K alone, with no option:

    - ``epoch`` and ``m_hat``: int8. Epoch m starts after tau_{m-1} >= 2^(m-1)
      rounds and an array holds fewer than 2^63, so a run has at most 63
      epochs, and m_hat is at most the current epoch.
    - ``actions`` and ``optimal_arms``: arms 0 .. K - 1, so int8 up to
      K = 128, int16 up to K = 32768, then int32 and int64.
    - ``safe``: bool; ``contexts``, ``rewards``, ``reward_vectors`` and
      ``optimal_means``: float64.

    With K = 2 and one context dim a round takes 45 bytes.
    """

    epoch: np.ndarray
    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    reward_vectors: np.ndarray
    optimal_arms: np.ndarray
    optimal_means: np.ndarray
    safe: np.ndarray
    m_hat: np.ndarray
    detection_round: int | None = None
    m_hat_final: int = 0

    @classmethod
    def empty(cls, T: int, dim: int, K: int) -> "RunTrace":
        """Uninitialized columns for T rounds, filled in place by the loop;
        the integer columns in the dtypes the class docstring lists."""
        arm = _narrowest_int(K - 1)
        return cls(
            epoch=np.empty(T, dtype=np.int8),
            contexts=np.empty((T, dim)),
            actions=np.empty(T, dtype=arm),
            rewards=np.empty(T),
            reward_vectors=np.empty((T, K)),
            optimal_arms=np.empty(T, dtype=arm),
            optimal_means=np.empty(T),
            safe=np.empty(T, dtype=bool),
            m_hat=np.empty(T, dtype=np.int8),
        )

    def __len__(self) -> int:
        return len(self.actions)

    def rows(self, lo: int, hi: int) -> "RunTrace":
        """Rounds lo + 1 .. hi: every column sliced as a view, the scalar
        fields kept as they are."""
        columns = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                columns[f.name] = value[lo:hi]
        return replace(self, **columns)

    @property
    def realized_regret(self) -> np.ndarray:
        regret = _gather(self.reward_vectors, self.optimal_arms, np.empty(len(self)))
        regret -= self.rewards
        return regret
