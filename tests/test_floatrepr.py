"""The column formatter against Python's own ``repr`` and ``str``.

``check_random_bits(seed, count)`` is also run on its own, on 2^22 bit
patterns per seed, by CI:

    PYTHONPATH=src:tests python -c 'import test_floatrepr as t; t.check_random_bits(1, 2**22)'
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safebandit.floatrepr import _shortest, float_fields, int_fields

NEWLINE = np.uint8(ord("\n"))


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def written(fields):
    """A field matrix's rows with their NULs dropped, one per line."""
    rows = np.concatenate([fields, np.full((len(fields), 1), NEWLINE)], axis=1).reshape(-1)
    return rows[rows != 0].tobytes().split(b"\n")[:-1]


def assert_right_aligned(fields):
    # NULs only before the text, none after it
    present = fields != 0
    assert (present[:, 1:] >= present[:, :-1]).all()


def reference_repr(s, k):
    """repr of the decimal s 10^k, its digits s given: positional for
    -4 < decpt <= 16, else d.ddde+XX."""
    digits = str(s)
    decpt = len(digits) + k
    if -4 < decpt <= 16:
        if k >= 0:
            return digits + "0" * k + ".0"
        if decpt > 0:
            return digits[:decpt] + "." + digits[decpt:]
        return "0." + "0" * -decpt + digits
    return digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + f"e{decpt - 1:+03d}"


def assert_reprs(values):
    """float_fields against repr; and _shortest's digits against repr's at
    every exponent, on the magnitudes of the finite values other than 0 and
    the two smallest subnormals (which float_fields leaves to repr)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    want = [repr(x) for x in values.tolist()]
    fields = float_fields(values)
    assert fields.dtype == np.uint8 and fields.shape[0] == len(values)
    got = written(fields)
    bad = [(w, g) for w, g in zip(want, got) if g != w.encode()]
    assert not bad, f"{len(bad)} of {len(values)} differ from repr, first {bad[:3]}"
    assert_right_aligned(fields)
    assert fields.shape[1] == max(map(len, want), default=1)
    at = np.flatnonzero(np.isfinite(values) & (np.abs(values) > 1e-323))
    s, k = _shortest(np.abs(values[at]).view(np.uint64))
    assert s.dtype == np.uint64 and k.dtype == np.int64
    bad = [
        (want[i], si, ki)
        for i, si, ki in zip(at.tolist(), s.tolist(), k.tolist())
        if si % 10 == 0 or reference_repr(si, ki) != want[i].lstrip("-")
    ]
    assert not bad, f"{len(bad)} of {len(at)} digits differ from repr, first {bad[:3]}"


def random_bits(rng, count):
    return rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False).view(np.float64)


def check_random_bits(seed, count, chunk=2**16):
    """The formatter against repr on ``count`` random 64-bit patterns, in
    chunks."""
    rng = _rng(seed)
    for lo in range(0, count, chunk):
        values = random_bits(rng, min(chunk, count - lo))
        assert_reprs(values)
    print(f"seed {seed}: {count} bit patterns, every repr equal")


def around(values, ulps=3):
    """Each finite value and its neighbours up to ``ulps`` away, both signs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    near = (bits[:, None] + np.arange(-ulps, ulps + 1)).reshape(-1)
    near = near[(near >= 0) & (near < 0x7FF0000000000000)].view(np.float64)
    return np.concatenate([near, -near])


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
POWERS_OF_TEN = np.array([float(f"1e{e}") for e in range(-323, 309)])


class TestFloatFields:
    def test_random_bit_patterns(self):
        check_random_bits(seed=1, count=40_000)

    def test_special_values(self):
        payload_nans = np.array(
            [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        ).view(np.float64)
        assert_reprs(np.r_[payload_nans, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-323, 1.5e-323])
        # each alone: the width is the longest repr's, a sign of NaN none
        for value in np.r_[payload_nans, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-323]:
            assert_reprs([value])

    def test_positional_range(self):
        # random bits of the doubles from 2^-14 to 2^54, around the
        # positional range 1e-4 <= |v| < 1e16, both signs
        rng = _rng(2)
        exponents = rng.integers(1023 - 14, 1023 + 54, 30_000).astype(np.uint64)
        bits = exponents << np.uint64(52) | random_bits(rng, 30_000).view(np.uint64) >> np.uint64(12)
        values = bits.view(np.float64)
        values[::2] *= -1
        assert_reprs(values)
        # and uniform draws, as the contexts and rewards of a trace
        assert_reprs(np.r_[rng.random(10_000), rng.standard_normal(10_000) + 0.5])

    def test_every_small_subnormal(self):
        values = np.arange(2**17, dtype=np.uint64).view(np.float64)
        assert_reprs(values)

    def test_around_powers_of_two_and_ten(self):
        values = around(np.r_[POWERS_OF_TWO, POWERS_OF_TEN])
        assert_reprs(values)

    def test_integers_around_two_to_the_53(self):
        top = 2.0**53
        values = np.r_[top + np.arange(-2000, 2000, dtype=np.float64), top * 2 + np.arange(-64, 64) * 2.0]
        assert_reprs(np.r_[values, -values, np.arange(0.0, 20_000.0)])

    def test_layout_thresholds(self):
        # repr turns to exponent form below 1e-4 and from 1e16 on
        values = around([1e-4, 1e16, 1e15, 1e-3, 9999999999999998.0, 0.1, 1.0, 10.0])
        assert_reprs(values)
        fields = written(float_fields([9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16]))
        assert fields == [b"9.999999999999999e-05", b"0.0001", b"9999999999999998.0", b"1e+16"]

    def test_shapes(self):
        assert float_fields(np.empty(0)).shape[0] == 0
        # a non-contiguous column and a 2-d block are read as one column
        block = np.arange(12.0).reshape(4, 3) / 7
        assert written(float_fields(block[:, 1])) == [repr(x).encode() for x in block[:, 1].tolist()]
        assert float_fields(block).shape[0] == 12

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=20))
    def test_any_float(self, values):
        assert_reprs(values)


class TestIntFields:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    def test_small_and_edge_values(self, dtype):
        T = 2**13 if dtype != np.int8 else 100
        values = np.array([0, 9, 10, 127, T, 0, 1], dtype=dtype)
        fields = int_fields(values)
        assert written(fields) == [str(v).encode() for v in values.tolist()]
        assert fields.shape == (len(values), len(str(values.max())))
        assert_right_aligned(fields)

    def test_wide_values(self):
        rng = _rng(4)
        values = np.r_[0, 9, 9999, 10000, 99_999_999, 10**8, 10**18 - 1, 10**18,
                       rng.integers(0, 10**18, 2000)].astype(np.int64)
        fields = int_fields(values)
        assert written(fields) == [str(v).encode() for v in values.tolist()]
        assert_right_aligned(fields)
        # the rounds of a block: consecutive, across a new digit
        t = np.arange(9_990, 10_011)
        assert written(int_fields(t)) == [str(v).encode() for v in t.tolist()]

    def test_empty(self):
        assert int_fields(np.empty(0, dtype=np.int8)).shape == (0, 1)
