"""Python ``repr`` of whole numpy columns, as rows of bytes.

``float_fields(values)`` maps a float64 column to an (n, w) uint8 matrix
whose row i holds ``repr(float(values[i]))`` in ASCII, right-aligned, with
NUL bytes before it; ``int_fields(values)`` does the same for a column of
nonnegative integers and ``str``. A writer lays such fields side by side in
one matrix and drops every NUL of it at once.

The float digits are the shortest decimal that reads back as the same
double, and of those the closest, ties to an even last digit: the digits
``repr`` prints. ``_shortest`` finds them with the Schubfach algorithm
(R. Giulietti, "The Schubfach way to render doubles", 2020), as Java's
``DoubleToDecimal.toDecimal`` does, on uint64 columns, each 64 x 64-bit high
product built from 32-bit halves. Unlike Java, which prints at least two
digits, it tries the one-digit-shorter candidate from two digits on, and it
strips trailing zeros.

The layout is ``repr``'s: positional when the decimal point falls at
-4 < decpt <= 16, which is exactly 1e-4 <= |v| < 1e16 (``0.0001``,
``1234.5``), with ``.0`` after a whole value; ``0.0`` and ``-0.0`` as they
are. Values in exponent form and values that are not finite are rare in a
trace and go through ``repr`` one at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_M32 = 0xFFFFFFFF
_M52 = (1 << 52) - 1
# powers of ten that fit a uint64, 10^0 .. 10^19
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
# the Schubfach table covers the decimal exponents k = -324 .. 292
_K_MIN, _K_MAX = -324, 292
# a float field's width: the longest repr of a double, as
# '-2.2250738585072014e-308'
_WIDTH = 24
# positional fields: up to 20 fraction digits ('0.00012345678901234567')
# and up to 16 integer digits ('9999999999999998.0')
_PLACES, _INT_DIGITS = 20, 16


@functools.cache
def _tables():
    """Lookup tables, built on first use, not at import.

    - ``g``: for k = -324 .. 292, g = floor(10^-k 2^-r) + 1 with
      r = floor(log2 10^-k) - 125, so 2^125 <= g < 2^126; split as
      g = g1 2^63 + g0 and each half into 32-bit halves: five uint64 columns
      (g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32).
    - ``digits``: the four ASCII digits of 0 .. 9999, zero-padded, then the
      same with the leading zeros NUL (0 keeps one "0"), one uint32 each
      (native order, viewed back as bytes).
    - ``lead``: for each count c <= 20, the 20-byte mask of 0xFF from
      column c on, as five uint32.
    - ``int_mask``, ``frac_mask``, ``marks``: per key of a positional
      repr, the three (_WIDTH,)-byte rows of ``_layout``, as six uint32.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 1 - 125
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            d = 10**k
            g.append((1 << (d.bit_length() + 125)) // d + 1)
    g1 = np.array([x >> 63 for x in g], dtype=_U64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=_U64)
    i = np.arange(10000)[:, None]
    quads = (i // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    bare = quads * (i >= np.array([1000, 100, 10, 0]))
    cols = np.arange(20)
    lead = np.array([cols >= c for c in range(21)], dtype=np.uint8) * np.uint8(0xFF)
    return {
        "g": (g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32),
        "digits": np.concatenate([quads, bare]).view(np.uint32).reshape(-1),
        "lead": lead.view(np.uint32),
        **{name: rows.view(np.uint32) for name, rows in zip(("int_mask", "frac_mask", "marks"), _layout())},
    }


def _key(places, int_digits, negative):
    """The layout key of a positional repr: places 1 .. 20 after the point,
    1 .. 16 digits before it, and its sign."""
    return ((places - 1) * _INT_DIGITS + (int_digits - 1)) * 2 + negative


def _layout():
    """Per key, three (_WIDTH,) byte rows that place a positional repr
    right-aligned: 0xFF on the integer digits' columns, 0xFF
    on the fraction digits' columns, and the marks: the point, the sign and,
    for 20 places, the integer digit 0, which the 20 digits of D below do
    not hold.

    The digits come from D, the 20 zero-padded digits of X = s 10^k times
    10 for a whole value (k >= 0), or s for k < 0: the fraction is its last
    ``places`` digits, written at columns _WIDTH - places on (D at columns
    4 .. 23); the integer digits precede them in D and are written one
    column further left (D at columns 3 .. 22), to leave the point's column
    free."""
    keys = _PLACES * _INT_DIGITS * 2
    int_mask, frac_mask, marks = np.zeros((3, keys, _WIDTH), dtype=np.uint8)
    for places in range(1, _PLACES + 1):
        for digits in range(1, _INT_DIGITS + 1):
            for negative in (0, 1):
                key = _key(places, digits, negative)
                point = _WIDTH - 1 - places
                frac_mask[key, point + 1 :] = 0xFF
                marks[key, point] = ord(".")
                if places == _PLACES:
                    marks[key, point - 1] = ord("0")
                    digits = 1
                else:
                    int_mask[key, max(point - digits, 0) : point] = 0xFF
                if negative:
                    marks[key, max(point - digits - 1, 0)] = ord("-")
    return int_mask, frac_mask, marks


def _high(a_hi, a_lo, p_hi, p_lo):
    """The high 64 bits of a p, from a's and p's 32-bit halves, for
    a < 2^63 and p < 2^59: no partial sum reaches 2^64."""
    low = a_lo * p_lo
    low >>= 32
    mid = a_hi * p_lo
    mid += a_lo * p_hi
    mid += low
    mid >>= 32
    mid += a_hi * p_hi
    return mid


def _rop(g, cp):
    """floor(g cp 2^-127), its last bit set when the floor drops a nonzero
    fraction (round to odd), for cp < 2^59: Java's ``rop``."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    p_hi, p_lo = cp >> 32, cp & _M32
    z = g1 * cp  # the low 64 bits of g1 cp
    z >>= 1
    z += _high(g0_hi, g0_lo, p_hi, p_lo)
    vb = _high(g1_hi, g1_lo, p_hi, p_lo)
    vb += z >> 63
    z <<= 1
    vb |= z != 0
    return vb


def _shortest(bits):
    """(s, k), uint64 and int64: s 10^k is the shortest decimal that reads
    back as the double, the closest such, ties to even s, and s has no
    trailing zeros. For the bit patterns of finite positive doubles other
    than the two smallest subnormals 5e-324 and 1e-323."""
    t = bits & _M52
    bq = (bits >> 52).astype(np.int64)
    # the double is c 2^q
    c = t | ((bq != 0).astype(_U64) << 52)
    q = np.maximum(bq, 1) - 1075
    # at a power of two above the smallest normal the double below is half
    # as far as the double above
    irregular = (t == 0) & (bq > 1)
    # k = floor(q log10 2), or floor(log10(3/4 2^q)) when irregular
    k = q * 661_971_961_083 - irregular * 274_743_187_321
    k >>= 41
    # h = q + floor(-k log2 10) + 2, in 1 .. 4
    h = k * -913_124_641_741
    h >>= 38
    h += q
    h += 2
    g = [col.take(k - _K_MIN) for col in _tables()["g"]]
    scale = np.left_shift(1, h.astype(_U64), dtype=_U64)
    cb = c << 2
    cb *= scale
    # the rounding interval's ends, 4 (or 2 when irregular) quarter-units
    # of c apart, scaled as cb; closed for even c, open for odd c
    vb = _rop(g, cb)
    vbl = _rop(g, cb - (scale << 1) + irregular * scale)
    vbr = _rop(g, cb + (scale << 1))
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    # one digit shorter, s' 10^(k+1): the one of s', s' + 1 in the interval
    sp = s // 10
    upin = vbl <= sp * 40
    wpin = sp * 40 + 40 <= vbr
    shorter = (upin != wpin) & (s >= 10)
    # else s or s + 1: the one in the interval, else the closer, ties to
    # the even one
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    # s + 1 is closer when vb > 4s + 2, or as close with s odd; one of the
    # two is always in the interval
    closer = vb + (s & 1) > (s << 2) + 2
    s += win & (~uin | closer)
    np.copyto(s, sp + ~upin, where=shorter)
    k += shorter
    # trailing zeros, stripped in halving steps on the rows that have one
    at = np.flatnonzero(s // 10 * 10 == s)
    if len(at):
        ss, kk = s[at], k[at]
        for p in (16, 8, 4, 2, 1):
            div = ss // 10**p
            divisible = div * 10**p == ss
            np.copyto(ss, div, where=divisible)
            kk += divisible * p
        s[at], k[at] = ss, kk
    return s, k


def _groups(x, count, width):
    """The 4-digit groups of uint64 x below 10^(4 count), most significant
    first, as the last count of width zero-padded columns of indices."""
    groups = np.zeros((len(x), width), dtype=np.intp)
    for j in range(width - 1, width - count, -1):
        high = x // 10000
        groups[:, j] = x - high * 10000
        x = high
    groups[:, width - count] = x
    return groups


def float_fields(values) -> np.ndarray:
    """(n, w) uint8: row i is ``repr(float(values[i]))``, right-aligned
    with NULs before it; w is the longest of them, at most 24."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    n = len(v)
    tables = _tables()
    a = np.abs(v)
    positional = (a >= 1e-4) & (a < 1e16)
    # zeros take s = 0 and k = 0 below, and the rest are written by repr;
    # both go through _shortest as 1.0
    a = np.where(positional, a, 1.0)
    s, k = _shortest(a.view(_U64))
    s *= positional
    k *= positional
    # integer digits, from the integer part of |v| (that of its shortest
    # decimal too: a decimal past an integer would read back as it)
    top = a.max(initial=0.0)
    if top < 10:
        int_digits = 1
    else:
        int_digits = np.maximum(np.searchsorted(_POW10, a.astype(_U64), side="right"), 1)
    # X = s 10^k, times 10 for a whole value so that its one fraction
    # digit is 0; its last `places` digits follow the point
    x = s * _POW10.take(np.maximum(k, -1) + 1)
    places = np.maximum(-k, 1)
    rest = np.flatnonzero(~positional & (v != 0))
    negative = np.signbit(v)
    negative[rest] = False
    key = _key(places, int_digits, negative)
    # D at columns 4 .. 23 for the fraction and, shifted one byte to the
    # left, at 3 .. 22 for the integer digits; each masked by its layout
    # row (every operand a whole contiguous array)
    words = tables["digits"].take(_groups(x, 5, _WIDTH // 4))
    shifted = np.empty_like(words)
    shifted.reshape(-1).view(np.uint8)[:-1] = words.reshape(-1).view(np.uint8)[1:]
    shifted &= tables["int_mask"].take(key, axis=0)
    words &= tables["frac_mask"].take(key, axis=0)
    words |= shifted
    words |= tables["marks"].take(key, axis=0)
    out = words.view(np.uint8)
    width = int((places + int_digits + negative).max(initial=0)) + 1
    if len(rest):
        texts = [repr(value).encode() for value in v[rest].tolist()]
        width = max(width, *map(len, texts))
        padded = b"".join(text.rjust(_WIDTH, b"\0") for text in texts)
        out[rest] = np.frombuffer(padded, dtype=np.uint8).reshape(len(rest), _WIDTH)
    return out[:, _WIDTH - width :]


def int_fields(values) -> np.ndarray:
    """(n, w) uint8: row i is ``str(int(values[i]))``, right-aligned with
    NULs before it, for nonnegative integers below 10^19; w is the longest
    of them."""
    v = np.asarray(values).reshape(-1)
    top = int(v.max(initial=0))
    width = len(str(top))
    tables = _tables()
    if width <= 4:
        # the unpadded half of the digits table
        out = tables["digits"].take(v.astype(np.intp) + 10000).view(np.uint8).reshape(len(v), 4)
        return out[:, 4 - width :]
    count = -(-width // 4)
    v = v.astype(_U64)
    lead = 20 - np.maximum(np.searchsorted(_POW10, v, side="right"), 1)
    out = tables["digits"].take(_groups(v, count, count))
    out &= tables["lead"].take(lead, axis=0)[:, 5 - count :]
    return out.view(np.uint8)[:, 4 * count - width :]
