"""`'%.17g' % x` for a list of floats, computed in numpy, byte for byte.

For |x| in the fast range, k = ⌊log10|x|⌋ and y = |x|·10^(16−k) is formed
as a double-double: 10^p is held as a correctly rounded hi + lo pair,
computed exactly from Python integers on first use of each exponent, and
|x|·hi is a Veltkamp/Dekker two-product (numpy has no fma).  Its error is
below 1e-13, so rounding y gives the 17 significant digits N wherever y's
fraction lies more than 1e-6 from ½.  The text is N's digits in %g's
layout: fixed notation for −4 ≤ k < 17, with trailing zeros stripped from
the fraction only, and d.ddde±XX otherwise.

Each row's characters are gathered from its source: N as six groups of
three digit characters, |k| as one, the characters every row shares and
the exponent's sign.  A layout table, one row per (sign, notation class,
digit count), names the source column of each of the text's characters,
so the rows become one fixed-width char matrix read back as strings.
±0 is N = 0 printed with one digit.  The steps are separate functions so
that each one's arrays are freed before the next allocates its own: the
kernel peaks at about 300 bytes a cell.

Every other cell this cannot decide goes through `'%.17g' %` itself: a
fraction near ½ (exact ties included), N outside [10^16, 10^17) (k
misjudged by log10, or a round up to 10^17), and |x| outside the fast
range, which holds subnormals, ±inf and nan.
"""

import functools

import numpy as np

_LOW, _HIGH = 1e-270, 1e290  # the fast range: every product below stays normal
_K_MIN, _K_MAX = -271, 290  # ⌊log10 _LOW⌋, ⌊log10 _HIGH⌋
_TIE = 1e-6  # a fraction of y this close to 1/2 is left to '%.17g'
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_WIDTH = 24  # the longest text, '-d.dddddddddddddddde-ddd'
_CLASSES = 23  # fixed notation for k = -4..16, then exponents of 2 and 3 digits

# A row's source is 9 items of 4 characters (bytes, one uint32): N's six
# digit groups, |k|'s digits, the shared characters, the exponent's sign.
# A group is three digits and a '0' that no layout reads; the sign item is
# the sign and three NULs, which pad the text.
_EXPONENT, _SHARED, _SIGN, _ITEMS = 6, 7, 8, 9
_POINT, _ZERO, _MINUS, _E = range(4 * _SHARED, 4 * _SHARED + 4)
_PAD = 4 * _SIGN + 1


def _power_of_ten(p: int) -> tuple[float, float]:
    """10**p as hi + lo: hi correctly rounded, lo the correctly rounded rest."""
    num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
    hi = num / den
    m, d = hi.as_integer_ratio()
    return hi, (num * d - m * den) / (den * d)


# 10**(16 - k) as hi and lo for k = _K_MIN.._K_MAX, each pair computed on
# the first use of its exponent (NaN until then); the entries are constants,
# so the order they are filled in never shows.
_TENS = np.full((2, _K_MAX - _K_MIN + 1), np.nan)


def _powers(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """10**(16 - k) as hi and lo arrays, for i = k - _K_MIN."""
    hi = _TENS[0].take(i)
    missing = np.isnan(hi)
    if missing.any():
        for j in np.unique(i[missing]).tolist():
            _TENS[:, j] = _power_of_ten(16 - _K_MIN - j)
        hi = _TENS[0].take(i)
    return hi, _TENS[1].take(i)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The source items, the layouts, and tables by exponent and digit group.

    Items 0..999 are the digit groups, then the shared characters, then
    the two exponent signs.  Layout row (sign·_CLASSES + class)·17 + L − 1
    names the source column of each character of a text with L significant
    digits.
    """
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1, 10**9]) % 10
    shared = np.array([[ord(c) for c in ".0-e"], [ord("+"), 0, 0, 0], [ord("-"), 0, 0, 0]])
    items = np.concatenate([48 + digits, shared]).astype(np.uint8)

    sign, cls, L = np.indices((2, _CLASSES, 17)).reshape(3, -1, 1)
    L, k = L + 1, cls - 4
    fixed, whole = cls < 21, (cls < 21) & (k >= 0)
    lead = np.where(fixed & (k < 0), -k, 0)  # zeros before the first digit, '0.00…'
    point = np.where(whole, k + 1, 1)  # characters of the digit string before the '.'
    body = lead + np.where(whole, np.maximum(L, k + 1), L)  # the digit string, zeros included
    dot = body > point
    stop = body + dot
    tail = np.where(fixed, 0, np.where(cls == 22, 5, 4))  # 'e', its sign, its digits
    t = np.arange(_WIDTH) - sign  # position after the sign
    u = t - (dot & (t > point)) - lead + 1  # position in N's 18 digits, the first a zero
    e = t - stop + 3 - tail  # position in |k|'s three digits
    layout = np.select(
        [t < 0, dot & (t == point), (t < stop) & (u < 1), t < stop,
         t >= stop + tail, t == stop, t == stop + 1],
        [_MINUS, _POINT, _ZERO, 4 * (u // 3) + u % 3, _PAD, _E, 4 * _SIGN],
        4 * _EXPONENT + e,
    )

    k = np.arange(_K_MIN, _K_MAX + 1)
    cls = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, 21, 22))
    by_exponent = np.stack([17 * cls, np.abs(k), 1001 + (k < 0)])
    zeros = np.count_nonzero(np.arange(1000)[:, None] % [10, 100, 1000] == 0, axis=1)
    return items.view(np.uint32).ravel(), layout, by_exponent, 2 - zeros


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·b as p + e exactly, by Veltkamp splitting and Dekker's product."""
    p = a * b
    c, d = _SPLIT * a, _SPLIT * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N, k - _K_MIN, and whether N decides the text, for each cell of x."""
    a = np.abs(x)
    fast = (a >= _LOW) & (a <= _HIGH)
    a[~fast] = 1.0  # any value in range keeps the other lanes' arithmetic quiet
    i = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    hi, lo = _powers(i)
    y, rest = _two_product(a, hi)
    rest += a * lo
    floor = np.floor(rest)
    frac = rest - floor
    whole = y.astype(np.int64) + floor.astype(np.int64)  # ⌊y⌋
    n = whole + (frac > 0.5)
    decided = fast & (np.abs(frac - 0.5) > _TIE) & (whole >= 10**16) & (n < 10**17)
    n[~decided] = 10**16
    zero = x == 0.0  # ±0 prints 0 or -0: N = 0, one digit
    n[zero] = 0
    return n, i, decided | zero


def _source(n: np.ndarray, i: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's source characters, flat, and its layout row."""
    items, _, by_exponent, last_digit = _tables()
    rows = len(n)
    which = np.empty((rows, _ITEMS), dtype=np.intp)
    upper = n // 10**9
    for column, part in (0, upper), (3, n - upper * 10**9):
        high = part // 10**6
        low = part - high * 10**6
        middle = low // 1000
        which[:, column], which[:, column + 1] = high, middle
        which[:, column + 2] = low - middle * 1000
    cls, which[:, _EXPONENT], which[:, _SIGN] = by_exponent.take(i, axis=1)
    which[:, _SHARED] = 1000
    # N's last nonzero group of digits, then its last nonzero digit
    group, zeros = np.full(rows, 5), np.ones(rows, dtype=bool)
    for column in 5, 4, 3, 2, 1:
        zeros &= which[:, column] == 0
        group -= zeros
    digits = 3 * group + last_digit.take(which.ravel().take(_ITEMS * np.arange(rows) + group))
    np.maximum(digits, 1, out=digits)  # N = 0 has no nonzero digit
    key = minus * (17 * _CLASSES) + cls + digits - 1
    return items.take(which).view(np.uint8).ravel(), key


def _chars(n: np.ndarray, i: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """The texts as a (rows, _WIDTH) matrix of characters, NUL-padded."""
    source, key = _source(n, i, minus)
    index = _tables()[1].take(key, axis=0)
    index += 4 * _ITEMS * np.arange(len(n))[:, None]
    return source.take(index)


def format_floats(values: list) -> list[str]:
    """['%.17g' % x for x in values], for a list of Python floats."""
    x = np.fromiter(values, dtype=np.float64, count=len(values))
    n, i, decided = _significand(x)
    chars = _chars(n, i, np.signbit(x)).astype(np.uint32)
    texts = chars.view(f"U{_WIDTH}").ravel().tolist()
    for j in np.flatnonzero(~decided).tolist():
        texts[j] = "%.17g" % values[j]
    return texts
