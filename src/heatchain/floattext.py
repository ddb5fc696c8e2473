"""Shortest round-trip text of float64 arrays: ``repr`` of each value, written for an array at once.

:func:`float_texts` returns exactly ``list(map(repr, values.tolist()))``.
The exports call it from ``heatstats._FLOAT_TEXTS_MIN`` values on (below
that, ``repr`` is faster and this module is not imported).  It formats
``_CHUNK`` values at a time in numpy:

* **Digits.**  Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020, as in the JDK's ``DoubleToDecimal``) finds the shortest
  decimal in each value's rounding interval, and of two that short the one
  nearer the value (ties to even): the digits ``repr`` writes.  The
  interval's ends and midpoint are scaled by ``g``, a 126-bit ``10^-k``
  read off a table built at import, rounding to odd; the 64x64-bit high
  products go through 32-bit limbs in uint64.  Zeros, subnormals and
  non-finite values are written by ``repr``: Schubfach's tiny-value path
  keeps two digits (``4.9e-324``, where ``repr`` writes ``5e-324``).
* **Layout.**  Each value's characters (its 17 digits, left-aligned, ``0 .
  e - +`` and its exponent's three digits) are one column of a uint8
  source; a value's text is gathered from its column through one of
  ``repr``'s layouts (``_LAYOUTS``), chosen by sign, digit count and
  decimal point: positional when ``-4 < decpt <= 16``, else
  ``d.ddde±XX``.  The gathered codes are widened to a uint32 matrix, read
  as a ``<U24`` array whose trailing NULs ``tolist`` strips.
"""

from __future__ import annotations

from itertools import product

import numpy as np

__all__ = ["float_texts"]

_CHUNK = 1024  # most values per pass: keeps each temporary within about 200 KiB

_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # decimal exponents k that Schubfach scales by


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233 (int or int64 array)."""
    return (e * 913_124_641_741) >> 38


def _g_limbs() -> np.ndarray:
    """``g = floor(10^-k 2^-r) + 1`` with ``2^125 <= g < 2^126``, per k: 32-bit limbs of g's two 63-bit halves.

    Rows: low and high limb of ``g mod 2^63``, then of ``g >> 63``; column ``k - _K_MIN``.
    """
    words = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        words.append(g.to_bytes(16, "little"))
    low, high = np.frombuffer(b"".join(words), dtype="<u8").reshape(-1, 2).T
    g0, g1 = low & _M63, high << 1 | low >> 63
    return np.stack([g0 & _M32, g0 >> 32, g1 & _M32, g1 >> 32])


def _binades() -> tuple[np.ndarray, np.ndarray]:
    """Per biased exponent, ``+ 2048`` at a binade's bottom: Schubfach's ``k - _K_MIN`` and shift ``h`` (2..5)."""
    q = np.tile(np.arange(-1075, 973), 2)
    k = q * 661_971_961_083
    k[2048:] -= 274_743_187_321
    k >>= 41
    h = q + _flog2pow10(-k) + 2
    return (k - _K_MIN).clip(0, _K_MAX - _K_MIN).astype(np.int16), h.clip(0, 63).astype(np.uint8)


_G = _g_limbs()
_K_AT, _H_AT = _binades()

# Source slots of a row's characters: digits d0..d16, then constants and the exponent's digits.
_ZERO, _POINT, _E, _MINUS, _PLUS = 17, 18, 19, 20, 21
_EXPONENT = (22, 23, 24)  # hundreds, tens, ones
_NUL = 25
_SLOTS = 26
_CONSTANTS = np.array([ord(ch) for ch in "0.e-+"], dtype=np.uint8)[:, None]
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_TENS = (10 ** np.arange(4, dtype=np.uint32))[:, None]  # digit j of a group
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]  # digit count up to each digit
_ROWS = np.arange(_CHUNK, dtype=np.uint16)[:, None]
_M28 = np.uint32((1 << 28) - 1)
_UNSIGNED = 24 * 17  # layouts of positive values; a negative value's layout is this much further
_WIDTH = 24  # repr's longest text of a float: "-1.2345678901234567e-308"
_DECPT_MIN, _DECPT_MAX = -330, 330  # decimal point positions; normal values have -307..309


def _layouts() -> np.ndarray:
    """The source slot of each character of every layout (row), NUL-padded to repr's longest text, 24.

    Layout ``17 * form + digits - 1``: forms 0-19 are positional, with
    ``decpt = form - 3``; forms 20-23 are exponential, with an exponent of
    two or three digits (20, 21) or a negative one (22, 23).  Then the same
    layouts after a ``-``.
    """
    exponents = [(sign, *digits) for sign in (_PLUS, _MINUS) for digits in (_EXPONENT[1:], _EXPONENT)]
    forms = [(decpt, None) for decpt in range(-3, 17)] + [(None, exponent) for exponent in exponents]
    rows = []
    for (decpt, exponent), n in product(forms, range(1, 18)):
        digits = list(range(n))
        if exponent is not None:
            fraction = [_POINT, *digits[1:]] if n > 1 else []
            slots = [0, *fraction, _E, *exponent]
        elif decpt <= 0:
            slots = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
        elif decpt < n:
            slots = digits[:decpt] + [_POINT] + digits[decpt:]
        else:
            slots = digits + [_ZERO] * (decpt - n) + [_POINT, _ZERO]
        rows.append(bytes(slots))
    rows += [bytes([_MINUS]) + row for row in rows]
    return np.frombuffer(b"".join(row.ljust(_WIDTH, bytes([_NUL])) for row in rows), dtype=np.uint8).reshape(-1, _WIDTH)


def _forms() -> tuple[np.ndarray, np.ndarray]:
    """Per ``decpt - _DECPT_MIN``: the layout of one digit, less 1, and the exponent's three digits."""
    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)
    exponent = decpt - 1
    form = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + 2 * (exponent < 0) + (abs(exponent) >= 100))
    digits = abs(exponent) // np.array([[100], [10], [1]]) % 10 + 48
    return (17 * form - 1).astype(np.int16), digits.astype(np.uint8)


# Flat source index of each slot, the source's rows being _CHUNK apart (uint16: _SLOTS * _CHUNK <= 2**16).
_LAYOUTS = _layouts().astype(np.uint16) * _CHUNK
_LAYOUT_AT, _EXPONENT_DIGITS = _forms()


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach on positive normal float64 bit patterns: digits ``f`` and exponent ``k``, value ``f * 10^k``."""
    biased = bits >> 52
    fraction = bits & ((1 << 52) - 1)
    bottom = (fraction == 0) & (biased > 1)  # c = 2^52 above q > Q_MIN: the gap below is half the gap above
    at = biased | bottom.astype(np.uint64) << 11
    row = _K_AT[at]
    g0_low, g0_high, g1_low, g1_high = _G.take(row, axis=1)
    cb = (fraction | 1 << 52) << 2
    cp = np.empty((3, len(bits)), dtype=np.uint64)  # c_l, c, c_r: the interval's ends and midpoint, times 4
    np.subtract(cb, 2, out=cp[0])
    cp[0] += bottom
    cp[1] = cb
    np.add(cb, 2, out=cp[2])
    cp <<= _H_AT[at]
    low, high = cp & _M32, cp
    high >>= 32
    # rop(g cp 2^-127) for g = g1 2^63 + g0, from 32-bit limbs: x1 = high(g0 cp), (y1, y0) = g1 cp.
    # Products are formed in place where they can be, to hold few (3, n) temporaries at once.
    cross = g0_high * low
    x1 = g0_low * low
    x1 >>= 32
    x1 += cross & _M32
    x1 += g0_low * high
    x1 >>= 32
    cross >>= 32
    x1 += cross
    x1 += g0_high * high
    y0 = g1_low * low
    np.multiply(g1_high, low, out=cross)
    middle = y0 >> 32
    middle += cross & _M32
    middle += g1_low * high
    y1 = np.multiply(g1_high, high, out=high)
    cross >>= 32
    y1 += cross
    y1 += middle >> 32
    del low, cross
    y0 &= _M32
    middle <<= 32
    y0 |= middle  # low 64 bits of g1 cp
    y0 >>= 1
    y0 += x1  # z
    del middle, x1
    vbl, vb, vbr = y1 + (y0 >> 63) | ((y0 & _M63) + _M63) >> 63
    odd = fraction & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    # u' = 10 floor(s / 10) or w' = u' + 10, one digit shorter, if exactly one is in the interval;
    # else u = s or w = s + 1, if exactly one is; else the nearer of the two, ties to even s.
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    shorter = upin != ((sp10 << 2) + 40 <= vbr)
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    w = np.where(uin != win, win, (vb & 3) + (s & 1) > 2)
    f = np.where(shorter, np.where(upin, sp10, sp10 + 10), s + w)
    return f, row.astype(np.int64) + _K_MIN


def _layout(f: np.ndarray, k: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The uint32 code points of ``repr(±f * 10^k)`` for ``0 < f < 10^17``, NUL-padded to ``_WIDTH``."""
    n = len(f)
    length = np.searchsorted(_POW10, f, side="right")  # digits of f
    decpt = k + length
    f = f * _POW10[17 - length]  # 17 digits, left-aligned
    head = f // 100_000_000
    first = head // 100_000_000
    middle = head - first * 100_000_000  # d1..d8
    f -= head * 100_000_000  # d9..d16
    groups = np.empty((4, 1, n), dtype=np.uint32)
    np.floor_divide(middle, 10_000, out=groups[0, 0], casting="unsafe")
    np.remainder(middle, 10_000, out=groups[1, 0], casting="unsafe")
    np.floor_divide(f, 10_000, out=groups[2, 0], casting="unsafe")
    np.remainder(f, 10_000, out=groups[3, 0], casting="unsafe")
    # Each 4-digit group x as x / 10^4 in 28-bit fixed point (ceil(2^28 / 10^4)); digit j is the
    # integer part of 10 times the fraction of 10^j x / 10^4.
    groups *= np.uint32(26_844)
    digits = groups * _TENS
    digits &= _M28
    digits *= np.uint32(10)
    digits >>= np.uint32(28)
    source = np.empty((_SLOTS, _CHUNK), dtype=np.uint8)
    np.add(first, 48, out=source[0, :n], casting="unsafe")
    np.add(digits.reshape(16, n), 48, out=source[1:17, :n], casting="unsafe")
    sig = np.max((source[:17, :n] != 48) * _PLACES, axis=0).astype(np.int64)  # significant digits
    source[_ZERO : _PLUS + 1] = _CONSTANTS
    at = decpt - _DECPT_MIN
    np.take(_EXPONENT_DIGITS, at, axis=1, out=source[22:25, :n])
    source[_NUL] = 0
    index = _LAYOUTS.take(_LAYOUT_AT[at] + sig + _UNSIGNED * negative, axis=0)
    index += _ROWS[:n]
    return source.reshape(-1).take(index).astype(np.uint32)


def float_texts(values: np.ndarray) -> list[str]:
    """``list(map(repr, values.tolist()))`` for a 1-d float64 array, computed for the array at once."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    texts: list[str] = []
    for chunk in np.array_split(values, max(1, -(-len(values) // _CHUNK))):  # even chunks, none tiny
        texts += _chunk_texts(chunk)
    return texts


def _chunk_texts(values: np.ndarray) -> list[str]:
    bits = values.view(np.uint64)
    negative = bits >> 63 != 0
    bits = bits & _M63
    biased = bits >> 52
    special = (biased == 0) | (biased == 0x7FF)  # zero, subnormal or not finite: repr
    if special.any():
        bits = np.where(special, 0x3FF0000000000000, bits)
    texts = _layout(*_shortest(bits), negative).view(f"<U{_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(special).tolist():
        texts[i] = repr(float(values[i]))
    return texts
