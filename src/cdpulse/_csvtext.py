"""CSV text of a float block, byte for byte as ``'%.17g'``, with numpy.

``csv_text(block)`` returns the bytes of ``'%.17g' % v`` for every cell of
a (rows, columns) float64 block, cells joined by ``,`` and every row ended
by ``\\n``.  Python's ``%.17g`` rounds the exact binary value correctly to
17 significant digits; it takes dtoa's bignum path for that many digits
and costs about half a microsecond per cell.  Here a cell with
1e-280 < |x| < 1e290, or ±0, is converted with array operations:

1. E = floor(log10 |x|), corrected once when the scaled value
   s = |x|·10^(16-E) falls outside [1e16, 1e17) (the equality cases at 1e16
   and 1e17 are decided by the sign of the low word).
2. s is formed as a double-double (hi, lo): a Dekker product of |x| with a
   (hi, lo) table of 10^k built with exact integer arithmetic (T. J.
   Dekker, Numer. Math. 18, 224 (1971)).  The table's own rounding and
   the rounding of the low terms each add an error of order 2^-106 of s
   (s < 1e17), so lo is within a few 1e-15 of s - hi: below about 1e-13 of
   one unit in the 17th digit.
3. The 17-digit integer D = hi + rint(lo) is exact unless s lies within
   1e-6 of a rounding tie; such cells, which need round-half-even on the
   exact value, go to Python.  D's digits come from a 10,000-entry table
   of 4-digit ASCII groups.
4. The text takes ``%g``'s form: fixed notation for -4 <= E < 17, else
   ``d.ddde±XX`` (three exponent digits when |E| >= 100); trailing zeros
   of the fraction and a bare point are dropped, and ``-`` comes from the
   sign bit, so -0.0 reads ``-0``.  Every cell fills a 48-byte slot of
   six words: sign and ``0.000`` prefix, the digits with a point byte
   after each, and ``e±XXX`` with the separator.  Bytes that the cell's
   form does not use are 0, and one pass deletes them.

NaN, ±inf, subnormal and out-of-range cells, and near-ties, are formatted
by ``'%.17g'`` itself, so every cell's text is Python's.  The tables are
built on the first call, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# |x| range of the array path: 10^k and the Veltkamp splits of |x| and of
# 10^k stay finite and normal for every k that a cell in it needs
_FAST_MIN, _FAST_MAX = 1e-280, 1e290
# s within this of a .5 fraction goes to Python (s's error is ~1e-14)
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1
_K_MIN, _K_MAX = -276, 299  # the scales 10^(16 - E) the fast range needs
_E_MAX = 400  # the exponent table covers |E| < _E_MAX

# slot bytes: 0 sign, 1..5 "0.000" prefix, digit k at 6 + 2k and a point
# byte after it, 40..44 "e±XXX", 47 separator
_SLOT = 48
_D0 = 6


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^k for k in [_K_MIN, _K_MAX]: hi = head + tail (Veltkamp split), and lo."""
    head, tail, low = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        hn, hd = hi.as_integer_ratio()
        low.append((num * hd - hn * den) / (den * hd))
        c = hi * _SPLIT
        head.append(c - (c - hi))
        tail.append(hi - head[-1])
    return np.array(head), np.array(tail), np.array(low)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot words: digit groups, ``0.000`` prefixes by E, ``e±XXX`` by E.

    ``groups[v]`` spreads the four digits of v over a word with 0 point
    bytes between them; ``groups[10000 + v]`` also blanks v's trailing
    zeros (all of it for v = 0), for the last nonzero group and those after.
    """
    v = np.arange(10000, dtype=np.int16)[:, None]
    digits = (v // 10 ** np.arange(3, -1, -1, dtype=np.int16) % 10).astype(np.uint8)
    words = np.zeros((2, 10000, 8), dtype=np.uint8)
    words[:, :, ::2] = digits + ord("0")
    words[1, :, ::2] *= np.maximum.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    groups = words.reshape(-1).view(np.uint64)
    prefixes = np.frombuffer("".join(
        ("\0" + "0." + "0" * (-e - 1)).ljust(8, "\0") for e in range(-4, 0)
    ).encode() + bytes(8), dtype=np.uint64)
    exponents = np.frombuffer(bytes(8) + "".join(
        f"e{'-' if e < 0 else '+'}{abs(e):02d}".ljust(8, "\0")
        for e in range(-_E_MAX + 1, _E_MAX)
    ).encode(), dtype=np.uint64)
    return groups, prefixes, exponents


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^(16-e) as a normalized double-double (hi, lo)."""
    head, tail, low = _powers()
    k = 16 - _K_MIN - e
    ph, pt = head[k], tail[k]
    xh = a * _SPLIT
    xt = xh - a
    xh -= xt
    np.subtract(a, xh, out=xt)
    p = ph + pt
    p *= a
    # Dekker: a·(ph + pt) - p exactly, in this order
    err = xh * ph
    err -= p
    xh *= pt
    err += xh
    np.multiply(xt, ph, out=ph)
    err += ph
    xt *= pt
    err += xt
    np.multiply(a, low[k], out=ph)
    err += ph
    hi = p + err
    np.subtract(hi, p, out=p)
    err -= p
    return hi, err


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, slow): |x| ≈ D·10^(E-16) with 10^16 <= D < 10^17 for the fast
    cells and ±0 (D = 10^16, E = 0), and the cells Python must format."""
    a = np.abs(x)
    fast = a > _FAST_MIN
    fast &= a < _FAST_MAX
    slow = a != 0.0
    slow &= ~fast
    a[~fast] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    hi, lo = _scaled(a, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    e -= low
    e += high
    redo = np.flatnonzero(low | high)
    del low, high
    if redo.size:
        hi[redo], lo[redo] = _scaled(a[redo], e[redo])
    del a
    r = np.rint(lo)
    lo -= r
    np.abs(lo, out=lo)
    lo -= 0.5
    np.abs(lo, out=lo)
    slow |= lo < _TIE_MARGIN
    del lo
    d = hi.astype(np.int64)
    del hi
    d += r.astype(np.int64)
    del r
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, slow


def _slots(x: np.ndarray) -> np.ndarray:
    """(cells, 48) bytes: each cell's text, 0 where unused; byte 47 is free."""
    d, e, slow = _decimal(x)
    groups, prefixes, exponents = _tables()
    fixed = e >= -4
    fixed &= e <= 16
    slot = np.empty((len(x), _SLOT // 8), dtype=np.uint64)
    slot[:, 0] = prefixes[np.where(fixed & (e < 0), e + 4, 4)]
    slot[:, 5] = exponents[np.where(fixed, 0, e + _E_MAX)]
    # D = g0·10^16 + g1·10^12 + g2·10^8 + g3·10^4 + g4
    g2 = d // 10**8
    g4 = d - g2 * 10**8
    del d
    g0 = g2 // 10**8
    g2 -= g0 * 10**8
    g1 = g2 // 10**4
    g2 -= g1 * 10**4
    g3 = g4 // 10**4
    g4 -= g3 * 10**4
    # a group keeps its trailing zeros while a later group is nonzero
    slot[:, 4] = groups[g4 + 10000]
    tail = g4 == 0
    slot[:, 3] = groups[g3 + 10000 * tail]
    tail &= g3 == 0
    slot[:, 2] = groups[g2 + 10000 * tail]
    tail &= g2 == 0
    slot[:, 1] = groups[g1 + 10000 * tail]
    del g1, g2, g3, g4, tail
    b = slot.view(np.uint8)
    b[:, _D0] = g0 + ord("0")
    b[x == 0.0, _D0] = ord("0")
    b[:, 0] = np.signbit(x) * np.uint8(ord("-"))

    # a point after digit E (fixed, E >= 0) or digit 0 (exponent form) when
    # a digit follows it; fixed E < 0 aims at byte 39, as E = 16 does, which
    # the empty exponent word follows
    at = np.where(fixed, np.where(e >= 0, e, 16), 0)
    at *= 2
    at += np.arange(0, b.size, _SLOT) + _D0 + 1
    flat = b.reshape(-1)
    flat[at] = (flat[at + 1] != 0) * np.uint8(ord("."))
    # fixed-notation integers whose last integer digit was blanked get
    # their zeros back
    whole = np.flatnonzero(fixed & (e >= 1) & (flat[at - 1] == 0))
    if whole.size:
        digits = b[whole, _D0:_D0 + 34:2]
        digits[(digits == 0) & (np.arange(17) <= e[whole, None])] = ord("0")
        b[whole, _D0:_D0 + 34:2] = digits

    fallback = np.flatnonzero(slow)
    if fallback.size:
        text = b"".join(("%.17g" % v).encode().ljust(_SLOT - 1, b"\0")
                        for v in x[fallback].tolist())
        b[fallback, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _SLOT - 1)
    return b


def csv_text(block: np.ndarray) -> bytes:
    """The rows of a (rows, columns) float64 block as ``%.17g`` CSV lines."""
    rows, cols = block.shape
    b = _slots(np.ascontiguousarray(block, dtype=np.float64).reshape(-1))
    b = b.reshape(rows, cols, _SLOT)
    b[:, :, -1] = ord(",")
    b[:, -1, -1] = ord("\n")
    return b.tobytes().translate(None, b"\0")
