"""Floats as ``'%.17g' % (x + 0.0)`` prints them, for whole tables at numpy speed.

:func:`number` formats one value with ``'%'``.  :func:`lines` formats a 2-D
float array a chunk of rows at a time, with the same bytes: each value is
scaled to its 17 digits in double-double arithmetic (:func:`_decimal`
gives the exactness argument), and its text comes from digit and layout
tables (:func:`_tables`).  The few values that argument does not cover
(near-ties, non-finite values, magnitudes outside ``[1e-280, 1e289)``) go
through :func:`number`.  A ``spectrum`` table of 95000 x 6 values takes
about 0.1 s this way against 0.4-0.5 s with ``'%'`` on every value.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

__all__ = ["number", "lines"]


def number(value) -> str:
    """``'%.17g' % (value + 0.0)``: 17 significant digits, -0.0 as ``0``."""
    return "%.17g" % (float(value) + 0.0)


#: decimal exponents X = floor(log10 |v|) the vectorized formatter can meet
_X_MIN, _X_MAX = -282, 290
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves


@functools.cache
def _tables() -> tuple:
    """The tables of :func:`_format`, built once, in about 1 ms.

    ``pow10`` holds ``10**p = hi + lo`` to ``2**-106`` for ``p = 16 - X``,
    from exact integers, and ``hi``'s two Veltkamp halves.  ``quad`` holds
    the ASCII of every 4-digit group in a uint64, first digit in the lowest
    byte; ``kept[j]`` the digits a value keeps when group ``j`` is its last
    nonzero one.  A
    template per (sign, mode, digits kept) lays a value out in 32 bytes: the
    sign and the ``0.000`` of -4 <= X < 0, then masks that take digits
    before the ``.`` unshifted and those after it shifted a byte, and the
    ``.``.  Mode is ``X + 4`` in fixed notation, 21 in scientific.
    ``expw`` holds ``e+XX`` in the bytes a value's last word leaves free.
    """
    # 10**p = num 2**scale: 10**-p as floor(2**1120 / 10**p) 2**-1120 cut to
    # 121 bits, then 10**p exactly; p runs from 16 - _X_MAX to 16 - _X_MIN
    pairs, inverse = [], 1 << 1120
    for _ in range(_X_MAX - 16):
        inverse //= 10
        cut = inverse.bit_length() - 121
        pairs.insert(0, (inverse >> cut, cut - 1120))
    pairs += [(10**p, 0) for p in range(17 - _X_MIN)]
    # int to float rounds correctly, so hi + lo is 10**p to 2**-106
    hi = np.array([math.ldexp(float(num), s) for num, s in pairs])
    lo = np.array([math.ldexp(float(num - int(float(num))), s) for num, s in pairs])
    c = hi * _SPLIT
    hh = c - (c - hi)
    pow10 = np.stack([hi, hh, hi - hh, lo])
    d = np.ix_(*[range(10)] * 4)  # the digits of 0..9999, most significant first
    quad = (sum((digit + 48) << 8 * i for i, digit in enumerate(d))).ravel().astype(np.uint64)
    places = [(digit > 0) * np.uint8(i + 1) for i, digit in enumerate(d)]
    last = functools.reduce(np.maximum, places).ravel()  # of the last nonzero digit, 0 for none
    kept = np.where(last > 0, np.arange(1, 17, 4, dtype=np.uint8)[:, None] + last, 0)
    kept[0, 0] = 1  # the leading digit alone
    mode, k = (a[..., None] for a in np.ix_(range(22), range(1, 18)))
    X, sci = mode - 4, mode == 21
    keep = np.where(sci, k, np.maximum(k, X + 1))  # fixed notation prints every integer digit
    dot = np.where(sci, 1, np.where(X >= 0, X + 1, 99))
    dot = np.where(keep > dot, dot, 99)  # 99: no '.'
    zeros = [b"0.000"[: 5 - m] if m < 4 else b"" for m in range(22)]  # of -4 <= X < 0
    prefix = b"".join((sign + z).ljust(8, b"\0") for sign in (b"", b"-") for z in zeros)
    pos = np.arange(24)
    unshifted, shifted = pos < np.minimum(keep, dot), (pos > dot) & (pos <= keep)
    prefix = np.frombuffer(prefix, np.uint8).reshape(2, 22, 1, 8)
    ones, dots = np.uint8(255), (pos == dot) * np.uint8(46)
    parts = (prefix, unshifted * ones, shifted * ones, dots)
    tpl = np.concatenate([np.broadcast_to(p, (2, 22, 17, p.shape[-1])) for p in parts], axis=-1)
    tpl = tpl.reshape(-1, 80).view("<u8").T.copy()
    exps = (b"\0\0" + (b"e%+03d" % x).ljust(6, b"\0") for x in range(_X_MIN, _X_MAX + 1))
    expw = np.frombuffer(bytes(8) + b"".join(exps), "<u8")  # row 0: fixed notation
    return pow10, quad, kept, tpl, expw


def _scaled(a: np.ndarray, X: np.ndarray, pow10: np.ndarray) -> tuple:
    """``a 10**(16 - X)`` as ``P + T``: ``P = fl(a hi)``, ``T`` its exact error plus ``a lo``."""
    hi, bh, bl, lo = np.take(pow10, _X_MAX - X, axis=1)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    P = a * hi
    return P, (((ah * bh - P) + ah * bl + al * bh) + al * bl) + a * lo


def _decimal(a: np.ndarray, pow10: np.ndarray) -> tuple:
    """The digits ``N`` and exponent ``X`` of ``'%.17g'`` of each ``1e-280 <= a < 1e289``,
    and whether they are exact.

    With ``X = floor(log10 a)``, ``y = a 10**(16 - X)`` lies in
    ``[1e16, 1e17)``, and ``'%.17g'`` prints the digits of ``N = round(y)``,
    in the next decade when ``N = 10**17``.  ``y`` is formed as ``P + T``:
    ``P = fl(a hi)``, and ``T`` is that product's exact error (Dekker's
    two-product; numpy has no fma) plus ``a lo``.  ``|T| < 20`` rounds with
    an error below 3e-15, and ``hi + lo`` and ``a lo`` add below 3e-15
    more, so ``P + T`` is ``y`` to within 1e-14.  ``P >= 2**53`` is an
    integer, so ``N = P + floor(T) + (frac(T) > 1/2)`` unless ``frac(T)``
    lies within 1e-14 of 1/2.  A ``log10`` one decade off shows as
    ``P + T`` outside ``[1e16, 1e17)`` and is redone; within 1e-14 of
    either end, both decades round to ``10**16`` or ``10**17``, the same
    text.  Values with ``frac(T)`` within 1e-9 of 1/2, every exact tie among
    them, are not exact; nor is a value still outside the decade after the
    one retry, which a ``log10`` more than one decade off would leave.
    """
    X = np.floor(np.log10(a)).astype(np.int64)
    P, T = _scaled(a, X, pow10)
    low = (P < 1e16) | (P == 1e16) & (T < 0.0)
    high = (P > 1e17) | (P == 1e17) & (T >= 0.0)
    fix = np.flatnonzero(low | high)
    if fix.size:
        X[fix] += high[fix].astype(np.int64) - low[fix]
        P[fix], T[fix] = _scaled(a[fix], X[fix], pow10)
    floor = np.floor(T)
    frac = T - floor
    exact = (np.abs(frac - 0.5) > 1e-9) & (P >= 1e16) & (P <= 1e17)
    N = P.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = N == 10**17
    N[carry] = 10**16
    return N, X + carry, exact


def _words(N: np.ndarray, quad: np.ndarray, kept: np.ndarray) -> tuple:
    """The 17 digits of each ``N`` as ASCII in three little-endian words, and how many
    of them ``'%.17g'`` keeps (up to the last nonzero one)."""
    lead, rest = np.divmod(N, 10**16)
    g = [rest // 10**e % 10**4 for e in (12, 8, 4, 0)]
    k = functools.reduce(np.maximum, [kept[j][g_j] for j, g_j in enumerate(g)])
    q0, q1, q2, q3 = (quad[g_j] for g_j in g)
    return (quad[lead] >> 24 | q0 << 8 | q1 << 40, q1 >> 24 | q2 << 8 | q3 << 40, q3 >> 24), k


def _format(x: np.ndarray, seps: np.ndarray, out: np.ndarray, mask: np.ndarray) -> str:
    """``'%.17g' % (v + 0.0)`` of each value of the 1-D float64 ``x``, byte for byte, each
    followed by its separator (``seps``: the byte shifted left by 56).

    :func:`_decimal` gives the digits and the exponent.  Values it does not
    give exactly, non-finite values and magnitudes outside
    ``[1e-280, 1e289)`` take ``'%'`` itself; zeros take the table path as
    ``N = 0``.  ``out`` and ``mask`` are reused buffers for at least
    ``x.size`` values.  Each value fills 32 bytes, zero where it has no
    character, and the text is the nonzero bytes.
    """
    pow10, quad, kept, tpl, expw = _tables()
    out, mask = out[: x.size], mask[: 32 * x.size]
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e289)  # floor(log10 a) +- 1 inside [_X_MIN, _X_MAX]
    N, X, exact = _decimal(np.where(ok, a, 1.0), pow10)
    zero = x == 0.0
    N[zero] = 0
    w, k = _words(N, quad, kept)
    sci = (X < -4) | (X >= 17)
    cls = ((x < 0) * 22 + np.where(sci, 21, X + 4)) * 17 + k - 1
    out[:, 0] = tpl[0][cls]
    for j, before in enumerate((0, *w[:2])):  # shifted a byte: room for the '.'
        shifted = w[j] << 8 | before >> 56
        out[:, j + 1] = w[j] & tpl[1 + j][cls] | shifted & tpl[4 + j][cls] | tpl[7 + j][cls]
    out[:, 3] |= expw[np.where(sci, X - _X_MIN + 1, 0)] | seps
    text = out.view(np.uint8)
    for i in np.flatnonzero(~(ok & exact | zero)).tolist():
        printed = number(x[i]).encode()
        text[i, :31] = 0  # byte 31 keeps the separator
        text[i, : len(printed)] = np.frombuffer(printed, np.uint8)
    text = text.ravel()
    return str(text[np.not_equal(text, 0, out=mask)].data, "ascii")


def lines(rows: np.ndarray, chunk: int) -> Iterator[str]:
    """The CSV lines of a 2-D float array of at least one column, ``chunk`` rows to a string.

    Each value prints as :func:`number` prints it, byte for byte.  The
    buffers are allocated once, for one chunk.
    """
    row = np.array([ord(",")] * (rows.shape[1] - 1) + [ord("\n")], np.uint64) << 56
    seps = np.tile(row, min(len(rows), chunk))
    out, mask = np.empty((seps.size, 4), "<u8"), np.empty(32 * seps.size, bool)
    for start in range(0, len(rows), chunk):
        x = np.asarray(rows[start : start + chunk], dtype=np.float64).ravel()
        yield _format(x, seps[: x.size], out, mask)
