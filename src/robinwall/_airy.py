"""Ai and Ai' on the real line, Ai + i Bi below it, and the zero seeds.

The package's one Airy evaluator, built from standard expansions:

* On [LOW, HIGH] = [-10, 12]: Taylor steps of ``_TERMS`` terms from the
  nearest centre of a grid of step 1/16, with coefficients from
  Ai'' = z Ai (DLMF 9.2.1).  The centre values are 30-digit mpmath values
  rounded to double, in :mod:`._airy_centres`, which
  ``tests/airy_centres.py`` writes.  Above ``SCALE_SWITCH`` they carry
  e^zeta(c), zeta = (2/3) z^(3/2), and a step multiplies by
  e^(zeta(z) - zeta(c)), formed from z - c without cancellation.
* Above HIGH: the scaled series DLMF 9.7.5 and 9.7.6 in 1/zeta.
* Below LOW: modulus and phase (DLMF §9.8(iv)), in the u_k, v_k form of
  DLMF 9.7.9 and 9.7.10: Ai(-x) = (P cos b + Q sin b) / (sqrt(pi) x^(1/4))
  with b = zeta - pi/4.  b is carried in double-double, so its size costs
  no digits.
* ``valley``: Ai(eps e^(i pi/3)) = 1/2 e^(-i pi/3) (Ai(-eps) + i Bi(-eps))
  (DLMF 9.2.11), times e^(i zeta(eps)).  Past eps = 10 that product is
  e^(i pi/4) (P + i Q) / (sqrt(pi) eps^(1/4)), with no phase left.
* ``zero_seeds``: the large-index expansions of DLMF 9.9.6 to 9.9.9.

A scalar runs as Python floats and an array as NumPy, with the same
operations in the same order, and exp, cos and sin are NumPy's in both;
so a scalar's values are its array element's, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ._airy_centres import AI, BI, LOW, SCALE_SWITCH, STEP

__all__ = ["SCALE_SWITCH", "airy", "valley", "zero_seeds"]

# Taylor steps up to this argument, the scaled series above it.
HIGH = LOW + STEP * (len(AI) // 2)
# Terms of a Taylor step: past them a step of STEP / 2 leaves under 2^-58
# of the local size of Ai and Ai' (the modulus below 0) at every centre.
_TERMS = 11
# Terms of the series in 1/zeta: 17 reach 2^-56 at z = HIGH and 22 at
# z = LOW, where the series below runs in 1/zeta^2, 11 terms each.
_ABOVE_TERMS = 17
_BELOW_TERMS = 11

_RSQRT_PI = 1.0 / math.sqrt(math.pi)
_PI4_HI = math.pi / 4.0
_PI4_LO = 3.061616997868383e-17  # pi/4 - _PI4_HI
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_EIGHTH = complex(math.sqrt(0.5), math.sqrt(0.5))  # e^(i pi/4)


def _horner(coeffs, t):
    """Polynomial at t, coefficients highest degree first; t a Python float or an array alike."""
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    return acc


def _taylor_rows(values: tuple) -> np.ndarray:
    """Coefficients of f and f' at every centre, shape (centres, _TERMS, 2), highest degree first.

    ``values`` holds f(c), f'(c) of each centre in turn; f'' = z f gives
    (k + 1)(k + 2) a_(k+2) = c a_k + a_(k-1).
    """
    pairs = np.array(values).reshape(-1, 2)
    c = LOW + STEP * (np.arange(len(pairs)) + 0.5)
    a = np.zeros((len(pairs), _TERMS + 1))
    a[:, 0], a[:, 1] = pairs[:, 0], pairs[:, 1]
    a[:, 2] = c * a[:, 0] / 2.0
    for k in range(1, _TERMS - 1):
        a[:, k + 2] = (c * a[:, k] + a[:, k - 1]) / ((k + 1) * (k + 2))
    slope = a[:, 1:] * np.arange(1, _TERMS + 1)
    return np.stack([a[:, _TERMS - 1::-1], slope[:, ::-1]], axis=2)


_AI_ROWS = _taylor_rows(AI)
_AI_TUPLES = [(tuple(f), tuple(df)) for f, df in _AI_ROWS.transpose(0, 2, 1).tolist()]
_BI_ROWS = _taylor_rows(BI)
_LAST = len(_AI_TUPLES) - 1
# The first centre whose values carry e^zeta(c).
_SCALED = round((SCALE_SWITCH - LOW) / STEP)


def _series(terms: int, stride: int, first: int) -> tuple:
    """(-1)^k u_(stride k + first) and (-1)^k v_(...) for k < terms, highest first.

    u_k = (2k+1)(2k+3)...(6k-1) / (216^k k!) and v_k = -(6k+1) / (6k-1) u_k
    (DLMF 9.7.2), each rounded once from exact integers.
    """
    u, v = [], []
    num, den = 1, 1
    for m in range(stride * terms + first):
        if m:
            num *= (6 * m - 5) * (6 * m - 3) * (6 * m - 1)
            den *= 216 * m * (2 * m - 1)
        if m % stride == first:
            sign = (-1) ** (m // stride)
            u.append(sign * num / den)
            v.append(sign * (6 * m + 1) * num / ((1 - 6 * m) * den))
    return tuple(u[::-1]), tuple(v[::-1])


# Series in 1/zeta above HIGH, and its even and odd terms in 1/zeta^2 below LOW.
_U_ABOVE, _V_ABOVE = _series(_ABOVE_TERMS, 1, 0)
_U_EVEN, _V_EVEN = _series(_BELOW_TERMS, 2, 0)
_U_ODD, _V_ODD = _series(_BELOW_TERMS, 2, 1)


def _two_product(a, b):
    """a b as an unevaluated sum hi + lo, exact (Dekker, with Veltkamp's split)."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _zeta(x, r):
    """(2/3) x^(3/2) as hi + lo, from x and r = sqrt(x) rounded."""
    # x^(3/2) = x (r + (x - r^2) / (2r)), with x - r^2 and x r exact.
    sq, sq_lo = _two_product(r, r)
    hi, lo = _two_product(x, r)
    lo = lo + x * (((x - sq) - sq_lo) / (2.0 * r))
    # Two thirds of 2 hi, with the remainder 2 hi - 3 q exact.
    q = 2.0 * hi / 3.0
    three_q, three_lo = _two_product(3.0, q)
    return q, (((2.0 * hi - three_q) - three_lo) + 2.0 * lo) / 3.0


def _turn(cos_b, sin_b, d):
    """cos(b + d) and sin(b + d) from cos b and sin b, for |d| below 1e-7."""
    half_sq = 0.5 * d * d
    return cos_b - (sin_b * d + cos_b * half_sq), sin_b + (cos_b * d - sin_b * half_sq)


def _below(x, sqrt, cos, sin):
    """Ai(-x) and Ai'(-x) for x > -LOW from DLMF 9.7.9 and 9.7.10."""
    r = sqrt(x)
    quarter = sqrt(r)
    zeta, zeta_lo = _zeta(x, r)
    # b = zeta - pi/4 as b + b_lo (Knuth's two-sum for the leading parts).
    b = zeta - _PI4_HI
    shift = b - zeta
    b_lo = ((zeta - (b - shift)) + (-_PI4_HI - shift)) + (zeta_lo - _PI4_LO)
    cos_b, sin_b = _turn(cos(b), sin(b), b_lo)
    inv = 1.0 / zeta
    y = inv * inv
    p_u, q_u = _horner(_U_EVEN, y), inv * _horner(_U_ODD, y)
    p_v, q_v = _horner(_V_EVEN, y), inv * _horner(_V_ODD, y)
    return ((cos_b * p_u + sin_b * q_u) * _RSQRT_PI / quarter,
            (sin_b * p_v - cos_b * q_v) * _RSQRT_PI * quarter)


def _above(z, sqrt):
    """Ai(z) e^zeta and Ai'(z) e^zeta for z > HIGH from DLMF 9.7.5 and 9.7.6."""
    r = sqrt(z)
    quarter = sqrt(r)
    inv = 1.0 / ((2.0 / 3.0) * z * r)
    half = 0.5 * _RSQRT_PI
    return half * _horner(_U_ABOVE, inv) / quarter, -half * quarter * _horner(_V_ABOVE, inv)


def _rise(z, c, sqrt):
    """zeta(z) - zeta(c) as (2/3) (z - c) (z + sqrt(z c) + c) / (sqrt z + sqrt c)."""
    h = z - c
    rz, rc = sqrt(z), sqrt(c)
    return (2.0 / 3.0) * h * (z + rz * rc + c) / (rz + rc)


def _scalar(z: float) -> tuple:
    if z < LOW:
        return _below(-z, math.sqrt, _float_cos, _float_sin)
    if z > HIGH:
        return _above(z, math.sqrt)
    j = int((z - LOW) * (1.0 / STEP))
    j = max(min(j, _LAST), _SCALED) if z > SCALE_SWITCH else min(j, _SCALED - 1)
    c = LOW + STEP * (j + 0.5)
    h = z - c
    row, slope_row = _AI_TUPLES[j]
    ai, aip = _horner(row, h), _horner(slope_row, h)
    if z > SCALE_SWITCH:
        rise = float(np.exp(_rise(z, c, math.sqrt)))
        return ai * rise, aip * rise
    return ai, aip


def _float_cos(x: float) -> float:
    return float(np.cos(x))


def _float_sin(x: float) -> float:
    return float(np.sin(x))


def _taylor(z: np.ndarray) -> tuple:
    """Ai and Ai' on a 1-d array within [LOW, HIGH]: both Horner sums in one pass."""
    j = ((z - LOW) * (1.0 / STEP)).astype(np.intp)
    scaled = z > SCALE_SWITCH
    any_scaled = scaled.any()
    if any_scaled:
        j = np.where(scaled, np.clip(j, _SCALED, _LAST), np.minimum(j, _SCALED - 1))
    else:
        np.minimum(j, _SCALED - 1, out=j)
    c = LOW + STEP * (j + 0.5)
    h = (z - c)[:, None]
    rows = _AI_ROWS[j]
    acc = rows[:, 0].copy()
    for k in range(1, _TERMS):
        acc *= h
        acc += rows[:, k]
    if any_scaled:
        acc[scaled] *= np.exp(_rise(z[scaled], c[scaled], np.sqrt))[:, None]
    return acc[:, 0], acc[:, 1]


def airy(z):
    """Ai(z) and Ai'(z), both times e^zeta, zeta = (2/3) z^(3/2), above ``SCALE_SWITCH``.

    A Python float gives two Python floats; anything else is taken as a
    float array and gives two arrays of its shape.  Arguments must be
    finite.
    """
    if isinstance(z, float):
        return _scalar(float(z))
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    low = flat < LOW
    high = flat > HIGH
    if not (low.any() or high.any()):
        ai, aip = _taylor(flat)
    else:
        ai = np.empty_like(flat)
        aip = np.empty_like(flat)
        mid = ~(low | high)
        ai[low], aip[low] = _below(-flat[low], np.sqrt, np.cos, np.sin)
        ai[high], aip[high] = _above(flat[high], np.sqrt)
        ai[mid], aip[mid] = _taylor(flat[mid])
    return ai.reshape(z.shape), aip.reshape(z.shape)


def valley(eps: float) -> tuple:
    """(Ai(-eps) + i Bi(-eps)) e^(i zeta) / 2 and -(Ai'(-eps) + i Bi'(-eps)) e^(i zeta) / 2.

    zeta = (2/3) eps^(3/2) and eps >= 0.  By DLMF 9.2.11 these are
    e^(i pi/3) Ai(eps e^(i pi/3)) and e^(2 i pi/3) Ai'(eps e^(i pi/3)),
    both times e^(i zeta).
    """
    if eps > -LOW:
        r = math.sqrt(eps)
        quarter = math.sqrt(r)
        inv = 1.0 / ((2.0 / 3.0) * eps * r)
        y = inv * inv
        half = 0.5 * _RSQRT_PI * _EIGHTH
        value = complex(_horner(_U_EVEN, y), inv * _horner(_U_ODD, y))
        slope = complex(-inv * _horner(_V_ODD, y), _horner(_V_EVEN, y))
        return half * value / quarter, -half * quarter * slope
    j = min(int((-eps - LOW) * (1.0 / STEP)), len(_BI_ROWS) - 1)
    h = -eps - (LOW + STEP * (j + 0.5))
    (ai, aip), (bi, bip) = _AI_TUPLES[j], _BI_ROWS[j].T.tolist()
    value = complex(_horner(ai, h), _horner(bi, h))
    slope = complex(_horner(aip, h), _horner(bip, h))
    r = math.sqrt(eps)
    zeta, zeta_lo = _zeta(eps, r) if eps > 0.0 else (0.0, 0.0)
    phase = complex(*_turn(math.cos(zeta), math.sin(zeta), zeta_lo))
    return 0.5 * value * phase, -0.5 * slope * phase


# Coefficients of T and U in powers of t^-2 (DLMF 9.9.8 and 9.9.9).
_T_COEFFS = (5.0 / 48.0, -5.0 / 36.0, 77125.0 / 82944.0, -108056875.0 / 6967296.0)
_U_COEFFS = (-7.0 / 48.0, 35.0 / 288.0, -181223.0 / 207360.0, 18683371.0 / 1244160.0)


def _zero_series(t: np.ndarray, coeffs: tuple) -> np.ndarray:
    """t^(2/3) (1 + sum c_j t^(-2j)), cut before its first term that grows."""
    powers = (t ** -2.0) ** np.arange(1, len(coeffs) + 1)[:, None]
    terms = np.array(coeffs)[:, None] * powers
    growing = np.abs(terms) > np.abs(np.vstack([np.ones_like(t), terms[:-1]]))
    kept = np.cumsum(growing, axis=0) == 0
    return t ** (2.0 / 3.0) * (1.0 + np.sum(np.where(kept, terms, 0.0), axis=0))


def zero_seeds(count: int) -> tuple:
    """First ``count`` negative zeros of Ai and of Ai' from DLMF 9.9.6 and 9.9.7, unpolished.

    a_k = -T(3 pi (4k - 1) / 8) and a'_k = -U(3 pi (4k - 3) / 8); each
    series stops before its first growing term, which matters only for
    a'_1.  The seeds are within 0.05 of the zeros, and within 1e-14
    relative from the thousandth on.
    """
    k = np.arange(1, count + 1)
    return (-_zero_series(3.0 * math.pi * (4 * k - 1) / 8.0, _T_COEFFS),
            -_zero_series(3.0 * math.pi * (4 * k - 3) / 8.0, _U_COEFFS))
