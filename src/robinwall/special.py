"""Airy evaluation and the negative zeros of Ai and Ai'.

Every bound state of a wall in a uniform field is an Airy profile, so this
module is the substrate for the rest of the package: one vectorized
evaluation of Ai and Ai' with the decaying exponential factored out and a
cached table of polished zeros of both functions.

Point values come from scipy's AMOS port.  Above ``SCALE_SWITCH`` the
pair is returned times exp(s), s = (2/3) z^(3/2), together with s, so no
value underflows: a caller forms Ai itself as ``ai * exp(-s)``, or a ratio
of two profile values as ``exp(s1 - s2)`` times a ratio of scaled values.
From ``AIRY_ARG_MAX`` on scipy has no scaled value; there the pair is
reported as 0, which is what Ai(z) rounds to long before that argument.
The momentum transform needs one complex value, Ai on the ray
arg z = pi/3, which ``valley_airy`` takes from the same AMOS port.

Zeros are seeded by scipy as well but then re-polished with Newton steps
through Ai itself, which brings the table residuals from the seed accuracy
(about 1e-11 for high indices) down to a few ulps.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

__all__ = [
    "AIRY_ARG_MAX",
    "SCALE_SWITCH",
    "AiryRootTable",
    "asymptotic_zero",
    "build_root_table",
    "root_table",
    "scaled_airy",
    "valley_airy",
]

# Above this argument Ai and Ai' carry the factor exp((2/3) z^(3/2)).
SCALE_SWITCH = 8.0

# scipy's airye returns NaN from this argument on.
AIRY_ARG_MAX = 2.0 ** 20

_ROOT_RESIDUAL_TOL = 5e-12

# e^(i pi/3)
_ROTATION = complex(0.5, math.sqrt(0.75))

ZERO_OF_AI = "zero_of_Ai"
ZERO_OF_AI_PRIME = "zero_of_Ai_prime"


def scaled_airy(z):
    """Ai(z) e^s, Ai'(z) e^s and the exponent s, elementwise on an array.

    s = (2/3) z^(3/2) above ``SCALE_SWITCH`` and 0 at or below it.  Every
    finite argument gives a finite pair; at and beyond ``AIRY_ARG_MAX``
    the pair is 0.  A scalar argument (a float, an int, a NumPy scalar or
    a 0-d array) gives three Python floats from one AMOS call, with s
    formed by libm ``pow``; array arguments keep the masked array path.
    """
    if isinstance(z, (float, int)) or getattr(z, "ndim", None) == 0:
        return _scaled_airy_scalar(float(z))
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"Airy arguments must be finite, got {z!r}")
    ai = np.empty_like(z)
    aip = np.empty_like(z)
    deep = z > SCALE_SWITCH
    plain = ~deep
    ai[plain], aip[plain], _, _ = sp.airy(z[plain])
    ai[deep], aip[deep], _, _ = sp.airye(z[deep])
    past = z >= AIRY_ARG_MAX
    ai[past] = 0.0
    aip[past] = 0.0
    s = np.where(deep, (2.0 / 3.0) * np.maximum(z, SCALE_SWITCH) ** 1.5, 0.0)
    return ai, aip, s


def _scaled_airy_scalar(z: float) -> tuple:
    # s stays a Python float: NumPy's array power can differ from libm pow
    # in the last bit, and the energies the tests pin rest on libm.
    if not math.isfinite(z):
        raise ValueError(f"Airy arguments must be finite, got {z!r}")
    if z <= SCALE_SWITCH:
        ai, aip, _, _ = sp.airy(z)
        return float(ai), float(aip), 0.0
    s = (2.0 / 3.0) * z ** 1.5
    if z >= AIRY_ARG_MAX:
        return 0.0, 0.0, s
    ai, aip, _, _ = sp.airye(z)
    return float(ai), float(aip), s


def valley_airy(eps: float) -> tuple:
    """J / 2 pi and (dJ/d eps) / 2 pi, times e^(i (2/3) eps^(3/2)), for eps >= 0.

    J(eps) = 2 pi e^(i pi/3) Ai(eps e^(i pi/3)) is the integral of
    exp(i (q^3/3 - eps q)) from the -pi/2 valley to the pi/6 valley (DLMF
    9.5.1 rotated by e^(-2 i pi/3)).  The factor is the scaling of scipy's
    ``airye``, a pure phase here, so the pair stays of order 1.
    """
    ai, aip, _, _ = sp.airye(float(eps) * _ROTATION)
    return complex(_ROTATION * ai), complex(_ROTATION * _ROTATION * aip)


@dataclass(frozen=True)
class AiryRootTable:
    """Ordered negative zeros of Ai (``a``) and Ai' (``a_prime``).

    Arrays are 0-based; the conventional 1-based index is used by the
    accessors, so ``ai_zero(1)`` is the first (least negative) zero.
    """

    a: np.ndarray
    a_prime: np.ndarray

    @property
    def count(self) -> int:
        return int(self.a.size)

    def _check_index(self, n: int) -> int:
        n = int(n)
        if n < 1:
            raise ValueError(f"zero index must be >= 1, got {n}")
        if n > self.count:
            raise ValueError(f"table holds {self.count} zeros, index {n} requested")
        return n

    def ai_zero(self, n: int) -> float:
        return float(self.a[self._check_index(n) - 1])

    def ai_prime_zero(self, n: int) -> float:
        return float(self.a_prime[self._check_index(n) - 1])


def _polish(seeds_a: np.ndarray, seeds_ap: np.ndarray, rounds: int = 2):
    a = np.array(seeds_a, dtype=float)
    ap = np.array(seeds_ap, dtype=float)
    for _ in range(rounds):
        ai, aip, _, _ = sp.airy(a)
        a -= ai / aip
        ai, aip, _, _ = sp.airy(ap)
        # Ai''(x) = x Ai(x), so the Newton slope for zeros of Ai' is x*Ai.
        ap -= aip / (ap * ai)
    return a, ap


def build_root_table(count: int) -> AiryRootTable:
    count = int(count)
    if count < 1:
        raise ValueError("root table needs at least one zero")
    seeds_a, seeds_ap, _, _ = sp.ai_zeros(count)
    a, ap = _polish(seeds_a, seeds_ap)
    res_a = float(np.max(np.abs(sp.airy(a)[0])))
    res_ap = float(np.max(np.abs(sp.airy(ap)[1])))
    if max(res_a, res_ap) > _ROOT_RESIDUAL_TOL:
        a, ap = _polish(a, ap, rounds=1)
        res_a = float(np.max(np.abs(sp.airy(a)[0])))
        res_ap = float(np.max(np.abs(sp.airy(ap)[1])))
        if max(res_a, res_ap) > _ROOT_RESIDUAL_TOL:
            raise RuntimeError(
                f"Airy zero refinement stalled, worst residual {max(res_a, res_ap):.3e}"
            )
    decreasing = np.all(np.diff(a) < 0.0) and np.all(np.diff(ap) < 0.0)
    if not (decreasing and a[0] < 0.0 and ap[0] < 0.0):
        raise RuntimeError("Airy zero table is not strictly decreasing")
    a.setflags(write=False)
    ap.setflags(write=False)
    return AiryRootTable(a=a, a_prime=ap)


_table_lock = threading.Lock()
_table = build_root_table(64)


def root_table(count: int = 64) -> AiryRootTable:
    """Shared immutable table holding at least ``count`` zeros."""
    global _table
    if count <= _table.count:
        return _table
    with _table_lock:
        if count > _table.count:
            _table = build_root_table(max(int(count), 2 * _table.count))
        return _table


# Large-index expansions for the zeros (Abramowitz & Stegun style): the
# n-th zero of Ai sits at -T(3*pi*(4n-1)/8) and the n-th zero of Ai' at
# -U(3*pi*(4n-3)/8), with T and U asymptotic series in t^(-2).
_T_COEFFS = (5.0 / 48.0, -5.0 / 36.0, 77125.0 / 82944.0, -108056875.0 / 6967296.0)
_U_COEFFS = (-7.0 / 48.0, 35.0 / 288.0, -181223.0 / 207360.0, 18683371.0 / 1244160.0)


def _zero_series(t: float, coeffs) -> float:
    u = t ** -2.0
    acc = 1.0
    power = 1.0
    for c in coeffs:
        power *= u
        acc += c * power
    return t ** (2.0 / 3.0) * acc


def asymptotic_zero(kind: str, n: int) -> float:
    """Unrefined large-index location of the n-th zero."""
    n = int(n)
    if n < 1:
        raise ValueError(f"zero index must be >= 1, got {n}")
    if kind == ZERO_OF_AI:
        return -_zero_series(3.0 * math.pi * (4 * n - 1) / 8.0, _T_COEFFS)
    if kind == ZERO_OF_AI_PRIME:
        return -_zero_series(3.0 * math.pi * (4 * n - 3) / 8.0, _U_COEFFS)
    raise ValueError(f"unknown zero kind {kind!r}")
