"""Airy evaluation and the negative zeros of Ai and Ai'.

Every bound state of a wall in a uniform field is an Airy profile, so this
module is the substrate for the rest of the package: one vectorized
evaluation of Ai and Ai' with the decaying exponential factored out, a
cached table of polished zeros of both functions, and the Gamma function
for the few closed-form constants.

Point values come from scipy's AMOS port.  Above ``SCALE_SWITCH`` the
pair is returned times exp(s), s = (2/3) z^(3/2), together with s, so no
value underflows: a caller forms Ai itself as ``ai * exp(-s)``, or a ratio
of two profile values as ``exp(s1 - s2)`` times a ratio of scaled values.
From ``AIRY_ARG_MAX`` on scipy has no scaled value; there the pair is
reported as 0, which is what Ai(z) rounds to long before that argument.

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
    "airy_root",
    "asymptotic_zero",
    "build_root_table",
    "gamma_fn",
    "root_table",
    "scaled_airy",
]

# Above this argument Ai and Ai' carry the factor exp((2/3) z^(3/2)).
SCALE_SWITCH = 8.0

# scipy's airye returns NaN from this argument on.
AIRY_ARG_MAX = 2.0 ** 20

_ROOT_RESIDUAL_TOL = 5e-12

ZERO_OF_AI = "zero_of_Ai"
ZERO_OF_AI_PRIME = "zero_of_Ai_prime"


def scaled_airy(z):
    """Ai(z) e^s, Ai'(z) e^s and the exponent s, elementwise on an array.

    s = (2/3) z^(3/2) above ``SCALE_SWITCH`` and 0 at or below it.  Every
    finite argument gives a finite pair; at and beyond ``AIRY_ARG_MAX``
    the pair is 0.
    """
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


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half-line."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma_fn needs a finite positive argument, got {x!r}")
    return math.gamma(x)


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

    def spacing(self, n: int) -> float:
        """Positive gap between the n-th and (n+1)-th zero of Ai."""
        self._check_index(n + 1)
        return float(self.a[n - 1] - self.a[n])


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


def airy_root(kind: str, n: int) -> float:
    """n-th negative zero of Ai (kind "zero_of_Ai") or Ai' ("zero_of_Ai_prime")."""
    n = int(n)
    if n < 1:
        raise ValueError(f"zero index must be >= 1, got {n}")
    table = root_table(n)
    if kind == ZERO_OF_AI:
        return table.ai_zero(n)
    if kind == ZERO_OF_AI_PRIME:
        return table.ai_prime_zero(n)
    raise ValueError(f"unknown zero kind {kind!r}; use {ZERO_OF_AI!r} or {ZERO_OF_AI_PRIME!r}")


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
