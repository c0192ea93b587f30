"""Airy evaluation and the negative zeros of Ai and Ai'.

Every bound state of a wall in a uniform field is an Airy profile, so this
module is the substrate for the rest of the package: one vectorized
evaluation of Ai and Ai' with the decaying exponential factored out and a
cached table of polished zeros of both functions.

Point values come from the package's own evaluator, :mod:`._airy`, within
4 ulp of 50-digit values (see ``tests/test_airy.py``).  Above ``SCALE_SWITCH`` the pair
is returned times exp(s), s = (2/3) z^(3/2), together with s, so no value
underflows: a caller forms Ai itself as ``ai * exp(-s)``, or a ratio of two
profile values as ``exp(s1 - s2)`` times a ratio of scaled values.  From
``AIRY_ARG_MAX`` on the pair is reported as 0, which is what Ai(z) rounds
to long before that argument.  The momentum transform needs one complex
value, Ai on the ray arg z = pi/3, which ``valley_airy`` takes from the
same evaluator.

Zeros are seeded by the large-index expansions of DLMF §9.9(iv) and then
polished with Newton steps through Ai itself, which brings them from the
seed accuracy (0.05 for a'_1, 1e-14 relative from the thousandth zero on)
to a step of a few ulps.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _airy as sp
from ._airy import SCALE_SWITCH

__all__ = [
    "AIRY_ARG_MAX",
    "SCALE_SWITCH",
    "AiryRootTable",
    "build_root_table",
    "root_table",
    "scaled_airy",
    "valley_airy",
]

# The pair is reported as 0 from this argument on, where Ai(z) e^s has
# long been below any value a caller could use: exp(-s) underflows from
# z = 104.
AIRY_ARG_MAX = 2.0 ** 20

# A polished zero is certified when the next Newton step would move it by
# at most this many ulps.  Its residual Ai(a) cannot serve: at a zero
# rounded to the nearest double it grows with |a| (past 5e-12 for Ai' at
# the 3,000th zero), while the step stays within 2 ulps to 20,000 zeros.
_ROOT_STEP_ULPS = 8.0


def scaled_airy(z):
    """Ai(z) e^s, Ai'(z) e^s and the exponent s, elementwise on an array.

    s = (2/3) z^(3/2) above ``SCALE_SWITCH`` and 0 at or below it.  Every
    finite argument gives a finite pair; at and beyond ``AIRY_ARG_MAX``
    the pair is 0.  A scalar argument (a float, an int, a NumPy scalar or
    a 0-d array) gives three Python floats, with s formed by libm ``pow``;
    array arguments keep the masked array path.
    """
    if isinstance(z, (float, int)) or getattr(z, "ndim", None) == 0:
        return _scaled_airy_scalar(float(z))
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"Airy arguments must be finite, got {z!r}")
    ai, aip = sp.airy(z)
    past = z >= AIRY_ARG_MAX
    ai[past] = 0.0
    aip[past] = 0.0
    deep = z > SCALE_SWITCH
    s = np.where(deep, (2.0 / 3.0) * np.maximum(z, SCALE_SWITCH) ** 1.5, 0.0)
    return ai, aip, s


def _scaled_airy_scalar(z: float) -> tuple:
    # s stays a Python float: NumPy's array power can differ from libm pow
    # in the last bit, and the energies the tests pin rest on libm.
    if not math.isfinite(z):
        raise ValueError(f"Airy arguments must be finite, got {z!r}")
    if z <= SCALE_SWITCH:
        return (*sp.airy(z), 0.0)
    s = (2.0 / 3.0) * z ** 1.5
    if z >= AIRY_ARG_MAX:
        return 0.0, 0.0, s
    return (*sp.airy(z), s)


def valley_airy(eps: float) -> tuple:
    """J / 2 pi and (dJ/d eps) / 2 pi, times e^(i (2/3) eps^(3/2)), for eps >= 0.

    J(eps) = 2 pi e^(i pi/3) Ai(eps e^(i pi/3)) is the integral of
    exp(i (q^3/3 - eps q)) from the -pi/2 valley to the pi/6 valley (DLMF
    9.5.1 rotated by e^(-2 i pi/3)).  The factor is a pure phase, which
    cancels inside the evaluator (see :func:`._airy.valley`), so the pair
    stays of order 1 and exact to a few ulps at any eps.
    """
    return sp.valley(float(eps))


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


def _newton_steps(a: np.ndarray, ap: np.ndarray) -> tuple:
    """Newton steps toward the zeros of Ai from a and of Ai' from ap."""
    ai, aip = sp.airy(a)
    step_a = ai / aip
    ai, aip = sp.airy(ap)
    # Ai''(x) = x Ai(x), so the Newton slope for zeros of Ai' is x*Ai.
    return step_a, aip / (ap * ai)


def _worst_step_ulps(a: np.ndarray, ap: np.ndarray) -> float:
    step_a, step_ap = _newton_steps(a, ap)
    return float(max(np.max(np.abs(step_a) / np.spacing(np.abs(a))),
                     np.max(np.abs(step_ap) / np.spacing(np.abs(ap)))))


# Newton rounds at most; the seed of a'_1, 0.05 off, settles in five.
_POLISH_ROUNDS = 8


def build_root_table(count: int) -> AiryRootTable:
    count = int(count)
    if count < 1:
        raise ValueError("root table needs at least one zero")
    a, ap = sp.zero_seeds(count)
    for _ in range(_POLISH_ROUNDS):
        step_a, step_ap = _newton_steps(a, ap)
        a -= step_a
        ap -= step_ap
        if max(np.max(np.abs(step_a) / np.spacing(np.abs(a))),
               np.max(np.abs(step_ap) / np.spacing(np.abs(ap)))) <= 1.0:
            break
    worst = _worst_step_ulps(a, ap)
    if worst > _ROOT_STEP_ULPS:
        raise RuntimeError(f"Airy zero refinement stalled, worst Newton step {worst:.3g} ulp")
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

