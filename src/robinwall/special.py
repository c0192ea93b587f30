"""The negative zeros of Ai and Ai', polished and cached.

Every bound state of a hard wall in a uniform field sits on a zero of Ai
(Dirichlet) or of Ai' (Neumann), and every Robin level is bracketed by
them, so the package reads its levels and brackets from one shared,
immutable table of both.

Zeros are seeded by the large-index expansions of DLMF §9.9(iv) and then
polished with Newton steps through :func:`._airy.airy`, which brings them
from the seed accuracy (0.05 for a'_1, 1e-14 relative from the thousandth
zero on) to a step of a few ulps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

# Called as ``sp.airy``: perfbench/tracing.py counts Airy points there.
from . import _airy as sp

__all__ = ["AiryRootTable", "build_root_table", "root_table"]

# A polished zero is certified when the next Newton step would move it by
# at most this many ulps.  Its residual Ai(a) cannot serve: at a zero
# rounded to the nearest double it grows with |a| (past 5e-12 for Ai' at
# the 3,000th zero), while the step stays within 2 ulps to 20,000 zeros.
_ROOT_STEP_ULPS = 8.0


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
    ai, aip, _ = sp.airy(a)
    step_a = ai / aip
    ai, aip, _ = sp.airy(ap)
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

