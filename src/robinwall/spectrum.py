"""Bound-state energies of a wall on the half-line in a uniform field.

All four wall types reduce to one family of conditions on the wall-side
Airy argument z = -E / field^(2/3): Ai(z) = 0 for a Dirichlet wall,
Ai'(z) = 0 for Neumann, and field^(1/3) Ai'(z) +/- Ai(z) = 0 for the
Robin wall with unit extrapolation length of either sign.  Dirichlet and
Neumann levels therefore come straight from the zero table.

The determinant's zeros in E move monotonically with the wall slope
sigma in psi'(0) = sigma psi(0): raising sigma lowers every level, and a
level of any slope stays above the Dirichlet level below it (A. Zettl,
*Sturm-Liouville Theory*, AMS 2005).  With Dirichlet as sigma -> -inf and
Neumann as sigma = 0, each Robin level therefore sits strictly inside a
bracket read off the zero table.  Brent's method refines it there, a
sign change of the determinant across Brent's stopping width (widened by
the determinant's own rounding) certifies the root, and a node count
certifies its index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# Unused here, but perfbench/tracing.py wraps the ``sp`` attribute of
# special, spectrum and states to count Airy points.
from scipy import special as sp  # noqa: F401

from .special import AIRY_ARG_MAX, root_table, scaled_airy

__all__ = [
    "BoundarySpec",
    "BoundState",
    "BracketError",
    "ConsistencyError",
    "DomainError",
    "eigenvalue_function",
    "energy",
    "node_count",
    "zero_energy_field",
    "zero_energy_field_solved",
]


class DomainError(ValueError):
    """Input outside the physical domain the solver covers."""


class ConsistencyError(RuntimeError):
    """Two routes to the same quantity disagree beyond tolerance."""


class BracketError(RuntimeError):
    """A search bracket holds no root or extremum; carries the bracket tried."""

    def __init__(self, message: str, lo: float = math.nan, hi: float = math.nan,
                 detail: str = ""):
        super().__init__(message)
        self.lo = lo
        self.hi = hi
        self.detail = detail


class BoundarySpec(enum.Enum):
    """Which wall sits at x = 0."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN_MINUS = "robin-"
    ROBIN_PLUS = "robin+"

    @property
    def is_robin(self) -> bool:
        return self in (BoundarySpec.ROBIN_MINUS, BoundarySpec.ROBIN_PLUS)

    @property
    def wall_slope(self):
        """sigma in the wall condition psi'(0) = sigma * psi(0).

        None for a Dirichlet wall, where the condition fixes the value
        rather than the slope.
        """
        if self is BoundarySpec.DIRICHLET:
            return None
        if self is BoundarySpec.ROBIN_MINUS:
            return 1.0
        if self is BoundarySpec.ROBIN_PLUS:
            return -1.0
        return 0.0

    @classmethod
    def parse(cls, text) -> "BoundarySpec":
        """The wall whose value is ``text``; a BoundarySpec comes back unchanged."""
        try:
            return cls(text)
        except ValueError:
            options = ", ".join(wall.value for wall in cls)
            raise ValueError(f"unknown boundary {text!r}; expected one of {options}") from None


@dataclass(frozen=True)
class BoundState:
    """One solved level, with the diagnostics that certified it.

    ``arg0`` is the wall-side Airy argument -E / F^(2/3): for a hard wall
    the zero-table value a_(n+1) or a'_(n+1) itself, the number E was
    formed from.
    """

    bc: BoundarySpec
    n: int
    field: float
    energy: float
    arg0: float
    residual: float
    bracket: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("quantum number must be non-negative")


# Brent's stopping width at a root E is _XTOL + _RTOL * |E|.
_XTOL = 1e-14
_RTOL = 4.0 * np.finfo(float).eps

# Relative accuracy of scipy's Airy values, with margin over the 4e-15
# seen near Robin roots.  At a Robin root both determinant terms have
# size |Ai| and its slope in E is |Ai| |E+1| / field, so this rounding
# blurs the zero over 2 * _AIRY_RTOL * field / |E+1|.
_AIRY_RTOL = 1e-14


def brent_root(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL,
               maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method, step for step as scipy's brentq.c.

    The steps (inverse quadratic extrapolation, secant interpolation or
    bisection) and the stopping half-width (xtol + rtol |x|) / 2 are those
    of scipy.optimize.brentq, so both return the same double.  Raises
    ValueError, with brentq's message, for xtol <= 0 or rtol < 4 eps, when
    f has the same sign at both ends or when it returns NaN, and
    RuntimeError after maxiter steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps; last x={xcur!r}")


def eigenvalue_function(bc: BoundarySpec, energy_value: float, field: float) -> float:
    """Boundary determinant whose zeros in E are the levels.

    Deep in the classically forbidden region the value is rescaled by a
    positive exponential to stay representable; zeros are unaffected.
    """
    if not field > 0.0:
        raise DomainError("field must be positive; the spectrum is continuous otherwise")
    ai, aip, _ = scaled_airy(-float(energy_value) / field ** (2.0 / 3.0))
    if bc is BoundarySpec.DIRICHLET:
        return float(ai)
    if bc is BoundarySpec.NEUMANN:
        return float(aip)
    return float(field ** (1.0 / 3.0) * aip + bc.wall_slope * ai)


def node_count(energy_value: float, field: float) -> int:
    """Number of interior zeros of the Airy profile with wall energy E."""
    z = -float(energy_value) / float(field) ** (2.0 / 3.0)
    if z >= 0.0:
        return 0
    need = int((2.0 / (3.0 * math.pi)) * (-z) ** 1.5) + 4
    table = root_table(need)
    # A value-fixed wall pins one zero exactly on the boundary, and rounding
    # can drop the reconstructed argument a hair below it, so zeros within a
    # relative guard of the wall are not interior.  Genuine interior zeros
    # sit at least O(field**(1/3)) away in this variable.
    guard = 1e-9 * max(1.0, -z)
    return int(np.count_nonzero(table.a > z + guard))


def _robin_bracket(bc: BoundarySpec, n: int, field: float) -> tuple:
    """Energies that enclose Robin level n and no other level of that wall.

    robin+ (sigma = -1) lies between the Neumann and Dirichlet level n;
    robin- (sigma = +1) lies below Neumann level n and above Dirichlet
    level n-1, or above -1, the zero-field surface state, when n = 0.
    """
    f23 = field ** (2.0 / 3.0)
    table = root_table(n + 1)
    neumann = -table.ai_prime_zero(n + 1) * f23
    if bc is BoundarySpec.ROBIN_PLUS:
        return neumann, -table.ai_zero(n + 1) * f23
    if n == 0:
        return -1.0, neumann
    return -table.ai_zero(n) * f23, neumann


def _certify_root(bc: BoundarySpec, root: float, field: float) -> None:
    """Raise unless the determinant changes sign within a certified width of root.

    The width is Brent's stopping width plus the band over which the
    determinant's own rounding blurs its zero.
    """
    width = _XTOL + _RTOL * abs(root) + 2.0 * _AIRY_RTOL * field / abs(root + 1.0)
    below = eigenvalue_function(bc, root - width, field)
    above = eigenvalue_function(bc, root + width, field)
    if not (below < 0.0 < above or above < 0.0 < below):
        raise ConsistencyError(
            f"determinant keeps its sign ({below:.3e}, {above:.3e}) within "
            f"{width:.3e} of E={root:.17g}"
        )


def _solve_robin(bc: BoundarySpec, n: int, field: float) -> BoundState:
    lo, hi = _robin_bracket(bc, n, field)
    if -lo / field ** (2.0 / 3.0) >= AIRY_ARG_MAX:
        raise DomainError(
            f"{bc.value} level {n} needs field > {AIRY_ARG_MAX ** -1.5:.6g}: below it "
            "the wall-side Airy argument leaves the range of the scaled Airy functions"
        )
    try:
        root = brent_root(lambda e: eigenvalue_function(bc, e, field), lo, hi,
                          xtol=_XTOL, rtol=_RTOL)
    except ValueError:
        # brent_root's only ValueError here is its sign check at the bracket ends.
        raise DomainError(
            f"{bc.value} level {n} at field {field:g}: the determinant keeps its sign over "
            f"the bracket [{lo:.17g}, {hi:.17g}]; the Robin shift from the hard-wall "
            "level has dropped below the rounding of E"
        ) from None
    _certify_root(bc, root, field)
    found_nodes = node_count(root, field)
    if found_nodes != n:
        raise ConsistencyError(
            f"level {n} solved to E={root:.12g} but the profile has {found_nodes} nodes"
        )
    f13 = field ** (1.0 / 3.0)
    return BoundState(bc=bc, n=n, field=field, energy=root, arg0=-root / (f13 * f13),
                      residual=abs(eigenvalue_function(bc, root, field)), bracket=(lo, hi))


@lru_cache(maxsize=4096)
def _solve(bc: BoundarySpec, n: int, field: float) -> BoundState:
    if bc.is_robin:
        return _solve_robin(bc, n, field)
    table = root_table(n + 4)
    root = table.ai_zero(n + 1) if bc is BoundarySpec.DIRICHLET else table.ai_prime_zero(n + 1)
    e_val = -field ** (2.0 / 3.0) * root
    residual = abs(eigenvalue_function(bc, e_val, field))
    return BoundState(bc=bc, n=n, field=field, energy=e_val, arg0=root, residual=residual,
                      bracket=(e_val, e_val))


def energy(bc: BoundarySpec, n: int, field: float) -> BoundState:
    """Solve for level n of the given wall at a positive field."""
    bc = BoundarySpec.parse(bc)
    n = int(n)
    if n < 0:
        raise DomainError("quantum number must be non-negative")
    field = float(field)
    if not (math.isfinite(field) and field > 0.0):
        raise DomainError(
            "field must be positive and finite; at zero field only the attractive "
            "Robin wall keeps a bound level (E = -1), every other state unbinds"
        )
    return _solve(bc, n, field)


def zero_energy_field() -> float:
    """Field at which the attractive-wall ground level crosses zero energy."""
    g13 = math.gamma(1.0 / 3.0)
    g23 = math.gamma(2.0 / 3.0)
    return g13 ** 3 / (3.0 * g23 ** 3)


def zero_energy_field_solved() -> float:
    """The same crossing recovered from the solver instead of Gamma values."""

    def ground(field: float) -> float:
        return energy(BoundarySpec.ROBIN_MINUS, 0, field).energy

    return brent_root(ground, 2.0, 3.2, xtol=1e-10, rtol=1e-12)
