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
bracket read off the zero table.  Newton steps in z, with the slope from
Ai'' = z Ai, refine it there from the first-order root next to the
nearer hard-wall zero, and a step that would leave the bracket becomes a
bisection.  E is formed from the solved z, as a hard wall forms it from
the zero table.  A sign change of the determinant across a certified
width of z (a few ulps, widened by the determinant's own rounding)
certifies the root.  The bracket itself fixes the index: the zeros
interlace as a'_1 > a_1 > a'_2 > a_2 > ..., so a z strictly inside it
has exactly n zeros of Ai above it.  Brent's method (``brent_root``)
serves the searches along the field.
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
    "energy",
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

    ``arg0`` is the wall-side Airy argument z, and ``energy`` is formed
    from it as -F^(2/3) z: for a hard wall z is the zero-table value
    a_(n+1) or a'_(n+1) itself, for a Robin wall the solved root.
    ``residual`` is |determinant| at ``arg0`` (Ai, Ai' or
    F^(1/3) Ai' + sigma Ai, scaled as ``scaled_airy`` scales them);
    ``bracket`` holds the energies that enclose a Robin level (its
    hard-wall neighbours, or -1) and is (E, E) for a hard wall.
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


# Brent's smallest relative stopping width, as in scipy's brentq.
_RTOL = 4.0 * np.finfo(float).eps

# A Robin root is certified within this many ulps of z, widened by the
# Airy rounding band below; the Newton iteration stops on a step inside
# that width.
_STEP_ULPS = 4.0
_MAX_STEPS = 100

# Relative accuracy of scipy's Airy values, with margin over the 4e-15
# seen near Robin roots.  At a Robin root both determinant terms have
# size |Ai| and its slope in z is |Ai| |E+1| / F^(1/3), so this rounding
# blurs the zero over 2 * _AIRY_RTOL * F^(1/3) / |E+1| in z, or
# 2 * _AIRY_RTOL * F / |E+1| in E.
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


def _robin_bracket(bc: BoundarySpec, n: int, field: float) -> tuple:
    """Wall arguments (lo, hi) that enclose Robin level n and no other level of that wall.

    In z = -E / F^(2/3) robin+ (sigma = -1) lies between the Dirichlet
    and Neumann zeros a_(n+1) < a'_(n+1); robin- (sigma = +1) lies above
    a'_(n+1) and below a_n, or below F^(-2/3), the zero-field surface
    state E = -1, when n = 0.  At every lower end the determinant has the
    sign of Ai'(a_(n+1)) or Ai(a'_(n+1)), (-1)^n, and at every upper end
    the opposite sign, so neither end needs an evaluation.
    """
    table = root_table(n + 1)
    neumann = table.ai_prime_zero(n + 1)
    if bc is BoundarySpec.ROBIN_PLUS:
        return table.ai_zero(n + 1), neumann
    if n == 0:
        return neumann, 1.0 / field ** (2.0 / 3.0)
    return neumann, table.ai_zero(n)


def _determinant(bc: BoundarySpec, f13: float, z: float) -> tuple:
    """Wall determinant at z and its z-derivative, both times e^s, from one Airy call.

    Ai(z) for a Dirichlet wall, Ai'(z) for Neumann and
    F^(1/3) Ai'(z) + sigma Ai(z) for Robin; its zeros in z are the levels.
    """
    ai, aip, _ = scaled_airy(z)
    # Ai''(z) = z Ai(z) (DLMF 9.2.1).
    if bc is BoundarySpec.DIRICHLET:
        return ai, aip
    if bc is BoundarySpec.NEUMANN:
        return aip, z * ai
    sigma = bc.wall_slope
    return f13 * aip + sigma * ai, f13 * z * ai + sigma * aip


def _certified_width(z: float, f13: float) -> float:
    """Half-width in z within which a Robin root is certified.

    ``_STEP_ULPS`` ulps of z plus the band over which the rounding of the
    Airy values blurs the zero, 2 * _AIRY_RTOL * F^(1/3) / |E + 1|.
    """
    return _STEP_ULPS * math.ulp(z) + 2.0 * _AIRY_RTOL * f13 / abs(1.0 - f13 * f13 * z)


def _newton_start(bc: BoundarySpec, n: int, field: float, lo: float, hi: float) -> float:
    """First-order root next to the nearer hard-wall limit of the level.

    Near a Dirichlet zero a the root is a - sigma F^(1/3), near a Neumann
    zero a' it is a' - sigma / (F^(1/3) a'); the weak-field limit of the
    robin- ground level is z = (1 - F/2) / F^(2/3) instead.  The Dirichlet
    side is the nearer one while F^(2/3) |a'| < 1.
    """
    sigma = bc.wall_slope
    f13 = field ** (1.0 / 3.0)
    neumann, other = (hi, lo) if bc is BoundarySpec.ROBIN_PLUS else (lo, hi)
    if f13 * f13 * abs(neumann) >= 1.0:
        z = neumann - sigma / (f13 * neumann)
    elif bc is BoundarySpec.ROBIN_MINUS and n == 0:
        z = (1.0 - 0.5 * field) * other  # other = F^(-2/3)
    else:
        z = other - sigma * f13  # other = the Dirichlet zero
    return z if lo < z < hi else 0.5 * (lo + hi)


def _newton_root(bc: BoundarySpec, n: int, field: float, lo: float, hi: float) -> float:
    """Root of the determinant in the open bracket (lo, hi) by safeguarded Newton steps in z.

    Every evaluation moves one end of the bracket; a step that would
    leave it becomes a bisection.  The iteration stops on a Newton step
    within the certified width of z and returns z minus that step, or on
    an evaluation point when no double is left between the ends.
    """
    f13 = field ** (1.0 / 3.0)
    lo_positive = n % 2 == 0
    z = _newton_start(bc, n, field, lo, hi)
    for _ in range(_MAX_STEPS):
        d, slope = _determinant(bc, f13, z)
        if d == 0.0:
            return z
        if (d > 0.0) == lo_positive:
            lo = z
        else:
            hi = z
        step = d / slope
        following = z - step
        if abs(step) <= _certified_width(z, f13):
            return following
        if not lo < following < hi:
            following = 0.5 * (lo + hi)
            if not lo < following < hi:
                return z
        z = following
    raise ConsistencyError(f"{bc.value} level {n} at field {field:g}: Newton iteration did "
                           f"not settle in {_MAX_STEPS} steps; last z={z!r}")


def _certify_root(bc: BoundarySpec, z: float, field: float) -> None:
    """Raise unless the determinant changes sign within ``_certified_width`` of z."""
    f13 = field ** (1.0 / 3.0)
    width = _certified_width(z, f13)
    below, _ = _determinant(bc, f13, z - width)
    above, _ = _determinant(bc, f13, z + width)
    if not (below < 0.0 < above or above < 0.0 < below):
        raise ConsistencyError(
            f"determinant keeps its sign ({below:.3e}, {above:.3e}) within "
            f"{width:.3e} of z={z:.17g}"
        )


def _solve_robin(bc: BoundarySpec, n: int, field: float) -> BoundState:
    lo, hi = _robin_bracket(bc, n, field)
    if hi >= AIRY_ARG_MAX:
        raise DomainError(
            f"{bc.value} level {n} needs field > {AIRY_ARG_MAX ** -1.5:.6g}: below it "
            "the wall-side Airy argument leaves the range of the scaled Airy functions"
        )
    f23 = field ** (2.0 / 3.0)
    e_lo = -1.0 if bc is BoundarySpec.ROBIN_MINUS and n == 0 else -f23 * hi
    e_hi = -f23 * lo
    z = _newton_root(bc, n, field, lo, hi)
    e_val = -f23 * z
    # The tabulated zero and the solved z each carry about an ulp of
    # rounding, so a Robin shift from the hard-wall zero of two ulps or
    # less cannot be told from none.  Strictly inside (lo, hi), z has
    # exactly n zeros of Ai above it, which certifies the index.
    if not (min(z - lo, hi - z) > 2.0 * math.ulp(z) and e_lo < e_val < e_hi):
        raise DomainError(
            f"{bc.value} level {n} at field {field:g}: the level solves to z={z:.17g}, "
            f"within two ulps of an end of its bracket [{lo:.17g}, {hi:.17g}]; the "
            "Robin shift from the hard-wall zero has dropped below the rounding of z"
        )
    _certify_root(bc, z, field)
    residual, _ = _determinant(bc, field ** (1.0 / 3.0), z)
    return BoundState(bc=bc, n=n, field=field, energy=e_val, arg0=z, residual=abs(residual),
                      bracket=(e_lo, e_hi))


@lru_cache(maxsize=4096)
def _solve(bc: BoundarySpec, n: int, field: float) -> BoundState:
    if bc.is_robin:
        return _solve_robin(bc, n, field)
    table = root_table(n + 1)
    root = table.ai_zero(n + 1) if bc is BoundarySpec.DIRICHLET else table.ai_prime_zero(n + 1)
    e_val = -field ** (2.0 / 3.0) * root
    residual, _ = _determinant(bc, field ** (1.0 / 3.0), root)
    return BoundState(bc=bc, n=n, field=field, energy=e_val, arg0=root, residual=abs(residual),
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
