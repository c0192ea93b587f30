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
has exactly n zeros of Ai above it.

The Airy pair of the level's last determinant also gives its wall data:
in Airy units u = -F^(1/3) x every level is Ai(z0 + u) / N, whatever its
wall, with N^2 = Ai'(z0)^2 - z0 Ai(z0)^2 (Albright, J. Phys. A 10, 485,
1977).  Its value p = Ai(z0) / N and slope d = -Ai'(z0) / N at the wall
close every observable of :mod:`.observables` and
:mod:`.infomeasures` in one formula for all four walls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

# Called as ``sp.airy``: perfbench/tracing.py counts Airy points there.
from . import _airy as sp
from .special import root_table

__all__ = [
    "BoundarySpec",
    "BoundState",
    "BracketError",
    "ConsistencyError",
    "DomainError",
    "energy",
    "field_roots",
    "wall_closed_form",
    "wall_data",
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
    ``residual`` is the Newton step |D / D'| of the determinant D (Ai, Ai'
    or F^(1/3) Ai' + sigma Ai) at ``arg0``, in ulps of ``arg0``: within
    ``special._ROOT_STEP_ULPS`` for a hard wall, within the certified width
    for a Robin wall.  ``bracket`` holds the energies that enclose a Robin
    level (its hard-wall neighbours, or -1) and is (E, E) for a hard wall.
    ``psi0`` and ``dpsi0`` are the level's wall data in Airy units, p =
    Ai(z0) / N and d = -Ai'(z0) / N (see :func:`wall_data`), from the
    same Airy pair as ``residual``: psi(0) = F^(1/6) p, psi'(0) = F^(1/2) d.
    """

    bc: BoundarySpec
    n: int
    field: float
    energy: float
    arg0: float
    residual: float
    bracket: tuple
    psi0: float
    dpsi0: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("quantum number must be non-negative")


def field_roots(field: float) -> tuple:
    """F^(1/3) and F^(2/3) of a positive field, each within 5 eps.

    ``field ** (2.0 / 3.0)`` carries the rounding of its exponent, about
    3.7e-17 |ln F| relative, which put E up to 16 ulp off at F = 1e30.
    ``math.cbrt`` of F and of F * F stay within 2.1 eps; where F * F would
    leave the normal range, F^(2/3) is cbrt(F)^2, within 4.7 eps.
    """
    f13 = math.cbrt(field)
    if 1e-150 < field < 1e150:
        return f13, math.cbrt(field * field)
    return f13, f13 * f13


def wall_data(z: float, n: int, ai: float, aip: float) -> tuple:
    """(p, d, N) of level n at wall argument z, from Ai(z) and Ai'(z) scaled alike.

    N = (-1)^n sqrt(Ai'(z)^2 - z Ai(z)^2) is the signed Airy norm, which
    keeps the profile positive next to the wall; p = Ai(z) / N and
    d = -Ai'(z) / N are free of the common scale, and d^2 - z p^2 = 1.
    """
    norm = (-1.0) ** n * math.sqrt(aip * aip - z * ai * ai)
    return ai / norm, -aip / norm, norm


_EPS = 2.0 ** -52

# Scale of the rounding bound of :func:`wall_closed_form`, in units of
# eps kappa (|p d| + |z0|) |scale|.  Against 50-digit mpmath at the solved
# z0 (4 walls, n in {0, 1, 3, 30}, 31 fields from 1e-9 to 1e6 and 40 from
# 0.26 to 2.58, where 0 < z0 < 2.1 for robin- n = 0) <x> and I_x stay
# within 4.3 units.  With 8 the attractive ground level keeps <x> from
# F = 8.4e-5 and I_x from F = 7.1e-9.
_CANCELLATION_EPS = 8.0

# Relative (at least absolute) rounding above which a closed form is refused.
_CLOSED_FORM_RTOL = 1e-6


def wall_closed_form(state: BoundState, z_weight: float, pd_weight: float, scale: float,
                     name: str, fallback: str) -> float:
    """scale (z_weight z0 + pd_weight p d), refused where rounding could move it by 1e-6.

    N^2 cancels kappa = d^2 + |z0| p^2 fold (1 for z0 <= 0, about
    4 z0 / F^(1/3) for the weak-field robin- ground level), and p and d
    carry that cancellation of the Airy pair's rounding; the form is then
    uncertain by ``_CANCELLATION_EPS`` eps kappa (|p d| + |z0|) |scale|.
    Where that exceeds 1e-6 relative (at least 1e-6 absolute) the value
    is refused with a ``DomainError`` that names ``fallback``.
    """
    z, pd = state.arg0, state.psi0 * state.dpsi0
    value = scale * (z_weight * z + pd_weight * pd)
    kappa = state.dpsi0 * state.dpsi0 + abs(z) * state.psi0 * state.psi0
    error = _CANCELLATION_EPS * _EPS * kappa * (abs(pd) + abs(z)) * abs(scale)
    if error > _CLOSED_FORM_RTOL * max(1.0, abs(value)):
        raise DomainError(
            f"{name} of {state.bc.value} level {state.n} at field {state.field:g}: the "
            f"normalization Ai'^2 - z0 Ai^2 cancels {kappa:.3g}-fold at z0 = {z:.6g}, so "
            f"the closed form is uncertain by {error:.2e}; {fallback}"
        )
    return value


# A Robin root is certified within this many ulps of z, widened by the
# Airy rounding band below; the Newton iteration stops on a step inside
# that width.
_STEP_ULPS = 4.0
_MAX_STEPS = 100

# Relative accuracy of the Airy values, with a sixfold margin over the
# 2.9 ulp (at most 6.4e-16) by which :mod:`._airy` was measured to miss
# 50-digit mpmath.  At a
# Robin root both determinant terms have size |Ai| and its slope in z is
# |Ai| |E+1| / F^(1/3), so this rounding blurs the zero over
# 2 * _AIRY_RTOL * F^(1/3) / |E+1| in z, or 2 * _AIRY_RTOL * F / |E+1| in
# E.  Dense scans of robin- n = 0 over F in [0.2, 0.4], and of both
# Robin walls at seven levels up to n = 100 over F from 1e-12 to 1e8,
# certify every level with as little as 5e-16.
_AIRY_RTOL = 4e-15


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
        return neumann, 1.0 / field_roots(field)[1]
    return neumann, table.ai_zero(n)


def _determinant(bc: BoundarySpec, f13: float, z: float) -> tuple:
    """(D, dD/dz, Ai, Ai') at z, all times e^s, from one Airy call.

    D is Ai(z) for a Dirichlet wall, Ai'(z) for Neumann and
    F^(1/3) Ai'(z) + sigma Ai(z) for Robin; its zeros in z are the levels.
    """
    ai, aip, _ = sp.airy(z)
    # Ai''(z) = z Ai(z) (DLMF 9.2.1).
    if bc is BoundarySpec.DIRICHLET:
        return ai, aip, ai, aip
    if bc is BoundarySpec.NEUMANN:
        return aip, z * ai, ai, aip
    sigma = bc.wall_slope
    return f13 * aip + sigma * ai, f13 * z * ai + sigma * aip, ai, aip


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
    f13 = field_roots(field)[0]
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
    f13 = field_roots(field)[0]
    lo_positive = n % 2 == 0
    z = _newton_start(bc, n, field, lo, hi)
    for _ in range(_MAX_STEPS):
        d, slope, _, _ = _determinant(bc, f13, z)
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
    f13 = field_roots(field)[0]
    width = _certified_width(z, f13)
    below = _determinant(bc, f13, z - width)[0]
    above = _determinant(bc, f13, z + width)[0]
    if not (below < 0.0 < above or above < 0.0 < below):
        raise ConsistencyError(
            f"determinant keeps its sign ({below:.3e}, {above:.3e}) within "
            f"{width:.3e} of z={z:.17g}"
        )


def _solve_robin(bc: BoundarySpec, n: int, field: float) -> BoundState:
    lo, hi = _robin_bracket(bc, n, field)
    if hi >= sp.AIRY_ARG_MAX:
        raise DomainError(
            f"{bc.value} level {n} needs field > {sp.AIRY_ARG_MAX ** -1.5:.6g}: below it "
            "the wall-side Airy argument leaves the range of the scaled Airy functions"
        )
    f23 = field_roots(field)[1]
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
    return _level(bc, n, field, z, e_val, (e_lo, e_hi))


def _level(bc: BoundarySpec, n: int, field: float, z: float, e_val: float,
           bracket: tuple) -> BoundState:
    """The record of level n at its wall argument z: residual and wall data from one Airy call."""
    d, slope, ai, aip = _determinant(bc, field_roots(field)[0], z)
    psi0, dpsi0, _ = wall_data(z, n, ai, aip)
    return BoundState(bc=bc, n=n, field=field, energy=e_val, arg0=z,
                      residual=abs(d / slope) / math.ulp(z), bracket=bracket,
                      psi0=psi0, dpsi0=dpsi0)


@lru_cache(maxsize=4096)
def _solve(bc: BoundarySpec, n: int, field: float) -> BoundState:
    if bc.is_robin:
        return _solve_robin(bc, n, field)
    table = root_table(n + 1)
    root = table.ai_zero(n + 1) if bc is BoundarySpec.DIRICHLET else table.ai_prime_zero(n + 1)
    e_val = -field_roots(field)[1] * root
    return _level(bc, n, field, root, e_val, (e_val, e_val))


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
