"""Mean positions, field-induced dipole shifts, and coordinate matrix elements.

Every quantity here has a closed form in the level energy (or the Airy
zeros), so the default paths never integrate.  Quadrature twins and a
finite-difference route through the energy derivative exist for
cross-checking, not for production use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_TOLERANCES, ToleranceConfig, integrate
from .special import root_table
from .spectrum import BoundarySpec, BoundState, DomainError, energy
from .states import StateFunctions

__all__ = [
    "DipoleMatrix",
    "GroundCoupling",
    "PolarizationRecord",
    "dipole_element_quadrature",
    "dipole_matrix",
    "ground_coupling_asymptote",
    "hellmann_feynman_mean_x",
    "mean_position",
    "mean_x_quadrature",
    "polarization",
    "zero_field_mean_x",
]


def zero_field_mean_x(bc: BoundarySpec, n: int) -> float:
    """Mean coordinate of the state that survives switching the field off.

    Only the attractive-wall ground state stays bound, pinned at -1/2.
    Every other level unbinds, so its reference mean is zero: the dipole
    shift then coincides with the mean coordinate itself.
    """
    if bc is BoundarySpec.ROBIN_MINUS and n == 0:
        return -0.5
    return 0.0


# The solver leaves a level within a few tens of ulps of the exact root,
# set by the rounding of the Airy values (up to 31 seen against mpmath
# for the attractive ground level at weak field).
_ENERGY_ULPS = 64.0


def mean_position(state: BoundState) -> float:
    """Closed-form mean coordinate of a solved level.

    For a Robin wall the closed form amplifies the rounding of E by
    |d<x>/dE|, which grows like 1/field^2 for the attractive ground level
    at weak field.  Where that error could exceed 1e-6 relative (at least
    1e-6 absolute) the value is refused rather than returned.
    """
    e_val = state.energy
    field = state.field
    if not state.bc.is_robin:
        return -(2.0 / 3.0) * e_val / field
    denom = e_val + 1.0
    sign = state.bc.robin_sign
    if denom != 0.0:
        mean = -(2.0 * e_val * denom / field + sign) / (3.0 * denom)
        slope = abs(sign / (3.0 * denom * denom) - 2.0 / (3.0 * field))
        if _ENERGY_ULPS * math.ulp(e_val) * slope <= 1e-6 * max(1.0, abs(mean)):
            return mean
    raise DomainError(
        "the closed-form mean position cancels too far this close to E = -1; "
        "use mean_x_quadrature on the built state"
    )


@dataclass(frozen=True)
class PolarizationRecord:
    """Mean coordinate of a level and its shift off the zero-field mean."""

    state: BoundState
    mean_x: float
    zero_field_mean_x: float
    dipole: float

    @property
    def P(self) -> float:
        return self.dipole


def polarization(state: BoundState) -> PolarizationRecord:
    mean = mean_position(state)
    reference = zero_field_mean_x(state.bc, state.n)
    return PolarizationRecord(
        state=state,
        mean_x=mean,
        zero_field_mean_x=reference,
        dipole=mean - reference,
    )


def mean_x_quadrature(sf: StateFunctions, cfg: ToleranceConfig | None = None) -> float:
    """Mean coordinate straight from the density, for cross-checks."""
    cfg = cfg or sf.cfg
    return integrate(lambda x: x * sf.rho(x), sf.x_cut, 0.0, cfg)


def hellmann_feynman_mean_x(bc, n: int, field: float, step: float | None = None) -> float:
    """Mean coordinate as minus the field derivative of the level energy.

    Central difference in the field; completely independent of the
    wavefunction, so it cross-checks solver and closed form at once.
    """
    field = float(field)
    if step is None:
        step = max(1e-4 * field, 1e-6)
    if step >= field:
        raise DomainError("difference step must stay below the field itself")
    upper = energy(bc, n, field + step).energy
    lower = energy(bc, n, field - step).energy
    return -(upper - lower) / (2.0 * step)


@dataclass(frozen=True)
class DipoleMatrix:
    """Coordinate matrix in the level basis of one wall at one field."""

    bc: BoundarySpec
    field: float
    values: np.ndarray

    def element(self, n: int, m: int) -> float:
        return float(self.values[n, m])


def dipole_matrix(bc, field: float, size: int) -> DipoleMatrix:
    """Closed-form coordinate matrix over the lowest ``size`` levels.

    Diagonal entries are the mean positions; off-diagonal entries couple
    levels through the field and are symmetric by construction.
    """
    if not isinstance(bc, BoundarySpec):
        bc = BoundarySpec.parse(bc)
    size = int(size)
    if size < 2:
        raise ValueError("a coordinate matrix needs at least two levels")
    field = float(field)
    values = np.empty((size, size), dtype=float)
    f_m13 = field ** (-1.0 / 3.0)

    if bc.is_robin:
        levels = [energy(bc, n, field) for n in range(size)]
        for n in range(size):
            values[n, n] = mean_position(levels[n])
            e_n = levels[n].energy
            for m in range(n + 1, size):
                e_m = levels[m].energy
                elem = field * (e_n + e_m + 2.0) / (
                    math.sqrt((e_n + 1.0) * (e_m + 1.0)) * (e_n - e_m) ** 2
                )
                values[n, m] = elem
                values[m, n] = elem
    else:
        table = root_table(size + 1)
        for n in range(size):
            values[n, n] = mean_position(energy(bc, n, field))
            for m in range(n + 1, size):
                if bc is BoundarySpec.DIRICHLET:
                    gap = table.ai_zero(n + 1) - table.ai_zero(m + 1)
                    elem = 2.0 * f_m13 / gap ** 2
                else:
                    zn = table.ai_prime_zero(n + 1)
                    zm = table.ai_prime_zero(m + 1)
                    elem = -(zn + zm) * f_m13 / (math.sqrt(zn * zm) * (zn - zm) ** 2)
                values[n, m] = elem
                values[m, n] = elem
    return DipoleMatrix(bc=bc, field=field, values=values)


def dipole_element_quadrature(sf_n: StateFunctions, sf_m: StateFunctions,
                              cfg: ToleranceConfig | None = None) -> float:
    """Coordinate matrix element by direct integration of the profiles."""
    cfg = cfg or sf_n.cfg
    lo = min(sf_n.x_cut, sf_m.x_cut)
    return integrate(lambda x: x * sf_n.psi(x) * sf_m.psi(x), lo, 0.0, cfg)


@dataclass(frozen=True)
class GroundCoupling:
    """Asymptotic coupling of the attractive-wall ground state to level n.

    ``branch`` records which power law produced the value; ``crossover``
    flags the window where neither power law is trustworthy.
    """

    value: float
    branch: str
    crossover: bool


def ground_coupling_asymptote(n: int, field: float) -> GroundCoupling:
    """Power-law forms of the ground-to-excited coordinate coupling.

    The control parameter compares the level's Airy scale against the
    surface-state binding; the two limits carry opposite powers of the
    field, with a wide crossover between them.
    """
    n = int(n)
    if n < 1:
        raise DomainError("the coupling asymptote pairs the ground state with n >= 1")
    field = float(field)
    if not field > 0.0:
        raise DomainError("field must be positive")
    a_next = root_table(n + 1).ai_zero(n + 1)
    kappa = abs(a_next) * field ** (2.0 / 3.0)
    if kappa < 1.0:
        value = math.sqrt(2.0 * field)
        branch = "low"
    else:
        value = math.sqrt(-2.0 / a_next ** 3) / math.sqrt(field)
        branch = "high"
    return GroundCoupling(value=value, branch=branch, crossover=0.5 <= kappa <= 2.0)
