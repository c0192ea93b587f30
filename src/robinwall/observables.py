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

from . import quadrature
from .quadrature import integrate_batch
from .spectrum import BoundarySpec, BoundState, DomainError, energy
from .states import StateFunctions, position_integrals

__all__ = [
    "DipoleMatrix",
    "PolarizationRecord",
    "dipole_element_quadrature",
    "dipole_matrix",
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


# The solver leaves a level a few ulps from the exact root, set by the
# rounding of the Airy values.  Against 50-digit mpmath (F from 1e-9 to
# 1e6): robin+ n <= 30 and robin- 1 <= n <= 30 within 6.6 ulp, and the
# attractive ground level within 9.4 ulp for F <= 1e-2, where this bound
# decides.  Near F = 0.3 that level's determinant cancels and it lies up
# to 140 ulp off, inside its certified band, where |d<x>/dE| is about 20.
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
    sign = state.bc.wall_slope
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


def polarization(state: BoundState) -> PolarizationRecord:
    mean = mean_position(state)
    reference = zero_field_mean_x(state.bc, state.n)
    return PolarizationRecord(
        state=state,
        mean_x=mean,
        zero_field_mean_x=reference,
        dipole=mean - reference,
    )


def mean_x_quadrature(sf: StateFunctions) -> float:
    """Mean coordinate straight from the density, for cross-checks."""
    return position_integrals(sf)[4]


def hellmann_feynman_mean_x(bc, n: int, field: float) -> float:
    """Mean coordinate as minus the field derivative of the level energy.

    Central difference in the field with step max(1e-4 F, 1e-6);
    completely independent of the wavefunction, so it cross-checks solver
    and closed form at once.
    """
    field = float(field)
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
    bc = BoundarySpec.parse(bc)
    size = int(size)
    if size < 2:
        raise ValueError("a coordinate matrix needs at least two levels")
    field = float(field)
    values = np.empty((size, size), dtype=float)
    f_m13 = field ** (-1.0 / 3.0)
    levels = [energy(bc, n, field) for n in range(size)]
    for n, level in enumerate(levels):
        values[n, n] = mean_position(level)
        for m in range(n + 1, size):
            if bc.is_robin:
                e_n, e_m = level.energy, levels[m].energy
                elem = field * (e_n + e_m + 2.0) / (
                    math.sqrt((e_n + 1.0) * (e_m + 1.0)) * (e_n - e_m) ** 2
                )
            elif bc is BoundarySpec.DIRICHLET:
                elem = 2.0 * f_m13 / (level.arg0 - levels[m].arg0) ** 2
            else:
                zn, zm = level.arg0, levels[m].arg0
                elem = -(zn + zm) * f_m13 / (math.sqrt(zn * zm) * (zn - zm) ** 2)
            values[n, m] = elem
            values[m, n] = elem
    return DipoleMatrix(bc=bc, field=field, values=values)


def dipole_element_quadrature(sf_n: StateFunctions, sf_m: StateFunctions) -> float:
    """Coordinate matrix element by direct integration of the profiles.

    One adaptive pass over [min of the two cuts, 0] to the fixed pass
    tolerance, 1e-10 absolute or relative.
    """
    lo = min(sf_n.x_cut, sf_m.x_cut)
    tol = quadrature._PASS_TOLERANCE
    values, _ = integrate_batch(lambda x: [x * sf_n.psi(x) * sf_m.psi(x)], [lo, 0.0], tol, tol)
    return float(values[0])

