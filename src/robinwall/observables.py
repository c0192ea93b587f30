"""Mean positions, field-induced dipole shifts, and coordinate matrix elements.

Every quantity here has one closed form for all four walls, in the
levels' wall data (z0, p, d) of :class:`.spectrum.BoundState`, from the
Airy antiderivatives (Albright, J. Phys. A 10, 485, 1977), so the default
paths never integrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import BoundarySpec, BoundState, energy, field_roots, wall_closed_form

__all__ = [
    "DipoleMatrix",
    "PolarizationRecord",
    "dipole_matrix",
    "mean_position",
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


def mean_position(state: BoundState) -> float:
    """Closed-form mean coordinate of a solved level, (2 z0 - p d) / (3 F^(1/3)).

    For a hard wall p d = 0 and <x> = -2E / (3F).  Where the
    normalization's cancellation could move the value by more than 1e-6
    relative (at least 1e-6 absolute), as for the attractive ground level
    below a field of about 8.4e-5, it is refused (see
    :func:`.spectrum.wall_closed_form`).
    """
    return wall_closed_form(state, 2.0, -1.0, 1.0 / (3.0 * field_roots(state.field)[0]),
                            "mean position",
                            "the last value of position_integrals on the built state "
                            "still gives it")


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
    levels through the field (see :func:`_coupling`) and are symmetric by
    construction.
    """
    bc = BoundarySpec.parse(bc)
    size = int(size)
    if size < 2:
        raise ValueError("a coordinate matrix needs at least two levels")
    field = float(field)
    values = np.empty((size, size), dtype=float)
    f_m13 = 1.0 / field_roots(field)[0]
    levels = [energy(bc, n, field) for n in range(size)]
    for n, level in enumerate(levels):
        values[n, n] = mean_position(level)
        for m in range(n + 1, size):
            values[n, m] = values[m, n] = _coupling(level, levels[m], f_m13)
    return DipoleMatrix(bc=bc, field=field, values=values)


def _coupling(a: BoundState, b: BoundState, f_m13: float) -> float:
    """<a|x|b> = F^(-1/3) (2 d_a d_b - (z_a + z_b) p_a p_b) / (z_a - z_b)^2 on every wall.

    For a Dirichlet wall p = 0 and d = -1, which leaves 2 F^(-1/3) /
    (z_a - z_b)^2; ``f_m13`` is F^(-1/3).  z_a + z_b enters with its
    rounding error (Knuth's two-sum), one rounding fewer in the numerator.
    """
    za, zb = a.arg0, b.arg0
    total = za + zb
    shift = total - za
    total_lo = (za - (total - shift)) + (zb - shift)
    pp = a.psi0 * b.psi0
    return f_m13 * (2.0 * a.dpsi0 * b.dpsi0 - (total * pp + total_lo * pp)) / (za - zb) ** 2
