"""Second routes to the library's closed forms, and the box model of criterion 3.

Each function here reaches a quantity that :mod:`robinwall` gives in
closed form by another road, so the tests can hold the two against each
other:

* ``hellmann_feynman_mean_x`` takes <x> from the field derivative of the
  level energy, without the wavefunction;
* ``dipole_element_quadrature`` integrates x psi_n psi_m directly;
* ``boundary_residual`` evaluates the profile's own wall condition;
* ``energy_identity_residual`` rebuilds E from the kinetic, wall and
  potential terms of the position pass;
* ``flat_well_approximation`` models the hard-wall ground state as a flat
  box spanning the well, which the acceptance suite compares with the
  measured entropies.
"""

import math
from dataclasses import dataclass

from robinwall import quadrature
from robinwall.quadrature import integrate_batch
from robinwall.special import root_table
from robinwall.spectrum import BoundarySpec, DomainError, energy, field_roots
from robinwall.states import StateFunctions, position_integrals

# Momentum entropy of the lowest level of a unit-width flat box; feeds the
# box model of the hard-wall ground state.
UNIT_WELL_MOMENTUM_ENTROPY = 2.5189


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


def dipole_element_quadrature(sf_n: StateFunctions, sf_m: StateFunctions) -> float:
    """Coordinate matrix element by direct integration of the profiles.

    One adaptive pass over [min of the two cuts, 0] to the fixed pass
    tolerance, 1e-10 absolute or relative.
    """
    lo = min(sf_n.x_cut, sf_m.x_cut)
    tol = quadrature._PASS_TOLERANCE
    values, _ = integrate_batch(lambda x: [x * sf_n.psi(x) * sf_m.psi(x)], [lo, 0.0], tol, tol)
    return float(values[0])


def boundary_residual(sf: StateFunctions) -> float:
    """How well the evaluated profile satisfies its own wall condition."""
    if sf.state.bc is BoundarySpec.DIRICHLET:
        return abs(sf.psi(0.0))
    return abs(sf.psi_prime(0.0) - sf.state.bc.wall_slope * sf.psi(0.0))


def energy_identity_residual(sf: StateFunctions) -> float:
    """Mismatch of E against kinetic + wall + potential expectation values.

    Integrating the kinetic term by parts moves one boundary term,
    -psi(0) psi'(0) = -F^(2/3) p d, onto the wall; it vanishes at a hard
    wall.
    """
    state = sf.state
    _, _, kinetic, _, mean_x = position_integrals(sf)
    wall = -field_roots(state.field)[1] * state.psi0 * state.dpsi0
    total = kinetic + wall - state.field * mean_x
    return float(abs(total - state.energy))


@dataclass(frozen=True)
class FlatWellEntropies:
    """Box-model entropies of the hard-wall ground state."""

    width: float
    S_x: float
    S_k: float
    S_t: float


def flat_well_approximation(field: float) -> FlatWellEntropies:
    """Model the hard-wall ground state as a flat box spanning the well.

    The box width is set by the lowest Airy zero, which fixes both
    entropies up to known constants and makes their sum field-free.
    """
    field = float(field)
    if not field > 0.0:
        raise DomainError("field must be positive")
    a1 = -root_table(1).ai_zero(1)
    width = 2.0 * a1 / field_roots(field)[0]
    log_term = math.log(a1) - math.log(field) / 3.0
    s_x = 2.0 * math.log(2.0) - 1.0 + log_term
    s_k = UNIT_WELL_MOMENTUM_ENTROPY - math.log(2.0) - log_term
    s_t = math.log(2.0) - 1.0 + UNIT_WELL_MOMENTUM_ENTROPY
    return FlatWellEntropies(width=width, S_x=s_x, S_k=s_k, S_t=s_t)
