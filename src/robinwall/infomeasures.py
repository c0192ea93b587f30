"""Entropic, Fisher, and disequilibrium functionals of the wall states.

Everything is computed, and certified, by :func:`measure_state`: one
scalar quadrature per position-side integral over the truncated half-line,
and one pass of :func:`.states.momentum_integrals` for the momentum side
and its norm.  Position Fisher information additionally has a closed form
in the level energy, which the quadrature route must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq
from scipy.special import xlogy

from .quadrature import DEFAULT_TOLERANCES, ToleranceConfig, integrate
from .special import root_table
from .spectrum import (
    BoundarySpec,
    BoundState,
    BracketError,
    ConsistencyError,
    DomainError,
)
from .states import StateFunctions, build_state, momentum_integrals, position_norm

__all__ = [
    "ENTROPY_FLOOR",
    "UNIT_WELL_MOMENTUM_ENTROPY",
    "FisherMaximum",
    "FlatWellEntropies",
    "InfoRecord",
    "entropy_crossing",
    "fisher",
    "fisher_momentum_coefficient",
    "fisher_position_closed",
    "fisher_product_maximum",
    "flat_well_approximation",
    "measure_state",
    "shannon",
]

# Lower bound on the total position+momentum entropy of any pure state.
ENTROPY_FLOOR = 1.0 + math.log(math.pi)

# Momentum entropy of the lowest level of a unit-width flat box; feeds the
# box model of the hard-wall ground state.
UNIT_WELL_MOMENTUM_ENTROPY = 2.5189

# Largest |norm - 1| a measured state may show in either space.
_NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InfoRecord:
    """All measures of one state, in both spaces, with their products."""

    state: BoundState
    S_x: float
    S_k: float
    S_t: float
    I_x: float
    I_k: float
    fisher_product: float
    O_x: float
    O_k: float
    onicescu_product: float
    CGL_x: float
    CGL_k: float
    CGL_product: float


def shannon(sf: StateFunctions, cfg: ToleranceConfig | None = None):
    """Position and momentum entropies of a built state."""
    rec = measure_state(sf, cfg)
    return rec.S_x, rec.S_k


def fisher_position_closed(state: BoundState) -> float:
    """Position Fisher information from the level energy alone.

    The gradient integral closes on the energy through the stationary
    equation; the wall enters with the sign of its extrapolation length.
    """
    e_val = state.energy
    if not state.bc.is_robin:
        return (4.0 / 3.0) * e_val
    sign = state.bc.robin_sign
    return (4.0 / 3.0) * (e_val * e_val + e_val + sign * 2.0 * state.field) / (e_val + 1.0)


def fisher(sf: StateFunctions, cfg: ToleranceConfig | None = None):
    """Fisher informations; the position route is closed-form but checked."""
    rec = measure_state(sf, cfg)
    return rec.I_x, rec.I_k


def measure_state(sf: StateFunctions, cfg: ToleranceConfig | None = None) -> InfoRecord:
    """All measures of a built state, after checking its certificates.

    Unit norm in both spaces comes first, then the entropy floor, then the
    closed-form position Fisher information against its quadrature route.
    """
    cfg = cfg or sf.cfg
    norm_k, s_k, i_k, o_k = momentum_integrals(sf, cfg)
    for space, norm in (("position", position_norm(sf, cfg)), ("momentum", norm_k)):
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise ConsistencyError(
                f"{space} norm {norm:.12g} is off unity by {norm - 1.0:.3e}, "
                f"beyond {_NORM_TOLERANCE:g}"
            )

    def x_entropy(x):
        r = sf.rho(x)
        return -float(xlogy(r, r))

    s_x = integrate(x_entropy, sf.x_cut, 0.0, cfg)
    s_t = s_x + s_k
    if s_t < ENTROPY_FLOOR - 1e-9:
        raise ConsistencyError(
            f"total entropy {s_t:.12g} fell below the uncertainty floor "
            f"{ENTROPY_FLOOR:.12g}"
        )
    i_x = fisher_position_closed(sf.state)
    i_x_quad = 4.0 * integrate(lambda x: sf.psi_prime(x) ** 2, sf.x_cut, 0.0, cfg)
    if abs(i_x_quad - i_x) > 1e-6 * max(1.0, abs(i_x)):
        raise ConsistencyError(
            f"position Fisher routes disagree: closed {i_x:.12g}, "
            f"quadrature {i_x_quad:.12g}"
        )
    o_x = integrate(lambda x: sf.rho(x) ** 2, sf.x_cut, 0.0, cfg)
    cgl_x = math.exp(s_x) * o_x
    cgl_k = math.exp(s_k) * o_k
    return InfoRecord(
        state=sf.state,
        S_x=s_x,
        S_k=s_k,
        S_t=s_t,
        I_x=i_x,
        I_k=i_k,
        fisher_product=i_x * i_k,
        O_x=o_x,
        O_k=o_k,
        onicescu_product=o_x * o_k,
        CGL_x=cgl_x,
        CGL_k=cgl_k,
        CGL_product=cgl_x * cgl_k,
    )


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
    width = 2.0 * a1 * field ** (-1.0 / 3.0)
    log_term = math.log(a1) - math.log(field) / 3.0
    s_x = 2.0 * math.log(2.0) - 1.0 + log_term
    s_k = UNIT_WELL_MOMENTUM_ENTROPY - math.log(2.0) - log_term
    s_t = math.log(2.0) - 1.0 + UNIT_WELL_MOMENTUM_ENTROPY
    return FlatWellEntropies(width=width, S_x=s_x, S_k=s_k, S_t=s_t)


def entropy_crossing(cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                     bracket=(0.1, 5.0), xtol: float = 1e-3) -> float:
    """Field where the two lowest attractive-wall total entropies meet.

    The ground level starts as a tight surface state (low total entropy)
    and spreads with the field faster than the first excited level, so
    the difference changes sign once.
    """

    def gap(field: float) -> float:
        rec0 = shannon(build_state(BoundarySpec.ROBIN_MINUS, 0, field, cfg), cfg)
        rec1 = shannon(build_state(BoundarySpec.ROBIN_MINUS, 1, field, cfg), cfg)
        return (rec0[0] + rec0[1]) - (rec1[0] + rec1[1])

    lo, hi = float(bracket[0]), float(bracket[1])
    g_lo = gap(lo)
    g_hi = gap(hi)
    if g_lo * g_hi >= 0.0:
        raise BracketError(
            "total-entropy difference does not change sign over the bracket",
            lo=lo,
            hi=hi,
            detail=f"gap({lo}) = {g_lo:.6g}, gap({hi}) = {g_hi:.6g}",
        )
    return float(brentq(gap, lo, hi, xtol=xtol))


@dataclass(frozen=True)
class FisherMaximum:
    """Location and value of an interior maximum of the Fisher product."""

    field: float
    product: float


def fisher_product_maximum(n: int, bracket=(1e-4, 1.0), xtol: float = 1e-3,
                           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FisherMaximum:
    """Field maximizing I_x * I_k of an excited attractive-wall level.

    Golden-section search; the product approaches finite limits on both
    ends of the bracket with a single hump in between, so an edge result
    means the bracket missed the hump and is reported as such.
    """
    n = int(n)
    if n < 1:
        raise DomainError("the ground-state product is monotonic; pick n >= 1")

    def product(field: float) -> float:
        i_x, i_k = fisher(build_state(BoundarySpec.ROBIN_MINUS, n, field, cfg), cfg)
        return i_x * i_k

    lo, hi = float(bracket[0]), float(bracket[1])
    edge = max(product(lo), product(hi))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = product(c)
    fd = product(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = product(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = product(d)
    if fc > fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    if best_f <= edge + 1e-12:
        raise BracketError(
            "Fisher product has no interior maximum over the bracket",
            lo=lo,
            hi=hi,
            detail=f"edge value {edge:.6g}, best interior {best_f:.6g}",
        )
    return FisherMaximum(field=best_x, product=best_f)


def fisher_momentum_coefficient(bc, n: int, field: float = 1.0,
                                cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Field-free momentum Fisher constant of a hard- or soft-wall level.

    For walls without an extrapolation length the momentum Fisher
    information scales as a pure power of the field, so one measurement
    fixes the constant for all fields.
    """
    if not isinstance(bc, BoundarySpec):
        bc = BoundarySpec.parse(bc)
    if bc.is_robin:
        raise DomainError(
            "momentum Fisher information of a Robin wall has no pure power law"
        )
    sf = build_state(bc, n, field, cfg)
    _, i_k = fisher(sf, cfg)
    return i_k * float(field) ** (2.0 / 3.0)
