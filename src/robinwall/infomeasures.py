"""Entropic, Fisher, and disequilibrium functionals of the wall states.

Everything is computed, and certified, by :func:`measure_state`: one
pass of :func:`.states.position_integrals` over the truncated half-line
and one pass of :func:`.states.momentum_integrals`, each giving its
space's norm with the measures.  Position Fisher information additionally
has a closed form in the level's wall data, which the quadrature route
must reproduce.

Both passes are memoized on the state's Airy-unit data (see
:mod:`.states`), so a hard-wall level is integrated once per (wall, n)
whatever the field, and the field enters through the exact
laws S_x + ln F / 3, S_k - ln F / 3, I_k F^(2/3) and O_k F^(1/3).  Every
certificate below still runs on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectrum import (
    BoundarySpec,
    BoundState,
    BracketError,
    ConsistencyError,
    DomainError,
    field_roots,
    wall_closed_form,
)
from .states import StateFunctions, build_state, momentum_integrals, position_integrals

__all__ = [
    "ENTROPY_FLOOR",
    "FisherMaximum",
    "InfoRecord",
    "entropy_crossing",
    "fisher",
    "fisher_position_closed",
    "fisher_product_maximum",
    "measure_state",
]

# Lower bound on the total position+momentum entropy of any pure state.
ENTROPY_FLOOR = 1.0 + math.log(math.pi)

# Largest |norm - 1| a measured state may show in either space.
_NORM_TOLERANCE = 1e-6

# ln(2 pi e): the momentum-space Stam bound e^(2 S_k) I_k >= 2 pi e in log form.
_LOG_STAM_BOUND = math.log(2.0 * math.pi * math.e)


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


def fisher_position_closed(state: BoundState) -> float:
    """Position Fisher information from the level's wall data alone.

    I_x = 4 times the integral of psi'^2, which the Airy antiderivatives
    close as (4/3) F^(2/3) (2 p d - z0) on every wall (p d = 0 for a hard
    wall, so I_x = 4E/3).  Where the normalization's cancellation could
    move it by more than 1e-6 relative, it is refused (see
    :func:`.spectrum.wall_closed_form`).
    """
    return wall_closed_form(state, -1.0, 2.0, (4.0 / 3.0) * field_roots(state.field)[1],
                            "position Fisher information",
                            "4 times the slope integral of position_integrals still gives it")


def fisher(sf: StateFunctions):
    """Fisher informations; the position route is closed-form but checked."""
    rec = measure_state(sf)
    return rec.I_x, rec.I_k


def measure_state(sf: StateFunctions) -> InfoRecord:
    """All measures of a built state, after checking its certificates.

    Both passes meet the one fixed quadrature tolerance, 1e-10.  Unit
    norm in both spaces comes first, then the entropy floor, then the
    momentum-space Stam bound, then the closed-form position Fisher
    information against its quadrature route.
    """
    norm_x, s_x, slope_sq, o_x, _ = position_integrals(sf)
    norm_k, s_k, i_k, o_k = momentum_integrals(sf)
    for space, norm in (("position", norm_x), ("momentum", norm_k)):
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise ConsistencyError(
                f"{space} norm {norm:.12g} is off unity by {norm - 1.0:.3e}, "
                f"beyond {_NORM_TOLERANCE:g}"
            )
    s_t = s_x + s_k
    if s_t < ENTROPY_FLOOR - 1e-9:
        raise ConsistencyError(
            f"total entropy {s_t:.12g} fell below the uncertainty floor "
            f"{ENTROPY_FLOOR:.12g}"
        )
    # The log form cannot overflow, and 2 S_k + ln I_k is field-free.
    log_stam = 2.0 * s_k + math.log(i_k)
    if log_stam < _LOG_STAM_BOUND - 1e-9:
        raise ConsistencyError(
            f"momentum Stam product: 2 S_k + ln I_k = {log_stam:.12g} fell below "
            f"ln(2 pi e) = {_LOG_STAM_BOUND:.12g}"
        )
    i_x = fisher_position_closed(sf.state)
    i_x_quad = 4.0 * slope_sq
    if abs(i_x_quad - i_x) > 1e-6 * max(1.0, abs(i_x)):
        raise ConsistencyError(
            f"position Fisher routes disagree: closed {i_x:.12g}, "
            f"quadrature {i_x_quad:.12g}"
        )
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


def _search_bracket(bracket, xtol: float) -> tuple:
    """(lo, hi) of a field search, refusing a bad tolerance or a reversed bracket."""
    if not 0.0 < xtol < math.inf:
        raise ValueError(f"xtol must be positive and finite, got {xtol!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"search bracket needs lo < hi, got lo = {lo!r}, hi = {hi!r}")
    return lo, hi


def entropy_crossing(bracket=(0.1, 5.0), xtol: float = 1e-3) -> float:
    """Field where the two lowest attractive-wall total entropies meet.

    The ground level starts as a tight surface state (low total entropy)
    and spreads with the field faster than the first excited level, so
    the difference changes sign once.
    """
    lo, hi = _search_bracket(bracket, xtol)

    def gap(field: float) -> float:
        s_t0 = measure_state(build_state(BoundarySpec.ROBIN_MINUS, 0, field)).S_t
        s_t1 = measure_state(build_state(BoundarySpec.ROBIN_MINUS, 1, field)).S_t
        return s_t0 - s_t1

    g_lo = gap(lo)
    g_hi = gap(hi)
    if g_lo * g_hi >= 0.0:
        raise BracketError(
            "total-entropy difference does not change sign over the bracket",
            lo=lo,
            hi=hi,
            detail=f"gap({lo}) = {g_lo:.6g}, gap({hi}) = {g_hi:.6g}",
        )
    # Imported here so that only the searches along the field load scipy.optimize.
    from scipy.optimize import brentq

    return brentq(gap, lo, hi, xtol=xtol)


@dataclass(frozen=True)
class FisherMaximum:
    """Location and value of an interior maximum of the Fisher product."""

    field: float
    product: float


def fisher_product_maximum(n: int, bracket=(1e-4, 1.0), xtol: float = 1e-3) -> FisherMaximum:
    """Field maximizing I_x * I_k of an excited attractive-wall level.

    Golden-section search; the product approaches finite limits on both
    ends of the bracket with a single hump in between, so an edge result
    means the bracket missed the hump and is reported as such.
    """
    n = int(n)
    if n < 1:
        raise DomainError("the ground-state product is monotonic; pick n >= 1")
    lo, hi = _search_bracket(bracket, xtol)

    def product(field: float) -> float:
        i_x, i_k = fisher(build_state(BoundarySpec.ROBIN_MINUS, n, field))
        return i_x * i_k

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

