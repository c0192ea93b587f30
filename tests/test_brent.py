"""Robin levels against scipy's brentq on the determinant in E, and the pinned solver outputs."""

import pytest
from scipy.optimize import brentq
from scipy.special import airy, airye

from robinwall import spectrum
from robinwall.spectrum import BoundarySpec, energy, zero_energy_field_solved

EPS = 2.220446049250313e-16


def robin_determinant_in_energy(bc, field):
    """E -> F^(1/3) Ai'(z) + sigma Ai(z) at z = -E / F^(2/3), times e^((2/3) z^(3/2)) above z = 8."""
    f13 = field ** (1.0 / 3.0)
    f23 = field ** (2.0 / 3.0)

    def determinant(e):
        z = -e / f23
        ai, aip, _, _ = (airye if z > 8.0 else airy)(z)
        return float(f13 * aip + bc.wall_slope * ai)

    return determinant


@pytest.mark.parametrize("field", [1e-7, 3.9e-4, 0.5, 2.58, 70.0, 1e6, 1e30])
@pytest.mark.parametrize("n", [0, 1, 5, 30])
@pytest.mark.parametrize("bc", [BoundarySpec.ROBIN_MINUS, BoundarySpec.ROBIN_PLUS])
def test_matches_brentq_on_the_robin_determinant(bc, n, field):
    # An independent route to the same level: brentq in E, on a
    # determinant written here, over the level's bracket.  It stops within
    # 1e-14 + 4 eps |E| of a sign change, and the Newton level is certified
    # within F^(2/3) times its width in z; the two agree inside the sum
    # (at most 0.17 of it over these 56 levels).
    state = energy(bc, n, field)
    lo, hi = state.bracket
    root = brentq(robin_determinant_in_energy(bc, field), lo, hi, xtol=1e-14, rtol=4.0 * EPS)
    f13 = field ** (1.0 / 3.0)
    width = f13 * f13 * spectrum._certified_width(state.arg0, f13)
    assert abs(root - state.energy) <= 1e-14 + 4.0 * EPS * abs(root) + width


# Solver outputs of the Newton iteration in the wall argument.  Against
# 50-digit mpmath roots they are 13.3, 0.09, 2.75, 0.22, 2.16 and 2.69 ulp
# of E off; the robin- ground level at F = 1 sits inside its certified
# Airy rounding band, 420 ulp wide.
PINNED = [
    ("robin-", 0, 1.0, -0.5668914710322317),
    ("robin+", 0, 1.0, 1.6476194134893578),
    ("robin-", 3, 0.0001, 0.011993289496990097),
    ("robin+", 7, 250.0, 418.3879623276969),
    ("robin-", 0, 1e-08, -0.9999999950000003),
    ("robin+", 40, 300000.0, 147941.39401149022),
]


@pytest.mark.parametrize("bc,n,field,want", PINNED)
def test_robin_energies_are_pinned(bc, n, field, want):
    assert repr(energy(bc, n, field).energy) == repr(want)


def test_zero_energy_field_solved_is_pinned():
    # scipy's brentq on the solver's ground level, as before the in-house
    # port of it was dropped: the same double.
    assert repr(zero_energy_field_solved()) == "2.5810565398404655"
