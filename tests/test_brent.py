"""Robin levels against scipy's brentq on the determinant in E, and the pinned solver outputs."""

import mpmath
import pytest
from scipy.optimize import brentq
from scipy.special import airy, airye

from robin_reference import zero_energy_field_solved
from robinwall import spectrum
from robinwall.spectrum import BoundarySpec, energy

EPS = 2.220446049250313e-16


def field_roots(field):
    """F^(1/3) and F^(2/3) rounded once from 50 digits."""
    with mpmath.workdps(50):
        f13 = mpmath.cbrt(field)
        return float(f13), float(f13 * f13)


def robin_determinant_in_energy(bc, field):
    """E -> F^(1/3) Ai'(z) + sigma Ai(z) at z = -E / F^(2/3), times e^((2/3) z^(3/2)) above z = 8."""
    f13, f23 = field_roots(field)

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
    f13 = field_roots(field)[0]
    width = f13 * f13 * spectrum._certified_width(state.arg0, f13)
    assert abs(root - state.energy) <= 1e-14 + 4.0 * EPS * abs(root) + width


# Solver outputs of the Newton iteration in the wall argument, on the
# package's Airy evaluator and with F^(2/3) from math.cbrt.  Against
# 50-digit mpmath roots they are 0.34, 0.09, 0.25, 0.22, 4.84 and 1.31 ulp
# of E off (E = -1 + F/2 at 1e-8 sits at the foot of its binade, where
# cbrt's 2 eps read as 4 ulp); the robin- ground level at F = 1 sits inside
# its certified Airy rounding band, 170 ulp wide.
PINNED = [
    ("robin-", 0, 1.0, -0.5668914710322331),
    ("robin+", 0, 1.0, 1.6476194134893578),
    ("robin-", 3, 0.0001, 0.011993289496990092),
    ("robin+", 7, 250.0, 418.3879623276969),
    ("robin-", 0, 1e-08, -0.9999999949999995),
    ("robin+", 40, 300000.0, 147941.39401149034),
]


@pytest.mark.parametrize("bc,n,field,want", PINNED)
def test_robin_energies_are_pinned(bc, n, field, want):
    assert repr(energy(bc, n, field).energy) == repr(want)


def test_zero_energy_field_solved_is_pinned():
    # scipy's brentq on the solver's ground level: 3.2 ulp from the
    # closed form Gamma(1/3)^3 / (3 Gamma(2/3)^3) at 50 digits.
    assert repr(zero_energy_field_solved()) == "2.581056539840466"
