"""Robin levels in the wall argument and wall data to 50 digits, with mpmath Airy functions.

The level of the wall psi'(0) = sigma psi(0) sits at a root of
F^(1/3) Ai'(z) + sigma Ai(z) on the Airy line z = -E / F^(2/3).  Newton
steps from a double start, with the slope from Ai''(z) = z Ai(z), double
the digits each time, so a start within rounding of the root reaches 50
digits in three or four steps.  The wall data of the profile
Ai(z + u) / N at a given double z are the references of the closed forms.
``zero_energy_field_solved`` finds the field where the attractive ground
level crosses E = 0 through the solver itself, a check of the closed form
``zero_energy_field``.
"""

import math

import mpmath
from scipy.optimize import brentq

from robinwall import energy


def robin_root(bc, field: float, start: float, dps: int = 50):
    """Root in z of F^(1/3) Ai'(z) + sigma Ai(z) next to ``start``, as an mpf."""
    with mpmath.workdps(dps + 10):
        f13 = mpmath.cbrt(mpmath.mpf(field))
        sigma = mpmath.mpf(bc.wall_slope)
        z = mpmath.mpf(start)
        for _ in range(12):
            ai, aip = mpmath.airyai(z), mpmath.airyai(z, derivative=1)
            step = (f13 * aip + sigma * ai) / (f13 * z * ai + sigma * aip)
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -dps * max(1, abs(z)):
                return +z
    raise RuntimeError(f"reference Newton iteration did not settle near z={start!r}")


def wall_data(z, n: int, dps: int = 50):
    """(p, d) = (Ai(z), -Ai'(z)) / N at a double z, N = (-1)^n sqrt(Ai'(z)^2 - z Ai(z)^2), as mpfs."""
    with mpmath.workdps(dps + 10):
        z = mpmath.mpf(z)
        ai, aip = mpmath.airyai(z), mpmath.airyai(z, derivative=1)
        norm = (-1) ** n * mpmath.sqrt(aip * aip - z * ai * ai)
        return +(ai / norm), +(-aip / norm)


def zero_energy_field() -> float:
    """Field at which the attractive-wall ground level crosses zero energy."""
    g13 = math.gamma(1.0 / 3.0)
    g23 = math.gamma(2.0 / 3.0)
    return g13 ** 3 / (3.0 * g23 ** 3)


def zero_energy_field_solved() -> float:
    """The field where the robin- ground level crosses E = 0, by brentq over the solver."""

    def ground(field: float) -> float:
        return energy("robin-", 0, field).energy

    return brentq(ground, 2.0, 3.2, xtol=1e-10, rtol=1e-12)
