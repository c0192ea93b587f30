"""QUADPACK reference transform that the Fourier table and ray rule are checked against.

The library never calls it: scipy.integrate stays out of its imports.
"""

import math

from scipy.integrate import quad

from robinwall.quadrature import _PASS_TOLERANCE, QuadratureError

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# Subintervals QUADPACK may make before it gives up.
_LIMIT = 200


def _weighted(psi, x_cut: float, k: float, weight: str) -> float:
    out = quad(
        psi,
        x_cut,
        0.0,
        weight=weight,
        wvar=k,
        epsabs=_PASS_TOLERANCE,
        epsrel=_PASS_TOLERANCE,
        limit=_LIMIT,
        maxp1=100,
        full_output=1,
    )
    if len(out) > 3:
        raise QuadratureError(str(out[3]).strip(), estimate=float(out[0]), error_bound=float(out[1]))
    return float(out[0])


def fourier_half_line(psi, k: float, x_cut: float) -> complex:
    """(2 pi)^(-1/2) * integral of psi(x) exp(-i k x) over [x_cut, 0].

    The oscillatory weight rule subdivides by the local phase, so panels
    shrink automatically as |k| grows.  Negative momenta are evaluated by
    conjugation, which makes densities built from the result even in k
    bit for bit.
    """
    kk = abs(float(k))
    re = _weighted(psi, x_cut, kk, "cos")
    im = _weighted(psi, x_cut, kk, "sin")
    out = complex(re, -im) / _SQRT_TWO_PI
    return out.conjugate() if k < 0.0 else out
