"""References for the momentum transform.

The 30-digit mpmath references of a built state are cached for the whole
session, keyed by the state object (``cached_state`` hands out one object
per level) and the momentum, so a (state, k) pair that several tests check
is computed once.  :func:`elementwise_ray_transform` is the ray rule summed
node by node, the form that the moment sums of ``ray_transform`` replace.
"""

import functools
import math

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

from robinwall.quadrature import _DOWN_DIRECTION, _RAY_DIRECTION, _RAY_S, _RAY_W
from robinwall.special import valley_airy

_DPS = 30


@functools.lru_cache(maxsize=None)
def contour_reference(sf, k):
    """(phi, phi') at k from the first-order equation in k, at 30 digits.

    phi(k) = -(i/F) int_0^inf B(k+z) exp(i theta/F) dz on z = s exp(i pi/6),
    with B(q) = (psi'(0) + i q psi(0)) / sqrt(2 pi), taken by mpmath's
    Gauss-Legendre rule from the wall data alone; k must satisfy k^2 > E. The 30
    digits are needed: at weak field the phi' integral cancels about twelve
    digits of its integrand, in Airy units as in x units. Both integrals
    share the nodes, so each sample is formed once.
    """
    with mpmath.workdps(_DPS):
        e_val = mpmath.mpf(sf.state.energy)
        field = mpmath.mpf(sf.state.field)
        psi0 = mpmath.mpf(sf.psi0)
        dpsi0 = mpmath.mpf(sf.dpsi0)
        k = mpmath.mpf(k)
        root = mpmath.sqrt(2 * mpmath.pi)
        ray = mpmath.expjpi(mpmath.mpf(1) / 6)

        @functools.lru_cache(maxsize=None)
        def parts(s):
            z = s * ray
            b = (dpsi0 + 1j * (k + z) * psi0) / root
            wave = mpmath.expj((z * (k * k - e_val) + k * z * z + z ** 3 / 3) / field) * ray
            return b * wave, (1j * psi0 / root + 1j * b * z * (2 * k + z) / field) * wave

        scale = min(mpmath.cbrt(field), 2 * field / (k * k - e_val))
        pts = [0] + [scale * c for c in (0.25, 1, 3, 8, 20, 45, 100)] + [mpmath.inf]
        phi = mpmath.quad(lambda s: parts(s)[0], pts, method="gauss-legendre")
        dphi = mpmath.quad(lambda s: parts(s)[1], pts, method="gauss-legendre")
        return complex(-1j * phi / field), complex(-1j * dphi / field)


@functools.lru_cache(maxsize=None)
def _profile_samples(sf):
    """(u, weight * psi) on [u_min, 0] in Airy units u = F^(1/3) x, at 30 digits.

    psi = c Ai(-eps - u) with c fixed by the wall datum whose Airy value,
    Ai or Ai' at -eps, is larger: a hard wall's other datum is rounding.
    Each unit piece of u carries 24 Gauss-Legendre nodes, and psi there
    comes from the Taylor series of the Airy equation y'' = (x_c - v) y
    about the piece's centre x_c, started from mpmath's Ai and Ai' at x_c.
    The pieces run 20 units past the turning point, where Ai has fallen
    below e^(-59).
    """
    with mpmath.workdps(_DPS):
        nodes = GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        f13 = mpmath.cbrt(mpmath.mpf(sf.state.field))
        eps = mpmath.mpf(sf.state.energy) / f13 ** 2
        ai, aip = mpmath.airyai(-eps), mpmath.airyai(-eps, derivative=1)
        if abs(ai) > abs(aip):
            amp = mpmath.mpf(sf.psi0) / ai
        else:
            amp = mpmath.mpf(sf.dpsi0) / (-f13 * aip)
        out = []
        for j in range(math.ceil(max(float(eps), 0.0) + 20.0)):
            centre = -mpmath.mpf(j) - mpmath.mpf(1) / 2
            xc = -eps - centre
            coeffs = [mpmath.airyai(xc), -mpmath.airyai(xc, derivative=1)]
            for m in range(46):
                prev = coeffs[m - 1] if m else 0
                coeffs.append((xc * coeffs[m] - prev) / ((m + 1) * (m + 2)))
            coeffs.reverse()
            for t, w in nodes:
                out.append((centre + t / 2, amp * w / 2 * mpmath.polyval(coeffs, t / 2)))
        return f13, out


@functools.lru_cache(maxsize=None)
def direct_reference(sf, k):
    """(phi, phi') at k from the direct transform of the normalized Airy profile.

    (2 pi)^(-1/2) times the integrals of psi(x) exp(-ikx) and of
    -ix psi(x) exp(-ikx) over x <= 0, at 30 digits, on the samples of
    :func:`_profile_samples`: independent of the wall-data route.  The
    24-node pieces resolve psi exp(-ikx) to below 1e-17 while
    |k| / F^(1/3) + sqrt(max(eps, 0)) <= 15.
    """
    f13, samples = _profile_samples(sf)
    with mpmath.workdps(_DPS):
        kappa = mpmath.mpf(k) / f13
        phi = dphi = 0
        for u, wpsi in samples:
            term = wpsi * mpmath.expj(-kappa * u)
            phi += term
            dphi += -1j * u * term
        root = mpmath.sqrt(2 * mpmath.pi)
        return complex(phi / (root * f13)), complex(dphi / (root * f13 * f13))


def elementwise_ray_transform(kappa, psi0, dpsi0, eps):
    """(phi, phi') of ``ray_transform``, in Airy units, summed node by node.

    The same 144 nodes, lengths and valley term, with the integrand of
    phi, B(kappa + z) exp(i theta) dz, and of phi' formed at every node
    and summed, as the rule was written before it became four moments.
    kappa^2 - eps must be finite.
    """
    kappa = np.asarray(kappa, dtype=float)
    q = np.abs(kappa)
    gap = q * q - eps
    root2pi = math.sqrt(2.0 * math.pi)
    c0, c1 = psi0 / root2pi, dpsi0 / root2pi
    down = gap < 0.0
    ell = np.where(down,
                   1.0 / np.maximum(np.maximum(1.6, -gap), np.sqrt(1.1 * q)),
                   1.0 / np.maximum(np.maximum(1.0, 0.5 * gap), np.sqrt(0.866 * q)))
    direction = np.where(down, _DOWN_DIRECTION, _RAY_DIRECTION)[:, None]
    qc = q[:, None]
    z = (ell[:, None] * _RAY_S) * direction
    dz = (ell[:, None] * _RAY_W) * direction
    wave = np.exp(1j * (z * gap[:, None] + qc * z * z + z * z * z / 3.0)) * dz
    b = c1 + 1j * c0 * (qc + z)
    phi = np.sum(b * wave, axis=1)
    dphi = np.sum((c0 + b * z * (2.0 * qc + z)) * wave, axis=1)
    if down.any():
        r = math.sqrt(eps)
        j, dj = valley_airy(eps)
        qd = q[down]
        valley = (2.0 * math.pi * (c1 * j - c0 * dj)
                  * np.exp(-1j * ((qd - r) * (qd - r) * (qd + 2.0 * r) / 3.0)))
        phi[down] += valley
        dphi[down] -= gap[down] * valley
    phi = -1j * phi
    neg = kappa < 0.0
    phi[neg] = np.conj(phi[neg])
    dphi[neg] = -np.conj(dphi[neg])
    return phi, dphi
