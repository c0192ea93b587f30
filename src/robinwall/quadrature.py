"""Adaptive quadrature and half-line Fourier machinery.

Position-space integrands in this package are Airy profiles on a
truncated half-line, smooth apart from the logarithmic kink that
-rho ln(rho) takes at each node.  The momentum side is the hard part: the
transform of a wavefunction with a nonzero boundary value decays only
like 1/k, so every density integral has a slow algebraic tail.  Three
tools cover it:

* :class:`HalfLineFourierTable` expands psi once in Legendre polynomials
  on equal panels sized by psi alone, and integrates every term against
  the phase exactly: any momentum costs P exponentials and 16 spherical
  Bessel values.  It serves momenta below a state's switch momentum.
* :func:`ray_transform` gives phi and phi' above the switch from the wall
  data alone, as an incomplete Scorer-type integral (DLMF 9.12) taken by
  one fixed rule along a ray rotated into the complex plane.
* :func:`integrate_batch` is QUADPACK's adaptive G10/K21 strategy for a
  vector-valued integrand evaluated on a whole interval in one array call;
  it is the only adaptive rule of the package and carries every position
  functional and every momentum functional of a state in one pass each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn

__all__ = [
    "DEFAULT_TOLERANCES",
    "HalfLineFourierTable",
    "QuadratureError",
    "ToleranceConfig",
    "integrate_batch",
    "ray_transform",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Gauss-Legendre samples (and Legendre terms) of every equal Fourier-table
# panel, and the radians of psi's phase or decay one panel may span: a
# half-width of at most 1 radian leaves terms of order j_16(1) ~ 2e-19
# outside the 16-term expansion.
_PANEL_ORDER = 16
_PSI_RADIANS_PER_PANEL = 2.0
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_DEGREES = np.arange(_PANEL_ORDER)
# Gauss projection of 16 samples onto P_0..P_15, applied as samples @ it:
# c_j = (2j+1)/2 sum_i w_i P_j(t_i) f_i, exact for degree <= 15.
_TO_LEGENDRE = (np.polynomial.legendre.legvander(_PANEL_NODES, _PANEL_ORDER - 1)
                * _PANEL_WEIGHTS[:, None] * (_DEGREES + 0.5))
# integral over [-1, 1] of P_j(t) exp(-iwt) dt = 2 (-i)^j j_j(w).
_FILON_PHASES = 2.0 * (-1j) ** _DEGREES


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute and relative tolerance of every adaptive pass over a state."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")


DEFAULT_TOLERANCES = ToleranceConfig()


class QuadratureError(RuntimeError):
    """Adaptive rule stopped short; ``estimate`` is an array for a vector pass."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# QUADPACK qk21 (Piessens et al. 1983): the 21-point Kronrod abscissae on
# [0, 1] with their weights; every other one, from the second, is a node
# of the embedded 10-point Gauss rule.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980148982, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# The same rule over all 21 nodes of [-1, 1], in ascending order.
_KRONROD_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1:10:2] = _WG
_GAUSS_WEIGHTS[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps

# integrate_batch bisects at most _MAX_SUBDIVISIONS - 1 times past its first pieces.
_MAX_SUBDIVISIONS = 200


def _kronrod(f, lo: np.ndarray, hi: np.ndarray):
    """qk21 on every interval [lo_j, hi_j] from one call of f.

    Returns the Kronrod values and qk21's error estimates, both shaped
    (intervals, components).  A non-finite sample raises
    :class:`QuadratureError` at once: bisection cannot remove it.
    """
    half = 0.5 * (hi - lo)
    x = ((0.5 * (hi + lo))[:, None] + half[:, None] * _KRONROD_NODES).ravel()
    fx = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(fx)
    if bad.any():
        where = x[np.nonzero(bad)[-1][0]]
        raise QuadratureError(f"integrand is not finite at {where:.17g}",
                              estimate=math.nan, error_bound=math.inf)
    fx = fx.reshape(fx.shape[0], lo.size, _KRONROD_NODES.size)
    resk = fx @ _KRONROD_WEIGHTS
    resg = fx @ _GAUSS_WEIGHTS
    resabs = np.abs(fx) @ _KRONROD_WEIGHTS
    resasc = np.abs(fx - 0.5 * resk[..., None]) @ _KRONROD_WEIGHTS
    dh = np.abs(half)
    err = np.abs(resk - resg) * dh
    resasc = resasc * dh
    resabs = resabs * dh
    scaled = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc != 0.0)
    err = np.where((resasc != 0.0) & (err != 0.0), resasc * np.minimum(1.0, scaled ** 1.5), err)
    return (resk * half).T, np.maximum(50.0 * _EPS * resabs, err).T


def integrate_batch(f, points, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Integrate a vector-valued f from points[0] to points[-1]: (values, errors).

    ``f`` maps a 1-d array of points to an array of shape (m, points).
    ``points`` are sorted breakpoints; every interval between neighbours is
    evaluated in one first call.  The rule is QUADPACK's qag with the qk21
    pair: it bisects the interval whose worst component sits furthest above
    its tolerance and evaluates both halves in one call of 42 points.  It
    stops once every component meets sum(err_i) <= max(abs_tol, rel_tol*|I_i|)
    on its own; after ``_MAX_SUBDIVISIONS - 1`` bisections it raises
    :class:`QuadratureError` with the per-component estimates.
    """
    edges = np.asarray(points, dtype=float)
    start = edges.size - 1
    limit = start + _MAX_SUBDIVISIONS - 1
    lo = np.empty(limit)
    hi = np.empty(limit)
    lo[:start], hi[:start] = edges[:-1], edges[1:]
    first, first_err = _kronrod(f, lo[:start], hi[:start])
    vals = np.empty((limit, first.shape[1]))
    errs = np.empty_like(vals)
    vals[:start], errs[:start] = first, first_err
    n = start
    while True:
        total = vals[:n].sum(axis=0)
        err = errs[:n].sum(axis=0)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        if np.all(err <= tol):
            return total, err
        if n == limit:
            worst = int(np.argmax(err / tol))
            raise QuadratureError(
                f"{limit} intervals left component {worst} with error "
                f"{err[worst]:.3e} above its tolerance {tol[worst]:.3e}",
                estimate=total, error_bound=float(err[worst]))
        j = int(np.argmax(np.max(errs[:n] / tol, axis=1)))
        mid = 0.5 * (lo[j] + hi[j])
        halves, half_errs = _kronrod(f, np.array([lo[j], mid]), np.array([mid, hi[j]]))
        lo[n], hi[n], hi[j] = mid, hi[j], mid
        vals[j], vals[n] = halves
        errs[j], errs[n] = half_errs
        n += 1


class HalfLineFourierTable:
    """Filon-Legendre panel discretization of the transform.

    Momentum-space integrals re-sample the transform thousands of times
    per state, so the x integral is discretized once.  The half-line is cut
    into P equal panels (midpoints m_p, one half-width h) on which psi is
    sampled at 16 Gauss-Legendre nodes and expanded in Legendre
    polynomials; each term is then integrated against the phase exactly
    (DLMF 10.54.2):

        integral over [-1, 1] of P_j(t) exp(-i w t) dt = 2 (-i)^j j_j(w).

    The error is that of the expansion of psi alone, whatever the momentum,
    so the panels follow psi: ``rate`` bounds psi's local wavenumber or
    decay rate, and each panel spans at most ``_PSI_RADIANS_PER_PANEL`` of
    it.  The transform at momentum k is then
    sum_p exp(-ik m_p) sum_j c_pj h 2 (-i)^j j_j(|k| h): P exponentials and
    16 spherical Bessel values shared by every panel.  The coefficients of
    psi and of x psi sit side by side in one array, so
    :meth:`transform_pair` gets phi and phi' for a batch of momenta from one
    set of phases.
    """

    def __init__(self, psi, x_cut: float, rate: float):
        x_cut = float(x_cut)
        if not x_cut < 0.0:
            raise ValueError("x_cut must be negative")
        self.x_cut = x_cut
        panels = max(1, int(math.ceil(-x_cut * float(rate) / _PSI_RADIANS_PER_PANEL)))
        half = -0.5 * x_cut / panels
        mid = x_cut + half * (2.0 * np.arange(panels) + 1.0)
        x = mid[:, None] + half * _PANEL_NODES
        psi_x = np.asarray(psi(x.ravel()), dtype=float)
        if psi_x.shape != (x.size,):
            raise ValueError("psi must evaluate arrays elementwise")
        self.node_count = int(x.size)
        self._mid = mid
        self._half = half
        psi_x = psi_x.reshape(x.shape)
        # Columns [c(psi) | c(x psi)]: phi comes from the first 16, phi' from
        # the last 16.
        self._coeffs = np.concatenate([psi_x @ _TO_LEGENDRE, (x * psi_x) @ _TO_LEGENDRE], axis=1)

    def transform(self, k: float) -> complex:
        """Transform value at one momentum."""
        return complex(self.transform_pair(np.array([float(k)]))[0][0])

    def transform_k_derivative(self, k: float) -> complex:
        """d/dk of the transform at one momentum."""
        return complex(self.transform_pair(np.array([float(k)]))[1][0])

    def transform_pair(self, k: np.ndarray) -> tuple:
        """(phi, d phi/dk) at every momentum of a 1-d array, from one set of phases."""
        k = np.asarray(k, dtype=float)
        kk = np.abs(k)[:, None]
        panel = kk * self._mid
        inner = np.cos(panel) @ self._coeffs - 1j * (np.sin(panel) @ self._coeffs)
        local = self._half * _FILON_PHASES * spherical_jn(_DEGREES, kk * self._half)
        sums = np.sum(inner.reshape(k.size, 2, _PANEL_ORDER) * local[:, None, :], axis=2)
        phi = sums[:, 0] / _SQRT_TWO_PI
        dphi = -1j * sums[:, 1] / _SQRT_TWO_PI
        # With phi(-k) = conj(phi(k)) the derivative picks up a sign under
        # conjugation.
        neg = k < 0.0
        phi[neg] = np.conj(phi[neg])
        dphi[neg] = -np.conj(dphi[neg])
        return phi, dphi

    def transform_many(self, k) -> np.ndarray:
        """Vectorized transform over an array of momenta."""
        return self.transform_pair(np.ravel(k))[0].reshape(np.shape(k))


# The ray rule: 24 Gauss-Legendre points on each of 6 geometric panels along
# z = s exp(i pi/6), in units of the shortest decay length of the terms of theta.
_RAY_ENDS = np.array([0.0, 0.25, 1.0, 3.0, 8.0, 20.0, 45.0])
_ray_nodes, _ray_weights = np.polynomial.legendre.leggauss(24)
_ray_half = 0.5 * np.diff(_RAY_ENDS)[:, None]
_RAY_S = (0.5 * (_RAY_ENDS[1:] + _RAY_ENDS[:-1])[:, None] + _ray_half * _ray_nodes).ravel()
_RAY_W = (_ray_half * _ray_weights).ravel()
_RAY_DIRECTION = complex(math.cos(math.pi / 6.0), 0.5)


def ray_transform(k, psi0: float, dpsi0: float, energy: float, field: float) -> tuple:
    """(phi, d phi/dk) at every momentum of a 1-d array with k^2 > E, from the wall data.

    The transformed stationary equation, i F phi' = (k^2 - E) phi - B(k) with
    B(q) = (psi'(0) + i q psi(0)) / sqrt(2 pi), is of first order, and its
    solution that vanishes as k -> infinity is
    phi(k) = -(i/F) integral over z >= 0 of B(k + z) exp(i theta / F) dz,
    theta = z (k^2 - E) + k z^2 + z^3 / 3, formed in that order: as a
    difference of cubes it loses digits.  Every term of i theta decays
    along z = s exp(i pi/6), where one fixed rule takes the integral, in
    Airy units kappa = k / F^(1/3) so that the field drops out of theta.
    phi' comes from the same samples through the k-derivative of the
    integrand; formed from the equation it would cancel at large k, where
    phi ~ B / (k^2 - E).  Negative momenta are taken by conjugation.
    Where kappa^2 - E / F^(2/3) overflows, the next term of that series is
    below F / k^3 ~ 1e-462 of the first, so phi is B / k^2 and phi' its
    derivative, formed without squaring k.
    """
    k = np.asarray(k, dtype=float)
    f13 = field ** (1.0 / 3.0)
    with np.errstate(over="ignore"):
        kappa = np.abs(k) / f13
        gap = kappa * kappa - energy / (f13 * f13)
    huge = ~np.isfinite(gap)
    if huge.any():
        phi = np.empty(k.size, dtype=complex)
        dphi = np.empty_like(phi)
        phi[~huge], dphi[~huge] = ray_transform(k[~huge], psi0, dpsi0, energy, field)
        q = k[huge]
        phi[huge] = (dpsi0 / q / q + 1j * (psi0 / q)) / _SQRT_TWO_PI
        dphi[huge] = -(2.0 * dpsi0 / q / q / q + 1j * (psi0 / q / q)) / _SQRT_TWO_PI
        return phi, dphi
    root = math.sqrt(f13)
    kappa = kappa[:, None]
    gap = gap[:, None]
    c0 = psi0 / root / _SQRT_TWO_PI
    c1 = dpsi0 / (f13 * root) / _SQRT_TWO_PI
    ell = np.minimum(np.minimum(1.0, 2.0 / gap), 1.0 / np.sqrt(0.866 * kappa))
    z = (ell * _RAY_S) * _RAY_DIRECTION
    dz = (ell * _RAY_W) * _RAY_DIRECTION
    wave = np.exp(1j * (z * gap + kappa * z * z + z * z * z / 3.0)) * dz
    b = c1 + 1j * c0 * (kappa + z)
    phi = -1j * np.sum(b * wave, axis=1) / root
    dphi = np.sum((c0 + b * z * (2.0 * kappa + z)) * wave, axis=1) / (f13 * root)
    neg = k < 0.0
    phi[neg] = np.conj(phi[neg])
    dphi[neg] = -np.conj(dphi[neg])
    return phi, dphi
