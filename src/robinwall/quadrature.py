"""Adaptive quadrature and half-line Fourier machinery.

Position-space integrands in this package are Airy profiles on a
truncated half-line, smooth apart from the logarithmic kink that
-rho ln(rho) takes at each node.  The momentum side is the hard part: the
transform of a wavefunction with a nonzero boundary value decays only
like 1/k, so every density integral has a slow algebraic tail.  Four
tools cover it:

* :func:`fourier_half_line` evaluates a single transform value through the
  oscillatory-weight QUADPACK rule (the reference path; exact but slow).
* :class:`HalfLineFourierTable` expands psi once in Legendre polynomials
  on equal panels sized by psi alone, and integrates every term against
  the phase exactly: any momentum costs P exponentials and 16 spherical
  Bessel values.
* :func:`integrate_batch` is QUADPACK's adaptive G10/K21 strategy for a
  vector-valued integrand evaluated on a whole interval in one array call;
  it is the only adaptive rule of the package and carries every position
  functional, every momentum functional and the tail of a state in one
  pass each.
* :class:`MomentumTail` is the analytic model of the density beyond a
  switch momentum K: closed forms for its probability and Onicescu
  integrals, one batched pass in t = (K/k)^(1/6) for its entropy and
  Fisher integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import spherical_jn

__all__ = [
    "MIN_TAIL_K",
    "DEFAULT_TOLERANCES",
    "HalfLineFourierTable",
    "MomentumTail",
    "QuadratureError",
    "TailRangeError",
    "ToleranceConfig",
    "fourier_half_line",
    "integrate_batch",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Below this momentum the inverse-power tail model is not trustworthy for
# any state handled here, independent of configured switch points.
MIN_TAIL_K = 20.0

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
    """Numeric knobs shared by the quadrature and state-building layers.

    ``x_cut_threshold`` is relative to the peak density psi^2 (the cut
    march compares rho with threshold * rho_max);
    ``k_tail_switch`` is the base momentum beyond which density integrals
    switch to the analytic tail (states scale it with the field).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    x_cut_threshold: float = 1e-16
    k_tail_switch: float = 200.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 32:
            raise ValueError("max_subdivisions must be at least 32")
        if not 0.0 < self.x_cut_threshold <= 1e-14:
            raise ValueError(
                "x_cut_threshold is relative to the peak density and must lie in (0, 1e-14]")
        if self.k_tail_switch < MIN_TAIL_K:
            raise ValueError(f"k_tail_switch below {MIN_TAIL_K} invalidates the tail model")


DEFAULT_TOLERANCES = ToleranceConfig()


class QuadratureError(RuntimeError):
    """Adaptive rule stopped short; ``estimate`` is an array for a vector pass."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class TailRangeError(ValueError):
    """The requested switch momentum is too small for the tail model."""


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
    on its own; after ``cfg.max_subdivisions - 1`` bisections it raises
    :class:`QuadratureError` with the per-component estimates.
    """
    edges = np.asarray(points, dtype=float)
    start = edges.size - 1
    limit = start + cfg.max_subdivisions - 1
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


def _weighted(psi, x_cut: float, k: float, weight: str, cfg: ToleranceConfig) -> float:
    out = quad(
        psi,
        x_cut,
        0.0,
        weight=weight,
        wvar=k,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        maxp1=100,
        full_output=1,
    )
    if len(out) > 3:
        raise QuadratureError(str(out[3]).strip(), estimate=float(out[0]), error_bound=float(out[1]))
    return float(out[0])


def fourier_half_line(psi, k: float, x_cut: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> complex:
    """(2 pi)^(-1/2) * integral of psi(x) exp(-i k x) over [x_cut, 0].

    The oscillatory weight rule subdivides by the local phase, so panels
    shrink automatically as |k| grows.  Negative momenta are evaluated by
    conjugation, which makes densities built from the result even in k
    bit for bit.
    """
    kk = abs(float(k))
    re = _weighted(psi, x_cut, kk, "cos", cfg)
    im = _weighted(psi, x_cut, kk, "sin", cfg)
    out = complex(re, -im) / _SQRT_TWO_PI
    return out.conjugate() if k < 0.0 else out


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

    def _panel_sum(self, k: np.ndarray, profiles: int) -> np.ndarray:
        """(2 pi)^(-1/2) integrals of the expansions times exp(-i|k|x).

        Integrates the first ``profiles`` expansions (1: psi; 2: psi and
        x psi) and returns shape (k.size, profiles) for a 1-d k.
        """
        kk = np.abs(k)[:, None]
        panel = kk * self._mid
        coeffs = self._coeffs[:, :profiles * _PANEL_ORDER]
        inner = np.cos(panel) @ coeffs - 1j * (np.sin(panel) @ coeffs)
        inner = inner.reshape(k.size, profiles, _PANEL_ORDER)
        local = self._half * _FILON_PHASES * spherical_jn(_DEGREES, kk * self._half)
        return np.sum(inner * local[:, None, :], axis=2) / _SQRT_TWO_PI

    def transform(self, k: float) -> complex:
        """Transform value at one momentum."""
        value = complex(self._panel_sum(np.array([float(k)]), 1)[0, 0])
        return value.conjugate() if k < 0.0 else value

    def transform_k_derivative(self, k: float) -> complex:
        """d/dk of the transform at one momentum."""
        return complex(self.transform_pair(np.array([float(k)]))[1][0])

    def transform_pair(self, k: np.ndarray) -> tuple:
        """(phi, d phi/dk) at every momentum of a 1-d array, from one set of phases."""
        k = np.asarray(k, dtype=float)
        sums = self._panel_sum(k, 2)
        phi = sums[:, 0]
        dphi = -1j * sums[:, 1]
        # With phi(-k) = conj(phi(k)) the derivative picks up a sign under
        # conjugation.
        neg = k < 0.0
        phi[neg] = np.conj(phi[neg])
        dphi[neg] = -np.conj(dphi[neg])
        return phi, dphi

    def transform_many(self, k) -> np.ndarray:
        """Vectorized transform over an array of momenta."""
        karr = np.asarray(k, dtype=float).ravel()
        out = self._panel_sum(karr, 1)[:, 0]
        neg = karr < 0.0
        out[neg] = np.conj(out[neg])
        return out.reshape(np.shape(k))


@dataclass(frozen=True)
class MomentumTail:
    """Inverse-power model of the momentum density beyond a switch K.

    2*pi*gamma(k) ~ a2/k^2 + a4/k^4 + a6/k^6, with coefficients fixed by
    the boundary data alone: integrating the transform by parts moves it
    onto wall values of the wavefunction and its derivatives, and the
    stationary equation closes the chain at the second derivative.
    """

    a2: float
    a4: float
    a6: float

    @classmethod
    def from_boundary(cls, psi0: float, dpsi0: float, energy: float, field: float) -> "MomentumTail":
        c0 = float(psi0)
        c1 = float(dpsi0)
        e = float(energy)
        f = float(field)
        a2 = c0 * c0
        a4 = c1 * c1 + 2.0 * e * c0 * c0
        a6 = 3.0 * e * e * c0 * c0 + 2.0 * e * c1 * c1 - 2.0 * f * c0 * c1
        return cls(a2=a2, a4=a4, a6=a6)

    def _check(self, k_min: float) -> float:
        k_min = float(k_min)
        if k_min < MIN_TAIL_K:
            raise TailRangeError(
                f"tail model invalid below k = {MIN_TAIL_K}; got switch {k_min}"
            )
        return k_min

    def density(self, k):
        k2 = np.square(np.asarray(k, dtype=float))
        return (self.a2 / k2 + self.a4 / k2 ** 2 + self.a6 / k2 ** 3) / (2.0 * math.pi)

    def density_k_derivative(self, k):
        karr = np.asarray(k, dtype=float)
        k2 = np.square(karr)
        return -(2.0 * self.a2 / k2 + 4.0 * self.a4 / k2 ** 2 + 6.0 * self.a6 / k2 ** 3) \
            / (2.0 * math.pi * karr)

    def probability_beyond(self, k_min: float) -> float:
        """Integral of the model density over both tails |k| > k_min."""
        u = 1.0 / self._check(k_min)
        return (self.a2 * u + self.a4 * u ** 3 / 3.0 + self.a6 * u ** 5 / 5.0) / math.pi

    def onicescu_beyond(self, k_min: float) -> float:
        """Integral of gamma^2 over both tails (closed form)."""
        # In powers of u = 1/k_min, which stay finite where k_min**11 would not.
        u = 1.0 / self._check(k_min)
        b2, b4, b6 = self.a2 * u, self.a4 * u ** 3, self.a6 * u ** 5
        total = (b2 * b2 / 3.0 + 2.0 * b2 * b4 / 5.0 + (b4 * b4 + 2.0 * b2 * b6) / 7.0
                 + 2.0 * b4 * b6 / 9.0 + b6 * b6 / 11.0)
        return u * total / (2.0 * math.pi ** 2)

    def integrals_beyond(self, k_min: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """(probability, entropy, Fisher, Onicescu) integrals over both tails |k| > k_min.

        The entropy -gamma ln(gamma) and the Fisher integrand gamma'^2/gamma
        run as one batched pass in t = (k_min/k)^(1/6) over [0, 1].  There
        the entropy integrand vanishes like t^5 ln(t), smooth enough for the
        rule to reach rounding where t = (k_min/k)^(1/2) leaves t ln(t) and
        an error of a few 1e-13.
        """
        big_k = self._check(k_min)

        def integrand(t):
            # In powers of u = 1/k^2 = t^12/big_k^2, with dk = -6 k/t dt, so
            # that nothing overflows at huge switch momenta.
            u = t ** 12 / big_k ** 2
            p = self.a2 + u * (self.a4 + u * self.a6)
            q = 2.0 * self.a2 + u * (4.0 * self.a4 + 6.0 * u * self.a6)
            w = 3.0 * t ** 5 / (math.pi * big_k)
            return w * np.stack([-p * np.log(u * p / (2.0 * math.pi)), u * q * q / p])

        (entropy, fisher), _ = integrate_batch(integrand, [0.0, 1.0], cfg)
        return np.array([self.probability_beyond(big_k), 2.0 * entropy,
                         2.0 * fisher, self.onicescu_beyond(big_k)])
