"""Adaptive quadrature and half-line Fourier machinery.

Position-space integrands in this package are smooth Airy profiles on a
truncated half-line, which QUADPACK's adaptive Gauss-Kronrod rule handles
directly.  The momentum side is the hard part: the transform of a
wavefunction with a nonzero boundary value decays only like 1/k, so every
density integral has a slow algebraic tail.  Four tools cover it:

* :func:`fourier_half_line` evaluates a single transform value through the
  oscillatory-weight QUADPACK rule (the reference path; exact but slow).
* :class:`HalfLineFourierTable` discretizes the truncated integral once on
  equal Gauss-Legendre panels and prices any momentum in P + 16 exponentials.
* :func:`integrate_vector` integrates every momentum functional in one
  adaptive pass over the same transform samples.
* :class:`MomentumTail` is the analytic model of the density beyond a
  switch momentum K, with closed or one-dimensional forms for every tail
  integral that the information measures need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.special import xlogy

__all__ = [
    "MIN_TAIL_K",
    "DEFAULT_TOLERANCES",
    "HalfLineFourierTable",
    "MomentumTail",
    "QuadratureError",
    "TailRangeError",
    "ToleranceConfig",
    "fourier_half_line",
    "integrate",
    "integrate_full",
    "integrate_vector",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Below this momentum the inverse-power tail model is not trustworthy for
# any state handled here, independent of configured switch points.
MIN_TAIL_K = 20.0

# Gauss-Legendre order and phase budget of every (equal) Fourier-table panel.
_PANEL_ORDER = 16
_RADIANS_PER_PANEL = 8.0


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric knobs shared by the quadrature and state-building layers.

    ``x_cut_threshold`` is relative to the peak wavefunction magnitude;
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
            raise ValueError("x_cut_threshold is relative to the peak and must lie in (0, 1e-14]")
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


def integrate_full(f, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Integrate f over [a, b] returning (value, error_estimate).

    The error estimate satisfies err <= max(abs_tol, rel_tol*|value|) on
    success; otherwise a :class:`QuadratureError` carries the best
    estimate and its bound.
    """
    out = quad(
        f,
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    value, err = float(out[0]), float(out[1])
    if len(out) > 3:
        raise QuadratureError(str(out[3]).strip(), estimate=value, error_bound=err)
    return value, err


def integrate(f, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    return integrate_full(f, a, b, cfg)[0]


def integrate_vector(f, a: float, b: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Integrate a vector-valued f over [a, b], returning (values, error_bound).

    The components share one subdivision and the tolerances apply to the
    max norm.  The vector rule warns about nothing, so a pass that stops
    short raises :class:`QuadratureError` here.
    """
    value, err, info = quad_vec(f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, norm="max",
                                limit=cfg.max_subdivisions, full_output=True)
    if not info.success:
        raise QuadratureError(info.message, estimate=value, error_bound=float(err))
    return value, float(err)


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
    if kk == 0.0:
        value, _ = integrate_full(psi, x_cut, 0.0, cfg)
        out = complex(value / _SQRT_TWO_PI, 0.0)
    else:
        re = _weighted(psi, x_cut, kk, "cos", cfg)
        im = _weighted(psi, x_cut, kk, "sin", cfg)
        out = complex(re, -im) / _SQRT_TWO_PI
    return out.conjugate() if k < 0.0 else out


class HalfLineFourierTable:
    """Reusable Gauss-Legendre panel discretization of the transform.

    Momentum-space integrals re-sample the transform thousands of times
    per state, so the x integral is discretized once: panel widths are
    chosen so the fastest oscillation (either exp(-ikx) at k_max or the
    decaying profile itself, entering through ``decay_rate``) advances a
    bounded number of radians per panel.  A 16-point rule at 8 radians per
    panel keeps the discretization error near 1e-13 for |k| <= k_max,
    which is far below the adaptive tolerances layered on top.  Panels
    share one half-width h, so the phase at node m_p + h t_j factors as
    exp(-ik m_p) exp(-ik h t_j): P + 16 exponentials instead of 16 P.
    """

    def __init__(self, psi, x_cut: float, k_max: float, decay_rate: float = 0.0):
        x_cut = float(x_cut)
        if not x_cut < 0.0:
            raise ValueError("x_cut must be negative")
        self.x_cut = x_cut
        self.k_max = float(k_max)
        t, weights = np.polynomial.legendre.leggauss(_PANEL_ORDER)
        width = _RADIANS_PER_PANEL / (self.k_max + float(decay_rate) + 1.0)
        panels = max(1, int(math.ceil(-x_cut / width)))
        half = -0.5 * x_cut / panels
        mid = x_cut + half * (2.0 * np.arange(panels) + 1.0)
        x = mid[:, None] + half * t[None, :]
        psi_x = np.asarray(psi(x.ravel()), dtype=float)
        if psi_x.shape != (x.size,):
            raise ValueError("psi must evaluate arrays elementwise")
        self.node_count = int(x.size)
        self._mid = mid
        self._local = half * t
        self._w_psi = half * weights * psi_x.reshape(x.shape)
        self._xw_psi = x * self._w_psi

    def _panel_sum(self, k: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(2 pi)^(-1/2) sum of weights * exp(-i|k|x) over the nodes, per entry of 1-d k."""
        kk = np.abs(k)[:, None]
        panel = kk * self._mid
        inner = np.cos(panel) @ weights - 1j * (np.sin(panel) @ weights)
        return np.sum(inner * np.exp(-1j * kk * self._local), axis=1) / _SQRT_TWO_PI

    def transform(self, k: float) -> complex:
        """Transform value at one momentum."""
        value = complex(self._panel_sum(np.array([float(k)]), self._w_psi)[0])
        return value.conjugate() if k < 0.0 else value

    def transform_k_derivative(self, k: float) -> complex:
        """d/dk of the transform at one momentum."""
        value = -1j * complex(self._panel_sum(np.array([float(k)]), self._xw_psi)[0])
        # With phi(-k) = conj(phi(k)) the derivative picks up a sign under
        # conjugation.
        return -value.conjugate() if k < 0.0 else value

    def transform_many(self, k) -> np.ndarray:
        """Vectorized transform over an array of momenta."""
        karr = np.asarray(k, dtype=float).ravel()
        out = np.empty(karr.size, dtype=complex)
        block = max(1, 2_000_000 // self.node_count)
        for start in range(0, karr.size, block):
            out[start:start + block] = self._panel_sum(karr[start:start + block], self._w_psi)
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

    @property
    def is_null(self) -> bool:
        return self.a2 == 0.0 and self.a4 == 0.0 and self.a6 == 0.0

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
        big_k = self._check(k_min)
        return (self.a2 / big_k + self.a4 / (3.0 * big_k ** 3)
                + self.a6 / (5.0 * big_k ** 5)) / math.pi

    def entropy_beyond(self, k_min: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
        """-integral of gamma*ln(gamma) over both tails."""
        big_k = self._check(k_min)
        if self.is_null:
            return 0.0

        def integrand(k):
            g = self.density(k)
            return -float(xlogy(g, g))

        return 2.0 * _tail_quad(integrand, big_k, cfg)

    def onicescu_beyond(self, k_min: float) -> float:
        """Integral of gamma^2 over both tails (closed form)."""
        big_k = self._check(k_min)
        a2, a4, a6 = self.a2, self.a4, self.a6
        total = (a2 * a2 / (3.0 * big_k ** 3)
                 + 2.0 * a2 * a4 / (5.0 * big_k ** 5)
                 + (a4 * a4 + 2.0 * a2 * a6) / (7.0 * big_k ** 7)
                 + 2.0 * a4 * a6 / (9.0 * big_k ** 9)
                 + a6 * a6 / (11.0 * big_k ** 11))
        return total / (2.0 * math.pi ** 2)

    def fisher_beyond(self, k_min: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
        """Integral of gamma'^2/gamma over both tails."""
        big_k = self._check(k_min)
        if self.is_null:
            return 0.0

        def integrand(k):
            g = float(self.density(k))
            dg = float(self.density_k_derivative(k))
            return dg * dg / g

        return 2.0 * _tail_quad(integrand, big_k, cfg)


def _tail_quad(integrand, lo: float, cfg: ToleranceConfig) -> float:
    """Semi-infinite quadrature that tolerates a sub-threshold tail.

    The divergence heuristic of the adaptive rule misfires once the whole
    tail hovers near the absolute tolerance.  When that happens with an
    error bound that still satisfies the requested tolerances, or with an
    estimate below the absolute floor, the estimate is accepted.
    """
    try:
        value, _ = integrate_full(integrand, lo, math.inf, cfg)
    except QuadratureError as err:
        certified = max(cfg.abs_tol, cfg.rel_tol * abs(err.estimate))
        if abs(err.estimate) <= cfg.abs_tol or err.error_bound <= certified:
            return err.estimate
        raise
    return value
