"""Normalized eigenstates as callable position and momentum profiles.

A solved level from :mod:`.spectrum` determines the state only up to
normalization.  This module attaches the closed-form normalization for
each wall type and exposes the wavefunction, its derivative, both
densities, and the momentum transform behind one object.

Numerically delicate points handled here:

* For an attractive Robin wall at weak field the wall-side Airy argument
  is large and positive, so the profile is a ratio of two underflowing
  Airy values.  The ratio is evaluated through exponentially scaled Airy
  functions with the combined exponent formed first, from the distance to
  the wall rather than as a difference of two large exponents, which
  keeps the state exact down to fields where the plain route would
  return 0/0.
  The hard-wall profiles multiply the scaled value by exp(-s), which
  rounds to 0 once Ai itself underflows.
* The position side is cut where the density has fallen to
  ``_X_CUT_THRESHOLD`` of its value at the turning point (or at the wall,
  for a surface state), a closed form in the wall-side Airy argument.
  At every momentum :func:`.quadrature.ray_transform` gives the transform
  exactly from the wall data alone, so nothing on the momentum side
  depends on the cut.
* Every integral over a state runs on :func:`.quadrature.integrate_batch`,
  one adaptive pass per space and both in Airy units, with the field
  applied exactly at the end: :func:`position_integrals` takes psi and
  psi' from one Airy call per interval of u = -F^(1/3) x, starting from
  pieces split at the nodes of psi, and :func:`momentum_integrals` takes
  phi and phi' from one ray call per interval of k / F^(1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

# Unused here, but perfbench/tracing.py wraps the ``sp`` attribute of
# special, spectrum and states to count Airy points.
from scipy import special as sp  # noqa: F401

from .quadrature import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    integrate_batch,
    ray_transform,
)
from .special import root_table, scaled_airy
from .spectrum import BoundarySpec, BoundState, ConsistencyError, DomainError, energy

__all__ = [
    "ExtremumInfo",
    "StateFunctions",
    "boundary_residual",
    "build_state",
    "energy_identity_residual",
    "extrema",
    "momentum_integrals",
    "momentum_norm",
    "position_integrals",
    "position_norm",
]

# exp() arguments are clipped here; the clip can only fire for evaluation
# points outside the physical half-line.
_EXP_CLIP = 700.0

# The position side is cut where rho has fallen to this share of its value
# at xi0 = max(arg0, 0).
_X_CUT_THRESHOLD = 1e-20


class StateFunctions:
    """Callable profile bundle for one solved level.

    Exposes ``psi``, ``psi_prime``, ``rho`` on the position side and
    ``phi``, ``gamma`` on the momentum side, plus the boundary data and
    the cut of the position integrals that the observable layers use, as
    ``u_cut`` in Airy units u = -F^(1/3) x and as ``x_cut``.  ``cfg`` is
    the one tolerance config of the state: it sets every integral taken
    over the state.

    The profile is amp * Ai(xi) / Ai(arg0) with xi = arg0 + u, formed from
    scaled values as exp(s0 - s(xi)) times their ratio; a hard wall takes
    (Ai(arg0), s0) = (1, 0), so its profile is amp * Ai(xi).
    """

    def __init__(self, state: BoundState, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        self.state = state
        self.cfg = cfg
        bc = state.bc
        field = state.field
        e_val = state.energy
        f13 = field ** (1.0 / 3.0)
        self.field_cbrt = f13
        self.arg0 = -e_val / (f13 * f13)
        ai0, aip0, s0 = (float(v) for v in scaled_airy(self.arg0))
        self._ai0, self._s0 = 1.0, 0.0

        if bc.is_robin:
            if e_val + 1.0 <= 0.0:
                raise ConsistencyError(
                    f"Robin level with E+1 = {e_val + 1.0:.3e} <= 0 cannot be normalized"
                )
            if abs(ai0) < 1e-10 * max(abs(aip0), 0.05):
                raise ConsistencyError(
                    "wall value of the profile is consistent with a hard wall; "
                    "the level appears mislabeled"
                )
            self._amp = math.sqrt(field / (e_val + 1.0))
            self._ai0, self._s0 = ai0, s0
            self.psi0 = self._amp
            self.dpsi0 = bc.wall_slope * self.psi0
        elif bc is BoundarySpec.DIRICHLET:
            self._amp = f13 ** 0.5 / aip0
            self.psi0 = 0.0
            self.dpsi0 = -math.sqrt(field)
        else:
            self._amp = f13 ** 0.5 / (math.sqrt(-self.arg0) * ai0)
            self.psi0 = f13 ** 0.5 / math.sqrt(-self.arg0)
            self.dpsi0 = 0.0

        # Ai e^s xi^(1/4) grows for xi > 0, so rho(xi0) exp(-(4/3)(xi^(3/2)
        # - xi0^(3/2))) bounds rho past xi0 = max(arg0, 0), and the cut is
        # xi_cut = (xi0^(3/2) + decay)^(2/3), where the bound reaches the
        # threshold.  xi_cut - xi0 = decay (p + q) / (p^2 + p q + q^2) with
        # p, q the square roots of xi_cut, xi0 keeps it exact to rounding
        # where the wall is deep in the forbidden region and xi_cut ~ xi0.
        xi0 = max(self.arg0, 0.0)
        decay = 0.75 * math.log(1.0 / _X_CUT_THRESHOLD)
        p = (xi0 ** 1.5 + decay) ** (1.0 / 3.0)
        q = math.sqrt(xi0)
        self.u_cut = (xi0 - self.arg0) + decay * (p + q) / (p * p + p * q + q * q)

    @property
    def x_cut(self) -> float:
        return -self.u_cut / self.field_cbrt

    # -- position side -------------------------------------------------

    def _airy_profile(self, u):
        """psi and d psi / du at 1-d array u, from one scaled Airy call."""
        xi = self.arg0 + u
        ai, aip, s = scaled_airy(xi)
        expo = self._s0 - s
        if self._s0 > 0.0:
            # At weak field s0 and s(xi) are huge and nearly equal, so
            # their difference is formed from xi - arg0 = u.
            deep = s > 0.0
            xd = xi[deep]
            r0 = math.sqrt(self.arg0)
            expo[deep] = (-(2.0 / 3.0) * u[deep]
                          * (xd + np.sqrt(xd) * r0 + self.arg0) / (np.sqrt(xd) + r0))
        scale = np.exp(np.minimum(expo, _EXP_CLIP))
        ai = ai / self._ai0 * scale
        aip = aip / self._ai0 * scale
        return self._amp * ai, self._amp * aip

    def _profile(self, x, derivative: bool):
        x_arr = np.asarray(x, dtype=float)
        p, dp = self._airy_profile(np.atleast_1d(-self.field_cbrt * x_arr))
        out = -self.field_cbrt * dp if derivative else p
        return float(out[0]) if x_arr.ndim == 0 else out

    def psi(self, x):
        """Wavefunction value; accepts scalars or arrays."""
        return self._profile(x, derivative=False)

    def psi_prime(self, x):
        """Spatial derivative of the wavefunction."""
        return self._profile(x, derivative=True)

    def rho(self, x):
        p = self.psi(x)
        return p * p

    # -- momentum side ---------------------------------------------------

    def _pair(self, k: np.ndarray) -> tuple:
        """(phi, phi') at 1-d momenta, from the wall data."""
        return ray_transform(k, self.psi0, self.dpsi0, self.state.energy, self.state.field)

    def phi(self, k):
        """Momentum wavefunction; conjugate-symmetric in k."""
        k_arr = np.asarray(k, dtype=float)
        out = self._pair(k_arr.ravel())[0]
        return complex(out[0]) if k_arr.ndim == 0 else out.reshape(k_arr.shape)

    def gamma(self, k):
        """Momentum density |phi|^2, an even function of k."""
        return np.abs(self.phi(k)) ** 2


def build_state(bc, n: int, field: float,
                cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> StateFunctions:
    """Solve level (bc, n, field) and wrap it in callable profiles."""
    return StateFunctions(energy(bc, n, field), cfg)


def boundary_residual(sf: StateFunctions) -> float:
    """How well the evaluated profile satisfies its own wall condition."""
    if sf.state.bc is BoundarySpec.DIRICHLET:
        return abs(sf.psi(0.0))
    return abs(sf.psi_prime(0.0) - sf.state.bc.wall_slope * sf.psi(0.0))


def position_integrals(sf: StateFunctions) -> tuple:
    """(norm, S_x, integral of psi'^2, O_x, <x>) from one adaptive pass.

    The five integrands of the density in Airy units u = -F^(1/3) x,
    rho~ = psi~^2 with psi~ = F^(-1/6) psi, share one evaluation of psi and
    psi' per interval of [0, u_cut]: rho~, -rho~ ln(rho~), (d psi~/du)^2,
    rho~^2 and u rho~.
    The pass starts from the pieces between the interior nodes of psi,
    u_k = a_k - arg0 at the zeros a_k of Ai, where -rho~ ln(rho~) has a
    logarithmic kink, and maps each piece [a, b] by u = a + (b - a) s(t)
    with s(t) = t^2 (3 - 2t), whose flat ends smooth the kink.  The field
    enters exactly at the end (S_x = S - N ln F^(1/3), F^(2/3) times the
    slope integral, O_x = F^(1/3) O, <x> = -<u> / F^(1/3)).
    """
    f13 = sf.field_cbrt
    nodes = root_table(sf.state.n + 1).a[:sf.state.n][::-1] - sf.arg0
    edges = np.concatenate(([0.0], nodes, [sf.u_cut]))
    width = np.diff(edges)

    def integrand(t):
        piece = np.minimum(t.astype(int), width.size - 1)
        t = t - piece
        u = edges[piece] + width[piece] * (t * t * (3.0 - 2.0 * t))
        p, dp = sf._airy_profile(u)
        r = p * p / f13
        ds = 6.0 * width[piece] * t * (1.0 - t)
        return np.stack([r, -xlogy(r, r), dp * dp / f13, r * r, u * r]) * ds

    (norm, entropy, slope, onicescu, mean_u), _ = integrate_batch(
        integrand, np.arange(width.size + 1.0), sf.cfg)
    values = (norm, entropy - norm * math.log(f13), slope * (f13 * f13), onicescu * f13,
              -mean_u / f13)
    return tuple(float(v) for v in values)


def position_norm(sf: StateFunctions) -> float:
    """Norm in position space, from the one position pass."""
    return position_integrals(sf)[0]


def momentum_integrals(sf: StateFunctions) -> tuple:
    """(norm, S_k, I_k, O_k) of the momentum density from one adaptive pass.

    The four integrands of the density in Airy units kappa = k / F^(1/3),
    F^(1/3) gamma, share one phi and phi' call per interval of u:
    kappa = u K on [0, 1] and kappa = K / (2 - u)^6 on [1, 2], with
    K = max(sqrt|eps|, 1) the wavenumber or decay rate of psi at the wall
    in Airy units (from eps = 1 on, the split sqrt(eps) of the ray).  The
    field enters exactly at the end (S_k = S + N ln F^(1/3),
    I_k = I / F^(2/3), O_k = O / F^(1/3)).
    """
    f13 = sf.field_cbrt
    scale = max(math.sqrt(abs(sf.arg0)), 1.0)

    def integrand(u):
        far = u >= 1.0
        t = np.minimum(2.0 - u, 1.0)
        kappa = scale * np.where(far, t ** -6, u)
        phi, dphi = sf._pair(kappa * f13)
        jac = np.where(far, 6.0 / t ** 7, 1.0) * scale
        # phi~(kappa) = F^(1/6) phi(k) and phi~'(kappa) = F^(1/2) phi'(k).
        phi, dphi = phi * f13 ** 0.5, dphi * f13 ** 1.5
        g = np.abs(phi) ** 2
        dg = 2.0 * (phi.conjugate() * dphi).real
        return np.stack([g, -xlogy(g, g), dg * dg / np.maximum(g, 1e-300), g * g]) * jac

    # Below the split the density has about n humps; n // 2 + 1 first
    # pieces keep the bisection budget in step with them.
    points = np.append(np.linspace(0.0, 1.0, sf.state.n // 2 + 2), 2.0)
    (norm, entropy, fisher, onicescu), _ = integrate_batch(integrand, points, sf.cfg)
    values = (norm, entropy + norm * math.log(f13), fisher / (f13 * f13), onicescu / f13)
    return tuple(2.0 * float(v) for v in values)


def momentum_norm(sf: StateFunctions) -> float:
    """Norm in momentum space, from the one momentum pass."""
    return momentum_integrals(sf)[0]


def energy_identity_residual(sf: StateFunctions) -> float:
    """Mismatch of E against kinetic + wall + potential expectation values.

    Integrating the kinetic term by parts moves one boundary term onto
    the wall, where the wall condition turns it into -sigma psi(0)^2.
    """
    state = sf.state
    _, _, kinetic, _, mean_x = position_integrals(sf)
    sigma = state.bc.wall_slope
    wall = 0.0 if sigma is None else -sigma * sf.psi0 ** 2
    total = kinetic + wall - state.field * mean_x
    return float(abs(total - state.energy))


@dataclass(frozen=True)
class ExtremumInfo:
    """One interior stationary point of the wavefunction."""

    m: int
    x: float
    psi_value: float


def _newton_extremum(sf: StateFunctions, seed: float) -> float:
    e_val = sf.state.energy
    field = sf.state.field
    clip = 0.5 / sf.field_cbrt
    x = float(seed)
    for _ in range(60):
        slope = sf.psi_prime(x)
        # psi'' from the stationary equation, no finite differencing.
        curv = -(e_val + field * x) * sf.psi(x)
        if curv == 0.0:
            break
        step = slope / curv
        if step > clip:
            step = clip
        elif step < -clip:
            step = -clip
        x -= step
        if abs(step) <= 1e-13 * max(1.0, abs(x)):
            break
    if abs(x - seed) > 0.2 * max(abs(seed), 1.0 / sf.field_cbrt):
        raise DomainError(
            f"refinement wandered from seed {seed:.6g} to {x:.6g}; "
            "the regime does not describe this state"
        )
    if abs(sf.psi_prime(x)) > 1e-8:
        raise ConsistencyError(
            f"stationary-point refinement stalled at x = {x:.6g} "
            f"with slope {sf.psi_prime(x):.3e}"
        )
    return x


def extrema(sf: StateFunctions, regime: str) -> list:
    """Interior extrema of an attractive-wall state, refined from seeds.

    Seeds exist for excited levels only: in either regime the ground
    state keeps its single maximum on the wall, and each excited level
    carries n stationary points strictly inside the domain.
    """
    if sf.state.bc is not BoundarySpec.ROBIN_MINUS:
        raise DomainError("interior-extremum seeds are specific to the attractive Robin wall")
    n = sf.state.n
    f13 = sf.field_cbrt
    if regime == "weak":
        if n < 1:
            raise DomainError("the weak-field ground state has no interior extremum")
        table = root_table(n + 1)
        a_n = table.ai_zero(n)
        seeds = [((a_n - table.ai_prime_zero(m)) / f13 - 1.0, m) for m in range(1, n + 1)]
    elif regime == "strong":
        if n < 1:
            raise DomainError("the strong-field ground state presses its crest onto the wall")
        table = root_table(n + 1)
        ap_top = table.ai_prime_zero(n + 1)
        # The boundary condition pushes the Airy argument at the wall just
        # above the (n+1)th slope zero, so the innermost crest is truncated
        # and only n stationary points survive inside.
        offset = 1.0 / (ap_top * f13 * f13)
        seeds = [((ap_top - table.ai_prime_zero(m)) / f13 - offset, m)
                 for m in range(1, n + 1)]
    else:
        raise ValueError(f"regime must be 'weak' or 'strong', got {regime!r}")

    out = []
    for seed, m in seeds:
        x = _newton_extremum(sf, seed)
        out.append(ExtremumInfo(m=m, x=x, psi_value=float(sf.psi(x))))
    return out
