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
* Below the switch momentum ``k_switch`` the transform comes from
  Filon-Legendre panels (:class:`.quadrature.HalfLineFourierTable`) sized by
  psi and built lazily; above it :func:`.quadrature.ray_transform` gives it
  exactly from the wall data alone.
* Every integral over a state runs on :func:`.quadrature.integrate_batch`,
  one adaptive pass per space: :func:`position_integrals` takes psi and
  psi' from one Airy call per interval, starting from pieces split at the
  nodes of psi, and :func:`momentum_integrals` takes phi and phi' from one
  table or ray call per interval.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

# Unused here, but perfbench/tracing.py wraps the ``sp`` attribute of
# special, spectrum and states to count Airy points.
from scipy import special as sp  # noqa: F401

from .quadrature import (
    DEFAULT_TOLERANCES,
    HalfLineFourierTable,
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

# The cut march stops once rho falls below this share of its peak.
_X_CUT_THRESHOLD = 1e-20
_MARCH_LIMIT = 20000
# Abscissae of the march evaluated per rho call; _MARCH_LIMIT is a multiple.
_MARCH_BLOCK = 16


class StateFunctions:
    """Callable profile bundle for one solved level.

    Exposes ``psi``, ``psi_prime``, ``rho`` on the position side and
    ``phi``, ``gamma`` on the momentum side, plus the boundary data and
    integration bookkeeping (``x_cut``, ``k_switch``) that the observable
    layers use.  ``cfg`` is the one tolerance config of the state: it sets
    every integral taken over the state.
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
        self._robin_ratio = bc.is_robin
        ai0, aip0, s0 = (float(v) for v in scaled_airy(self.arg0))

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
            # The profile is amp * Ai(xi) / Ai(arg0), formed from scaled
            # values as exp(s0 - s(xi)) times their ratio.
            self._amp = math.sqrt(field / (e_val + 1.0))
            self._ai0 = ai0
            self._s0 = s0
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

        self.x_cut = self._march_cut()
        # The ray needs k^2 > E; the margin keeps its decay rate up.
        self.k_switch = 1.2 * math.sqrt(max(e_val, 0.0)) + max(1.0, f13)
        self._fourier = None
        self._lock = threading.Lock()

    # -- position side -------------------------------------------------

    def _airy_profile(self, x):
        """psi and psi' at 1-d array x, from one scaled Airy call."""
        xi = self.arg0 - self.field_cbrt * x
        ai, aip, s = scaled_airy(xi)
        if self._robin_ratio:
            expo = self._s0 - s
            if self._s0 > 0.0:
                # At weak field s0 and s(xi) are huge and nearly equal, so
                # their difference is formed from xi - arg0 = -f^(1/3) x.
                deep = s > 0.0
                xd = xi[deep]
                r0 = math.sqrt(self.arg0)
                expo[deep] = ((2.0 / 3.0) * self.field_cbrt * x[deep]
                              * (xd + np.sqrt(xd) * r0 + self.arg0) / (np.sqrt(xd) + r0))
            scale = np.exp(np.minimum(expo, _EXP_CLIP))
            ai = ai / self._ai0 * scale
            aip = aip / self._ai0 * scale
        else:
            scale = np.exp(-s)
            ai = ai * scale
            aip = aip * scale
        return self._amp * ai, -self.field_cbrt * (self._amp * aip)

    def _profile(self, x, derivative: bool):
        x_arr = np.asarray(x, dtype=float)
        out = self._airy_profile(np.atleast_1d(x_arr))[int(derivative)]
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

    def _march_cut(self) -> float:
        """Walk outward past the turning point until the density is dead.

        Relative to the running density maximum, so node-free decay past
        the turning point is the only region the criterion ever sees.
        The density is taken ``_MARCH_BLOCK`` steps per call and scanned
        in order, so the cut does not depend on the block; at most
        ``_MARCH_BLOCK - 1`` points past it are evaluated for nothing.
        """
        field = self.state.field
        e_val = self.state.energy
        step = 0.5 / self.field_cbrt
        if e_val < 0.0:
            # A surface state decays over 1/sqrt(-E), which at weak field
            # is far shorter than the Airy length field**(-1/3).  A whole
            # decay length per step keeps the two-step margin below at two
            # decay lengths, which the transform of psi (not psi^2) needs.
            step = min(step, 1.0 / math.sqrt(-e_val))
        x = min(-e_val / field, 0.0)
        rho_max = self.rho(x)
        block = [0.0] * _MARCH_BLOCK
        for _ in range(_MARCH_LIMIT // _MARCH_BLOCK):
            # Repeated subtraction, not x0 - i*step, keeps every abscissa
            # (and so the cut) independent of the block size.
            for i in range(_MARCH_BLOCK):
                x -= step
                block[i] = x
            for x, r in zip(block, self.rho(np.array(block)).tolist()):
                if r > rho_max:
                    rho_max = r
                elif rho_max > 0.0 and r < _X_CUT_THRESHOLD * rho_max:
                    return x - 2.0 * step
        raise ConsistencyError(
            f"density never fell below {_X_CUT_THRESHOLD} of its peak within "
            f"{_MARCH_LIMIT} steps; the state looks unnormalizable"
        )

    # -- momentum side ---------------------------------------------------

    def _table(self) -> HalfLineFourierTable:
        with self._lock:
            if self._fourier is None:
                # psi's local wavenumber (or decay rate) sqrt|E + F x| peaks
                # at the wall or at the cut.
                e_val = self.state.energy
                rate = math.sqrt(max(abs(e_val), abs(e_val + self.state.field * self.x_cut)))
                self._fourier = HalfLineFourierTable(self.psi, self.x_cut, rate)
            return self._fourier

    def _pair(self, k: np.ndarray) -> tuple:
        """(phi, phi') at 1-d momenta: the table below k_switch, the ray above."""
        far = np.abs(k) >= self.k_switch
        phi = np.empty(k.size, dtype=complex)
        dphi = np.empty_like(phi)
        if not far.all():
            phi[~far], dphi[~far] = self._table().transform_pair(k[~far])
        if far.any():
            phi[far], dphi[far] = ray_transform(k[far], self.psi0, self.dpsi0,
                                                self.state.energy, self.state.field)
        return phi, dphi

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

    rho, -rho ln(rho), psi'^2, rho^2 and x rho share one evaluation of psi
    and psi' per interval of [x_cut, 0].  The pass starts from the pieces
    between the interior nodes of psi, where -rho ln(rho) has a logarithmic
    kink, and maps each piece [a, b] by x = a + (b - a) s(t) with
    s(t) = t^2 (3 - 2t), whose flat ends smooth the kink.
    """
    n = sf.state.n
    nodes = (sf.arg0 - root_table(n + 1).a[:n]) / sf.field_cbrt
    edges = np.concatenate(([sf.x_cut], nodes, [0.0]))
    width = np.diff(edges)

    def integrand(t):
        piece = np.minimum(t.astype(int), width.size - 1)
        t = t - piece
        x = edges[piece] + width[piece] * (t * t * (3.0 - 2.0 * t))
        p, dp = sf._airy_profile(x)
        r = p * p
        ds = 6.0 * width[piece] * t * (1.0 - t)
        return np.stack([r, -xlogy(r, r), dp * dp, r * r, x * r]) * ds

    values, _ = integrate_batch(integrand, np.arange(width.size + 1.0), sf.cfg)
    return tuple(float(v) for v in values)


def position_norm(sf: StateFunctions) -> float:
    """Norm in position space, from the one position pass."""
    return position_integrals(sf)[0]


def momentum_integrals(sf: StateFunctions) -> tuple:
    """(norm, S_k, I_k, O_k) of the momentum density from one adaptive pass.

    The four integrands of the density in Airy units kappa = k / F^(1/3),
    F^(1/3) gamma, share one phi and phi' call per interval of u: the table
    at kappa = u K on [0, 1], the ray at kappa = K / (2 - u)^6 on [1, 2],
    K = k_switch / F^(1/3).  The field enters exactly at the end
    (S_k = S + N ln F^(1/3), I_k = I / F^(2/3), O_k = O / F^(1/3)).
    """
    f13 = sf.field_cbrt

    def integrand(u):
        far = u >= 1.0
        t = np.minimum(2.0 - u, 1.0)
        phi, dphi = sf._pair(sf.k_switch * np.where(far, t ** -6, u))
        jac = np.where(far, 6.0 / t ** 7, 1.0) * (sf.k_switch / f13)
        # phi~(kappa) = F^(1/6) phi(k) and phi~'(kappa) = F^(1/2) phi'(k).
        phi, dphi = phi * f13 ** 0.5, dphi * f13 ** 1.5
        g = np.abs(phi) ** 2
        dg = 2.0 * (phi.conjugate() * dphi).real
        return np.stack([g, -xlogy(g, g), dg * dg / np.maximum(g, 1e-300), g * g]) * jac

    (norm, entropy, fisher, onicescu), _ = integrate_batch(integrand, [0.0, 1.0, 2.0], sf.cfg)
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
