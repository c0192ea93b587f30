"""Normalized eigenstates as callable position and momentum profiles.

In Airy units u = -F^(1/3) x every level of every wall is the profile
Ai(z0 + u) / ||Ai|| of its wall-side argument z0 = -E / F^(2/3) alone,
with ||Ai||^2 = Ai'(z0)^2 - z0 Ai(z0)^2 (Albright, J. Phys. A 10, 485,
1977): Dirichlet level n sits at the zero a_(n+1) of Ai, Neumann level n
at a'_(n+1), the Robin levels in between.  This module builds that profile
and exposes the wavefunction, its derivative, both densities, and the
momentum transform behind one object.

Numerically delicate points handled here:

* The level's rounding moves the state along the Airy line, never off
  its norm.  A Robin level handed in on a hard-wall zero would pass for
  that state, so a Robin state must meet its own wall condition to
  ``_WALL_MISS``.
* At weak field the attractive ground state's z0 is large, so the
  profile is a ratio of two underflowing Airy values, formed from scaled
  ones with the exponent difference taken from the distance to the wall.
  The norm there cancels about 2 z0^(3/2)-fold (1e-6 at F = 1e-9).
* The position side is cut where the density has fallen to
  ``_X_CUT_THRESHOLD`` of its value at the turning point (or at the wall,
  for a surface state), a closed form in z0.  At every momentum
  :func:`.quadrature.ray_transform` gives the transform exactly from the
  wall data alone, so nothing on the momentum side depends on the cut.
* Every integral over a state runs on :func:`.quadrature.integrate_batch`,
  one qk21 call per space and both in Airy units, with the field
  applied exactly at the end: :func:`position_integrals` takes psi and
  psi' from one Airy call on pieces of u split at the nodes of psi, and
  :func:`momentum_integrals` takes phi and phi' from one ray call on
  pieces of k / F^(1/3).
* Both passes meet one fixed tolerance (``quadrature._PASS_TOLERANCE``)
  and are memoized on the state's :class:`AiryUnitState`, keyed on (z0, n)
  alone.  A hard wall's record carries no trace of the field, so a sweep
  over the field pays one pass per (wall, n) and the exact field laws,
  S_x = S - ln F^(1/3) and S_k = S + ln F^(1/3), give every other field.
  The field's F^(1/3) scalings all live in this module.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# Called as ``sp.airy``: perfbench/tracing.py counts Airy points there.
from . import _airy as sp
from . import quadrature
from .quadrature import integrate_batch, ray_transform
from .special import root_table
from .spectrum import (
    BoundState,
    ConsistencyError,
    energy,
    field_roots,
    wall_data,
)

__all__ = [
    "StateFunctions",
    "build_state",
    "momentum_integrals",
    "position_integrals",
]

# exp() arguments are clipped here; the clip can only fire for evaluation
# points outside the physical half-line.
_EXP_CLIP = 700.0

# The position side is cut where rho has fallen to this share of its value
# at xi0 = max(arg0, 0).
_X_CUT_THRESHOLD = 1e-20

# Results each memoized pass keeps, least recently used out first.
_PASS_MEMO_SIZE = 256

# A zero of psi just outside the wall, at u = p / d within this range,
# kinks -rho~ ln(rho~) next to u = 0: a robin+ level has p / d = -F^(1/3),
# so from about F = 6.4e-8 down.  A hard wall's p / d stays outside it, within
# rounding of 0 (at most 1.4e-14 for Dirichlet levels below n = 400) or
# beyond 1e11 (Neumann).
_ZERO_OUTSIDE = (-4e-3, -1e-12)

# Largest relative miss of a Robin state's own wall condition: solved
# levels miss by at most 2.6e-8 (both Robin walls, n <= 300, fields from
# 1e-20 to 1e6), levels on a hard-wall zero by order 1.
_WALL_MISS = 1e-3


@dataclasses.dataclass(frozen=True)
class AiryUnitState:
    """One level in Airy units u = -F^(1/3) x: (arg0, n) and what follows from them.

    psi~(u) = F^(-1/6) psi(x) = Ai(arg0 + u) / norm, formed from scaled
    values as exp(s0 - s) times their ratio.  ``norm`` is ||Ai|| signed
    (-1)^n, which keeps psi > 0 next to the wall; ``psi0`` is psi~(0) and
    ``dpsi0`` the wall slope F^(-1/2) psi'(0) = -d psi~/du at u = 0.  The
    record compares and hashes on (arg0, n) alone and holds no trace of F
    or of the wall, so a hard wall's has the same bits at every field.
    """

    arg0: float
    n: int
    norm: float = dataclasses.field(init=False, compare=False)
    s0: float = dataclasses.field(init=False, compare=False)
    psi0: float = dataclasses.field(init=False, compare=False)
    dpsi0: float = dataclasses.field(init=False, compare=False)
    u_cut: float = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        ai0, aip0, s0 = sp.airy(self.arg0)
        psi0, dpsi0, norm = wall_data(self.arg0, self.n, ai0, aip0)
        for name, value in (("norm", norm), ("s0", s0), ("psi0", psi0),
                            ("dpsi0", dpsi0), ("u_cut", _cut(self.arg0))):
            object.__setattr__(self, name, value)

    def profile(self, u):
        """psi~ and d psi~ / du at 1-d array u, from one scaled Airy call."""
        xi = self.arg0 + u
        ai, aip, s = sp.airy(xi)
        expo = self.s0 - s
        if self.s0 > 0.0:
            # At weak field s0 and s(xi) are huge and nearly equal, so
            # their difference is formed from xi - arg0 = u.
            deep = s > 0.0
            xd = xi[deep]
            r0 = math.sqrt(self.arg0)
            expo[deep] = (-(2.0 / 3.0) * u[deep]
                          * (xd + np.sqrt(xd) * r0 + self.arg0) / (np.sqrt(xd) + r0))
        scale = np.exp(np.minimum(expo, _EXP_CLIP)) / self.norm
        return ai * scale, aip * scale


def _cut(arg0: float) -> float:
    """u_cut, where the density bound past xi0 = max(arg0, 0) reaches the threshold.

    Ai e^s xi^(1/4) grows for xi > 0, so rho(xi0) exp(-(4/3)(xi^(3/2) -
    xi0^(3/2))) bounds rho past xi0, and the cut is xi_cut = (xi0^(3/2) +
    decay)^(2/3).  xi_cut - xi0 = decay (p + q) / (p^2 + p q + q^2) with p, q
    the square roots of xi_cut, xi0 keeps it exact to rounding where the
    wall is deep in the forbidden region and xi_cut ~ xi0.
    """
    xi0 = max(arg0, 0.0)
    decay = 0.75 * math.log(1.0 / _X_CUT_THRESHOLD)
    p = (xi0 ** 1.5 + decay) ** (1.0 / 3.0)
    q = math.sqrt(xi0)
    return (xi0 - arg0) + decay * (p + q) / (p * p + p * q + q * q)


class StateFunctions:
    """Callable profile bundle for one solved level.

    Exposes ``psi``, ``psi_prime``, ``rho`` on the position side and
    ``phi``, ``gamma`` on the momentum side, plus the boundary data and
    the cut ``x_cut`` of the position integrals that the observable layers
    use.

    Everything is derived from the field and ``unit``, the
    :class:`AiryUnitState` at the level's wall argument ``arg0``.
    """

    def __init__(self, state: BoundState):
        self.state = state
        self.field_cbrt = f13 = field_roots(state.field)[0]
        self.unit = unit = AiryUnitState(arg0=state.arg0, n=state.n)
        if state.bc.is_robin:
            # A level on a hard-wall zero misses its own wall condition
            # F^(1/3) psi~'(0) = sigma psi~(0) by order 1.
            slope, value = f13 * unit.dpsi0, state.bc.wall_slope * unit.psi0
            miss = abs(slope - value) / max(abs(slope), abs(value))
            if miss > _WALL_MISS:
                raise ConsistencyError(
                    f"{state.bc.value} level {state.n} at field {state.field:g} misses its "
                    f"wall condition by {miss:.3e} relative; the level appears mislabeled"
                )

    @property
    def x_cut(self) -> float:
        return -self.unit.u_cut / self.field_cbrt

    @property
    def psi0(self) -> float:
        return self.unit.psi0 * self.field_cbrt ** 0.5

    @property
    def dpsi0(self) -> float:
        return self.unit.dpsi0 * self.field_cbrt ** 1.5

    # -- position side -------------------------------------------------

    def _profile(self, x, derivative: bool):
        f13 = self.field_cbrt
        x_arr = np.asarray(x, dtype=float)
        p, dp = self.unit.profile(np.atleast_1d(-f13 * x_arr))
        out = -f13 ** 1.5 * dp if derivative else f13 ** 0.5 * p
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
        """(phi, phi') at 1-d momenta, from the wall data in Airy units."""
        f13 = self.field_cbrt
        unit = self.unit
        with np.errstate(over="ignore"):
            kappa = k / f13
        phi, dphi = ray_transform(kappa, unit.psi0, unit.dpsi0, -unit.arg0)
        return phi / f13 ** 0.5, dphi / f13 ** 1.5

    def phi(self, k):
        """Momentum wavefunction; conjugate-symmetric in k."""
        k_arr = np.asarray(k, dtype=float)
        out = self._pair(k_arr.ravel())[0]
        return complex(out[0]) if k_arr.ndim == 0 else out.reshape(k_arr.shape)

    def gamma(self, k):
        """Momentum density |phi|^2, an even function of k."""
        return np.abs(self.phi(k)) ** 2


def build_state(bc, n: int, field: float) -> StateFunctions:
    """Solve level (bc, n, field) and wrap it in callable profiles."""
    return StateFunctions(energy(bc, n, field))


def _entropy_density(r: np.ndarray) -> np.ndarray:
    """-r ln r elementwise, 0 where r = 0."""
    return -r * np.log(np.where(r > 0.0, r, 1.0))


@functools.lru_cache(maxsize=_PASS_MEMO_SIZE)
def _position_pass(unit: AiryUnitState) -> tuple:
    """(N, S, K, O, <u>) of the Airy-unit density rho~ = psi~^2 over [0, u_cut].

    The five integrands rho~, -rho~ ln(rho~), (d psi~/du)^2, rho~^2 and
    u rho~ share one evaluation of psi~ and its slope.  The
    pass runs over the pieces between the interior nodes of psi,
    u_k = a_k - arg0 at the zeros a_k of Ai, where -rho~ ln(rho~) has a
    logarithmic kink, and maps each piece [a, b] by u = a + (b - a) s(t)
    with s(t) = t^2 (3 - 2t), whose flat ends smooth the kink.  The one
    qk21 call takes each node gap as its two halves in t and the tail, from
    the last node (or the wall) to u_cut, as ``_tail_pieces`` equal parts,
    and halves the first piece where psi has a zero just outside the wall
    (``_ZERO_OUTSIDE``), so that the call meets the tolerance.
    """
    nodes = root_table(unit.n + 1).a[:unit.n][::-1] - unit.arg0
    edges = np.concatenate(([0.0], nodes, [unit.u_cut]))
    width = np.diff(edges)
    gaps = width.size - 1

    def integrand(t):
        piece = np.minimum(t.astype(int), width.size - 1)
        t = t - piece
        u = edges[piece] + width[piece] * (t * t * (3.0 - 2.0 * t))
        p, dp = unit.profile(u)
        r = p * p
        ds = 6.0 * width[piece] * t * (1.0 - t)
        return np.stack([r, _entropy_density(r), dp * dp, r * r, u * r]) * ds

    # Two pieces per node gap, each about half a hump of psi; the
    # tail gets about one piece per pi of psi's phase or log-decay.
    tail = _tail_pieces(unit.arg0 + edges[-2])
    points = np.concatenate((np.linspace(0.0, gaps, 2 * gaps + 1),
                             gaps + np.arange(1, tail + 1) / tail))
    if unit.dpsi0 and _ZERO_OUTSIDE[0] < unit.psi0 / unit.dpsi0 < _ZERO_OUTSIDE[1]:
        points = np.insert(points, 1, 0.5 * points[1])
    tol = quadrature._PASS_TOLERANCE
    values, _ = integrate_batch(integrand, points, tol, tol)
    return tuple(float(v) for v in values)


def _tail_pieces(xi: float) -> int:
    """First pieces of the position tail that starts at wall-side argument xi.

    The tail holds psi's phase from xi up to the turning point,
    (2/3) |xi|^(3/2) for xi < 0, and past max(xi, 0) its whole decay to
    the cut, ln(1 / _X_CUT_THRESHOLD) / 2 (see :func:`_cut`), whatever its
    length in Airy units.  About one piece per pi of the two, a hump or a
    fall of psi by e^pi, gives 8 pieces behind a node (xi = a_1) and 7 for
    a surface state.
    """
    reach = (2.0 / 3.0) * max(-xi, 0.0) ** 1.5 + 0.5 * math.log(1.0 / _X_CUT_THRESHOLD)
    return round(reach / math.pi)


def position_integrals(sf: StateFunctions) -> tuple:
    """(norm, S_x, integral of psi'^2, O_x, <x>) from one quadrature pass.

    The pass runs on the density in Airy units u = -F^(1/3) x, a pure
    function of ``sf.unit`` (see :func:`_position_pass`), and the field
    enters exactly at the end, with the exact unit norm: S_x = S - ln F^(1/3),
    F^(2/3) times the slope integral, O_x = F^(1/3) O, <x> = -<u> / F^(1/3).
    """
    f13 = sf.field_cbrt
    norm, entropy, slope, onicescu, mean_u = _position_pass(sf.unit)
    return (norm, entropy - math.log(f13), slope * (f13 * f13), onicescu * f13, -mean_u / f13)


@functools.lru_cache(maxsize=_PASS_MEMO_SIZE)
def _momentum_pass(unit: AiryUnitState) -> tuple:
    """(N, S, I, O) over kappa >= 0 of the Airy-unit density |phi~|^2.

    phi~(kappa) = F^(1/6) phi(k) at kappa = k / F^(1/3) is the transform of
    the wall data psi~(0) and the wall slope at eps = -arg0, so the pass
    reads those alone and the cut never enters.  The four integrands share
    one phi~ and phi~' call, in u: kappa = u K on [0, 1] and
    kappa = K / (2 - u)^6 on [1, 2], with K = max(sqrt|eps|, 1) the
    wavenumber or decay rate of psi at the wall in Airy units (from eps = 1
    on, the split sqrt(eps) of the ray).  The one qk21 call takes the
    pieces of :func:`_momentum_points`, which meet the tolerance.
    """
    arg0 = unit.arg0
    scale = max(math.sqrt(abs(arg0)), 1.0)

    def integrand(u):
        far = u >= 1.0
        t = np.minimum(2.0 - u, 1.0)
        kappa = scale * np.where(far, t ** -6, u)
        phi, dphi = ray_transform(kappa, unit.psi0, unit.dpsi0, -arg0)
        jac = np.where(far, 6.0 / t ** 7, 1.0) * scale
        g = np.abs(phi) ** 2
        dg = 2.0 * (phi.conjugate() * dphi).real
        return np.stack([g, _entropy_density(g), dg * dg / np.maximum(g, 1e-300), g * g]) * jac

    # Just past the split the density's features are about one Airy unit
    # wide where psi oscillates at the wall (the caustic at kappa = K,
    # eps > 0), and about K wide where the wall is in the forbidden region.
    points = _momentum_points(unit.n, scale if arg0 < 0.0 else 1.0)
    tol = quadrature._PASS_TOLERANCE
    values, _ = integrate_batch(integrand, points, tol, tol)
    return tuple(float(v) for v in values)


def _momentum_points(n: int, ratio: float) -> np.ndarray:
    """Breakpoints of the momentum pass of level n, in u on [0, 2].

    Below the split the density has about n humps, crowded toward
    kappa = 0 like the ray phase's slope K^2 - kappa^2, and the caustic at
    kappa = K makes the last ones the tallest.  n + 2 pieces sit at equal
    steps of (5u - u^3) / 4, half equal width and half equal hump count,
    from its closed-form inverse.  Above the split, where
    kappa = K / (2 - u)^6 stretches u by 6 K, pieces halve toward it until
    the first spans about K / ``ratio``, the width of the density's
    features there.
    """
    steps = np.arange(n + 2) / (n + 2)
    below = 2.0 * math.sqrt(5.0 / 3.0) * np.sin(np.arcsin(2.0 * 0.6 ** 1.5 * steps) / 3.0)
    halvings = math.ceil(math.log2(6.0 * ratio))
    return np.concatenate((below, [1.0], 1.0 + 0.5 ** np.arange(halvings, -1, -1)))


def momentum_integrals(sf: StateFunctions) -> tuple:
    """(norm, S_k, I_k, O_k) of the momentum density from one quadrature pass.

    The pass runs on the density in Airy units kappa = k / F^(1/3),
    F^(1/3) gamma, a pure function of the wall data in ``sf.unit`` (see
    :func:`_momentum_pass`), and the field enters exactly at the end, with
    the exact unit norm (S_k = S + ln F^(1/3), I_k = I / F^(2/3),
    O_k = O / F^(1/3)); the pass covers kappa >= 0, half the norm.
    """
    f13 = sf.field_cbrt
    norm, entropy, fisher, onicescu = _momentum_pass(sf.unit)
    values = (norm, entropy + 0.5 * math.log(f13), fisher / (f13 * f13), onicescu / f13)
    return tuple(2.0 * v for v in values)
