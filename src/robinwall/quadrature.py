"""Adaptive quadrature and the momentum transform.

Position-space integrands in this package are Airy profiles on a
truncated half-line, smooth apart from the logarithmic kink that
-rho ln(rho) takes at each node.  The momentum side is the hard part: the
transform of a wavefunction with a nonzero boundary value decays only
like 1/k, so every density integral has a slow algebraic tail.

* :func:`ray_transform` gives phi and phi' in Airy units, at every
  kappa = k / F^(1/3) from the wall data and eps = E / F^(2/3) alone, on a
  ray rotated into the complex plane plus, below kappa = sqrt(eps), one
  closed-form Airy term; psi's cut never enters, and :mod:`.states`
  applies the field.
* :func:`integrate_batch` is QUADPACK's adaptive G10/K21 strategy for a
  vector-valued integrand evaluated on a whole interval in one array call;
  it is the only adaptive rule of the package and carries every position
  functional and every momentum functional of a state in one pass each.
"""

from __future__ import annotations

import math

import numpy as np

from .special import valley_airy

__all__ = [
    "QuadratureError",
    "integrate_batch",
    "ray_transform",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Samples (and Legendre terms) per Fourier-table panel, and the radians of
# psi one panel may span: j_16(1) ~ 2e-19 is left outside the expansion.
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


# Absolute and relative tolerance of every adaptive pass over a state.
# Callers read it at call time, so a test may set it for one run.
_PASS_TOLERANCE = 1e-10


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

# integrate_batch bisects at most max(_MAX_SUBDIVISIONS - 1, 2 * pieces) times
# past its first pieces, so the budget grows with the pieces a pass starts from.
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


def integrate_batch(f, points, abs_tol: float, rel_tol: float):
    """Integrate a vector-valued f from points[0] to points[-1]: (values, errors).

    ``f`` maps a 1-d array of points to an array of shape (m, points).
    ``points`` are sorted breakpoints; every interval between neighbours is
    evaluated in one first call.  The rule is QUADPACK's qag with the qk21
    pair: it bisects the interval whose worst component sits furthest above
    its tolerance and evaluates both halves in one call of 42 points.  It
    stops once every component meets sum(err_i) <= max(abs_tol, rel_tol*|I_i|)
    on its own (the passes over a state set both to ``_PASS_TOLERANCE``);
    after ``_MAX_SUBDIVISIONS - 1`` bisections, or twice as many as it had
    first pieces if that is more, it raises :class:`QuadratureError` with
    the per-component estimates.
    """
    edges = np.asarray(points, dtype=float)
    start = edges.size - 1
    limit = start + max(_MAX_SUBDIVISIONS - 1, 2 * start)
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
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
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


# Off every library path; perfbench/tracing.py still wraps its methods.
class HalfLineFourierTable:
    """Filon-Legendre table of the transform of psi on [x_cut, 0].

    psi is expanded in Legendre polynomials on P equal panels (midpoints
    m_p, half-width h), each spanning at most ``_PSI_RADIANS_PER_PANEL`` of
    psi's phase at ``rate``, and every term is integrated against the phase
    exactly (DLMF 10.54.2): phi(k) = sum_p exp(-ik m_p) sum_j c_pj h 2 (-i)^j
    j_j(|k| h).  Columns [c(psi) | c(x psi)] give phi and phi' together.
    """

    def __init__(self, psi, x_cut: float, rate: float):
        panels = max(1, int(math.ceil(-x_cut * rate / _PSI_RADIANS_PER_PANEL)))
        half = -0.5 * x_cut / panels
        mid = x_cut + half * (2.0 * np.arange(panels) + 1.0)
        x = mid[:, None] + half * _PANEL_NODES
        psi_x = np.asarray(psi(x.ravel()), dtype=float).reshape(x.shape)
        self.node_count = int(x.size)
        self._mid = mid
        self._half = half
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
        # Imported here so that only this table, which no library path
        # builds, loads scipy.special.
        from scipy.special import spherical_jn

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


# The ray rule: 24 Gauss-Legendre points on each of 6 geometric panels, in
# units of the shortest decay length of the terms of theta.
_RAY_ENDS = np.array([0.0, 0.25, 1.0, 3.0, 8.0, 20.0, 45.0])
_ray_nodes, _ray_weights = np.polynomial.legendre.leggauss(24)
_ray_half = 0.5 * np.diff(_RAY_ENDS)[:, None]
_RAY_S = (0.5 * (_RAY_ENDS[1:] + _RAY_ENDS[:-1])[:, None] + _ray_half * _ray_nodes).ravel()
_RAY_W = (_ray_half * _ray_weights).ravel()
# The rows [s; s^2; s^3 / 3] of the exponent on z = h s, and the columns
# w s^j (j = 0..3) of the four moments (see ray_transform).
_RAY_POWERS = np.stack([_RAY_S, _RAY_S ** 2, _RAY_S ** 3 / 3.0])
_RAY_MOMENTS = np.stack([_RAY_W * _RAY_S ** j for j in range(4)], axis=1)
# Toward the pi/6 valley, and toward the -pi/2 one, where every term of
# i theta decays while kappa^2 < eps.
_RAY_DIRECTION = complex(math.cos(math.pi / 6.0), 0.5)
_DOWN_DIRECTION = complex(math.cos(7.0 * math.pi / 12.0), -math.sin(7.0 * math.pi / 12.0))


def _real_product(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """a @ table for complex a and a real table, as two real products."""
    # Never a complex @ (zgemm): after one, every later complex np.exp runs 7-15x slower.
    out = np.empty((a.shape[0], table.shape[1]), dtype=complex)
    out.real = a.real @ table
    out.imag = a.imag @ table
    return out


def ray_transform(kappa, psi0: float, dpsi0: float, eps: float) -> tuple:
    """(phi~, d phi~/d kappa) at every momentum of a 1-d array, from the wall data.

    Everything is in Airy units: kappa = k / F^(1/3), eps = E / F^(2/3),
    psi~(0) = ``psi0`` and F^(-1/2) psi'(0) = ``dpsi0``, and the result is
    phi~ = F^(1/6) phi; :mod:`.states` applies the field.  The transformed
    stationary equation, i phi~' = (kappa^2 - eps) phi~ - B(kappa) with
    B(q) = (dpsi0 + i q psi0) / sqrt(2 pi), is of first order, and its
    solution that vanishes as kappa -> infinity is
    phi~(kappa) = -i integral over z >= 0 of B(kappa + z) exp(i theta) dz,
    theta = Phi(kappa + z) - Phi(kappa), Phi(q) = q^3/3 - eps q,
    formed as z (kappa^2 - eps) + kappa z^2 + z^3 / 3 (as a difference of
    cubes it loses digits).  Where kappa^2 >= eps every term decays along
    z = s exp(i pi/6), and one fixed rule takes the integral there.  Below,
    the rule runs along z = s exp(-7 i pi/12) into the -pi/2 valley, and the
    integral between the valleys is added in closed form (DLMF 9.5.1):
    exp(-i Phi(kappa)) (c1 J - c0 J'), J = 2 pi e^(i pi/3) Ai(eps e^(i pi/3)),
    where c1 + i c0 q is B.
    phi~' comes from the kappa-derivative of the integrand on the same
    samples and of the closed-form term; formed from the equation it would
    cancel at large kappa, where phi~ ~ B / (kappa^2 - eps).
    On the ray z = h s, with h = ell * direction one complex number per
    momentum, the exponent is the block i [gap h, kappa h^2, h^3] times the
    constant rows [s; s^2; s^3 / 3], and after one exp both sums are taken
    from the four moments m_j = sum over nodes of exp(...) w s^j:
    phi~ ~ h (beta m0 + i c0 h m1) and
    phi~' ~ h (c0 m0 + 2 beta kappa h m1 + (beta + 2 i c0 kappa) h^2 m2
    + i c0 h^3 m3), with beta = c1 + i c0 kappa.  Both products with the
    constant tables are real matrix products on the real and imaginary
    parts: after a complex one (zgemm), the bundled OpenBLAS leaves the
    next complex exp several times slower.  Negative momenta are taken by
    conjugation.  Where kappa^2 - eps overflows, the next term of that
    series is below 1 / kappa^3 ~ 1e-462 of the first, so phi~ is
    B / kappa^2 and phi~' its derivative, formed without squaring kappa.
    """
    signed = np.asarray(kappa, dtype=float)
    kappa = np.abs(signed)
    with np.errstate(over="ignore"):
        gap = kappa * kappa - eps
    huge = ~np.isfinite(gap)
    if huge.any():
        phi = np.empty(signed.size, dtype=complex)
        dphi = np.empty_like(phi)
        phi[~huge], dphi[~huge] = ray_transform(signed[~huge], psi0, dpsi0, eps)
        q = signed[huge]
        phi[huge] = (dpsi0 / q / q + 1j * (psi0 / q)) / _SQRT_TWO_PI
        dphi[huge] = -(2.0 * dpsi0 / q / q / q + 1j * (psi0 / q / q)) / _SQRT_TWO_PI
        return phi, dphi
    c0 = psi0 / _SQRT_TWO_PI
    c1 = dpsi0 / _SQRT_TWO_PI
    down = gap < 0.0
    # Decay lengths of the terms of i theta on each ray.  The down ray's
    # terms turn faster than they decay, so its lengths were tuned shorter,
    # against a fine rule for eps up to 1e5 (error below 3e-14).
    ell = np.where(down,
                   1.0 / np.maximum(np.maximum(1.6, -gap), np.sqrt(1.1 * kappa)),
                   1.0 / np.maximum(np.maximum(1.0, 0.5 * gap), np.sqrt(0.866 * kappa)))
    h = ell * np.where(down, _DOWN_DIRECTION, _RAY_DIRECTION)
    h2 = h * h
    wave = np.exp(_real_product(np.stack([1j * gap * h, 1j * kappa * h2, 1j * h2 * h], axis=1),
                                _RAY_POWERS))
    m0, m1, m2, m3 = _real_product(wave, _RAY_MOMENTS).T
    beta = c1 + 1j * c0 * kappa
    phi = h * (beta * m0 + 1j * c0 * h * m1)
    dphi = h * (c0 * m0 + 2.0 * kappa * beta * h * m1 + (beta + 2j * c0 * kappa) * h2 * m2
                + 1j * c0 * h2 * h * m3)
    if down.any():
        # valley_airy carries exp(i Phi(sqrt(eps))), so the phase left is
        # Phi(kappa) - Phi(sqrt(eps)), formed as a square times a sum.
        r = math.sqrt(eps)
        j, dj = valley_airy(eps)
        c = 2.0 * math.pi * (c1 * j - c0 * dj)
        q = kappa[down]
        valley = c * np.exp(-1j * ((q - r) * (q - r) * (q + 2.0 * r) / 3.0))
        phi[down] += valley
        dphi[down] -= gap[down] * valley
    phi = -1j * phi
    neg = signed < 0.0
    phi[neg] = np.conj(phi[neg])
    dphi[neg] = -np.conj(dphi[neg])
    return phi, dphi
