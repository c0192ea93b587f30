"""Wavefunction bundles: profiles, norms, momentum side, extrema."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import airy, xlogy

from scipy.integrate import quad

from quadpack_reference import fourier_half_line
from robinwall.quadrature import (
    QuadratureError,
    ToleranceConfig,
    ray_transform,
)
from robinwall.special import root_table
from robinwall.spectrum import DomainError
from robinwall.states import (
    boundary_residual,
    build_state,
    energy_identity_residual,
    extrema,
    momentum_integrals,
    momentum_norm,
    position_integrals,
    position_norm,
)

# Reference value of psi(-1) for the attractive wall ground state at
# field 1, from a 30-digit direct evaluation of the normalized profile.
PSI_AT_MINUS_ONE = 0.458641629831806493332

# gamma(0) for the same wall at field 0.1, same provenance.
PEAK_AT_FIELD_TENTH = 0.299040480979151194184

PROFILE_CASES = [
    ("robin-", 0, 1.0),
    ("robin+", 1, 0.5),
    ("dirichlet", 2, 2.0),
    ("neumann", 1, 4.0),
]


def test_pointwise_reference_value(state_of):
    sf = state_of("robin-", 0, 1.0)
    assert math.isclose(sf.psi(-1.0), PSI_AT_MINUS_ONE, rel_tol=1e-12)


@pytest.mark.parametrize("bc,n,field", PROFILE_CASES)
def test_wall_condition_satisfied(state_of, bc, n, field):
    sf = state_of(bc, n, field)
    assert boundary_residual(sf) < 1e-10


@pytest.mark.parametrize("bc,n,field", PROFILE_CASES)
def test_unit_norm_both_sides(state_of, bc, n, field):
    sf = state_of(bc, n, field)
    assert math.isclose(position_norm(sf), 1.0, rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(momentum_norm(sf), 1.0, rel_tol=0.0, abs_tol=5e-8)


def test_unconverged_momentum_pass_raises():
    # The vector rule stops silently at its interval limit; the pass must
    # turn that into an error that still carries the estimate and bound.
    cfg = ToleranceConfig(abs_tol=1e-15, rel_tol=1e-15)
    sf = build_state("robin-", 0, 1.0, cfg)
    with pytest.raises(QuadratureError) as info:
        momentum_integrals(sf)
    assert np.all(np.isfinite(info.value.estimate))
    assert math.isfinite(info.value.error_bound)


@pytest.mark.parametrize("bc,n,field", [
    ("robin-", 1, 3.90625e-5),
    ("dirichlet", 0, 1.0),
    ("neumann", 3, 300.0),
    ("robin+", 2, 0.01),
])
def test_position_pass_matches_scalar_quadratures(state_of, bc, n, field):
    # scipy's scalar QUADPACK route (qagp), one integral per functional and
    # split at the nodes of psi where -rho ln(rho) has a logarithmic kink,
    # is the reference for the batched pass.
    sf = state_of(bc, n, field)
    nodes = (sf.arg0 - root_table(n + 1).a[:n]) / sf.field_cbrt

    def one(f):
        return quad(f, sf.x_cut, 0.0, points=nodes if n else None,
                    epsabs=1e-10, epsrel=1e-10, limit=200)[0]

    want = (one(sf.rho),
            one(lambda x: -float(xlogy(sf.rho(x), sf.rho(x)))),
            4.0 * one(lambda x: sf.psi_prime(x) ** 2),
            one(lambda x: sf.rho(x) ** 2),
            one(lambda x: x * sf.rho(x)))
    norm, s_x, slope_sq, o_x, mean_x = position_integrals(sf)
    for got, ref in zip((norm, s_x, 4.0 * slope_sq, o_x, mean_x), want):
        assert math.isclose(got, ref, rel_tol=1e-12)


def test_march_cut_covers_the_decay_region(state_of):
    sf = state_of("robin-", 1, 1.0)
    turning_point = -sf.state.energy / sf.state.field
    assert sf.x_cut < turning_point < 0.0
    assert sf.rho(sf.x_cut) < 1e-12


def test_march_cut_follows_surface_state_decay():
    # At field 1e-9 the attractive ground state decays over 1/sqrt(-E) ~ 1,
    # far inside the Airy length field**(-1/3) = 1000.  Its norm rests on
    # E + 1 ~ 5e-10, whose few-ulp rounding leaves a few 1e-6 relative.
    sf = build_state("robin-", 0, 1e-9)
    assert -60.0 <= sf.x_cut <= -10.0
    assert sf.rho(sf.x_cut) < 1e-12 * sf.rho(0.0)
    assert math.isclose(position_norm(sf), 1.0, rel_tol=0.0, abs_tol=2e-5)


@given(
    st.sampled_from(["dirichlet", "neumann", "robin+", "robin-"]),
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=-9.0, max_value=6.0),
)
@settings(max_examples=60, deadline=None)
def test_fourier_table_follows_psi_across_the_domain(bc, n, log_field):
    # Panels are sized by psi alone, so the table stays small everywhere,
    # and on every panel the 16-term Legendre expansions of psi and x psi
    # have decayed to rounding by their last two terms.
    table = build_state(bc, n, 10.0 ** log_field)._table()
    assert table.node_count <= 8192
    for block in (table._coeffs[:, :16], table._coeffs[:, 16:]):
        assert np.max(np.abs(block[:, -2:])) <= 1e-13 * np.max(np.abs(block))


def test_transform_matches_direct_quadrature(state_of):
    sf = state_of("robin-", 0, 1.0)
    ks = (0.0, 0.7, -2.2)
    pair, _ = sf._table().transform_pair(np.array(ks))
    for k, batched in zip(ks, pair):
        direct = fourier_half_line(sf.psi, k, sf.x_cut)
        assert abs(sf.phi(k) - direct) < 1e-9
        assert abs(batched - direct) < 1e-9
    # The panel-factored phase is hardest where k*|x| is largest: a long
    # table at the top of its momentum range.
    sf = state_of("robin-", 1, 0.02)
    k = 0.99 * sf.k_switch
    direct = fourier_half_line(sf.psi, k, sf.x_cut)
    assert abs(sf.phi(k) - direct) < 1e-9
    pair, _ = sf._table().transform_pair(np.array([k]))
    assert abs(pair[0] - direct) < 1e-9


RAY_CASES = [
    ("robin-", 0, 1.0),
    ("dirichlet", 3, 0.01),
    ("robin-", 1, 3.90625e-5),
    ("neumann", 0, 300.0),
    ("robin+", 2, 1.0),
    ("robin-", 0, 1e-4),
    ("dirichlet", 0, 1e6),
]


def _contour_reference(sf, k):
    """(phi, phi') at k from the first-order equation in k, at 30 digits.

    phi(k) = -(i/F) int_0^inf B(k+z) exp(i theta/F) dz on z = s exp(i pi/6),
    with B(q) = (psi'(0) + i q psi(0)) / sqrt(2 pi), taken by mpmath's
    tanh-sinh rule from the wall data alone. The 30 digits are needed: at
    weak field the phi' integral cancels about twelve digits of its
    integrand, in Airy units as in x units. Both integrals share the nodes,
    so each sample is formed once.
    """
    with mpmath.workdps(30):
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
        phi = mpmath.quad(lambda s: parts(s)[0], pts)
        dphi = mpmath.quad(lambda s: parts(s)[1], pts)
        return complex(-1j * phi / field), complex(-1j * dphi / field)


@pytest.mark.parametrize("bc,n,field", RAY_CASES)
def test_ray_matches_high_precision_contour(state_of, bc, n, field):
    sf = state_of(bc, n, field)
    ks = [c * sf.k_switch for c in (1.0, 1.7, 10.0)]
    ks += [k for k in (1e3, 1e5) if k > sf.k_switch]
    phi, dphi = ray_transform(np.array(ks), sf.psi0, sf.dpsi0, sf.state.energy, field)
    for k, got, dgot in zip(ks, phi, dphi):
        want, dwant = _contour_reference(sf, k)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(dgot - dwant) <= 1e-13 * abs(dwant)


def test_ray_contour_is_the_transform(state_of):
    # The contour stands on the first-order equation in k; the direct
    # transform of the normalized Airy profile at 20 digits checks it.
    sf = state_of("robin-", 0, 1.0)
    k = 2.0
    with mpmath.workdps(20):
        e_val = mpmath.mpf(sf.state.energy)
        ai0 = mpmath.airyai(-e_val)

        def psi_wave(x):
            return sf.psi0 * mpmath.airyai(-e_val - x) / ai0 * mpmath.expj(-k * x)

        pts = [-mpmath.inf, -12, -8, -6, -4, -2, 0]
        root = mpmath.sqrt(2 * mpmath.pi)
        want = complex(mpmath.quad(psi_wave, pts) / root)
        dwant = complex(mpmath.quad(lambda x: -1j * x * psi_wave(x), pts) / root)
    got, dgot = _contour_reference(sf, k)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert abs(dgot - dwant) <= 1e-13 * abs(dwant)
    assert abs(sf.phi(k) - want) <= 1e-13 * abs(want)


def test_momentum_density_is_even_bit_for_bit(state_of):
    sf = state_of("robin-", 0, 1.0)
    for k in (0.4, 3.3, 17.0):
        assert sf.gamma(-k) == sf.gamma(k)


def test_momentum_tail_follows_boundary_value(state_of):
    # Far out the density decays as psi(0)^2 / (2 pi k^2).
    sf = state_of("robin-", 0, 1.0)
    k = 300.0
    limit = sf.psi0 ** 2 / (2.0 * math.pi)
    assert abs(k * k * sf.gamma(k) / limit - 1.0) < 1e-3


def test_momentum_density_peak_reference(state_of):
    sf = state_of("robin-", 0, 0.1)
    assert math.isclose(sf.gamma(0.0), PEAK_AT_FIELD_TENTH, rel_tol=1e-9)


@pytest.mark.parametrize("bc,n,field", PROFILE_CASES)
def test_energy_identity(state_of, bc, n, field):
    assert energy_identity_residual(state_of(bc, n, field)) < 1e-9


def test_weak_field_extrema_match_airy_prediction(state_of):
    field = 1e-3
    n = 2
    sf = state_of("robin-", n, field)
    table = root_table(n + 1)
    found = extrema(sf, "weak")
    assert [e.m for e in found] == [1, 2]
    scale = field ** (1.0 / 6.0) / abs(airy(table.ai_zero(n))[1])
    for e in found:
        assert abs(sf.psi_prime(e.x)) < 1e-8
        want_x = (table.ai_zero(n) - table.ai_prime_zero(e.m)) / field ** (1.0 / 3.0) - 1.0
        assert math.isclose(e.x, want_x, rel_tol=1e-2)
        want_amp = scale * abs(airy(table.ai_prime_zero(e.m))[0])
        assert math.isclose(abs(e.psi_value), want_amp, rel_tol=1e-2)


@pytest.mark.parametrize("n", [1, 2])
def test_strong_field_extrema_match_airy_prediction(state_of, n):
    field = 1e4
    sf = state_of("robin-", n, field)
    table = root_table(n + 1)
    top = table.ai_prime_zero(n + 1)
    found = extrema(sf, "strong")
    assert [e.m for e in found] == list(range(1, n + 1))
    scale = field ** (1.0 / 6.0) / (math.sqrt(-top) * airy(top)[0])
    for e in found:
        assert abs(sf.psi_prime(e.x)) < 1e-8
        want = scale * airy(table.ai_prime_zero(e.m))[0]
        assert math.isclose(e.psi_value, want, rel_tol=5e-3)


def test_extrema_error_paths(state_of):
    ground = state_of("robin-", 0, 1.0)
    with pytest.raises(DomainError):
        extrema(ground, "weak")
    with pytest.raises(DomainError):
        extrema(ground, "strong")
    with pytest.raises(DomainError):
        extrema(build_state("neumann", 1, 1.0), "weak")
    with pytest.raises(ValueError):
        extrema(state_of("robin-", 1, 1.0), "medium")
