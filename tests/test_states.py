"""Wavefunction bundles: profiles, norms, momentum side, extrema."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy.special import airy, xlogy

from scipy.integrate import quad

from quadpack_reference import fourier_half_line
from robinwall.quadrature import (
    QuadratureError,
    ToleranceConfig,
    ray_transform,
)
from robinwall import special
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


# x_cut as hex at fields 1e-6, 1e-2, 1 and 1e4, from a march that took
# rho one point per call: the block size must not move the cut.
X_CUT_PINNED = {
    ("dirichlet", 0): ["-0x1.59f3e32e697fbp+10", "-0x1.00ec581a43990p+6",
                       "-0x1.bad1c6a1ceb7ep+3", "-0x1.48dc99bb37ce4p-1"],
    ("dirichlet", 2): ["-0x1.a9839538ec0b7p+10", "-0x1.3c027fbf26b06p+6",
                       "-0x1.1054368ad4822p+4", "-0x1.947e1427df9a5p-1"],
    ("dirichlet", 10): ["-0x1.3ae4c3d151288p+11", "-0x1.d3b6d1abe0d01p+6",
                        "-0x1.931056ce7c5cbp+4", "-0x1.2b5648bfec0a4p+0"],
    ("neumann", 0): ["-0x1.38f846679d837p+10", "-0x1.d0db51d3dd869p+5",
                     "-0x1.9099f3b7d3db8p+3", "-0x1.29821fe3c0fa1p-1"],
    ("neumann", 2): ["-0x1.9800a28c2f33ap+10", "-0x1.2f013805227bep+6",
                     "-0x1.051f2059b7cf2p+4", "-0x1.83d899a02c23ep-1"],
    ("neumann", 10): ["-0x1.358719c5fd4a3p+11", "-0x1.cbbe8103d3207p+6",
                      "-0x1.8c320c828be40p+4", "-0x1.263c7b87915c6p+0"],
    ("robin-", 0): ["-0x1.a00006d0d4a7ap+4", "-0x1.80f612f18e398p+4",
                    "-0x1.6000000000000p+3", "-0x1.2866aafea23e1p-1"],
    ("robin-", 2): ["-0x1.85f2de2216a0ep+10", "-0x1.252d1dcbedd6bp+6",
                    "-0x1.01f27d28a5b1dp+4", "-0x1.839df7111695ap-1"],
    ("robin-", 10): ["-0x1.303c1269d9290p+11", "-0x1.c7194706b1c32p+6",
                     "-0x1.8b03d1e29fdd8p+4", "-0x1.2631d5dffa4b2p+0"],
    ("robin+", 0): ["-0x1.59b3e4743561cp+10", "-0x1.fa19e8af83febp+5",
                    "-0x1.a4b94c592620cp+3", "-0x1.2a912f853da5fp-1"],
    ("robin+", 2): ["-0x1.a943983b7240ep+10", "-0x1.384cc56dde35ap+6",
                    "-0x1.082e55c4b0910p+4", "-0x1.84131e3cbf48bp-1"],
    ("robin+", 10): ["-0x1.3ac4c78d1daddp+11", "-0x1.d05520ec00250p+6",
                     "-0x1.8d5eaa1854ea4p+4", "-0x1.2647207711845p+0"],
}


@pytest.mark.parametrize("bc,n", sorted(X_CUT_PINNED))
def test_march_cut_in_blocks_is_the_pointwise_cut(bc, n):
    got = [build_state(bc, n, field).x_cut.hex() for field in (1e-6, 1e-2, 1.0, 1e4)]
    assert got == X_CUT_PINNED[(bc, n)]


class _AiryCallCounter:
    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(scipy_special, name)

    def airy(self, z):
        self.calls += 1
        return scipy_special.airy(z)

    def airye(self, z):
        self.calls += 1
        return scipy_special.airye(z)


def test_state_build_makes_few_airy_calls(monkeypatch):
    # One call for the level's certificate, one for the wall value, two for
    # the first march point and two per 16-point block of the march (two
    # blocks here); two calls per march point would make 48.
    counter = _AiryCallCounter()
    monkeypatch.setattr(special, "sp", counter)
    build_state("dirichlet", 0, 1.0)
    assert counter.calls <= 8


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


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin-", "robin+"])
@pytest.mark.parametrize("field", [1e-3, 1.0, 1e6])
def test_phi_is_finite_where_the_ray_gap_overflows(state_of, bc, field):
    # Past |k| ~ 1.34e154 F^(1/3), kappa^2 overflows; phi is then the
    # leading term L = (psi'(0)/k^2 + i psi(0)/k) / sqrt(2 pi).
    sf = state_of(bc, 0, field)
    ks = np.array([1e155, 1e200, 1e300, 1.7e308])
    ks = np.concatenate([ks, -ks])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, dphi = sf._pair(ks)
    assert np.all(np.isfinite(phi)) and np.all(np.isfinite(dphi))
    for k, got in zip(ks.tolist(), phi.tolist()):
        lead = (sf.dpsi0 / k / k + 1j * sf.psi0 / k) / math.sqrt(2.0 * math.pi)
        if abs(lead) >= 1e-290:
            assert abs(got - lead) <= 1e-12 * abs(lead)


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
