"""Wavefunction bundles: profiles, norms, momentum side, extrema."""

import math

import numpy as np
import pytest
from scipy.special import airy

from robinwall.quadrature import QuadratureError, ToleranceConfig, fourier_half_line
from robinwall.special import root_table
from robinwall.spectrum import DomainError
from robinwall.states import (
    boundary_residual,
    build_state,
    energy_identity_residual,
    extrema,
    momentum_density_peak,
    momentum_integrals,
    momentum_norm,
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
    cfg = ToleranceConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=32)
    sf = build_state("robin-", 0, 1.0, cfg)
    with pytest.raises(QuadratureError) as info:
        momentum_integrals(sf)
    assert np.all(np.isfinite(info.value.estimate))
    assert math.isfinite(info.value.error_bound)


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


def test_transform_matches_direct_quadrature(state_of):
    sf = state_of("robin-", 0, 1.0)
    for k in (0.0, 0.7, -2.2):
        direct = fourier_half_line(sf.psi, k, sf.x_cut)
        assert abs(sf.phi(k) - direct) < 1e-9
    # The panel-factored phase is hardest where k*|x| is largest: a long
    # table at the top of its momentum range.
    sf = state_of("robin-", 1, 0.02)
    k = 0.99 * sf.k_numeric_max
    direct = fourier_half_line(sf.psi, k, sf.x_cut)
    assert abs(sf.phi(k) - direct) < 1e-9


def test_momentum_density_is_even_bit_for_bit(state_of):
    sf = state_of("robin-", 0, 1.0)
    for k in (0.4, 3.3, 17.0):
        assert sf.gamma(-k) == sf.gamma(k)


def test_momentum_tail_follows_boundary_value(state_of):
    # Far out the density decays as psi(0)^2 / (2 pi k^2); the stored
    # tail object and the live profile must both reproduce it.
    sf = state_of("robin-", 0, 1.0)
    k = 300.0
    limit = sf.psi0 ** 2 / (2.0 * math.pi)
    assert abs(k * k * sf.gamma(k) / limit - 1.0) < 1e-3


def test_momentum_density_peak_reference(state_of):
    sf = state_of("robin-", 0, 0.1)
    assert math.isclose(momentum_density_peak(sf), PEAK_AT_FIELD_TENTH, rel_tol=1e-9)


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
