"""Wavefunction bundles: profiles, norms, momentum side, wall and energy identities."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import xlogy

from scipy.integrate import quad

from quadpack_reference import fourier_half_line
from reference_routes import boundary_residual, dipole_element_quadrature, energy_identity_residual
from robin_reference import robin_root
from robinwall.quadrature import QuadratureError, ray_transform
from robinwall import _airy, quadrature, special, states
from robinwall.infomeasures import measure_state
from robinwall.observables import dipole_matrix
from robinwall.spectrum import (
    BoundarySpec,
    BoundState,
    ConsistencyError,
    energy,
    field_roots,
    wall_data,
)
from robinwall.special import root_table, valley_airy
from robinwall.states import build_state, momentum_integrals, position_integrals
from transform_reference import contour_reference, direct_reference, elementwise_ray_transform

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


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin-", "robin+"])
def test_psi_is_positive_next_to_the_wall(bc):
    # The signed norm (-1)^n ||Ai|| fixes the overall sign: psi > 0 between
    # the wall and its nearest node.  The closed-form dipole elements carry
    # the signs of states so fixed, which the signed quadrature confirms.
    for n in (0, 1, 2, 3, 10, 31):
        for field in (1e-3, 1.0, 1e3):
            sf = build_state(bc, n, field)
            node = root_table(n + 1).a[n - 1] - sf.unit.arg0 if n else sf.unit.u_cut
            assert sf.psi(-0.5 * node / sf.field_cbrt) > 0.0, (n, field)
    closed = dipole_matrix(bc, 1.0, 3)
    for n, m in ((0, 1), (0, 2), (1, 2)):
        direct = dipole_element_quadrature(build_state(bc, n, 1.0), build_state(bc, m, 1.0))
        assert math.isclose(direct, closed.element(n, m), rel_tol=1e-9), (n, m)


@pytest.mark.parametrize("bc,n,field", PROFILE_CASES)
def test_unit_norm_both_sides(state_of, bc, n, field):
    sf = state_of(bc, n, field)
    assert math.isclose(position_integrals(sf)[0], 1.0, rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(momentum_integrals(sf)[0], 1.0, rel_tol=0.0, abs_tol=5e-8)


def test_unconverged_momentum_pass_raises(pass_tolerance):
    # The vector rule stops silently at its interval limit; the pass must
    # turn that into an error that still carries the estimate and bound.
    sf = build_state("robin-", 0, 1.0)
    pass_tolerance(1e-15)
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
    nodes = (sf.unit.arg0 - root_table(n + 1).a[:n]) / sf.field_cbrt

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


@pytest.mark.parametrize("bc,n", [(bc, n) for bc in ("dirichlet", "neumann")
                                  for n in (0, 3, 10, 30)])
def test_hard_wall_position_pass_is_scale_invariant(bc, n):
    # A hard-wall state's Airy-unit record, and so its pass, is the same at
    # every field, and the field is applied exactly at the end, so
    # S_x + (1/3) ln F, O_x / F^(1/3) and <x> F^(1/3) are the same numbers
    # at every field, to the rounding of the laws (measured 8.9e-16).
    laws = []
    for field in [10.0 ** e for e in range(-6, 6)]:
        _, s_x, _, o_x, mean_x = position_integrals(build_state(bc, n, field))
        f13 = field_roots(field)[0]
        laws.append((s_x + math.log(field) / 3.0, o_x / f13, mean_x * f13))
    assert np.ptp(laws, axis=0).max() <= 5e-15


def test_cut_covers_the_decay_region(state_of):
    sf = state_of("robin-", 1, 1.0)
    turning_point = -sf.state.energy / sf.state.field
    assert sf.x_cut < turning_point < 0.0
    assert sf.rho(sf.x_cut) < 1e-12


def test_cut_follows_surface_state_decay():
    # At field 1e-9 the attractive ground state decays over 1/sqrt(-E) ~ 1,
    # far inside the Airy length field**(-1/3) = 1000.  Its wall argument
    # is about 1e6, where Ai'^2 - z Ai^2 cancels about 2 z^(3/2)-fold, so
    # the rounding of the norm leaves about 1e-6 (measured 9.4e-7).
    sf = build_state("robin-", 0, 1e-9)
    assert -60.0 <= sf.x_cut <= -10.0
    assert sf.rho(sf.x_cut) < 1e-12 * sf.rho(0.0)
    assert math.isclose(position_integrals(sf)[0], 1.0, rel_tol=0.0, abs_tol=2e-6)


@pytest.mark.parametrize("bc", ["robin-", "robin+"])
@pytest.mark.parametrize("field", [1e-9, 1e-10, 1e-12])
def test_weak_field_robin_states_are_measured(bc, field):
    # Each state is Ai(z0 + u) / ||Ai|| from its wall argument z0 alone, so
    # the level's rounding moves the state along the Airy line and leaves
    # both norms at 1 (measured within 3e-14).
    for n in (3, 10, 30, 100):
        sf = build_state(bc, n, field)
        measure_state(sf)
        for norm in (position_integrals(sf)[0], momentum_integrals(sf)[0]):
            assert abs(norm - 1.0) <= 1e-12, (n, norm)


VERY_WEAK_ROBIN_LEVELS = [
    *[("robin+", n, field) for n in (0, 3, 30) for field in (1e-15, 1e-20)],
    ("robin+", 3, 3.16e-15),
    ("robin-", 3, 3.16e-15),
    # A node count with a guard of 1e-9 |z| refused these two: their shift
    # below the Dirichlet zero a_n, about F^(1/3), is narrower than it.
    ("robin-", 30, 1e-24),
    ("robin-", 100, 1e-22),
]


@pytest.mark.parametrize("bc,n,field", VERY_WEAK_ROBIN_LEVELS)
def test_very_weak_field_robin_states_are_measured(bc, n, field):
    # In z the Robin shift from the hard-wall zero is about F^(1/3), 1e-5
    # at 1e-15, far above the rounding of z: the level solves to within
    # 3 ulp of mpmath's 50-digit root, and its state passes measure_state
    # with both norms at 1.
    state = energy(bc, n, field)
    zero = root_table(n + 1).ai_zero(n + 1 if bc == "robin+" else n)
    assert abs(state.arg0 - zero) > 0.5 * field ** (1.0 / 3.0)
    assert abs(robin_root(state.bc, field, state.arg0) - state.arg0) <= 3.0 * math.ulp(state.arg0)
    sf = build_state(bc, n, field)
    measure_state(sf)
    for norm in (position_integrals(sf)[0], momentum_integrals(sf)[0]):
        assert abs(norm - 1.0) <= 1e-12, norm


@pytest.mark.parametrize("bc,n,field", VERY_WEAK_ROBIN_LEVELS)
def test_robin_level_off_its_wall_condition_is_refused(bc, n, field):
    # A Robin label on the hard-wall level at a_(n+1): the state from z0
    # alone is the Dirichlet state, whose miss of the Robin wall condition
    # (1 here, at most 2.6e-8 for solved levels) refuses it.
    zero = root_table(n + 1).ai_zero(n + 1)
    psi0, dpsi0, _ = wall_data(zero, n, *special.scaled_airy(zero)[:2])
    mislabelled = BoundState(bc=BoundarySpec.parse(bc), n=n, field=field,
                             energy=-field ** (2.0 / 3.0) * zero, arg0=zero,
                             residual=0.0, bracket=(0.0, 0.0), psi0=psi0, dpsi0=dpsi0)
    with pytest.raises(ConsistencyError, match="misses its wall condition"):
        states.StateFunctions(mislabelled)


def _pass_values(arg0, n):
    unit = states.AiryUnitState(arg0, n)
    return np.array(states._position_pass(unit) + states._momentum_pass(unit))


@pytest.mark.parametrize("bc,fields,zero_of", [
    ("robin+", (1e-6, 1e-9), "a"),
    ("robin+", (1e6, 1e9), "a_prime"),
    ("robin-", (1e6, 1e9), "a_prime"),
])
@pytest.mark.parametrize("n", [0, 3, 30])
def test_robin_records_reach_the_hard_walls_at_first_order(bc, fields, zero_of, n):
    # The paper's limits on the Airy line: a weak field moves the robin+
    # wall argument z0 onto the Dirichlet zero a_(n+1), a strong one moves
    # both Robin walls onto the Neumann zero a'_(n+1).  The pass values at
    # z0 differ from the hard wall's by (z0 - zero) times their central
    # difference along the line, and what is left is second order
    # (measured below 1.7 (z0 - zero)^2 times the record's largest value,
    # up to 1.7e-2 of the first-order step at |z0 - zero| = 1e-2).
    zero = float(getattr(root_table(n + 1), zero_of)[n])
    wall = "dirichlet" if zero_of == "a" else "neumann"
    hard = build_state(wall, n, 1.0).unit
    assert dataclasses.astuple(states.AiryUnitState(zero, n)) == dataclasses.astuple(hard)
    base = _pass_values(zero, n)
    h = 1e-4
    slope = (_pass_values(zero + h, n) - _pass_values(zero - h, n)) / (2.0 * h)
    for field in fields:
        z0 = build_state(bc, n, field).unit.arg0
        dz = z0 - zero
        assert 1e-5 < abs(dz) < 2e-2, (field, dz)
        miss = _pass_values(z0, n) - base - dz * slope
        assert np.abs(miss).max() <= 2.0 * dz * dz * np.abs(base).max(), (field, dz)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin-", "robin+"])
def test_cut_is_where_the_density_falls_to_its_threshold(bc):
    # The closed-form cut bounds rho past xi0 = max(arg0, 0) by 1e-20 of
    # rho(xi0) and gives that bound away only to the power-law factor of Ai.
    cases = [(n, field) for n in (0, 2, 10) for field in (1e-6, 1e-2, 1.0, 1e4)]
    if bc == "robin-":
        cases.append((0, 1e-9))
    for n, field in cases:
        sf = build_state(bc, n, field)
        with mpmath.workdps(30):
            xi_cut = mpmath.mpf(sf.unit.arg0) - mpmath.mpf(sf.field_cbrt) * sf.x_cut
            ratio = (mpmath.airyai(xi_cut) / mpmath.airyai(max(sf.unit.arg0, 0.0))) ** 2
        assert 1e-22 <= ratio <= 1e-20, (n, field, ratio)


class _AiryCallCounter:
    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(_airy, name)

    def airy(self, z):
        self.calls += 1
        return _airy.airy(z)


def test_state_build_makes_few_airy_calls(monkeypatch):
    # One call for the level's certificate and one for the Airy pair at the
    # wall argument: the cut is a closed form and evaluates no profile.
    counter = _AiryCallCounter()
    monkeypatch.setattr(special, "sp", counter)
    for bc in ("dirichlet", "neumann"):
        counter.calls = 0
        build_state(bc, 0, 1.0)
        assert counter.calls <= 2, bc


def test_transform_matches_direct_quadrature(state_of):
    # QUADPACK's oscillatory-weight rule on the cut profile is an
    # independent route to phi, on both sides of the split sqrt(E).
    for bc, n, field, ks in (("robin-", 0, 1.0, (0.0, 0.7, -2.2)),
                             ("robin-", 1, 0.02, (0.0, 0.13, 0.35, -0.9))):
        sf = state_of(bc, n, field)
        for k, batched in zip(ks, sf.phi(np.array(ks))):
            direct = fourier_half_line(sf.psi, k, sf.x_cut)
            assert abs(sf.phi(k) - direct) < 1e-9
            assert abs(batched - direct) < 1e-9


RAY_CASES = [
    ("robin-", 0, 1.0),
    ("dirichlet", 3, 0.01),
    ("robin-", 1, 3.90625e-5),
    ("neumann", 0, 300.0),
    ("robin+", 2, 1.0),
    ("robin-", 0, 1e-4),
    ("dirichlet", 0, 1e6),
]


@pytest.mark.parametrize("bc,n,field", RAY_CASES)
def test_ray_matches_high_precision_contour(state_of, bc, n, field):
    # Above the split sqrt(E) the ray runs into the pi/6 valley: from just
    # past the split out to k = 1e5.
    sf = state_of(bc, n, field)
    split = math.sqrt(max(sf.state.energy, 0.0))
    ks = [split + c * sf.field_cbrt for c in (0.1, 1.0, 10.0)]
    ks += [k for k in (1e3, 1e5) if k > ks[-1]]
    phi, dphi = sf._pair(np.array(ks))
    for k, got, dgot in zip(ks, phi, dphi):
        want, dwant = contour_reference(sf, k)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(dgot - dwant) <= 1e-13 * abs(dwant)


def test_ray_contour_is_the_transform(state_of):
    # The contour stands on the first-order equation in k; the direct
    # transform of the normalized Airy profile at 30 digits checks it.
    sf = state_of("robin-", 0, 1.0)
    k = 2.0
    want, dwant = direct_reference(sf, k)
    got, dgot = contour_reference(sf, k)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert abs(dgot - dwant) <= 1e-13 * abs(dwant)
    assert abs(sf.phi(k) - want) <= 1e-13 * abs(want)


# Wall data (psi~(0), F^(-1/2) psi'(0)) of both hard walls and two Robin-like
# mixtures, one of each sign of the wall slope.
WALL_DATA = [(1.0, 0.0), (0.0, -1.0), (0.6, 0.9), (0.8, -1.3)]


@pytest.mark.parametrize("eps", [-5.0, -0.3, 0.0, 0.2, 1.0, 3.0, 10.0, 50.0, 300.0, 2000.0])
def test_ray_moments_match_the_elementwise_sum(eps):
    # The four moment sums give what the node-by-node sum gave, on both
    # rays (kappa below and above sqrt(eps)) and for negative momenta.
    # Below the split, phi' passes through zero, where 1e-15 absolute holds.
    split = math.sqrt(max(eps, 0.0))
    kappa = np.concatenate([[0.0], np.logspace(-3.0, 6.0, 91), -np.logspace(-2.0, 3.0, 11),
                            split * np.array([0.3, 0.7, 0.99, 1.01, 1.5])])
    below = kappa * kappa <= max(eps, 0.0) + 1.0
    for psi0, dpsi0 in WALL_DATA:
        phi, dphi = ray_transform(kappa, psi0, dpsi0, eps)
        want, dwant = elementwise_ray_transform(kappa, psi0, dpsi0, eps)
        assert np.all(np.abs(phi - want) <= 2e-14 * np.abs(want))
        derr = np.abs(dphi - dwant)
        assert np.all((derr <= 2e-14 * np.abs(dwant)) | (below & (derr <= 1e-15)))


# States with E > 0 for the route below the split: every wall, n <= 30,
# fields from 3.9e-5 to 1e3, and 0 < E / F^(2/3) < 1 (robin- n=0 at 1e3).
DOWN_CASES = [
    ("dirichlet", 0, 1.0),
    ("dirichlet", 3, 0.01),
    ("neumann", 0, 1.0),
    ("neumann", 0, 1e-3),
    ("neumann", 30, 1e3),
    ("robin-", 1, 0.05),
    ("robin-", 1, 3.90625e-5),
    ("robin-", 0, 1e3),
    ("robin+", 2, 1.0),
    ("robin+", 5, 3.0),
]


@pytest.mark.parametrize("bc,n,field", DOWN_CASES)
def test_valley_route_is_the_transform(state_of, bc, n, field):
    # Below the split the ray runs into the -pi/2 valley and the integral
    # between the valleys is added in closed form; k = 0 is the hardest
    # point for the ray's length scale.
    sf = state_of(bc, n, field)
    split = math.sqrt(sf.state.energy)
    ks = [c * split for c in (0.0, 0.3, 0.7, 0.95, 0.999)]
    phi, dphi = sf._pair(np.array(ks))
    for k, got, dgot in zip(ks, phi, dphi):
        want, dwant = direct_reference(sf, k)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(dgot - dwant) <= 1e-13 * abs(dwant)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.9, 2.3, 27.5, 280.0, 1e4])
def test_valley_airy_matches_mpmath(eps):
    # J / 2 pi = e^(i pi/3) Ai(z) and J' / 2 pi = e^(2i pi/3) Ai'(z) at
    # z = eps e^(i pi/3), both times exp((2/3) z^(3/2)) = e^(i (2/3) eps^(3/2)).
    j, dj = valley_airy(eps)
    with mpmath.workdps(30):
        turn = mpmath.expjpi(mpmath.mpf(1) / 3)
        z = mpmath.mpf(eps) * turn
        phase = mpmath.expj(2 * mpmath.mpf(eps) ** 1.5 / 3)
        want = complex(turn * mpmath.airyai(z) * phase)
        dwant = complex(turn ** 2 * mpmath.airyai(z, derivative=1) * phase)
    assert abs(j - want) <= 1e-14 * abs(want)
    assert abs(dj - dwant) <= 1e-14 * abs(dwant)


@pytest.mark.parametrize("eps", [0.0, 0.7, 3.0])
def test_valley_airy_is_the_integral_between_valleys(eps):
    # J(eps) = integral of exp(i (q^3/3 - eps q)) dq from infinity in the
    # -pi/2 valley through 0 to infinity in the pi/6 valley.
    def leg(angle):
        ray = mpmath.expjpi(angle)
        return mpmath.quad(lambda s: mpmath.expj((s * ray) ** 3 / 3 - eps * s * ray) * ray,
                           [0, 1, 3, mpmath.inf])

    with mpmath.workdps(20):
        want = complex((leg(mpmath.mpf(1) / 6) - leg(mpmath.mpf(-1) / 2))
                       * mpmath.expj(2 * mpmath.mpf(eps) ** 1.5 / 3))
    assert abs(2.0 * math.pi * valley_airy(eps)[0] - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("bc,n,field", [("robin-", 0, 1.0), ("dirichlet", 3, 0.01),
                                        ("robin+", 1, 300.0)])
def test_momentum_side_does_not_see_the_cut(monkeypatch, bc, n, field):
    # phi comes from the wall data alone, so a state cut far earlier has
    # the same transform and the same momentum measures, bit for bit.  The
    # memo is cleared before each pass, so both passes are computed.
    sf = build_state(bc, n, field)
    states._momentum_pass.cache_clear()
    want = momentum_integrals(sf)
    monkeypatch.setattr(states, "_X_CUT_THRESHOLD", 1e-12)
    short = build_state(bc, n, field)
    assert short.x_cut > sf.x_cut
    ks = np.array([0.0, 0.3, 1.1, 4.0, 25.0, -2.0]) * sf.field_cbrt
    assert np.array_equal(short.phi(ks), sf.phi(ks))
    states._momentum_pass.cache_clear()
    assert momentum_integrals(short) == want
    assert states._momentum_pass.cache_info().misses == 1


def test_robin_passes_stay_within_their_cost(monkeypatch):
    # Each bisection of a pass costs one qk21 call and one Python iteration.
    # Starting from one piece per gap took 169 calls (7,350 points) in
    # position and 115 (5,082) in momentum on these 24 states; the layout
    # from the state's geometry takes one call per pass, on 5,481 and 4,179.
    kronrod = quadrature._kronrod
    cost = {"calls": 0, "points": 0}

    def counted(f, lo, hi):
        cost["calls"] += 1
        cost["points"] += lo.size * 21
        return kronrod(f, lo, hi)

    monkeypatch.setattr(quadrature, "_kronrod", counted)
    sfs = [build_state(bc, n, field) for bc in ("robin+", "robin-") for n in range(4)
           for field in (0.02, 1.0, 50.0)]
    states._position_pass.cache_clear()
    states._momentum_pass.cache_clear()
    for sf in sfs:
        position_integrals(sf)
    assert cost["calls"] <= 24 and cost["points"] <= 5481
    cost.update(calls=0, points=0)
    for sf in sfs:
        momentum_integrals(sf)
    assert cost["calls"] <= 24 and cost["points"] <= 4179


def test_every_pass_meets_its_tolerance_in_one_call(monkeypatch):
    # The first pieces of both passes are laid out from the state's
    # geometry so that the first integrand call already meets the
    # tolerance: no bisection, so no further call, on any of these 120
    # states.  Two pieces per node gap and tail, 2 (n // 2 + 1) below the
    # momentum split and two above it took 536 position and 548 momentum
    # calls here, on 143,472 and 87,696 points; this layout takes 141,057
    # and 79,527, and may take no more points than that earlier one.
    real = states.integrate_batch
    calls = []

    def counted(f, points, abs_tol, rel_tol):
        calls.append([0, 0])

        def g(x):
            calls[-1][0] += 1
            calls[-1][1] += x.size
            return f(x)

        return real(g, points, abs_tol, rel_tol)

    monkeypatch.setattr(states, "integrate_batch", counted)
    points = {"position": 0, "momentum": 0}
    for bc in ("dirichlet", "neumann", "robin-", "robin+"):
        for n in (0, 1, 3, 10, 30, 100):
            for field in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                unit = build_state(bc, n, field).unit
                states._position_pass.__wrapped__(unit)
                states._momentum_pass.__wrapped__(unit)
                (pos_calls, pos_points), (mom_calls, mom_points) = calls[-2:]
                assert (pos_calls, mom_calls) == (1, 1), (bc, n, field)
                points["position"] += pos_points
                points["momentum"] += mom_points
    assert points["position"] <= 143_472 and points["momentum"] <= 87_696
    # Below about F = 6.4e-8 a robin+ level has a zero of psi just outside
    # the wall, where robin+ n = 1 took a second position call at these fields.
    for bc in ("dirichlet", "neumann", "robin-", "robin+"):
        for n in range(4):
            for field in (1e-9, 3e-9, 1e-8):
                unit = build_state(bc, n, field).unit
                states._position_pass.__wrapped__(unit)
                states._momentum_pass.__wrapped__(unit)
                assert [count for count, _ in calls[-2:]] == [1, 1], (bc, n, field)


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
