"""Eigenvalue solver: frozen references, ordering, weak- and strong-field limits, error paths."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robin_reference import robin_root, zero_energy_field, zero_energy_field_solved
from zero_reference import zeros_above
from robinwall import special, spectrum
from robinwall import (
    BoundarySpec,
    BoundState,
    ConsistencyError,
    DomainError,
    build_state,
    energy,
    root_table,
)

# Eigenvalues at field 1, solved independently with mpmath findroot on
# Ai'(-E) + s Ai(-E) at 30 digits.
RM_FIELD1 = [-0.566891471032233178806, 2.9555669925763534853, 4.62170139196233665792]
RP_FIELD1 = [1.64761941348935778992, 3.51930667641848248408]
E_ZERO_FIELD = 2.58105653984046446188
E_RM0_FIELD01 = -0.951120421951114309563

WALL_ORDER = ("robin-", "neumann", "robin+", "dirichlet")
EPS = 2.220446049250313e-16


def certified_ulps(state) -> float:
    """A Robin level's certified half-width in z, in ulps of z."""
    f13 = spectrum.field_roots(state.field)[0]
    return spectrum._certified_width(state.arg0, f13) / math.ulp(state.arg0)


# robin- n = 0 fields that scipy's Airy values, up to 83 ulp off near
# z0 = 2, left uncertified ("determinant keeps its sign"): benchmark inputs
# of cli-fresh (seeds 37, 133 and 713) and weak-spectrum (seed 32).
FORMER_REFUSALS = [0.2839025122807366, 0.28527084975100847, 0.2904688582932503,
                   0.2877930385852447]


def test_attractive_ground_level_solves_through_the_former_refusal_band():
    # 20,001 fields over [0.2, 0.4], where z0 runs through 2: every level
    # certifies, and a 50-digit root lies within the certified width of
    # every 1,000th and of each former refusal.
    fields = np.linspace(0.2, 0.4, 20001).tolist()
    for field in fields:
        energy("robin-", 0, field)
    for field in fields[::1000] + FORMER_REFUSALS:
        state = energy("robin-", 0, field)
        exact = robin_root(BoundarySpec.ROBIN_MINUS, field, state.arg0)
        assert abs(state.arg0 - exact) <= certified_ulps(state) * math.ulp(state.arg0), field


@pytest.mark.parametrize("n,ref", list(enumerate(RM_FIELD1)))
def test_attractive_wall_levels_at_unit_field(n, ref):
    state = energy("robin-", n, 1.0)
    assert math.isclose(state.energy, ref, rel_tol=1e-12, abs_tol=1e-12)
    assert state.residual <= certified_ulps(state)
    assert state.bracket[0] < state.energy < state.bracket[1]


@pytest.mark.parametrize("n,ref", list(enumerate(RP_FIELD1)))
def test_repulsive_wall_levels_at_unit_field(n, ref):
    state = energy("robin+", n, 1.0)
    assert math.isclose(state.energy, ref, rel_tol=1e-12)


def test_weak_field_ground_reference():
    state = energy("robin-", 0, 0.1)
    assert math.isclose(state.energy, E_RM0_FIELD01, rel_tol=1e-12)


@pytest.mark.parametrize("field", [0.3, 1.0, 7.5])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_hard_wall_levels_are_scaled_zeros(n, field):
    table = root_table(n + 1)
    f23 = field ** (2.0 / 3.0)
    got_d = energy("dirichlet", n, field).energy
    got_n = energy("neumann", n, field).energy
    assert math.isclose(got_d, -table.ai_zero(n + 1) * f23, rel_tol=1e-13)
    assert math.isclose(got_n, -table.ai_prime_zero(n + 1) * f23, rel_tol=1e-13)
    # The residual is the zero table's own certificate: the next Newton step.
    for bc in ("dirichlet", "neumann"):
        assert energy(bc, n, field).residual <= special._ROOT_STEP_ULPS


ARG0_FIELDS = [10.0 ** e for e in range(-6, 7)]


@pytest.mark.parametrize("n", [0, 3, 30])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin-", "robin+"])
def test_level_carries_its_wall_argument(bc, n):
    # Every wall forms E from its wall argument: a hard wall's arg0 is the
    # zero-table value, a Robin wall's the solved root in z.  The built
    # state's Airy-unit record takes it as it is.  Bit for bit.
    table = root_table(n + 1)
    for field in ARG0_FIELDS:
        state = energy(bc, n, field)
        if bc == "dirichlet":
            assert state.arg0 == table.ai_zero(n + 1), field
        elif bc == "neumann":
            assert state.arg0 == table.ai_prime_zero(n + 1), field
        assert state.energy == -spectrum.field_roots(field)[1] * state.arg0, field
        assert build_state(bc, n, field).unit.arg0 == state.arg0, field


def test_energy_returns_cached_record():
    first = energy("robin-", 1, 2.0)
    second = energy(BoundarySpec.ROBIN_MINUS, 1, 2.0)
    assert first is second


@given(
    st.floats(min_value=-2.0, max_value=1.6),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_wall_ordering_within_each_level(log_field, n):
    # At any field, a level is lowest for the attractive wall, then the
    # Neumann, repulsive Robin, and hard wall, and the next attractive
    # level sits above the whole group.
    field = 10.0 ** log_field
    group = [energy(bc, n, field).energy for bc in WALL_ORDER]
    assert group == sorted(group)
    assert group[0] < group[-1] < energy("robin-", n + 1, field).energy


@given(
    st.floats(min_value=-2.0, max_value=1.6),
    st.integers(min_value=0, max_value=6),
    st.sampled_from(["robin-", "robin+"]),
)
@settings(max_examples=25, deadline=None)
def test_solver_invariants(log_field, n, bc):
    field = 10.0 ** log_field
    state = energy(bc, n, field)
    assert state.residual <= certified_ulps(state)
    assert zeros_above(state.arg0) == n


@given(
    st.floats(min_value=-9.0, max_value=6.0),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([BoundarySpec.ROBIN_MINUS, BoundarySpec.ROBIN_PLUS]),
)
@settings(max_examples=60, deadline=None)
def test_robin_levels_across_the_domain(log_field, n, bc):
    # The uncached solver, with every Airy call counted: the Newton steps,
    # the two certificate points and the residual.  The count bounds the
    # work of one level without timing it (at most 10 measured here).
    field = 10.0 ** log_field
    with mock.patch.object(spectrum.sp, "airy", wraps=spectrum.sp.airy) as airy:
        state = spectrum._solve_robin(bc, n, field)
    assert airy.call_count <= 12
    lo, hi = state.bracket
    assert lo < state.energy < hi
    assert zeros_above(state.arg0) == n
    neumann = energy("neumann", n, field).energy
    if bc is BoundarySpec.ROBIN_PLUS:
        assert (lo, hi) == (neumann, energy("dirichlet", n, field).energy)
    elif n == 0:
        assert (lo, hi) == (-1.0, neumann)
    else:
        assert (lo, hi) == (energy("dirichlet", n - 1, field).energy, neumann)


def test_weak_field_level_that_a_residual_bound_rejected():
    # An absolute residual bound of 1e-11 refused this correctly refined
    # level; the sign-change certificate accepts it.
    field = 2.148988408932126e-07
    state = energy("robin+", 25, field)
    assert energy("neumann", 25, field).energy < state.energy
    assert state.energy < energy("dirichlet", 25, field).energy
    assert zeros_above(state.arg0) == 25


def test_certificate_rejects_a_moved_root():
    field = 2.148988408932126e-07
    z = energy("robin+", 25, field).arg0
    spectrum._certify_root(BoundarySpec.ROBIN_PLUS, z, field)
    with pytest.raises(ConsistencyError):
        spectrum._certify_root(BoundarySpec.ROBIN_PLUS, z * (1.0 + 1e-9), field)


# robin- n = 0 only above its field floor, 2^-30.
GATE_LEVELS = [
    (bc, n, field)
    for bc in (BoundarySpec.ROBIN_MINUS, BoundarySpec.ROBIN_PLUS)
    for n in (0, 3, 30, 100)
    for field in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-20)
    if bc is BoundarySpec.ROBIN_PLUS or n > 0 or field > 2.0 ** -30
]


@pytest.mark.parametrize("bc,n,field", GATE_LEVELS)
def test_robin_roots_against_fifty_digits(bc, n, field):
    # The solved wall argument against mpmath's 50-digit root: inside its
    # certified width everywhere, and within 3 ulp (1.51 measured) except
    # for the robin- ground level, whose determinant cancels and whose
    # Airy rounding band is hundreds of ulp wide.  In E the certified width
    # is no wider than the 1e-14 + 4 eps |E| + Airy band of a Brent solve in E.
    state = energy(bc, n, field)
    f13 = field ** (1.0 / 3.0)
    width = spectrum._certified_width(state.arg0, f13)
    miss = abs(robin_root(bc, field, state.arg0) - state.arg0)
    assert miss <= width
    if not (bc is BoundarySpec.ROBIN_MINUS and n == 0):
        assert miss <= 3.0 * math.ulp(state.arg0)
    e_val = state.energy
    band = 2.0 * spectrum._AIRY_RTOL * field / abs(e_val + 1.0)
    brent_width = 1e-14 + 4.0 * EPS * abs(e_val) + band
    assert f13 * f13 * width <= brent_width


def test_attractive_ground_level_field_floor():
    # Below field 2**-30 the wall-side Airy argument of robin- n=0 leaves
    # the range of scipy's scaled Airy functions.
    with pytest.raises(DomainError, match="9.31323e-10"):
        energy("robin-", 0, 5e-10)
    state = energy("robin-", 0, 1e-9)
    assert -1.0 < state.energy < -1.0 + 1e-9
    assert zeros_above(state.arg0) == 0


def test_weak_field_spacing_tracks_zero_gap():
    # For a weak field the gap between the first two field-induced levels
    # approaches field^(2/3) times the gap of the first two Ai zeros.
    field = 1e-3
    table = root_table(2)
    want = (table.ai_zero(1) - table.ai_zero(2)) * field ** (2.0 / 3.0)
    got = energy("robin-", 2, field).energy - energy("robin-", 1, field).energy
    assert abs(got - want) / want < 0.03


def test_weak_field_expansions():
    # The attractive ground level stays near the surface state, -1 + F/2 -
    # F^2/8; every other weak-field Robin level tracks a hard-wall level
    # -a_n F^(2/3), shifted by +F (robin-, n >= 1) or -F (robin+).
    field = 0.01
    f23 = field ** (2.0 / 3.0)
    a1 = root_table(1).ai_zero(1)
    ground = -1.0 + 0.5 * field - 0.125 * field * field
    assert abs(ground - energy("robin-", 0, field).energy) < 5e-5
    first = -a1 * f23 + field
    assert abs(first - energy("robin-", 1, field).energy) / first < 0.03
    rep = -a1 * f23 - field
    assert abs(rep - energy("robin+", 0, field).energy) / rep < 0.03


@pytest.mark.parametrize("bc", ["robin-", "robin+"])
def test_strong_field_expansion_converges(bc):
    # The ground level sits at -a'_1 F^(2/3) (1 -/+ 1/(a'_1^2 F^(1/3))).
    # The first correction beyond it scales as field**(-2/3) relative, so
    # the field must be large for a tight check.
    field = 1e6
    ap = root_table(1).ai_prime_zero(1)
    sign = -1.0 if bc == "robin-" else 1.0
    approx = -ap * field ** (2.0 / 3.0) * (1.0 + sign / (ap * ap * field ** (1.0 / 3.0)))
    exact = energy(bc, 0, field).energy
    assert abs(approx - exact) / exact < 1e-3


def test_zero_energy_field_closed_form_and_solved_root():
    closed = zero_energy_field()
    assert math.isclose(closed, E_ZERO_FIELD, rel_tol=1e-14)
    solved = zero_energy_field_solved()
    assert math.isclose(solved, closed, rel_tol=1e-9)
    # the ground level really changes sign there
    below = energy("robin-", 0, closed * 0.99).energy
    above = energy("robin-", 0, closed * 1.01).energy
    assert below < 0.0 < above


def test_domain_errors():
    with pytest.raises(DomainError):
        energy("robin-", 0, 0.0)
    with pytest.raises(DomainError):
        energy("robin-", 0, -1.0)
    with pytest.raises(DomainError):
        energy("robin-", -1, 1.0)


def test_robin_level_below_rounding_is_a_domain_error():
    # At 1e50 the Robin shift from the Neumann zero, 1 / (F^(1/3) |a'_1|)
    # in z, is a tenth of the rounding of z; the solver names that instead
    # of returning the Neumann level or its neighbour.  At 1e45 it still solves.
    with pytest.raises(DomainError, match="robin\\+ level 0 at field 1e\\+50"):
        energy("robin+", 0, 1e50)
    assert energy("robin+", 0, 1e45).energy > energy("neumann", 0, 1e45).energy


def test_bound_state_rejects_negative_level():
    psi0, dpsi0, _ = spectrum.wall_data(0.5, 0, *spectrum.sp.airy(0.5)[:2])
    with pytest.raises(ValueError):
        BoundState("robin-", -2, 1.0, -0.5, 0.5, 0.0, (-1.0, 1.0), psi0, dpsi0)


def test_residual_is_the_newton_step_in_ulps():
    # The residual is |D / D'| at the level, in ulps of z: within the
    # certified 4 ulps for this level at a huge field, where |D| itself
    # reads 0.019.
    state = energy("robin-", 204, 5.2e32)
    assert state.residual <= certified_ulps(state)
    f13 = spectrum.field_roots(5.2e32)[0]
    d, slope, _, _ = spectrum._determinant(state.bc, f13, state.arg0)
    assert state.residual == abs(d / slope) / math.ulp(state.arg0)


@pytest.mark.parametrize(
    "text,wall",
    [
        ("dirichlet", BoundarySpec.DIRICHLET),
        ("D", BoundarySpec.DIRICHLET),
        ("n", BoundarySpec.NEUMANN),
        ("neumann", BoundarySpec.NEUMANN),
        ("Neumann", BoundarySpec.NEUMANN),
        ("robin-", BoundarySpec.ROBIN_MINUS),
        ("r-", BoundarySpec.ROBIN_MINUS),
        ("robin minus", BoundarySpec.ROBIN_MINUS),
        ("robin+", BoundarySpec.ROBIN_PLUS),
        ("R+", BoundarySpec.ROBIN_PLUS),
        ("robin_plus", BoundarySpec.ROBIN_PLUS),
    ],
)
def test_boundary_spec_aliases(text, wall):
    # A wall has one spelling, its value; short, case-folded, spaced and
    # underscored spellings of it are refused.
    if text == wall.value:
        assert BoundarySpec.parse(text) is wall
    else:
        with pytest.raises(ValueError,
                           match=r"expected one of dirichlet, neumann, robin-, robin\+$"):
            BoundarySpec.parse(text)


def test_boundary_spec_parse_passes_members_through():
    for member in BoundarySpec:
        assert BoundarySpec.parse(member) is member


def test_boundary_spec_rejects_unknown():
    with pytest.raises(ValueError):
        BoundarySpec.parse("periodic")


def test_boundary_spec_wall_properties():
    assert BoundarySpec.ROBIN_MINUS.wall_slope == 1.0
    assert BoundarySpec.ROBIN_PLUS.wall_slope == -1.0
    assert BoundarySpec.DIRICHLET.wall_slope is None
    assert BoundarySpec.NEUMANN.wall_slope == 0.0
    assert BoundarySpec.ROBIN_MINUS.is_robin
    assert not BoundarySpec.DIRICHLET.is_robin
