"""Eigenvalue solver: frozen references, ordering, asymptotics, error paths."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinwall import spectrum
from robinwall import (
    BoundarySpec,
    BoundState,
    ConsistencyError,
    DomainError,
    eigenvalue_function,
    energy,
    energy_asymptotic,
    level_spacing,
    node_count,
    root_table,
    zero_energy_field,
    zero_energy_field_solved,
)

# Eigenvalues at field 1, solved independently with mpmath findroot on
# Ai'(-E) + s Ai(-E) at 30 digits.
RM_FIELD1 = [-0.566891471032233178806, 2.9555669925763534853, 4.62170139196233665792]
RP_FIELD1 = [1.64761941348935778992, 3.51930667641848248408]
E_ZERO_FIELD = 2.58105653984046446188
E_RM0_FIELD01 = -0.951120421951114309563

WALL_ORDER = ("robin-", "neumann", "robin+", "dirichlet")


@pytest.mark.parametrize("n,ref", list(enumerate(RM_FIELD1)))
def test_attractive_wall_levels_at_unit_field(n, ref):
    state = energy("robin-", n, 1.0)
    assert math.isclose(state.energy, ref, rel_tol=1e-12, abs_tol=1e-12)
    assert state.residual < 1e-11
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
    assert state.residual < 1e-11
    assert node_count(state.energy, field) == n
    wall = BoundarySpec.parse(bc)
    assert abs(eigenvalue_function(wall, state.energy, field)) < 1e-11


@given(
    st.floats(min_value=-9.0, max_value=6.0),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([BoundarySpec.ROBIN_MINUS, BoundarySpec.ROBIN_PLUS]),
)
@settings(max_examples=60, deadline=None)
def test_robin_levels_across_the_domain(log_field, n, bc):
    # The uncached solver, with every determinant evaluation counted: the
    # count bounds the work of one level without timing it.
    field = 10.0 ** log_field
    with mock.patch.object(spectrum, "eigenvalue_function",
                           wraps=spectrum.eigenvalue_function) as det:
        state = spectrum._solve_robin(bc, n, field)
    assert det.call_count <= 40
    lo, hi = state.bracket
    assert lo < state.energy < hi
    assert node_count(state.energy, field) == n
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
    assert node_count(state.energy, field) == 25


def test_certificate_rejects_a_moved_root():
    field = 2.148988408932126e-07
    root = energy("robin+", 25, field).energy
    spectrum._certify_root(BoundarySpec.ROBIN_PLUS, root, field)
    with pytest.raises(ConsistencyError):
        spectrum._certify_root(BoundarySpec.ROBIN_PLUS, root * (1.0 + 1e-9), field)


def test_attractive_ground_level_field_floor():
    # Below field 2**-30 the wall-side Airy argument of robin- n=0 leaves
    # the range of scipy's scaled Airy functions.
    with pytest.raises(DomainError, match="9.31323e-10"):
        energy("robin-", 0, 5e-10)
    state = energy("robin-", 0, 1e-9)
    assert -1.0 < state.energy < -1.0 + 1e-9
    assert node_count(state.energy, 1e-9) == 0


def test_level_spacing_positive_and_consistent():
    gap = level_spacing("robin-", 0, 1.0)
    assert math.isclose(gap, RM_FIELD1[1] - RM_FIELD1[0], rel_tol=1e-12)


def test_weak_field_spacing_tracks_zero_gap():
    # For a weak field the gap between the first two field-induced levels
    # approaches field^(2/3) times the gap of the first two Ai zeros.
    field = 1e-3
    table = root_table(2)
    want = (table.ai_zero(1) - table.ai_zero(2)) * field ** (2.0 / 3.0)
    got = level_spacing("robin-", 1, field)
    assert abs(got - want) / want < 0.03


def test_weak_field_expansions():
    field = 0.01
    f23 = field ** (2.0 / 3.0)
    table = root_table(2)
    ground = energy_asymptotic("robin-", 0, field, "weak")
    assert abs(ground - energy("robin-", 0, field).energy) < 5e-5
    first = energy_asymptotic("robin-", 1, field, "weak")
    assert math.isclose(first, -table.ai_zero(1) * f23 + field, rel_tol=1e-14)
    assert abs(first - energy("robin-", 1, field).energy) / first < 0.03
    rep = energy_asymptotic("robin+", 0, field, "weak")
    assert math.isclose(rep, -table.ai_zero(1) * f23 - field, rel_tol=1e-14)
    assert abs(rep - energy("robin+", 0, field).energy) / rep < 0.03


@pytest.mark.parametrize("bc", ["robin-", "robin+"])
def test_strong_field_expansion_converges(bc):
    # The first correction beyond the expansion scales as field**(-2/3)
    # relative, so the field must be large for a tight check.
    field = 1e6
    approx = energy_asymptotic(bc, 0, field, "strong")
    exact = energy(bc, 0, field).energy
    assert abs(approx - exact) / exact < 1e-3


def test_asymptotic_rejects_hard_walls_and_bad_regime():
    with pytest.raises(DomainError):
        energy_asymptotic("dirichlet", 0, 1.0, "weak")
    with pytest.raises(ValueError):
        energy_asymptotic("robin-", 0, 1.0, "medium")


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
    with pytest.raises(DomainError):
        eigenvalue_function("robin-", 0.0, 0.0)


def test_robin_level_below_rounding_is_a_domain_error():
    # At 1e50 the Robin shift from the Neumann level, about F^(1/3), is
    # below the rounding of E ~ F^(2/3); the solver names that instead of
    # letting brentq's bare ValueError escape.  At 1e45 it still solves.
    with pytest.raises(DomainError, match="robin\\+ level 0 at field 1e\\+50"):
        energy("robin+", 0, 1e50)
    assert energy("robin+", 0, 1e45).energy > energy("neumann", 0, 1e45).energy


def test_bound_state_rejects_negative_level():
    with pytest.raises(ValueError):
        BoundState("robin-", -2, 1.0, 0.0, 0.0, (0.0, 1.0))


@pytest.mark.parametrize(
    "text,member",
    [
        ("dirichlet", BoundarySpec.DIRICHLET),
        ("D", BoundarySpec.DIRICHLET),
        ("n", BoundarySpec.NEUMANN),
        ("Neumann", BoundarySpec.NEUMANN),
        ("robin-", BoundarySpec.ROBIN_MINUS),
        ("r-", BoundarySpec.ROBIN_MINUS),
        ("robin minus", BoundarySpec.ROBIN_MINUS),
        ("R+", BoundarySpec.ROBIN_PLUS),
        ("robin_plus", BoundarySpec.ROBIN_PLUS),
    ],
)
def test_boundary_spec_aliases(text, member):
    assert BoundarySpec.parse(text) is member


def test_boundary_spec_rejects_unknown():
    with pytest.raises(ValueError):
        BoundarySpec.parse("periodic")


def test_boundary_spec_wall_properties():
    assert BoundarySpec.ROBIN_MINUS.robin_sign == 1.0
    assert BoundarySpec.ROBIN_PLUS.robin_sign == -1.0
    assert BoundarySpec.NEUMANN.robin_sign == 0.0
    assert BoundarySpec.DIRICHLET.wall_slope is None
    assert BoundarySpec.NEUMANN.wall_slope == 0.0
    assert BoundarySpec.ROBIN_MINUS.is_robin
    assert not BoundarySpec.DIRICHLET.is_robin
