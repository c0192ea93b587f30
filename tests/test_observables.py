"""Dipole moments: closed forms, quadrature cross-checks, coupling limits."""

import math

import pytest

from robinwall.observables import (
    dipole_element_quadrature,
    dipole_matrix,
    ground_coupling_asymptote,
    hellmann_feynman_mean_x,
    mean_position,
    mean_x_quadrature,
    polarization,
    zero_field_mean_x,
)
from robinwall.spectrum import BoundarySpec, BoundState, DomainError, energy
from robinwall.states import build_state

# Nearest-neighbour coordinate couplings at field 1, frozen from a
# 30-digit evaluation of the closed forms.
COUPLING_01_AT_FIELD1 = {
    "dirichlet": 0.653179139522773543253,
    "neumann": 0.471932299685527654708,
    "robin-": 0.270233365988669496586,
}

# Exact ground-to-level-300 coupling of the attractive wall at field
# 0.02, kept as a regression anchor for the deep asymptote below.
DEEP_COUPLING_REF = 0.006096846621674892


def test_zero_field_reference_mean():
    assert zero_field_mean_x(BoundarySpec.ROBIN_MINUS, 0) == -0.5
    assert zero_field_mean_x(BoundarySpec.ROBIN_MINUS, 1) == 0.0
    assert zero_field_mean_x(BoundarySpec.DIRICHLET, 0) == 0.0
    assert zero_field_mean_x(BoundarySpec.ROBIN_PLUS, 0) == 0.0


def test_mean_position_three_routes_agree(state_of):
    state = energy("robin-", 0, 1.0)
    closed = mean_position(state)
    assert math.isclose(closed, mean_x_quadrature(state_of("robin-", 0, 1.0)), rel_tol=1e-9)
    assert abs(closed - hellmann_feynman_mean_x("robin-", 0, 1.0)) < 1e-8


@pytest.mark.parametrize("bc,n,field", [
    ("dirichlet", 1, 0.7),
    ("neumann", 0, 2.0),
    ("robin+", 1, 1.5),
])
def test_mean_position_matches_energy_slope(bc, n, field):
    closed = mean_position(energy(bc, n, field))
    assert abs(closed - hellmann_feynman_mean_x(bc, n, field)) < 1e-7


def test_polarization_record():
    state = energy("robin-", 0, 1.0)
    rec = polarization(state)
    assert rec.zero_field_mean_x == -0.5
    assert rec.dipole == rec.mean_x + 0.5
    assert rec.P == rec.dipole
    assert rec.dipole > 0.0


def test_mean_position_rejects_near_degenerate_normalization():
    bad = BoundState(bc=BoundarySpec.ROBIN_MINUS, n=0, field=1e-8,
                     energy=-1.0 + 1e-13, residual=0.0, bracket=(-1.0, -0.9))
    with pytest.raises(DomainError):
        mean_position(bad)


def test_weak_field_ground_mean_is_refused():
    # The closed form cancels here: it used to return -0.5959 where the
    # profile's mean is -0.49999998.
    with pytest.raises(DomainError, match="mean_x_quadrature"):
        polarization(energy("robin-", 0, 1e-7))


def _smallest_accepted_ground_field() -> float:
    lo, hi = -7.0, -3.0  # log10 of a refused and an accepted field
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        try:
            mean_position(energy("robin-", 0, 10.0 ** mid))
        except DomainError:
            lo = mid
        else:
            hi = mid
    return 10.0 ** hi


@pytest.mark.parametrize("field", [1e-3, 1e-2, None])
def test_ground_mean_matches_quadrature_where_accepted(field):
    field = field or _smallest_accepted_ground_field()
    closed = mean_position(energy("robin-", 0, field))
    assert abs(closed - mean_x_quadrature(build_state("robin-", 0, field))) < 1e-6


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin-"])
def test_coupling_references(bc):
    got = dipole_matrix(bc, 1.0, 2).element(0, 1)
    assert math.isclose(got, COUPLING_01_AT_FIELD1[bc], rel_tol=1e-12)


def test_matrix_is_symmetric_with_mean_diagonal():
    mat = dipole_matrix("robin-", 1.0, 4)
    for n in range(4):
        assert mat.element(n, n) == mean_position(energy("robin-", n, 1.0))
        for m in range(n):
            assert mat.element(n, m) == mat.element(m, n)


def test_matrix_rejects_single_level():
    with pytest.raises(ValueError):
        dipole_matrix("robin-", 1.0, 1)


def test_coupling_against_direct_integration(state_of):
    closed = dipole_matrix("robin-", 1.0, 2).element(0, 1)
    direct = dipole_element_quadrature(state_of("robin-", 0, 1.0),
                                       state_of("robin-", 1, 1.0))
    assert math.isclose(abs(direct), closed, rel_tol=1e-9)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_hard_wall_couplings_dilate_as_inverse_cube_root(bc):
    # Every hard-wall coordinate scale carries field**(-1/3), so an
    # eightfold field change halves means and couplings alike.
    weak = dipole_matrix(bc, 0.5, 3)
    strong = dipole_matrix(bc, 4.0, 3)
    for n in range(3):
        for m in range(3):
            assert math.isclose(strong.element(n, m), 0.5 * weak.element(n, m),
                                rel_tol=1e-12)


def test_ground_coupling_low_branch():
    asym = ground_coupling_asymptote(1, 1e-4)
    assert asym.branch == "low"
    assert not asym.crossover
    assert math.isclose(asym.value, math.sqrt(2e-4), rel_tol=1e-14)
    exact = dipole_matrix("robin-", 1e-4, 2).element(0, 1)
    assert math.isclose(asym.value, exact, rel_tol=0.05)


def test_ground_coupling_high_branch():
    # The deep-level form approaches the exact coupling only as 1/E of
    # the partner level, so the comparison tolerance stays loose.
    asym = ground_coupling_asymptote(300, 0.02)
    assert asym.branch == "high"
    assert not asym.crossover
    exact = dipole_matrix("robin-", 0.02, 301).element(0, 300)
    assert math.isclose(exact, DEEP_COUPLING_REF, rel_tol=1e-10)
    assert math.isclose(asym.value, exact, rel_tol=0.25)


def test_ground_coupling_flags_crossover_window():
    assert ground_coupling_asymptote(1, 0.3).crossover
    assert not ground_coupling_asymptote(1, 1.0).crossover


def test_ground_coupling_error_paths():
    with pytest.raises(DomainError):
        ground_coupling_asymptote(0, 1.0)
    with pytest.raises(DomainError):
        ground_coupling_asymptote(1, 0.0)
