"""Finite-difference cross-check solver."""

import re

import pytest

from robinwall.oracle import (
    DecayError,
    GridSpec,
    default_grid,
    fd_energies,
    fd_energies_raw,
    fd_moment,
)
from robinwall.observables import mean_position
from robinwall.spectrum import ConsistencyError, energy, zero_energy_field


def test_grid_spec_geometry():
    grid = GridSpec(-5.0)
    assert grid.h == 0.0025
    assert grid.refined().n_points == 2 * grid.n_points - 1
    assert grid.refined().h == grid.h / 2.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0)
    with pytest.raises(ValueError):
        GridSpec(-5.0, n_points=32)
    with pytest.raises(ValueError):
        default_grid("robin-", 1.0, 0)


@pytest.mark.parametrize("bc", ["robin-", "robin+", "dirichlet", "neumann"])
def test_grid_energies_confront_airy_solver(bc):
    got = fd_energies(bc, 1.0, 3)
    for n in range(3):
        assert abs(got[n] - energy(bc, n, 1.0).energy) < 1e-7


def test_richardson_beats_the_raw_grid():
    grid = default_grid("robin-", 1.0, 2)
    raw = fd_energies_raw("robin-", 1.0, 2, grid)
    rich = fd_energies("robin-", 1.0, 2, grid)
    exact = energy("robin-", 0, 1.0).energy
    assert abs(rich[0] - exact) < 1e-3 * abs(raw[0] - exact)


def test_shallow_grid_reports_the_decay_failure():
    with pytest.raises(DecayError) as caught:
        fd_energies("robin-", 0.2, 4, GridSpec(-6.0))
    assert caught.value.suggested_x_min < -6.0


def test_grid_moment_matches_closed_mean():
    got = fd_moment("robin-", 1.0, 0)
    want = mean_position(energy("robin-", 0, 1.0))
    assert abs(got - want) < 1e-7
    second = fd_moment("neumann", 1.0, 1, power=2)
    assert second > 0.0


def test_moment_of_excited_dirichlet_level():
    got = fd_moment("dirichlet", 2.0, 2)
    want = mean_position(energy("dirichlet", 2, 2.0))
    assert abs(got - want) < 1e-6


@pytest.mark.parametrize("bc", ["robin-", "robin+", "dirichlet", "neumann"])
def test_unresolved_weak_field_grid_is_refused(bc):
    # At 1e-6 the states outgrow the grid: the half-step correction is
    # 0.5-0.99 of the energy, and a Richardson value would be 0.5-1.4 off.
    with pytest.raises(ConsistencyError, match="half-step correction"):
        fd_energies(bc, 1e-6, 3)


@pytest.mark.parametrize("bc", ["robin-", "robin+", "dirichlet", "neumann"])
def test_unconverged_grid_eigensolver_is_refused(bc):
    # LAPACK's bisection stops short on the grid at 1e300 (1e220 solves);
    # the refusal names the wall and the field instead of LAPACK's info code.
    with pytest.raises(ConsistencyError, match=rf"^{re.escape(bc)} grid at field 1e\+300 "):
        fd_energies(bc, 1e300, 1)


def test_level_through_zero_energy_is_measured():
    # The robin- ground level crosses E = 0 here; its correction is 2.8e-5
    # of F^(2/3), though it is many times the level itself.
    field = zero_energy_field()
    got = fd_energies("robin-", field, 3)
    for n in range(3):
        want = energy("robin-", n, field).energy
        assert abs(got[n] - want) < 1e-4 * field ** (2.0 / 3.0)


@pytest.mark.parametrize(
    "bc,field,correction",
    [("dirichlet", 1e-6, "0.973"), ("neumann", 1e-6, "0.0593"), ("robin-", 1e-3, "0.139")],
)
def test_unresolved_grid_moment_is_refused(bc, field, correction):
    # Unrefused, these Richardson moments were -333.7, -0.084 and -0.4716
    # against -155.9, -67.9 and -0.4998 from the Airy profile.
    with pytest.raises(ConsistencyError, match=f"level 0 .* correction {correction} "):
        fd_moment(bc, field, 0)


@pytest.mark.parametrize("bc,n,field,tol", [("robin-", 0, 1e-2, 1e-4), ("neumann", 2, 1e-3, 1e-5)])
def test_resolved_weak_field_moment_is_kept(bc, n, field, tol):
    got = fd_moment(bc, field, n)
    want = mean_position(energy(bc, n, field))
    assert abs(got - want) < tol * abs(want)
