"""Finite-difference cross-check solver."""

import math
import re

import pytest

import robinwall.oracle
from robin_reference import zero_energy_field
from robinwall.oracle import _POINTS, _solve_grid, _x_min, fd_energies, fd_moment
from robinwall.observables import mean_position
from robinwall.spectrum import (
    BoundarySpec,
    ConsistencyError,
    DomainError,
    energy,
)


def test_oracle_surface_is_two_functions():
    assert robinwall.oracle.__all__ == ["fd_energies", "fd_moment"]


def test_bad_requests_are_refused():
    with pytest.raises(ValueError, match="at least one level"):
        fd_energies("robin-", 1.0, 0)
    with pytest.raises(ValueError, match="at least one level"):
        fd_moment("robin-", 1.0, -1)
    for field in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="field must be positive"):
            fd_energies("neumann", field, 1)
    with pytest.raises(DomainError, match="field must be finite"):
        fd_moment("neumann", math.inf, 0)


@pytest.mark.parametrize("bc", ["robin-", "robin+", "dirichlet", "neumann"])
def test_grid_energies_confront_airy_solver(bc):
    got = fd_energies(bc, 1.0, 3)
    for n in range(3):
        assert abs(got[n] - energy(bc, n, 1.0).energy) < 1e-7


def test_richardson_beats_the_raw_grid():
    raw, _, _ = _solve_grid(BoundarySpec.ROBIN_MINUS, 1.0, 2, _x_min(1.0, 2), _POINTS)
    rich = fd_energies("robin-", 1.0, 2)
    exact = energy("robin-", 0, 1.0).energy
    assert abs(rich[0] - exact) < 1e-3 * abs(raw[0] - exact)


def test_shallow_grid_reports_the_decay_failure():
    with pytest.raises(ConsistencyError,
                       match=r"^robin- grid at field 0\.2 \(level count 4\): eigenvector "
                             r"weight .* at the truncated edge"):
        _solve_grid(BoundarySpec.ROBIN_MINUS, 0.2, 4, -6.0, _POINTS)


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


# Oracle outputs of the GridSpec version, which the private grid must keep.
PINNED_ENERGIES = [
    ("robin-", 0.3, (-0.8585653607845488, 1.2747755070163003, 2.0351151672643737)),
    ("robin-", "zero", (-3.8710804216811594e-10, 5.697545331935963, 8.79075418365259)),
    ("robin-", 1e3, (91.57742042662737, 321.7296049003827, 479.93223475840506)),
    ("robin+", 0.3, (0.8063375555235673, 1.620396800147765, 2.279282753065497)),
    ("robin+", "zero", (2.881662656371951, 6.501619175410269, 9.340511868618753)),
    ("robin+", 1e3, (111.23535553405519, 327.8808336303841, 484.0786993359295)),
    ("dirichlet", 0.3, (1.047800564725591, 1.8319756044429738, 2.473986302218124)),
    ("dirichlet", "zero", (4.3994272160746375, 7.691963150643751, 10.387590001220818)),
    ("dirichlet", 1e3, (233.81074104666627, 408.7949444354515, 552.0559828675889)),
    ("neumann", 0.3, (0.45656236600321193, 1.4556488064518813, 2.160081548825114)),
    ("neumann", "zero", (1.9169801642170514, 6.11187013199492, 9.06959002894926)),
    ("neumann", 1e3, (101.87929717885144, 324.8197582399591, 482.00992116821936)),
]


@pytest.mark.parametrize("bc,field,want", PINNED_ENERGIES)
def test_grid_energies_are_pinned(bc, field, want):
    if field == "zero":
        field = zero_energy_field()
    assert repr(tuple(float(v) for v in fd_energies(bc, field, 3))) == repr(want)


PINNED_MOMENTS = [
    ("robin-", 0, 1, -0.3917023892879668),
    ("robin-", 0, 2, 0.28413582712897706),
    ("robin-", 2, 1, -3.140428293700465),
    ("robin-", 2, 2, 11.646873872117302),
    ("robin+", 0, 1, -0.9725136791165485),
    ("robin+", 0, 2, 1.3574054919274168),
    ("robin+", 2, 1, -3.2854238336299226),
    ("robin+", 2, 2, 13.204698405487685),
    ("dirichlet", 0, 1, -1.5587382736592048),
    ("dirichlet", 0, 2, 2.9155980069610368),
    ("dirichlet", 2, 1, -3.680373220329157),
    ("dirichlet", 2, 2, 16.25417644357542),
    ("neumann", 0, 1, -0.6791953146753656),
    ("neumann", 0, 2, 0.7498782681735046),
    ("neumann", 2, 1, -3.2133994755342328),
    ("neumann", 2, 2, 12.432616344250581),
]


@pytest.mark.parametrize("bc,n,power,want", PINNED_MOMENTS)
def test_grid_moments_are_pinned(bc, n, power, want):
    assert repr(fd_moment(bc, 1.0, n, power)) == repr(want)
