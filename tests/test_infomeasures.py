"""Entropy, Fisher, Onicescu, and complexity measures."""

import math

import pytest

from robinwall.infomeasures import (
    ENTROPY_FLOOR,
    entropy_crossing,
    fisher,
    fisher_momentum_coefficient,
    fisher_position_closed,
    fisher_product_maximum,
    flat_well_approximation,
    measure_state,
)
from robinwall.spectrum import BracketError, ConsistencyError, DomainError, energy
from robinwall.states import build_state

# Closed-form position Fisher informations of the two Robin walls at
# field 1, n = 0 (30-digit evaluation through the level energies).
FISHER_X_ATTRACTIVE = 5.4011850042245975
FISHER_X_REPULSIVE = 1.1896317792307292

# Pipeline regression anchors: attractive-wall ground state at field
# 0.01 with default tolerances.
S_X_REF = 0.3019288747408688
S_K_REF = 2.534725669068293
I_K_REF = 0.4933050574311536

# Field-free momentum Fisher constants of the hard walls.
C_DIRICHLET_0 = 1.551461967105032
C_NEUMANN_1 = 0.8017080671078093


def test_fisher_position_closed_anchors():
    assert math.isclose(fisher_position_closed(energy("robin-", 0, 1.0)),
                        FISHER_X_ATTRACTIVE, rel_tol=1e-11)
    assert math.isclose(fisher_position_closed(energy("robin+", 0, 1.0)),
                        FISHER_X_REPULSIVE, rel_tol=1e-11)


@pytest.mark.parametrize("bc,n,field", [
    ("dirichlet", 0, 1.0),
    ("dirichlet", 2, 0.3),
    ("neumann", 1, 2.5),
])
def test_hard_wall_position_fisher_is_energy_ratio(bc, n, field):
    state = energy(bc, n, field)
    assert math.isclose(fisher_position_closed(state), (4.0 / 3.0) * state.energy,
                        rel_tol=1e-14)


def test_fisher_numeric_route_agrees_with_closed(state_of):
    sf = state_of("robin-", 0, 1.0)
    i_x, i_k = fisher(sf)
    assert math.isclose(i_x, fisher_position_closed(sf.state), rel_tol=1e-9)
    assert i_k > 0.0


def test_weak_field_pipeline_regression(state_of):
    sf = state_of("robin-", 0, 0.01)
    rec = measure_state(sf)
    assert math.isclose(rec.S_x, S_X_REF, rel_tol=1e-9)
    assert math.isclose(rec.S_k, S_K_REF, rel_tol=1e-9)
    assert math.isclose(fisher(sf)[1], I_K_REF, rel_tol=1e-9)


@pytest.mark.parametrize("bc,n,field", [
    ("robin-", 0, 1.0),
    ("robin+", 0, 0.5),
    ("dirichlet", 1, 1.0),
    ("neumann", 0, 3.0),
])
def test_measure_record_is_consistent(state_of, bc, n, field):
    rec = measure_state(state_of(bc, n, field))
    assert rec.S_t == rec.S_x + rec.S_k
    assert rec.S_t >= ENTROPY_FLOOR
    assert math.isclose(rec.fisher_product, rec.I_x * rec.I_k, rel_tol=1e-15)
    assert math.isclose(rec.CGL_x, math.exp(rec.S_x) * rec.O_x, rel_tol=1e-15)
    assert math.isclose(rec.CGL_k, math.exp(rec.S_k) * rec.O_k, rel_tol=1e-15)
    assert math.isclose(rec.CGL_product, rec.CGL_x * rec.CGL_k, rel_tol=1e-15)
    # Jensen's inequality on ln(rho) makes each complexity at least one.
    assert rec.CGL_x >= 1.0 - 1e-12
    assert rec.CGL_k >= 1.0 - 1e-12


@pytest.mark.parametrize("field", [1e-3, 1.0, 1e5])
@pytest.mark.parametrize("n", [20, 30, 50])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin+", "robin-"])
def test_high_levels_are_measured(bc, n, field):
    # -rho ln(rho) has a logarithmic kink at each of the n nodes of psi;
    # the position pass must still meet its tolerance, and every
    # certificate of measure_state must hold.
    rec = measure_state(build_state(bc, n, field))
    assert rec.S_t >= ENTROPY_FLOOR


@pytest.mark.parametrize("field", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin+", "robin-"])
def test_level_200_is_measured(bc, field):
    # The position pass starts from 201 pieces split at the nodes of psi;
    # its interval budget grows with them (199 bisections would not do).
    rec = measure_state(build_state(bc, 200, field))
    assert rec.S_t >= ENTROPY_FLOOR


@pytest.mark.parametrize("field", [1e-6, 1e-3, 1e3, 1e6, 1e8, 1e10, 1e12, 1e15, 1e30, 1e100,
                                   1e200, 1e300])
@pytest.mark.parametrize("bc,n", [("dirichlet", 0), ("dirichlet", 3), ("neumann", 0), ("neumann", 3)])
def test_hard_wall_products_are_field_free(state_of, bc, n, field):
    # Without an extrapolation length the field only rescales x by
    # F^(-1/3) and k by F^(1/3), so S_t, I_x I_k and O_x O_k keep their
    # F = 1 values at any field.
    ref = measure_state(state_of(bc, n, 1.0))
    rec = measure_state(build_state(bc, n, field))
    assert math.isclose(rec.S_t, ref.S_t, rel_tol=1e-9)
    assert math.isclose(rec.fisher_product, ref.fisher_product, rel_tol=1e-10)
    assert math.isclose(rec.onicescu_product, ref.onicescu_product, rel_tol=1e-12)


def test_measure_state_certifies_unit_norm():
    sf = build_state("robin-", 0, 1.0)
    sf._amp *= 1.0 + 1e-5
    with pytest.raises(ConsistencyError, match="position norm"):
        measure_state(sf)


def test_measure_state_certifies_momentum_stam_bound(half_stam_momentum):
    with pytest.raises(ConsistencyError, match="momentum Stam product"):
        measure_state(build_state("robin-", 0, 1.0))


@pytest.mark.parametrize("field", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin+", "robin-"])
def test_real_states_clear_the_momentum_stam_bound(state_of, bc, n, field):
    # e^(2 S_k) I_k / (2 pi e) runs from 1.08 (dirichlet n=0) to 4.6 (robin- n=0).
    rec = measure_state(state_of(bc, n, field))
    assert 1.05 < math.exp(2.0 * rec.S_k) * rec.I_k / (2.0 * math.pi * math.e) < 5.0


def test_flat_well_entropies():
    fw = flat_well_approximation(1.0)
    assert math.isclose(fw.S_x + fw.S_k, fw.S_t, rel_tol=1e-14)
    assert math.isclose(fw.S_t, 2.21204718056, rel_tol=1e-10)
    # The sum carries no field dependence at all.
    assert flat_well_approximation(8.0).S_t == fw.S_t
    assert math.isclose(fw.S_x - flat_well_approximation(8.0).S_x,
                        math.log(8.0) / 3.0, rel_tol=1e-12)
    assert math.isclose(fw.width, 2.0 * 2.33810741045976703849, rel_tol=1e-12)
    with pytest.raises(DomainError):
        flat_well_approximation(0.0)


def test_total_entropy_ordering_flips_between_one_and_two():
    # The two lowest attractive-wall levels trade places in total
    # entropy somewhere between these fields.
    def total(n, field):
        return measure_state(build_state("robin-", n, field)).S_t

    assert total(0, 1.0) > total(1, 1.0)
    assert total(0, 2.0) < total(1, 2.0)


def test_entropy_crossing_needs_a_sign_change():
    with pytest.raises(BracketError):
        entropy_crossing(bracket=(3.0, 5.0))


def test_fisher_product_maximum_error_paths():
    with pytest.raises(DomainError):
        fisher_product_maximum(0)
    with pytest.raises(BracketError):
        fisher_product_maximum(1, bracket=(0.6, 0.7), xtol=5e-3)


def test_momentum_fisher_constant_is_field_free():
    c_low = fisher_momentum_coefficient("dirichlet", 0, field=0.2)
    c_high = fisher_momentum_coefficient("dirichlet", 0, field=5.0)
    assert math.isclose(c_low, c_high, rel_tol=1e-8)
    assert math.isclose(fisher_momentum_coefficient("dirichlet", 0),
                        C_DIRICHLET_0, rel_tol=1e-9)
    assert math.isclose(fisher_momentum_coefficient("neumann", 1),
                        C_NEUMANN_1, rel_tol=1e-9)
    with pytest.raises(DomainError):
        fisher_momentum_coefficient("robin-", 0)
