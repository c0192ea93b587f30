"""Entropy, Fisher, Onicescu, and complexity measures."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from reference_routes import flat_well_approximation
from robinwall import states
from robinwall.infomeasures import (
    ENTROPY_FLOOR,
    entropy_crossing,
    fisher,
    fisher_position_closed,
    fisher_product_maximum,
    measure_state,
)
from robinwall.spectrum import BracketError, ConsistencyError, DomainError, energy
from robinwall.states import AiryUnitState, build_state

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
    # The position pass takes two pieces in each of the 201 gaps between
    # the nodes of psi, all in its one qk21 call.
    rec = measure_state(build_state(bc, 200, field))
    assert rec.S_t >= ENTROPY_FLOOR


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin+", "robin-"])
def test_level_300_is_measured(bc):
    # Below the split the momentum density has about n humps; the momentum
    # pass takes n + 2 pieces there, all in its one qk21 call.
    rec = measure_state(build_state(bc, 300, 1.0))
    assert rec.S_t >= ENTROPY_FLOOR


@pytest.mark.parametrize("n,field", [(500, 1e-6), (500, 1e6), (1000, 1.0)])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin+", "robin-"])
def test_levels_500_and_1000_are_measured(bc, n, field):
    # Both passes run in Airy units and start from pieces that grow with
    # n, so these levels pass at either end of the field range.
    rec = measure_state(build_state(bc, n, field))
    assert rec.S_t >= ENTROPY_FLOOR


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin+", "robin-"])
def test_level_100_is_measured_at_strong_field(bc):
    # The position pass runs in Airy units, so its integrands, and the
    # tolerances they meet, do not grow with the field.
    rec = measure_state(build_state(bc, 100, 1e6))
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


@dataclass(frozen=True)
class _ScaledUnit(AiryUnitState):
    """The Airy-unit record of (arg0, n) with its profile and wall data times ``factor``.

    Its own class and the extra field make it unequal to the unit-norm
    record of the same level, so the pass memos hold it apart.
    """

    factor: float

    def __post_init__(self):
        super().__post_init__()
        for name in ("psi0", "dpsi0"):
            object.__setattr__(self, name, getattr(self, name) * self.factor)
        object.__setattr__(self, "norm", self.norm / self.factor)


def _scaled_amplitude(sf, factor):
    sf.unit = _ScaledUnit(sf.unit.arg0, sf.unit.n, factor)
    return sf


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_hard_wall_measures_follow_the_exact_field_laws(bc):
    # A hard-wall level has the same Airy-unit record at every field, so
    # each pass runs once per level and the field enters through the
    # paper's laws alone: S_x + ln F / 3, S_k - ln F / 3, I_x / F^(2/3),
    # I_k F^(2/3), O_x / F^(1/3) and O_k F^(1/3) keep their F = 1 values,
    # to the rounding of the laws (measured 2.2e-15), and S_t its own
    # (measured 1.8e-15): the entropy laws use the exact unit norm.
    states._position_pass.cache_clear()
    states._momentum_pass.cache_clear()
    for done, n in enumerate((0, 3, 10, 30), start=1):
        ref = measure_state(build_state(bc, n, 1.0))
        for field in [10.0 ** e for e in range(-6, 16)]:
            rec = measure_state(build_state(bc, n, field))
            log3 = math.log(field) / 3.0
            f13, f23 = field ** (1.0 / 3.0), field ** (2.0 / 3.0)
            for got, want in ((rec.S_x + log3, ref.S_x), (rec.S_k - log3, ref.S_k),
                              (rec.I_x / f23, ref.I_x), (rec.I_k * f23, ref.I_k),
                              (rec.O_x / f13, ref.O_x), (rec.O_k * f13, ref.O_k)):
                assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-14), (n, field)
            assert abs(rec.S_t - ref.S_t) <= 5e-15, (n, field)
        for memo in (states._position_pass, states._momentum_pass):
            assert memo.cache_info().misses == done


def test_robin_records_match_a_thousandfold_tighter_tolerance(monkeypatch, pass_tolerance):
    # Both passes lay out pieces that meet the 1e-10 tolerance in one qk21
    # call; the records must still agree with passes run on every piece
    # quartered, to 1e-13 (the tightest the reference reaches: at 1e-14 it
    # meets qk21's 50-eps floor).  The worst value is off by 1.7e-13.
    rng = np.random.default_rng(2022)
    cases = [(bc, n, field) for bc in ("robin-", "robin+") for n in range(4)
             for field in 10.0 ** rng.uniform(-2.0, 3.0, size=2)]
    recs = [measure_state(build_state(*case)) for case in cases]
    real = states.integrate_batch

    def quartered(f, points, abs_tol, rel_tol):
        edges = np.asarray(points)
        quarters = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(4) / 4.0
        return real(f, np.append(quarters.ravel(), edges[-1]), abs_tol, rel_tol)

    monkeypatch.setattr(states, "integrate_batch", quartered)
    pass_tolerance(1e-13)
    for case, rec in zip(cases, recs):
        ref = measure_state(build_state(*case))
        for name in [f.name for f in fields(rec) if f.name != "state"]:
            got, want = getattr(rec, name), getattr(ref, name)
            assert abs(got - want) <= 5e-13 * max(1.0, abs(want)), (*case, name)


def test_measure_state_certifies_unit_norm():
    sf = _scaled_amplitude(build_state("robin-", 0, 1.0), 1.0 + 1e-5)
    with pytest.raises(ConsistencyError, match="position norm"):
        measure_state(sf)


def test_memoized_hard_wall_still_certifies_unit_norm():
    # The passes are memoized on a state's Airy-unit data, not on its
    # (wall, n): the clean level's result must not serve the scaled one.
    measure_state(build_state("dirichlet", 2, 1.0))
    sf = _scaled_amplitude(build_state("dirichlet", 2, 3.0), 1.0 + 1e-5)
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


@pytest.mark.parametrize("xtol", [math.nan, math.inf])
def test_searches_refuse_a_nonfinite_xtol(xtol):
    with pytest.raises(ValueError, match="xtol must be positive and finite"):
        fisher_product_maximum(1, xtol=xtol)
    with pytest.raises(ValueError, match="xtol must be positive and finite"):
        entropy_crossing(xtol=xtol)


@pytest.mark.parametrize("bracket", [(0.5, 0.01), (2.0, 1.0), (0.05, 0.05)])
def test_searches_refuse_a_reversed_bracket(bracket):
    # The golden-section search skipped its loop on a reversed bracket and
    # reported no interior maximum; Brent sorted it out without a word.
    with pytest.raises(ValueError, match="search bracket needs lo < hi"):
        fisher_product_maximum(1, bracket=bracket)
    with pytest.raises(ValueError, match="search bracket needs lo < hi"):
        entropy_crossing(bracket=bracket)


XTOL_PROBE = """
from robinwall import entropy_crossing, fisher_product_maximum
for search in (lambda x: fisher_product_maximum(1, xtol=x), lambda x: entropy_crossing(xtol=x)):
    for xtol in (0.0, -1.0):
        try:
            search(xtol)
        except ValueError as exc:
            print(exc)
"""


def test_searches_refuse_a_nonpositive_xtol():
    # The golden-section loop never ends at xtol <= 0, so the calls run in a
    # child process whose timeout turns a regression into a failure.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", XTOL_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"xtol must be positive and finite, got {xtol}" for xtol in ("0.0", "-1.0") * 2]


def test_momentum_fisher_constant_is_field_free():
    # A hard wall's I_k is a pure power of the field, so I_k F^(2/3) is
    # one constant per level.
    def constant(bc, n, field=1.0):
        return fisher(build_state(bc, n, field))[1] * field ** (2.0 / 3.0)

    assert math.isclose(constant("dirichlet", 0, 0.2), constant("dirichlet", 0, 5.0),
                        rel_tol=1e-8)
    assert math.isclose(constant("dirichlet", 0), C_DIRICHLET_0, rel_tol=1e-9)
    assert math.isclose(constant("neumann", 1), C_NEUMANN_1, rel_tol=1e-9)


def test_weak_field_ground_state_is_refused_by_its_normalization():
    # At F = 1e-9 the normalization Ai'^2 - z0 Ai^2 of robin- n = 0 cancels
    # 4e9-fold.  Without a bound on that cancellation its closed form read
    # 3.9999988 where I_x is about 4 + 2F, within 1e-6 of the quadrature
    # route; the refusal names the cause.
    with pytest.raises(DomainError, match="normalization Ai'\\^2 - z0 Ai\\^2 cancels 4e\\+09-fold"):
        measure_state(build_state("robin-", 0, 1e-9))
