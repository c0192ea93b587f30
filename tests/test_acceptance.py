"""Acceptance suite: ten end-to-end checks of the full pipeline.

Each test covers one numbered acceptance criterion and asserts the frozen
reference values at their stated tolerances, so ``pytest -v`` prints one
pass/fail line per criterion.  Closed-form references are written out as
expressions; decimal references were regenerated with a 50-digit
independent evaluation or taken from the tabulated results.

The suite accumulates every information-measure record it computes and
criterion 10 re-checks the entropic uncertainty floor across all of them,
on top of its own normalization, node-count, virial-style identity,
force-theorem, and finite-difference sweeps.
"""

import functools
import math
import time

import numpy as np
from reference_routes import (
    energy_identity_residual,
    flat_well_approximation,
    hellmann_feynman_mean_x,
)
from robin_reference import zero_energy_field, zero_energy_field_solved
from zero_reference import zeros_above

from robinwall import quadrature
from robinwall.infomeasures import (
    ENTROPY_FLOOR,
    entropy_crossing,
    fisher_product_maximum,
    measure_state,
)
from robinwall.observables import mean_position, polarization
from robinwall.oracle import fd_energies
from robinwall.spectrum import energy
from robinwall.states import build_state, momentum_integrals, position_integrals

RECORDS = []


@functools.lru_cache(maxsize=None)
def _sf(bc, n, field):
    return build_state(bc, n, field)


@functools.lru_cache(maxsize=None)
def _rec(bc, n, field):
    rec = measure_state(_sf(bc, n, field))
    RECORDS.append(rec)
    return rec


def _halving_limit(v1, v2, v3):
    """Quadratic extrapolation to zero over nodes f, f/2, f/4."""
    return (8.0 * v3 - 6.0 * v2 + v1) / 3.0


BASELINE_FIELDS = (0.02, 0.01, 0.005)

FIELD_FREE_BASELINE = {
    "S_x": 1.0 - math.log(2.0),
    "S_k": 2.0 * math.log(2.0) + math.log(math.pi),
    "S_t": 1.0 + math.log(math.pi) + math.log(2.0),
    "I_x": 4.0,
    "I_k": 0.5,
    "fisher_product": 2.0,
    "O_x": 1.0,
    "O_k": 1.0 / (2.0 * math.pi),
    "CGL_x": math.e / 2.0,
    "CGL_k": 2.0,
    "CGL_product": math.e,
}

# Complexity table for the scale-invariant walls, six lowest levels:
# (CGL_x, CGL_k, CGL_product) per (wall, n).
CGL_TABLE = {
    ("dirichlet", 0): (1.1542, 1.2350, 1.4255),
    ("neumann", 0): (1.1933, 1.7010, 2.0299),
    ("dirichlet", 1): (1.1610, 1.1650, 1.3527),
    ("neumann", 1): (1.1599, 1.3488, 1.5645),
    ("dirichlet", 2): (1.1712, 1.1346, 1.3289),
    ("neumann", 2): (1.1673, 1.2479, 1.4567),
    ("dirichlet", 3): (1.1808, 1.1167, 1.3186),
    ("neumann", 3): (1.1767, 1.2005, 1.4126),
    ("dirichlet", 4): (1.1895, 1.1045, 1.3138),
    ("neumann", 4): (1.1856, 1.1719, 1.3894),
    ("dirichlet", 5): (1.1974, 1.0956, 1.3118),
    ("neumann", 5): (1.1938, 1.1524, 1.3757),
}


def test_criterion_01_zero_energy_field():
    start = time.perf_counter()
    closed = zero_energy_field()
    solved = zero_energy_field_solved()
    elapsed = time.perf_counter() - start

    reference = math.gamma(1.0 / 3.0) ** 3 / (3.0 * math.gamma(2.0 / 3.0) ** 3)
    assert math.isclose(closed, reference, rel_tol=1e-14)
    assert abs(closed - 2.58106) <= 1e-4
    assert abs(solved - 2.58106) <= 1e-4
    assert abs(solved - closed) <= 1e-9
    assert elapsed < 1.0
    print(f"criterion 1: zero-energy field closed {closed:.6f}, "
          f"solved {solved:.6f}, target 2.58106 +- 1e-4, {elapsed:.3f} s")


def test_criterion_02_field_free_baseline():
    recs = [_rec("robin-", 0, f) for f in BASELINE_FIELDS]
    worst = 0.0
    for name, target in FIELD_FREE_BASELINE.items():
        limit = _halving_limit(*(getattr(r, name) for r in recs))
        dev = abs(limit - target)
        worst = max(worst, dev)
        assert dev <= 1e-3, f"{name}: extrapolated {limit!r}, target {target!r}"
    print(f"criterion 2: eleven field-free limits matched, "
          f"worst |dev| {worst:.2e} (tol 1e-3)")


def test_criterion_03_dirichlet_entropy_plateau():
    values = [_rec("dirichlet", 0, f).S_t for f in (0.1, 1.0, 10.0)]
    spread = max(values) - min(values)
    assert spread <= 1e-3
    for value in values:
        assert abs(value - 2.254) <= 5e-3
    flat = flat_well_approximation(1.0)
    assert abs(flat.S_t - 2.212) <= 5e-4
    print(f"criterion 3: S_t {values[1]:.6f} (spread {spread:.1e}) vs 2.254, "
          f"flat-well estimate {flat.S_t:.6f} vs 2.212")


def test_criterion_04_scale_invariance_suite():
    fields = (0.5, math.sqrt(2.5), 5.0)
    log_f = np.log(fields)
    invariant_names = ("S_t", "fisher_product", "onicescu_product",
                       "CGL_x", "CGL_k")
    # Additive for the entropies, multiplicative for the rest.
    slope_targets = (("S_x", -1.0 / 3.0, False), ("S_k", 1.0 / 3.0, False),
                     ("I_x", 2.0 / 3.0, True), ("I_k", -2.0 / 3.0, True),
                     ("O_x", 1.0 / 3.0, True), ("O_k", -1.0 / 3.0, True))

    worst_spread = 0.0
    worst_slope_dev = 0.0
    for bc in ("dirichlet", "neumann"):
        for n in range(4):
            recs = [_rec(bc, n, f) for f in fields]
            for name in invariant_names:
                column = [getattr(r, name) for r in recs]
                spread = max(column) - min(column)
                worst_spread = max(worst_spread, spread)
                assert spread <= 5e-4, f"{bc} n={n} {name} spread {spread!r}"
            for name, target, take_log in slope_targets:
                column = np.array([getattr(r, name) for r in recs])
                ordinate = np.log(column) if take_log else column
                slope = np.polyfit(log_f, ordinate, 1)[0]
                dev = abs(slope - target)
                worst_slope_dev = max(worst_slope_dev, dev)
                assert dev <= 1e-3, f"{bc} n={n} {name} slope {slope!r}"
    print(f"criterion 4: invariants spread <= {worst_spread:.1e} (tol 5e-4), "
          f"slope |dev| <= {worst_slope_dev:.1e} (tol 1e-3)")


def test_criterion_05_fisher_product_nonmonotonic():
    start = time.perf_counter()

    # Cubic elimination in field**(1/3) over node-halving fields.
    weak_fields = (2e-2, 2.5e-3, 3.125e-4, 3.90625e-5)
    p1, p2, p3, p4 = (_rec("robin-", 1, f).fisher_product for f in weak_fields)
    weak_limit = (64.0 * p4 - 56.0 * p3 + 14.0 * p2 - p1) / 21.0
    assert abs(weak_limit - 4.837) <= 0.01
    # The detaching level turns into the value-fixed-wall ground state.
    dirichlet_anchor = _rec("dirichlet", 0, 1.0).fisher_product
    assert abs(dirichlet_anchor - 4.837) <= 0.01
    assert abs(weak_limit - dirichlet_anchor) <= 5e-3

    peak = fisher_product_maximum(1, bracket=(0.005, 0.1), xtol=1e-3)
    assert abs(peak.field - 0.022) <= 0.003
    assert abs(peak.product - 5.756) <= 0.01

    strong = [_rec("robin-", 1, f).fisher_product for f in (62.5, 500.0, 4000.0)]
    strong_limit = _halving_limit(*strong)
    assert abs(strong_limit - 3.472) <= 0.01
    # Strong fields push the level onto the slope-free-wall n=1 profile.
    neumann_anchor = _rec("neumann", 1, 1.0).fisher_product
    assert abs(strong_limit - neumann_anchor) <= 5e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 5: product {weak_limit:.4f} -> "
          f"max {peak.product:.4f} at field {peak.field:.4f} -> "
          f"{strong_limit:.4f}, targets 4.837 / 5.756 at 0.022 / 3.472, "
          f"{elapsed:.1f} s")


def test_criterion_06_onicescu_trajectory():
    recs = [_rec("robin-", 0, f) for f in BASELINE_FIELDS]
    weak_limit = _halving_limit(*(r.onicescu_product for r in recs))
    assert abs(weak_limit - 0.15915) <= 1e-3
    assert abs(weak_limit - 1.0 / (2.0 * math.pi)) <= 1e-3

    at_40 = _rec("robin-", 0, 40.0).onicescu_product
    assert abs(at_40 - 0.14395) <= 1e-3

    neumann = _rec("neumann", 0, 1.0).onicescu_product
    assert abs(neumann - 0.14081) <= 1e-3
    print(f"criterion 6: attractive-wall product {weak_limit:.5f} -> "
          f"{at_40:.5f} at field 40, slope-free wall {neumann:.5f}; "
          f"targets 0.15915 / 0.14395 / 0.14081")


def test_criterion_07_complexity_table():
    worst = 0.0
    got = {}
    for (bc, n), row in CGL_TABLE.items():
        rec = _rec(bc, n, 1.0)
        computed = (rec.CGL_x, rec.CGL_k, rec.CGL_product)
        got[(bc, n)] = computed
        for value, target in zip(computed, row):
            dev = abs(value - target)
            worst = max(worst, dev)
            assert dev <= 5e-4, f"{bc} n={n}: {computed!r} vs {row!r}"

    for bc in ("dirichlet", "neumann"):
        for n in range(5):
            assert got[(bc, n)][1] > got[(bc, n + 1)][1], f"CGL_k order {bc}"
            assert got[(bc, n)][2] > got[(bc, n + 1)][2], f"product order {bc}"
    for n in range(6):
        assert got[("dirichlet", n)][2] < got[("neumann", n)][2]
    print(f"criterion 7: 36 complexity values matched, worst |dev| "
          f"{worst:.1e} (tol 5e-4); orderings hold for n <= 5")


def test_criterion_08_entropy_crossing():
    field_cross = entropy_crossing(bracket=(1.0, 2.0), xtol=1e-3)
    assert abs(field_cross - 1.45) <= 0.02
    print(f"criterion 8: total entropies of the two lowest attractive-wall "
          f"levels cross at field {field_cross:.4f} (target 1.45 +- 0.02)")


def test_criterion_09_weak_field_coefficients():
    fields = np.linspace(0.005, 0.05, 8)
    energies, dipoles, recs = [], [], []
    for f in fields:
        sf = _sf("robin-", 0, float(f))
        energies.append(sf.state.energy)
        dipoles.append(polarization(sf.state).dipole)
        recs.append(_rec("robin-", 0, float(f)))

    def coefficient(values, order):
        return np.polynomial.polynomial.polyfit(fields, values, 3)[order]

    # (series, fit order, expected coefficient).  Three entries replace
    # printed values that contradict the ground-state derivation; the
    # derived ones below are what any correct pipeline reproduces.
    checks = (
        ("energy linear", energies, 1, 0.5),
        ("energy quadratic", energies, 2, -0.125),
        ("dipole linear", dipoles, 1, 0.25),
        ("S_x slope", [r.S_x for r in recs], 1, -0.5),
        ("S_k slope", [r.S_k for r in recs], 1, 3.0 / 8.0),      # not +1/2
        ("I_x linear", [r.I_x for r in recs], 1, 2.0),
        ("I_x quadratic", [r.I_x for r in recs], 2, -1.5),       # not +1/6
        ("I_k slope", [r.I_k for r in recs], 1, -11.0 / 16.0),   # not -1/2
        ("O_x slope", [r.O_x for r in recs], 1, 3.0 / 8.0),
        ("O_k slope", [r.O_k for r in recs], 1, -1.0 / (4.0 * math.pi)),
    )
    worst = 0.0
    for label, series, order, target in checks:
        fitted = coefficient(series, order)
        rel = abs(fitted - target) / abs(target)
        worst = max(worst, rel)
        assert rel <= 0.03, f"{label}: fitted {fitted!r}, expected {target!r}"
    print("criterion 9: ten fitted coefficients within 3% "
          f"(worst {worst:.2%}); derived substitutions in force: "
          "S_k slope +3/8, I_k slope -11/16, I_x quadratic -3/2")


def test_criterion_10_property_suite():
    fields = (0.2, 1.0, 5.0)
    walls = ("robin-", "robin+", "neumann", "dirichlet")

    worst_fd = 0.0
    for bc in walls:
        for f in fields:
            exact = [energy(bc, m, f) for m in range(6)]
            approx = fd_energies(bc, f, 6)
            for m, (level, e_fd) in enumerate(zip(exact, approx)):
                rel = abs(e_fd - level.energy) / max(abs(level.energy), 1e-12)
                worst_fd = max(worst_fd, rel)
                assert rel <= 1e-4, f"{bc} n={m} field {f}"
                assert zeros_above(level.arg0) == m

    worst_norm = worst_identity = worst_hf = 0.0
    for bc in walls:
        for f in fields:
            for n in (0, 2):
                sf = _sf(bc, n, f)
                norm_cap = 10.0 * quadrature._PASS_TOLERANCE
                x_norm = abs(position_integrals(sf)[0] - 1.0)
                k_norm = abs(momentum_integrals(sf)[0] - 1.0)
                worst_norm = max(worst_norm, x_norm, k_norm)
                assert x_norm <= norm_cap
                assert k_norm <= norm_cap

                identity = abs(energy_identity_residual(sf))
                worst_identity = max(worst_identity, identity)
                assert identity <= 1e-6

                hf = abs(hellmann_feynman_mean_x(bc, n, f)
                         - mean_position(sf.state))
                worst_hf = max(worst_hf, hf)
                assert hf <= 1e-6

                _rec(bc, n, f)

    assert RECORDS, "no information-measure records accumulated"
    floor_margin = min(rec.S_t - ENTROPY_FLOOR for rec in RECORDS)
    assert floor_margin >= -1e-9
    print(f"criterion 10: {len(RECORDS)} measure records hold the entropy "
          f"floor (min margin {floor_margin:.3f}); norms <= {worst_norm:.1e}, "
          f"energy identity <= {worst_identity:.1e}, force theorem <= "
          f"{worst_hf:.1e}, grid oracle rel <= {worst_fd:.1e}")
