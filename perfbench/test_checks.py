"""Self-tests of the benchmark's checks and input generation.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
check is fed a right value, built here with mpmath and not by robinwall,
and a deliberately wrong one, and must reject only the wrong one.
"""

import math

import mpmath
import pytest

import checks
import workloads


def hard_wall_level(bc: str, n: int, field: float) -> float:
    zero = mpmath.airyaizero(n + 1, derivative=1 if bc == "neumann" else 0)
    return float(-mpmath.mpf(field) ** (mpmath.mpf(2) / 3) * zero)


def robin_plus_level(n: int, field: float) -> float:
    """robin+ level n lies between the neumann and dirichlet levels n."""
    lo, hi = hard_wall_level("neumann", n, field), hard_wall_level("dirichlet", n, field)
    return float(mpmath.findroot(lambda e: checks.determinant("robin+", field, e),
                                 (lo, hi), solver="anderson"))


LEVELS = [
    ("dirichlet", 2, 5.0, hard_wall_level("dirichlet", 2, 5.0)),
    ("neumann", 0, 1e-3, hard_wall_level("neumann", 0, 1e-3)),
    ("robin+", 1, 0.3, robin_plus_level(1, 0.3)),
]


@pytest.mark.parametrize("bc,n,field,energy", LEVELS)
def test_level_check_rejects_shifted_energy(bc, n, field, energy):
    assert checks.level_faults(bc, n, field, energy) == []
    assert checks.level_faults(bc, n, field, energy * (1.0 + 1e-6)) != []


@pytest.mark.parametrize("bc,n,field,energy", LEVELS)
def test_level_check_rejects_level_labelled_n_plus_1(bc, n, field, energy):
    assert checks.level_faults(bc, n + 1, field, energy) != []


def test_position_quadrature_matches_hard_wall_closed_form():
    # For a Dirichlet or Neumann wall I_x = (4/3) E and <x> = -(2/3) E / F.
    for bc, n, field, energy in LEVELS[:2]:
        ref = checks.Profile(field, energy).measures()
        assert math.isclose(ref["I_x"], 4.0 * energy / 3.0, rel_tol=1e-10)
        assert math.isclose(ref["mean_x"], -2.0 * energy / (3.0 * field), rel_tol=1e-10)


def test_table1_check_rejects_cgl_off_by_1e_3():
    assert checks.table1_faults(dict(checks.PAPER_TABLE1)) == []
    table = dict(checks.PAPER_TABLE1)
    cgl_x, cgl_k, product = table[("neumann", 3)]
    table[("neumann", 3)] = (cgl_x, cgl_k + 1e-3, product)
    assert [key for key, _ in checks.table1_faults(table)] == [("neumann", 3)]


def test_position_check_rejects_cgl_off_by_1e_3():
    bc, n, field, energy = LEVELS[0]
    ref = checks.Profile(field, energy).measures()
    cgl_x = math.exp(ref["S_x"]) * ref["O_x"]
    assert checks.position_faults("t", ref, {"CGL_x": cgl_x}) == []
    assert checks.position_faults("t", ref, {"CGL_x": cgl_x + 1e-3}) != []


def test_parallel_check_rejects_two_rows_swapped():
    rows = ["bc,n,field,S_x,error"] + [f"robin-,{n},0.5,{0.1 * n!r}," for n in range(4)]
    serial = "\n".join(rows) + "\n"
    swapped = rows[:]
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert checks.parallel_faults(serial, serial) == []
    assert checks.parallel_faults(serial, "\n".join(swapped) + "\n") != []


def test_same_seed_gives_same_inputs():
    assert workloads.measures_points(7, 0) == workloads.measures_points(7, 0)
    assert workloads.weak_points(7, 0) == workloads.weak_points(7, 0)
    assert workloads.cli_calls(7, 0) == workloads.cli_calls(7, 0)
    assert workloads.measures_points(7, 0) != workloads.measures_points(8, 0)
    assert workloads.measures_points(7, 0) != workloads.measures_points(7, 1)
    assert workloads.weak_points(7, 0) != workloads.weak_points(8, 0)
    assert workloads.cli_calls(7, 0) != workloads.cli_calls(8, 0)


def test_stratified_fields_cover_each_slice_once():
    rng = workloads.round_rng(3, "weak-spectrum", 0)
    fields = workloads.stratified_fields(rng, 1e-7, 1e2, 18)
    slices = [math.floor((math.log10(f) + 7.0) / 0.5) for f in fields]
    assert slices == list(range(18))
