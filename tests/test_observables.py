"""Dipole moments: closed forms, quadrature cross-checks, weak- and deep-level couplings."""

import math

import mpmath
import pytest

from reference_routes import dipole_element_quadrature, hellmann_feynman_mean_x
from robin_reference import wall_data as reference_wall_data
from robinwall import spectrum
from robinwall.infomeasures import fisher_position_closed
from robinwall.observables import (
    _coupling,
    dipole_matrix,
    mean_position,
    polarization,
    zero_field_mean_x,
)
from robinwall._airy import airy
from robinwall.special import root_table
from robinwall.spectrum import (
    BoundarySpec,
    BoundState,
    DomainError,
    energy,
    field_roots,
    wall_data,
)
from robinwall.states import build_state, position_integrals

# Nearest-neighbour coordinate couplings at field 1, frozen from a
# 30-digit evaluation of the closed forms.
COUPLING_01_AT_FIELD1 = {
    "dirichlet": 0.653179139522773543253,
    "neumann": 0.471932299685527654708,
    "robin-": 0.270233365988669496586,
}

# Exact ground-to-level-300 coupling of the attractive wall at field
# 0.02, kept as a regression anchor for the deep-level form below.
DEEP_COUPLING_REF = 0.006096846621674892


def test_zero_field_reference_mean():
    assert zero_field_mean_x(BoundarySpec.ROBIN_MINUS, 0) == -0.5
    assert zero_field_mean_x(BoundarySpec.ROBIN_MINUS, 1) == 0.0
    assert zero_field_mean_x(BoundarySpec.DIRICHLET, 0) == 0.0
    assert zero_field_mean_x(BoundarySpec.ROBIN_PLUS, 0) == 0.0


def test_mean_position_three_routes_agree(state_of):
    state = energy("robin-", 0, 1.0)
    closed = mean_position(state)
    assert math.isclose(closed, position_integrals(state_of("robin-", 0, 1.0))[4], rel_tol=1e-9)
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
    assert rec.dipole > 0.0


def test_mean_position_rejects_near_degenerate_normalization():
    z = (1.0 - 1e-13) / 1e-8 ** (2.0 / 3.0)
    psi0, dpsi0, _ = wall_data(z, 0, *airy(z)[:2])
    bad = BoundState(bc=BoundarySpec.ROBIN_MINUS, n=0, field=1e-8, energy=-1.0 + 1e-13,
                     arg0=z, residual=0.0, bracket=(-1.0, -0.9), psi0=psi0, dpsi0=dpsi0)
    with pytest.raises(DomainError, match="normalization"):
        mean_position(bad)


def test_weak_field_ground_mean_is_refused():
    # The closed form cancels here: it used to return -0.5959 where the
    # profile's mean is -0.49999998.
    with pytest.raises(DomainError, match="position_integrals"):
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
    assert abs(closed - position_integrals(build_state("robin-", 0, field))[4]) < 1e-6


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
    for bc in ("dirichlet", "neumann", "robin-", "robin+"):
        closed = dipole_matrix(bc, 1.0, 2).element(0, 1)
        direct = dipole_element_quadrature(state_of(bc, 0, 1.0), state_of(bc, 1, 1.0))
        assert math.isclose(direct, closed, rel_tol=1e-9), bc


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


@pytest.mark.parametrize("field", [1e-7, 1e-3, 1.0, 1e3])
def test_hard_wall_couplings_are_the_zero_table_closed_forms(field):
    # Dirichlet: 2 F^(-1/3) / (a_n - a_m)^2 from the zero table, bit for
    # bit.  Neumann: -(a'_n + a'_m) F^(-1/3) / (sqrt(a'_n a'_m) (a'_n -
    # a'_m)^2) at the table zeros, in 50-digit mpmath with F^(-1/3) as
    # rounded; the wall-data form is within 2.3 ulp of it (the form in the
    # zeros, which it replaced, within 1.5 ulp) and 2 ulp from that form.
    size = 6
    table = root_table(size)
    f_m13 = 1.0 / field_roots(field)[0]
    dirichlet = dipole_matrix("dirichlet", field, size)
    neumann = dipole_matrix("neumann", field, size)
    for n in range(size):
        for m in range(n + 1, size):
            an, am = table.ai_zero(n + 1), table.ai_zero(m + 1)
            assert dirichlet.element(n, m) == 2.0 * f_m13 / (an - am) ** 2
            zn, zm = mpmath.mpf(table.ai_prime_zero(n + 1)), mpmath.mpf(table.ai_prime_zero(m + 1))
            with mpmath.workdps(50):
                want = -(zn + zm) * f_m13 / (mpmath.sqrt(zn * zm) * (zn - zm) ** 2)
            got = neumann.element(n, m)
            assert abs(got - want) <= 3.0 * math.ulp(got), (n, m)


def test_ground_coupling_low_branch():
    # While the partner level's Airy scale |a_2| F^(2/3) is far below the
    # surface-state binding, the ground-to-first coupling is sqrt(2 F).
    exact = dipole_matrix("robin-", 1e-4, 2).element(0, 1)
    assert math.isclose(math.sqrt(2e-4), exact, rel_tol=0.05)


def test_ground_coupling_high_branch():
    # Far above it the coupling to level n is sqrt(-2 / a^3) / sqrt(F),
    # a = a_(n+1).  That form approaches the exact coupling only as 1/E of
    # the partner level, so the comparison tolerance stays loose.
    field = 0.02
    a_next = root_table(301).ai_zero(301)
    exact = dipole_matrix("robin-", field, 301).element(0, 300)
    assert math.isclose(exact, DEEP_COUPLING_REF, rel_tol=1e-10)
    deep = math.sqrt(-2.0 / a_next ** 3) / math.sqrt(field)
    assert math.isclose(deep, exact, rel_tol=0.25)


@pytest.mark.parametrize("z,n", [(3.0, 0), (0.5, 1), (-2.0, 2), (-7.5, 3)])
def test_mean_and_slope_forms_are_the_airy_antiderivatives(z, n):
    # For the profile Ai(z + u) / N at any z, level or not (Albright 1977),
    # <u> = (p d - 2 z) / 3 and the slope integral is (2 p d - z) / 3 in
    # Airy units, with d^2 - z p^2 = 1.  30-digit quadrature.
    with mpmath.workdps(30):
        zz = mpmath.mpf(z)
        p, d = reference_wall_data(z, n, dps=30)
        norm = mpmath.airyai(zz) / p
        nodes = [0, max(-z, 0) + 1, mpmath.inf]
        mean_u = mpmath.quad(lambda u: u * mpmath.airyai(zz + u) ** 2, nodes) / norm ** 2
        slope = mpmath.quad(lambda u: mpmath.airyai(zz + u, derivative=1) ** 2, nodes) / norm ** 2
        assert abs(d * d - zz * p * p - 1) < 1e-25
        assert abs(mean_u - (p * d - 2 * zz) / 3) < 1e-25
        assert abs(slope - (2 * p * d - zz) / 3) < 1e-25


@pytest.mark.parametrize("bc,n,m,field", [("dirichlet", 1, 4, 0.3), ("neumann", 0, 2, 5.0),
                                          ("robin-", 0, 3, 1.0), ("robin+", 1, 2, 0.1)])
def test_coupling_form_is_the_airy_antiderivative(bc, n, m, field):
    # Two levels of one wall share its condition, so their wall data are
    # proportional, and <n|x|m> = -F^(-1/3) times the integral of
    # u psi~_n psi~_m closes on them.  30-digit quadrature at the solved
    # z0, where the wall condition holds to rounding.
    a, b = energy(bc, n, field), energy(bc, m, field)
    with mpmath.workdps(30):
        z, w = mpmath.mpf(a.arg0), mpmath.mpf(b.arg0)
        p, _ = reference_wall_data(a.arg0, n, dps=30)
        q, _ = reference_wall_data(b.arg0, m, dps=30)
        nodes = [0, max(-a.arg0, -b.arg0, 0) + 1, mpmath.inf]
        cross = mpmath.quad(lambda u: u * mpmath.airyai(z + u) * mpmath.airyai(w + u), nodes)
        want = -cross * p * q / (mpmath.airyai(z) * mpmath.airyai(w) * mpmath.cbrt(field))
    assert math.isclose(dipole_matrix(bc, field, m + 1).element(n, m), want, rel_tol=1e-12)


FIFTY_DIGIT_GRID = [(bc, n, field) for bc in ("dirichlet", "neumann", "robin-", "robin+")
                    for n in (0, 1, 3, 30) for field in (1e-6, 1e-3, 1.0, 1e3, 1e6)]


def _kappa(p, d, z):
    return d * d + abs(z) * p * p


@pytest.mark.parametrize("bc,n,field", FIFTY_DIGIT_GRID)
def test_closed_forms_against_fifty_digits(bc, n, field):
    # <x>, I_x and <n|x|n+1> against the same forms in 50-digit mpmath at
    # the solved z0, F as given.  Each stays within the rounding bound of
    # wall_closed_form, c eps kappa (|p d| + |z0|) |scale| with c =
    # _CANCELLATION_EPS (c eps (kappa_n + kappa_m) times the sum of the
    # absolute terms for a coupling): a few ulps where kappa = 1, that is
    # wherever z0 <= 0.  Measured: at most 3.3 of eps kappa (...) on this
    # grid.  Where the bound passes 1e-6 of the value (robin- n = 0 at
    # F = 1e-6 for <x>), the value is refused by name, never returned.
    a, b = energy(bc, n, field), energy(bc, n + 1, field)
    with mpmath.workdps(50):
        f13 = mpmath.cbrt(mpmath.mpf(field))
        z, w = mpmath.mpf(a.arg0), mpmath.mpf(b.arg0)
        p, d = reference_wall_data(a.arg0, n)
        q, e = reference_wall_data(b.arg0, n + 1)
        c_eps = spectrum._CANCELLATION_EPS * spectrum._EPS
        kappa = _kappa(a.psi0, a.dpsi0, a.arg0)
        terms = kappa * (abs(a.psi0 * a.dpsi0) + abs(a.arg0))
        for closed, want, scale in (
                (mean_position, (2 * z - p * d) / (3 * f13), 1 / (3 * f13)),
                (fisher_position_closed, 4 * f13 ** 2 * (2 * p * d - z) / 3, 4 * f13 ** 2 / 3)):
            bound = c_eps * terms * scale
            if bound > 1e-6 * max(1, abs(want)):
                with pytest.raises(DomainError, match="normalization"):
                    closed(a)
            else:
                assert abs(closed(a) - want) <= bound, closed.__name__
        want = (2 * d * e - (z + w) * p * q) / (f13 * (z - w) ** 2)
        sizes = (2 * abs(a.dpsi0 * b.dpsi0) + abs(a.arg0 + b.arg0) * abs(a.psi0 * b.psi0))
        bound = c_eps * (kappa + _kappa(b.psi0, b.dpsi0, b.arg0)) * sizes / (
            f13 * (a.arg0 - b.arg0) ** 2)
        assert abs(_coupling(a, b, 1.0 / field_roots(field)[0]) - want) <= bound

