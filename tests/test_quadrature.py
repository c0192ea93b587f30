"""Integration helpers, the cached half-line transform, and the k-space tail."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinwall import (
    DEFAULT_TOLERANCES,
    HalfLineFourierTable,
    MomentumTail,
    TailRangeError,
    ToleranceConfig,
    fourier_half_line,
    integrate,
)
from robinwall.quadrature import MIN_TAIL_K, integrate_full

SQRT2 = math.sqrt(2.0)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def exp_state(x):
    """Unit-norm field-free ground profile on the half-line."""
    return SQRT2 * np.exp(x)


def test_tolerance_config_defaults():
    cfg = DEFAULT_TOLERANCES
    assert cfg.abs_tol == 1e-10
    assert cfg.rel_tol == 1e-10
    assert cfg.max_subdivisions == 200


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"rel_tol": -1e-3},
        {"max_subdivisions": 0},
        {"x_cut_threshold": 0.0},
        {"k_tail_switch": 0.0},
    ],
)
def test_tolerance_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ToleranceConfig(**kwargs)


def test_integrate_gaussian():
    val = integrate(lambda x: math.exp(-x * x), -math.inf, math.inf)
    assert math.isclose(val, math.sqrt(math.pi), rel_tol=1e-12)


def test_integrate_full_reports_error_bound():
    val, err = integrate_full(lambda x: math.exp(2 * x), -math.inf, 0.0)
    assert math.isclose(val, 0.5, rel_tol=1e-12)
    assert 0 <= err < 1e-8


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
    st.floats(min_value=-4.0, max_value=-0.5),
)
@settings(max_examples=40, deadline=None)
def test_integrate_polynomials_match_antiderivative(coeffs, a):
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    val = integrate(poly, a, 0.0)
    assert math.isclose(val, anti(0.0) - anti(a), rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("k", [-12.0, -1.3, 0.0, 0.5, 4.0, 50.0])
def test_fourier_of_exponential(k):
    # transform of sqrt(2) e^x is pi^(-1/2) / (1 - ik)
    got = fourier_half_line(exp_state, k, x_cut=-40.0)
    want = INV_SQRT_PI / (1.0 - 1j * k)
    assert abs(got - want) < 1e-10


def test_fourier_table_agrees_with_direct_transform():
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, k_max=60.0)
    for k in (0.0, 0.7, 3.3, 17.0, 59.0):
        direct = fourier_half_line(exp_state, k, x_cut=-40.0)
        assert abs(table.transform(k) - direct) < 1e-10


def test_fourier_table_conjugate_symmetry():
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, k_max=30.0)
    for k in (0.25, 1.0, 8.0):
        assert table.transform(-k) == table.transform(k).conjugate()


def test_fourier_table_vector_matches_scalar():
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, k_max=30.0)
    ks = np.array([[-5.0, -0.5], [0.0, 12.0]])
    many = table.transform_many(ks)
    assert many.shape == ks.shape
    for idx in np.ndindex(ks.shape):
        assert abs(many[idx] - table.transform(float(ks[idx]))) < 1e-14


def test_fourier_table_k_derivative():
    # d/dk of pi^(-1/2)/(1 - ik) is i pi^(-1/2)/(1 - ik)^2
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, k_max=30.0)
    for k in (0.0, 0.9, 6.0, 25.0):
        want = 1j * INV_SQRT_PI / (1.0 - 1j * k) ** 2
        assert abs(table.transform_k_derivative(k) - want) < 1e-10


def test_momentum_tail_from_field_free_boundary():
    # With psi(0) = psi'(0) = sqrt(2) and E = -1 the scaled density
    # 2*pi*k^2*gamma expands as 2 - 2/k^2 + 2/k^4.
    tail = MomentumTail.from_boundary(SQRT2, SQRT2, -1.0, 0.0)
    assert math.isclose(tail.a2, 2.0, rel_tol=1e-14)
    assert math.isclose(tail.a4, -2.0, rel_tol=1e-14)
    assert math.isclose(tail.a6, 2.0, rel_tol=1e-14)
    k = 35.0
    exact = (1.0 / math.pi) / (1.0 + k * k)
    assert math.isclose(tail.density(k), exact, rel_tol=2e-9)


def test_momentum_tail_probability_matches_quadrature():
    tail = MomentumTail.from_boundary(SQRT2, SQRT2, -1.0, 0.0)
    k0 = 50.0
    direct = 2.0 * integrate(tail.density, k0, math.inf)
    assert math.isclose(tail.probability_beyond(k0), direct, rel_tol=1e-10)


def test_momentum_tail_onicescu_closed_form():
    tail = MomentumTail.from_boundary(SQRT2, SQRT2, -1.0, 0.0)
    k0 = 60.0
    direct = 2.0 * integrate(lambda k: tail.density(k) ** 2, k0, math.inf)
    assert math.isclose(tail.onicescu_beyond(k0), direct, rel_tol=1e-9)


def test_momentum_tail_fisher_and_entropy_consistency():
    tail = MomentumTail.from_boundary(SQRT2, SQRT2, -1.0, 0.0)
    k0 = 40.0
    ent_direct = -2.0 * integrate(
        lambda k: tail.density(k) * math.log(tail.density(k)), k0, math.inf
    )
    assert math.isclose(tail.entropy_beyond(k0), ent_direct, rel_tol=1e-8)
    fis_direct = 2.0 * integrate(
        lambda k: tail.density_k_derivative(k) ** 2 / tail.density(k), k0, math.inf
    )
    assert math.isclose(tail.fisher_beyond(k0), fis_direct, rel_tol=1e-8)


def test_momentum_tail_self_consistent_against_exact_density():
    # Beyond the switch the three-term model tracks the exact field-free
    # density closely enough that integrated quantities agree to 1e-8.
    tail = MomentumTail.from_boundary(SQRT2, SQRT2, -1.0, 0.0)
    k0 = 200.0
    exact = 2.0 * integrate(lambda k: (1.0 / math.pi) / (1.0 + k * k), k0, math.inf)
    assert math.isclose(tail.probability_beyond(k0), exact, rel_tol=1e-8)


def test_tail_switch_floor():
    tail = MomentumTail.from_boundary(SQRT2, SQRT2, -1.0, 0.0)
    with pytest.raises(TailRangeError):
        tail.probability_beyond(MIN_TAIL_K / 2)

