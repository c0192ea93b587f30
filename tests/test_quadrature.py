"""Integration helpers and the cached half-line transform."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import spherical_jn, xlogy

from quadpack_reference import fourier_half_line
from robinwall import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
)
from robinwall.quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    _MAX_SUBDIVISIONS,
    HalfLineFourierTable,
    QuadratureError,
    integrate_batch,
)
from robinwall.states import _X_CUT_THRESHOLD

SQRT2 = math.sqrt(2.0)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def exp_state(x):
    """Unit-norm field-free ground profile on the half-line."""
    return SQRT2 * np.exp(x)


def test_tolerance_config_defaults():
    cfg = DEFAULT_TOLERANCES
    assert cfg.abs_tol == 1e-10
    assert cfg.rel_tol == 1e-10
    assert _MAX_SUBDIVISIONS == 200
    assert _X_CUT_THRESHOLD == 1e-20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"rel_tol": -1e-3},
    ],
)
def test_tolerance_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ToleranceConfig(**kwargs)


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
    st.floats(min_value=-4.0, max_value=-0.5),
)
@settings(max_examples=40, deadline=None)
def test_integrate_polynomials_match_antiderivative(coeffs, a):
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    (val,), _ = integrate_batch(lambda x: [poly(x)], [a, 0.0])
    assert math.isclose(val, anti(0.0) - anti(a), rel_tol=1e-9, abs_tol=1e-9)


def test_kronrod_table_is_the_published_pair():
    # K21 is exact for polynomials up to degree 31 and G10 is the
    # 10-point Gauss-Legendre rule on the odd-indexed nodes.
    for degree in range(32):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert abs(_KRONROD_WEIGHTS @ _KRONROD_NODES ** degree - exact) < 1e-15
    t, w = np.polynomial.legendre.leggauss(10)
    assert np.allclose(_KRONROD_NODES[1::2], t, rtol=0.0, atol=1e-15)
    assert np.allclose(_GAUSS_WEIGHTS[1::2], w, rtol=0.0, atol=1e-15)
    assert not np.any(_GAUSS_WEIGHTS[0::2])


def test_batch_rule_meets_each_components_tolerance():
    # A linear component of size 1.5e4 next to a narrow Lorentzian of size
    # 3.1e-4: a max-norm stop would allow the small one an error of 1.5e-6,
    # 5e-3 of its size.
    x0, width = 0.37, 0.01

    def f(x):
        return np.stack([1e4 * (1.0 + x), 1e-6 / (width ** 2 + (x - x0) ** 2)])

    exact = np.array([1.5e4, 1e-6 / width * (math.atan((1.0 - x0) / width)
                                             + math.atan(x0 / width))])
    assert 1e7 < exact[0] / exact[1] < 1e9
    cfg = ToleranceConfig(abs_tol=1e-30, rel_tol=1e-10)
    values, errors = integrate_batch(f, [0.0, 1.0], cfg)
    assert values.shape == errors.shape == (2,)
    assert np.all(errors <= cfg.rel_tol * np.abs(values))
    assert np.all(np.abs(values - exact) <= cfg.rel_tol * exact)


def test_batch_rule_entropy_integrand_with_interior_node():
    # -rho ln rho with rho = (x - 0.3)^2 e^x has a logarithmic kink at the
    # node x = 0.3: inside the first interval, at an endpoint of the second,
    # and at the breakpoint of the third.
    def rho(x):
        return (x - 0.3) ** 2 * np.exp(x)

    def f(x):
        r = rho(x)
        return np.stack([r, -xlogy(r, r)])

    def entropy(x):
        r = float(rho(x))
        return -r * math.log(r) if r > 0.0 else 0.0

    for points in ([-1.0, 2.0], [0.3, 2.0], [-1.0, 0.3, 2.0]):
        values, _ = integrate_batch(f, points)
        a, b = points[0], points[-1]
        want = quad(entropy, a, b, points=[0.3] if a < 0.3 else None,
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert math.isclose(values[1], want, rel_tol=1e-10)


def test_batch_rule_raises_at_interval_limit():
    cfg = ToleranceConfig(abs_tol=1e-15, rel_tol=1e-15)

    def f(x):
        return np.stack([np.exp(x), 1.0 / (1e-4 + (x - 0.37) ** 2), np.cos(40.0 * x)])

    with pytest.raises(QuadratureError) as info:
        integrate_batch(f, [0.0, 1.0], cfg)
    assert str(info.value).startswith(f"{_MAX_SUBDIVISIONS} intervals left")
    assert np.shape(info.value.estimate) == (3,)
    assert np.all(np.isfinite(info.value.estimate))
    assert math.isfinite(info.value.error_bound)


def test_batch_rule_budget_grows_with_its_first_pieces():
    # 150 first pieces may be bisected 300 times, not just 199.
    cfg = ToleranceConfig(abs_tol=1e-15, rel_tol=1e-15)

    def f(x):
        return np.stack([1.0 / (1e-4 + (x - 0.37) ** 2), np.cos(40.0 * x)])

    with pytest.raises(QuadratureError, match="^450 intervals left"):
        integrate_batch(f, np.linspace(0.0, 1.0, 151), cfg)


def test_batch_rule_stops_at_a_non_finite_sample():
    # Bisection cannot remove a NaN, so the rule names the point at once
    # instead of splitting until its interval limit.
    def f(x):
        return np.stack([np.exp(x), np.where(x > 0.6, np.nan, x)])

    with pytest.raises(QuadratureError, match="not finite at") as info:
        integrate_batch(f, [0.0, 1.0])
    assert 0.6 < float(str(info.value).split()[-1]) < 1.0


@pytest.mark.parametrize("k", [-12.0, -1.3, 0.0, 0.5, 4.0, 50.0])
def test_fourier_of_exponential(k):
    # transform of sqrt(2) e^x is pi^(-1/2) / (1 - ik)
    got = fourier_half_line(exp_state, k, x_cut=-40.0)
    want = INV_SQRT_PI / (1.0 - 1j * k)
    assert abs(got - want) < 1e-10


def test_fourier_table_agrees_with_direct_transform():
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, rate=1.0)
    for k in (0.0, 0.7, 3.3, 17.0, 59.0):
        direct = fourier_half_line(exp_state, k, x_cut=-40.0)
        assert abs(table.transform(k) - direct) < 1e-10


def test_fourier_table_conjugate_symmetry():
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, rate=1.0)
    for k in (0.25, 1.0, 8.0):
        assert table.transform(-k) == table.transform(k).conjugate()


def test_fourier_table_vector_matches_scalar():
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, rate=1.0)
    ks = np.array([[-5.0, -0.5], [0.0, 12.0]])
    many = table.transform_many(ks)
    assert many.shape == ks.shape
    for idx in np.ndindex(ks.shape):
        assert abs(many[idx] - table.transform(float(ks[idx]))) < 1e-14


def test_fourier_table_k_derivative():
    # d/dk of pi^(-1/2)/(1 - ik) is i pi^(-1/2)/(1 - ik)^2.  The 20 panels
    # follow psi, not k, and still hold where exp(-ikx) turns thousands of
    # times per panel.
    table = HalfLineFourierTable(exp_state, x_cut=-40.0, rate=1.0)
    ks = np.array([0.0, 0.9, 6.0, 25.0, 1e3, 1e4])
    phi, dphi = table.transform_pair(ks)
    for k, phi_k, dphi_k in zip(ks, phi, dphi):
        want = 1j * INV_SQRT_PI / (1.0 - 1j * k) ** 2
        assert abs(table.transform_k_derivative(k) - want) < 1e-10
        assert abs(dphi_k - want) < 1e-10
        assert abs(phi_k - INV_SQRT_PI / (1.0 - 1j * k)) < 1e-10


def _polynomial_transform(coeffs, k):
    """Exact (2 pi)^(-1/2) integral over [-2, 0] of p(x) exp(-ikx), 40 digits.

    p(x) = sum_m coeffs[m] (x + 1)^m.  Repeated integration by parts gives
    the antiderivative -exp(-ikx) sum_r p^(r)(x) / (ik)^(r+1).
    """
    with mpmath.workdps(40):
        poly = [mpmath.mpf(c) for c in coeffs]
        if k == 0.0:
            total = sum(c * (1 - (-1) ** (m + 1)) / (m + 1) for m, c in enumerate(poly))
        else:
            ik = 1j * mpmath.mpf(k)

            def antiderivative(x):
                value, deriv = 0, list(poly)
                for r in range(len(poly)):
                    value += mpmath.polyval(deriv[::-1], x + 1) / ik ** (r + 1)
                    deriv = [m * c for m, c in enumerate(deriv)][1:]
                return -mpmath.exp(-ik * x) * value

            total = antiderivative(0) - antiderivative(-2)
        return complex(total / mpmath.sqrt(2 * mpmath.pi))


@pytest.mark.parametrize("k", [0.0, 1.0, 50.0, 1e3])
def test_fourier_table_exact_on_one_panel_polynomials(k):
    # A degree-15 polynomial is its own 16-term Legendre expansion, so a
    # one-panel table (|x_cut| * rate <= 2) transforms it without error.
    coeffs = [0.3, -1.1, 0.7, 0.25, -0.4, 0.05, 0.9, -0.6,
              0.2, 0.33, -0.15, 0.08, -0.27, 0.12, 0.04, -0.02]
    table = HalfLineFourierTable(
        lambda x: np.polynomial.polynomial.polyval(x + 1.0, coeffs), x_cut=-2.0, rate=1.0)
    assert table.node_count == 16
    assert abs(table.transform(k) - _polynomial_transform(coeffs, k)) < 1e-14


def test_spherical_bessel_values_against_high_precision():
    # The table's phase integrals are 2 (-i)^j j_j(|k| h), j <= 15.
    orders = np.arange(16)
    for w in (0.0, 1e-10, 1e-3, 1.0, 40.0, 1e3, 5e4):
        got = spherical_jn(orders, w)
        for j in orders:
            if w == 0.0:
                want = 1.0 if j == 0 else 0.0
            else:
                with mpmath.workdps(50):
                    x = mpmath.mpf(w)
                    want = float(mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(j + 0.5, x))
            assert abs(got[j] - want) <= 1e-15

