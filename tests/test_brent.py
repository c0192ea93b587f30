"""The in-house Brent solver against scipy's brentq, step for step, and the pinned Robin levels."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import airy, airye

from robinwall.spectrum import (
    _RTOL,
    BoundarySpec,
    brent_root,
    energy,
    zero_energy_field_solved,
)

EPS = 2.220446049250313e-16


def outcome(solver, f, a, b, **kw):
    """(root as hex, or the exception type raised; every abscissa tried, as hex)."""
    calls = []

    def logged(x):
        calls.append(float(x).hex())
        return f(x)

    try:
        result = float(solver(logged, a, b, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        result = type(exc)
    return result, calls


def assert_same_steps(f, a, b, **kw):
    assert outcome(brent_root, f, a, b, **kw) == outcome(brentq, f, a, b, **kw)


FUNCTIONS = [
    ("cubic", lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    # brentq stops at maxiter here for all but the widest xtol.
    ("triple root", lambda x: (x - 1.0) ** 3, 0.0, 3.0),
    ("flat cubic", lambda x: x ** 3 - 1e-9, -1.0, 2.0),
    ("kepler", lambda x: x - 0.9 * math.sin(x) - 0.3, 0.0, 4.0),
    ("cos fixed point", lambda x: math.cos(x) - x, 0.0, 1.0),
    ("exponential", lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    ("logarithm", math.log, 0.5, 7.0),
    ("steep arctan", lambda x: math.atan(1e6 * (x - 0.3)), -2.0, 3.0),
    ("root at zero", lambda x: math.sinh(x), -1.0, 2.5),
    ("decreasing", lambda x: math.exp(-x) - x * x, 0.0, 2.0),
]


@pytest.mark.parametrize("tol", [{}, {"xtol": 1e-14, "rtol": 4.0 * EPS},
                                 {"xtol": 1e-3}, {"xtol": 1e-10, "rtol": 1e-12}])
@pytest.mark.parametrize("name,f,a,b", FUNCTIONS, ids=[row[0] for row in FUNCTIONS])
def test_matches_brentq_on_a_function_family(name, f, a, b, tol):
    assert_same_steps(f, a, b, **tol)
    assert_same_steps(f, b, a, **tol)


@settings(max_examples=200, deadline=None)
@given(c0=st.floats(-5.0, 5.0), c1=st.floats(-5.0, 5.0), c2=st.floats(-5.0, 5.0),
       lo=st.floats(-20.0, -1.0), hi=st.floats(1.0, 20.0))
def test_matches_brentq_on_random_cubics(c0, c1, c2, lo, hi):
    def f(x):
        return ((x + c2) * x + c1) * x + c0

    if f(lo) * f(hi) < 0.0:
        assert_same_steps(f, lo, hi)


def robin_determinant_in_energy(bc, field):
    """E -> F^(1/3) Ai'(z) + sigma Ai(z) at z = -E / F^(2/3), times e^((2/3) z^(3/2)) above z = 8."""
    f13 = field ** (1.0 / 3.0)
    f23 = field ** (2.0 / 3.0)

    def determinant(e):
        z = -e / f23
        ai, aip, _, _ = (airye if z > 8.0 else airy)(z)
        return float(f13 * aip + bc.wall_slope * ai)

    return determinant


@pytest.mark.parametrize("field", [1e-7, 3.9e-4, 0.5, 2.58, 70.0, 1e6, 1e30])
@pytest.mark.parametrize("n", [0, 1, 5, 30])
@pytest.mark.parametrize("bc", [BoundarySpec.ROBIN_MINUS, BoundarySpec.ROBIN_PLUS])
def test_matches_brentq_on_the_robin_determinant(bc, n, field):
    lo, hi = energy(bc, n, field).bracket
    assert_same_steps(robin_determinant_in_energy(bc, field), lo, hi,
                      xtol=1e-14, rtol=_RTOL)


def test_same_end_signs_raise_value_error():
    with pytest.raises(ValueError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)


@pytest.mark.parametrize("tol", [{"xtol": 0.0}, {"xtol": -1.0}, {"rtol": 1e-20}])
def test_bad_tolerances_raise_as_brentq_does(tol):
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.3

    with pytest.raises(ValueError) as want:
        brentq(f, 0.0, 1.0, **tol)
    with pytest.raises(ValueError) as got:
        brent_root(f, 0.0, 1.0, **tol)
    assert str(got.value) == str(want.value)
    assert calls == []


def test_exact_zero_at_an_end_point_is_returned():
    assert brent_root(lambda x: x - 1.0, 1.0, 5.0) == 1.0
    assert brent_root(lambda x: x - 5.0, 1.0, 5.0) == 5.0
    calls = []
    assert brent_root(lambda x: calls.append(x) or (x - 2.0) * (x + 3.0), -3.0, 0.0) == -3.0
    assert calls == [-3.0, 0.0]


def test_step_limit_raises_runtime_error():
    def f(x):
        return math.atan(1e6 * (x - 0.3))

    with pytest.raises(RuntimeError):
        brentq(f, -2.0, 3.0, maxiter=3)
    with pytest.raises(RuntimeError, match="3 steps"):
        brent_root(f, -2.0, 3.0, maxiter=3)


# Solver outputs of the Newton iteration in the wall argument.  Against
# 50-digit mpmath roots they are 13.3, 0.09, 2.75, 0.22, 2.16 and 2.69 ulp
# of E off; the robin- ground level at F = 1 sits inside its certified
# Airy rounding band, 420 ulp wide.
PINNED = [
    ("robin-", 0, 1.0, -0.5668914710322317),
    ("robin+", 0, 1.0, 1.6476194134893578),
    ("robin-", 3, 0.0001, 0.011993289496990097),
    ("robin+", 7, 250.0, 418.3879623276969),
    ("robin-", 0, 1e-08, -0.9999999950000003),
    ("robin+", 40, 300000.0, 147941.39401149022),
]


@pytest.mark.parametrize("bc,n,field,want", PINNED)
def test_robin_energies_are_pinned(bc, n, field, want):
    assert repr(energy(bc, n, field).energy) == repr(want)


def test_zero_energy_field_solved_is_pinned():
    assert repr(zero_energy_field_solved()) == "2.5810565398404655"
