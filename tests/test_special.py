"""Airy evaluation layer and the negative-zero tables."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinwall import airy_root, asymptotic_zero, root_table
from robinwall.special import (
    AIRY_ARG_MAX,
    SCALE_SWITCH,
    ZERO_OF_AI,
    ZERO_OF_AI_PRIME,
    build_root_table,
    gamma_fn,
    scaled_airy,
)

# Reference values computed with mpmath at 30 significant digits.
AIRY_SAMPLES = [
    (-5.5, 0.017781541276574975603, 0.864197217771398390772),
    (-2.0, 0.227407428201685575992, 0.618259020741691041406),
    (-0.5, 0.475728091610539588799, -0.204081670339547386145),
    (0.0, 0.35502805388781723926, -0.258819403792806798405),
    (0.5, 0.231693606480833489769, -0.224910532664683893136),
    (2.0, 0.0349241304232743791353, -0.053090384433653631704),
    (6.0, 9.94769436025288957024e-06, -2.47652003970349547542e-05),
    (25.0, 8.11602682469138668376e-38, -4.06608933724328100532e-37),
    (40.0, 6.36574265855291490957e-75, -4.03001797760067804229e-74),
]

AI_ZEROS = [
    -2.33810741045976703849,
    -4.08794944413097061664,
    -5.52055982809555105913,
    -6.78670809007175899878,
    -7.94413358712085312314,
    -9.02265085334098038016,
    -10.0401743415580859306,
    -11.0085243037332628932,
]

AI_PRIME_ZEROS = [
    -1.01879297164747108902,
    -3.24819758217983653788,
    -4.8200992111787356394,
    -6.16330735563948654764,
    -7.37217725504777017709,
    -8.48848673401972213288,
    -9.5354490524335474707,
    -10.527660396957407282,
]


@pytest.mark.parametrize("x,ai_ref,aip_ref", AIRY_SAMPLES)
def test_airy_against_high_precision_reference(x, ai_ref, aip_ref):
    ai, aip, s = scaled_airy(x)
    assert s == (0.0 if x <= SCALE_SWITCH else (2.0 / 3.0) * x ** 1.5)
    assert math.isclose(ai * math.exp(-s), ai_ref, rel_tol=5e-13)
    assert math.isclose(aip * math.exp(-s), aip_ref, rel_tol=5e-13)


def test_scaled_airy_past_airye_range():
    # scipy's airye turns NaN from AIRY_ARG_MAX on; the helper reports 0
    # there, with a finite exponent, and keeps the leading asymptote
    # Ai(z) e^s ~ 1 / (2 sqrt(pi) z^(1/4)) just below it.
    ai, aip, s = scaled_airy([AIRY_ARG_MAX * (1.0 - 1e-9), AIRY_ARG_MAX, 1e30])
    assert math.isclose(ai[0], 0.5 / (math.sqrt(math.pi) * AIRY_ARG_MAX ** 0.25), rel_tol=1e-6)
    assert list(ai[1:]) == [0.0, 0.0]
    assert list(aip[1:]) == [0.0, 0.0]
    assert all(math.isfinite(v) for v in s)


def test_airy_rejects_non_finite():
    with pytest.raises(ValueError):
        scaled_airy(float("nan"))
    with pytest.raises(ValueError):
        scaled_airy([0.0, float("inf")])


def test_gamma_fn_halves_and_integers():
    assert math.isclose(gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-14)
    assert math.isclose(gamma_fn(5.0), 24.0, rel_tol=1e-14)


def test_zero_tables_match_reference():
    table = root_table(8)
    for k, ref in enumerate(AI_ZEROS, start=1):
        assert math.isclose(table.ai_zero(k), ref, rel_tol=1e-14)
    for k, ref in enumerate(AI_PRIME_ZEROS, start=1):
        assert math.isclose(table.ai_prime_zero(k), ref, rel_tol=1e-14)


def test_zero_residuals_polished():
    # Polished roots satisfy the defining equations essentially to rounding.
    table = root_table(40)
    for k in (1, 5, 17, 40):
        assert abs(scaled_airy(table.ai_zero(k))[0]) < 5e-12
        assert abs(scaled_airy(table.ai_prime_zero(k))[1]) < 5e-12


def test_zero_interlacing():
    # a'_1 > a_1 > a'_2 > a_2 > ... strictly, all negative.
    table = root_table(30)
    for k in range(1, 30):
        assert table.ai_prime_zero(k) > table.ai_zero(k)
        assert table.ai_zero(k) > table.ai_prime_zero(k + 1)
        assert table.ai_zero(k) < 0.0


def test_spacing_positive_and_decreasing():
    table = root_table(30)
    gaps = [table.spacing(k) for k in range(1, 29)]
    assert all(g > 0 for g in gaps)
    # zeros bunch together as the index grows
    assert gaps[-1] < gaps[0]


def test_airy_root_front_end():
    assert airy_root(ZERO_OF_AI, 3) == root_table(3).ai_zero(3)
    assert airy_root(ZERO_OF_AI_PRIME, 2) == root_table(2).ai_prime_zero(2)
    with pytest.raises(ValueError):
        airy_root(ZERO_OF_AI, 0)
    with pytest.raises(ValueError):
        airy_root("bogus", 1)


def test_table_grows_on_demand():
    small = root_table(4)
    big = root_table(small.count + 10)
    assert big.count >= small.count + 10
    assert math.isclose(big.ai_zero(1), AI_ZEROS[0], rel_tol=1e-14)


def test_build_root_table_rejects_bad_count():
    with pytest.raises(ValueError):
        build_root_table(0)


@given(st.integers(min_value=8, max_value=200))
@settings(max_examples=30, deadline=None)
def test_asymptotic_seed_close_to_polished(n):
    table = root_table(200)
    seed = asymptotic_zero(ZERO_OF_AI, n)
    assert abs(seed - table.ai_zero(n)) < 1e-6
    seed_p = asymptotic_zero(ZERO_OF_AI_PRIME, n)
    assert abs(seed_p - table.ai_prime_zero(n)) < 1e-6
