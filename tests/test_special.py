"""Airy evaluation layer and the negative-zero tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinwall import root_table
from robinwall._airy import AIRY_ARG_MAX, SCALE_SWITCH, airy, zero_seeds
from robinwall.special import build_root_table

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
    ai, aip, s = airy(x)
    assert s == (0.0 if x <= SCALE_SWITCH else (2.0 / 3.0) * x ** 1.5)
    assert math.isclose(ai * math.exp(-s), ai_ref, rel_tol=5e-13)
    assert math.isclose(aip * math.exp(-s), aip_ref, rel_tol=5e-13)


def test_scaled_airy_past_airye_range():
    # The helper reports 0 from AIRY_ARG_MAX on, with a finite exponent,
    # and keeps the leading asymptote
    # Ai(z) e^s ~ 1 / (2 sqrt(pi) z^(1/4)) just below it.
    ai, aip, s = airy([AIRY_ARG_MAX * (1.0 - 1e-9), AIRY_ARG_MAX, 1e30])
    assert math.isclose(ai[0], 0.5 / (math.sqrt(math.pi) * AIRY_ARG_MAX ** 0.25), rel_tol=1e-6)
    assert list(ai[1:]) == [0.0, 0.0]
    assert list(aip[1:]) == [0.0, 0.0]
    assert all(math.isfinite(v) for v in s)


def test_airy_rejects_non_finite():
    with pytest.raises(ValueError):
        airy(float("nan"))
    with pytest.raises(ValueError):
        airy([0.0, float("inf")])


def _scalar_path_arguments():
    rng = np.random.default_rng(20)
    edges = [SCALE_SWITCH, AIRY_ARG_MAX]
    return np.concatenate([
        rng.uniform(-1e4, SCALE_SWITCH, 5000),
        SCALE_SWITCH * np.exp(rng.uniform(0.0, math.log(2.0 ** 21 / SCALE_SWITCH), 5000)),
        [-1e4, 0.0, 2.0 ** 21]
        + [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)] + edges,
    ])


def test_scalar_path_matches_array_path_bit_for_bit():
    # A scalar runs as Python floats instead of the masked array path.  The
    # pair must be the array path's element exactly; s is libm pow, and
    # NumPy's array power can miss it by 1 ulp of z^(3/2), up to 2 ulp of s.
    z = _scalar_path_arguments()
    ai, aip, s = airy(z)
    for i, x in enumerate(z.tolist()):
        got = airy(x)
        assert [v.hex() for v in got[:2]] == [ai[i].hex(), aip[i].hex()], x
        ref = (2.0 / 3.0) * math.pow(x, 1.5) if x > SCALE_SWITCH else 0.0
        assert got[2].hex() == ref.hex(), x
        assert abs(got[2] - s[i]) <= 2.0 * math.ulp(s[i]), x


@pytest.mark.parametrize("z", [
    2.5, 3, np.float64(2.5), np.int64(3), np.array(2.5), np.float64(40.0), np.array(2.0 ** 21),
], ids=["float", "int", "float64", "int64", "0-d", "float64-deep", "0-d-past"])
def test_scalar_inputs_give_three_python_floats(z):
    got = airy(z)
    assert len(got) == 3
    assert all(type(v) is float for v in got)
    ref = airy(np.atleast_1d(np.asarray(z, dtype=float)))
    assert [v.hex() for v in got[:2]] == [float(r[0]).hex() for r in ref[:2]]


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                               np.array(math.inf)])
def test_scalar_non_finite_raises(z):
    with pytest.raises(ValueError, match="finite"):
        airy(z)


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
        assert abs(airy(table.ai_zero(k))[0]) < 5e-12
        assert abs(airy(table.ai_prime_zero(k))[1]) < 5e-12


def test_zero_interlacing():
    # a'_1 > a_1 > a'_2 > a_2 > ... strictly, all negative.
    table = root_table(30)
    for k in range(1, 30):
        assert table.ai_prime_zero(k) > table.ai_zero(k)
        assert table.ai_zero(k) > table.ai_prime_zero(k + 1)
        assert table.ai_zero(k) < 0.0


def test_spacing_positive_and_decreasing():
    table = root_table(30)
    gaps = [table.ai_zero(k) - table.ai_zero(k + 1) for k in range(1, 29)]
    assert all(g > 0 for g in gaps)
    # zeros bunch together as the index grows
    assert gaps[-1] < gaps[0]


def test_airy_root_front_end():
    table = root_table(3)
    assert table.ai_zero(3) == float(table.a[2])
    assert table.ai_prime_zero(2) == float(table.a_prime[1])
    with pytest.raises(ValueError):
        table.ai_zero(0)
    with pytest.raises(ValueError):
        table.ai_prime_zero(table.count + 1)


def test_table_grows_on_demand():
    small = root_table(4)
    big = root_table(small.count + 10)
    assert big.count >= small.count + 10
    assert math.isclose(big.ai_zero(1), AI_ZEROS[0], rel_tol=1e-14)


def test_table_builds_past_three_thousand_zeros():
    # A table doubles as it grows, so one that holds 1,608 zeros (after
    # level 1000 of a Robin wall) builds 3,216 on its next request.  There
    # the asymptotic series is exact to rounding.
    table = build_root_table(3216)
    seeds_a, seeds_ap = zero_seeds(3216)
    for n in (1000, 3000, 3216):
        assert math.isclose(table.ai_zero(n), seeds_a[n - 1], rel_tol=1e-14)
        assert math.isclose(table.ai_prime_zero(n), seeds_ap[n - 1], rel_tol=1e-14)


def test_build_root_table_rejects_bad_count():
    with pytest.raises(ValueError):
        build_root_table(0)


@given(st.integers(min_value=8, max_value=200))
@settings(max_examples=30, deadline=None)
def test_asymptotic_seed_close_to_polished(n):
    table = root_table(200)
    seeds_a, seeds_ap = zero_seeds(n)
    assert abs(seeds_a[-1] - table.ai_zero(n)) < 1e-6
    assert abs(seeds_ap[-1] - table.ai_prime_zero(n)) < 1e-6
