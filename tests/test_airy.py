"""The package's Airy evaluator against 50-digit mpmath, its centre table and its zero seeds."""

import math

import mpmath
import numpy as np
import pytest

import airy_centres
from robinwall import _airy, root_table

# Largest error on each range, in ulps of the scaled value Ai(z) e^s
# (s = (2/3) z^(3/2) above 8, 0 below) for z >= 0, and in ulps of the
# modulus M = |Ai + i Bi| (N = |Ai' + i Bi'| for Ai') for z < 0.  Measured
# on 2,500 random points per range: at most 1.3 on [-10, 12], 2.9 beyond.
# scipy's AMOS values on the same points: 93 on [0, 4], 31 on [-10, -5],
# 280 on [-40, -35] and 7e8 past -1024.
AIRY_BOUNDS = [
    ((-2.0 ** 20, -1024.0), 4.0),
    ((-1024.0, -40.0), 4.0),
    ((-40.0, -35.0), 4.0),
    ((-35.0, -10.0), 4.0),
    ((-10.0, -5.0), 2.0),
    ((-5.0, 0.0), 2.0),
    ((0.0, 4.0), 2.0),
    ((4.0, 8.0), 2.0),
    ((8.0, 12.0), 2.0),
    ((12.0, 14.0), 4.0),
    ((14.0, 1024.0), 4.0),
    ((1024.0, 2.0 ** 20), 4.0),
]


def _grid(lo: float, hi: float, count: int = 48) -> list:
    """The double above lo and count points over (lo, hi], geometric where the range spans decades.

    The ends of the ranges include every switch of the evaluator, so both
    sides of each switch are checked.
    """
    if lo < 0.0 and hi < 0.0 and lo / hi > 100.0:
        inner = -np.geomspace(-lo, -hi, count + 1)[1:]
    elif lo > 0.0 and hi / lo > 100.0:
        inner = np.geomspace(lo, hi, count + 1)[1:]
    else:
        inner = np.linspace(lo, hi, count + 1)[1:]
    return [math.nextafter(lo, math.inf)] + inner.tolist()


def _reference(z: float) -> tuple:
    """(Ai e^s, Ai' e^s) and the sizes their ulps are taken of, at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(z)
        ai, aip = mpmath.airyai(x), mpmath.airyai(x, 1)
        if z > _airy.SCALE_SWITCH:
            scale = mpmath.exp(2 * x ** 1.5 / 3)
            ai, aip = ai * scale, aip * scale
        if z >= 0.0:
            return (ai, aip), (abs(ai), abs(aip))
        sizes = (mpmath.sqrt(ai ** 2 + mpmath.airybi(x) ** 2),
                 mpmath.sqrt(aip ** 2 + mpmath.airybi(x, 1) ** 2))
        return (ai, aip), sizes


@pytest.mark.parametrize("span,bound", AIRY_BOUNDS,
                         ids=[f"{lo:g}:{hi:g}" for (lo, hi), _ in AIRY_BOUNDS])
def test_airy_against_fifty_digits(span, bound):
    zs = _grid(*span)
    arrays = _airy.airy(np.array(zs))
    for i, z in enumerate(zs):
        got = _airy.airy(z)
        assert got == (arrays[0][i], arrays[1][i]), z
        refs, sizes = _reference(z)
        for value, ref, size in zip(got, refs, sizes):
            assert abs(value - ref) <= bound * math.ulp(float(size)), z


# Largest relative error of the two valley values, in eps, on 1,500 random
# points per range of eps up to 1e6: 2.04.  scipy's complex airye, which
# carried the phase e^(i zeta) itself, reached 3.7e8 there.
VALLEY_SPANS = [(0.0, 1.0), (1.0, 10.0), (10.0, 12.0), (12.0, 100.0), (100.0, 1e4), (1e4, 1e6)]


@pytest.mark.parametrize("span", VALLEY_SPANS, ids=[f"{lo:g}:{hi:g}" for lo, hi in VALLEY_SPANS])
def test_valley_against_fifty_digits(span):
    for eps in [span[0]] + _grid(*span, count=24):
        with mpmath.workdps(50):
            rot = mpmath.expjpi(mpmath.mpf(1) / 3)
            x = mpmath.mpf(eps)
            phase = mpmath.expj(2 * x ** 1.5 / 3)
            refs = (rot * mpmath.airyai(x * rot) * phase,
                    rot * rot * mpmath.airyai(x * rot, 1) * phase)
        for value, ref in zip(_airy.valley(eps), refs):
            assert abs(value - ref) <= 3.0 * 2.0 ** -52 * abs(ref), eps


def test_centre_table_regenerates_bit_for_bit():
    # The committed table is the generator's output, character for
    # character, so every centre value is its 30-digit value rounded once.
    assert airy_centres.render() == airy_centres.TARGET.read_text()


def test_zero_table_is_rounded_from_fifty_digits():
    # Seeded by DLMF 9.9.6 and 9.9.7 and polished through the evaluator,
    # every zero is the double nearest the true one on these indices.  The
    # true zero is two 50-digit Newton steps from the table value (the
    # first eight are pinned independently in test_special.py).
    indices = list(range(1, 65)) + [100, 500, 3000]
    table = root_table(max(indices))
    with mpmath.workdps(50):
        for k in indices:
            for got, derivative in ((table.ai_zero(k), 0), (table.ai_prime_zero(k), 1)):
                exact = mpmath.mpf(got)
                for _ in range(2):
                    ai, aip = mpmath.airyai(exact), mpmath.airyai(exact, 1)
                    exact -= aip / (exact * ai) if derivative else ai / aip
                assert abs(got - exact) <= 0.5 * math.ulp(got), (k, derivative)


def test_zero_seeds_are_close_enough_to_polish():
    # The series stops before its first growing term, which only a'_1
    # needs: its seed is 0.05 off, every other within 0.02, and from the
    # thousandth zero on within 1e-14 relative.
    count = 3216
    seeds_a, seeds_ap = _airy.zero_seeds(count)
    table = root_table(count)
    a, ap = table.a[:count], table.a_prime[:count]
    assert np.max(np.abs(seeds_a - a)) < 0.02
    assert np.max(np.abs(seeds_ap[1:] - ap[1:])) < 0.02
    assert abs(seeds_ap[0] - ap[0]) < 0.06
    assert np.max(np.abs(seeds_a[999:] / a[999:] - 1.0)) < 1e-14
    assert np.max(np.abs(seeds_ap[999:] / ap[999:] - 1.0)) < 1e-14
