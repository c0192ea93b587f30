"""Large-index expansions of the negative zeros of Ai and Ai', and a node count.

The n-th zero of Ai sits at -T(3 pi (4n - 1) / 8) and the n-th zero of
Ai' at -U(3 pi (4n - 3) / 8), with T and U asymptotic series in t^(-2)
(Abramowitz & Stegun §10.4).  The polished zero table seeds from
``scipy.special.ai_zeros``, not from these series, so they check it
independently.

``zeros_above`` counts the interior nodes of a level's profile
Ai(z0 - F^(1/3) x) on x < 0: the zeros of Ai strictly above z0.
"""

import math

import numpy as np

from robinwall import root_table

ZERO_OF_AI = "zero_of_Ai"
ZERO_OF_AI_PRIME = "zero_of_Ai_prime"

_T_COEFFS = (5.0 / 48.0, -5.0 / 36.0, 77125.0 / 82944.0, -108056875.0 / 6967296.0)
_U_COEFFS = (-7.0 / 48.0, 35.0 / 288.0, -181223.0 / 207360.0, 18683371.0 / 1244160.0)


def _zero_series(t: float, coeffs) -> float:
    u = t ** -2.0
    acc = 1.0
    power = 1.0
    for c in coeffs:
        power *= u
        acc += c * power
    return t ** (2.0 / 3.0) * acc


def asymptotic_zero(kind: str, n: int) -> float:
    """Unrefined large-index location of the n-th zero."""
    n = int(n)
    if n < 1:
        raise ValueError(f"zero index must be >= 1, got {n}")
    if kind == ZERO_OF_AI:
        return -_zero_series(3.0 * math.pi * (4 * n - 1) / 8.0, _T_COEFFS)
    if kind == ZERO_OF_AI_PRIME:
        return -_zero_series(3.0 * math.pi * (4 * n - 3) / 8.0, _U_COEFFS)
    raise ValueError(f"unknown zero kind {kind!r}")


def zeros_above(z0: float) -> int:
    """Zeros of Ai in the zero table strictly above z0, with no guard."""
    table = root_table()
    while table.a[-1] > z0:
        table = root_table(2 * table.count)
    return int(np.count_nonzero(table.a > z0))
