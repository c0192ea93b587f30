"""A node count of a level's profile, from the polished zero table.

``zeros_above`` counts the interior nodes of a level's profile
Ai(z0 - F^(1/3) x) on x < 0: the zeros of Ai strictly above z0.
"""

import numpy as np

from robinwall import root_table


def zeros_above(z0: float) -> int:
    """Zeros of Ai in the zero table strictly above z0, with no guard."""
    table = root_table()
    while table.a[-1] > z0:
        table = root_table(2 * table.count)
    return int(np.count_nonzero(table.a > z0))
