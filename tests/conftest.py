import functools
import math

import pytest

from robinwall import build_state, infomeasures, quadrature, states


@functools.lru_cache(maxsize=None)
def cached_state(bc, n, field):
    return build_state(bc, n, field)


@pytest.fixture(scope="session")
def state_of():
    """Memoized state factory: one object per level, so the session-cached
    references of ``transform_reference``, keyed on the object, meet it once."""
    return cached_state


@pytest.fixture
def pass_tolerance(monkeypatch):
    """Setter of the one tolerance every adaptive pass meets, for this test only.

    Both pass memos are emptied at each setting and at teardown, so no
    result computed at one tolerance serves another.
    """

    def clear():
        states._position_pass.cache_clear()
        states._momentum_pass.cache_clear()

    def set_to(tol):
        clear()
        monkeypatch.setattr(quadrature, "_PASS_TOLERANCE", tol)

    yield set_to
    clear()


@pytest.fixture
def half_stam_momentum(monkeypatch):
    """Lower every measured I_k to half the momentum Stam bound, 2 pi e e^(-2 S_k)."""
    real = infomeasures.momentum_integrals

    def fake(sf):
        norm_k, s_k, _, o_k = real(sf)
        return norm_k, s_k, math.pi * math.e * math.exp(-2.0 * s_k), o_k

    monkeypatch.setattr(infomeasures, "momentum_integrals", fake)
