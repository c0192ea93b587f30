import functools
import math

import pytest

from robinwall import build_state, infomeasures


@functools.lru_cache(maxsize=None)
def cached_state(bc, n, field):
    return build_state(bc, n, field)


@pytest.fixture(scope="session")
def state_of():
    """Memoized state factory: one object per level, so the session-cached
    references of ``transform_reference``, keyed on the object, meet it once."""
    return cached_state


@pytest.fixture
def half_stam_momentum(monkeypatch):
    """Lower every measured I_k to half the momentum Stam bound, 2 pi e e^(-2 S_k)."""
    real = infomeasures.momentum_integrals

    def fake(sf):
        norm_k, s_k, _, o_k = real(sf)
        return norm_k, s_k, math.pi * math.e * math.exp(-2.0 * s_k), o_k

    monkeypatch.setattr(infomeasures, "momentum_integrals", fake)
