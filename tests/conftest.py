"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def count_linalg(monkeypatch):
    """Count every call into numpy.linalg."""
    calls = []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _n=name,
                                **k: calls.append(_n) or _fn(*a, **k))
    return calls
