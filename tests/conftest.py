"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from frnse.grid import GridSpec
from frnse.kernel import KernelSpec


@pytest.fixture
def gspec8():
    return GridSpec(8, 1.6)


@pytest.fixture
def gspec16():
    return GridSpec(16, 1.6)


@pytest.fixture
def gspec32():
    return GridSpec(32, 1.6)


@pytest.fixture
def kfull():
    return KernelSpec("full")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def count_transforms(monkeypatch):
    """Call it to start counting numpy's fftn and ifftn calls; it returns
    the live counts."""
    def start():
        calls = {"fftn": 0, "ifftn": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls
    return start
