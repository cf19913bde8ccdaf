"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from frnse.grid import GridSpec
from frnse.kernel import KernelSpec, default_radius


def box_integral(X, Y, Z):
    """Closed form of the integral of 1/|x| over the box [0,X]x[0,Y]x[0,Z].

    Standard antiderivative (each term is elementary); used as an oracle for
    the near-field cell weights, independent of any quadrature in the
    package.
    """
    r = np.sqrt(X * X + Y * Y + Z * Z)
    return (
        X * Y * np.log((Z + r) / np.hypot(X, Y))
        + Y * Z * np.log((X + r) / np.hypot(Y, Z))
        + Z * X * np.log((Y + r) / np.hypot(Z, X))
        - X * X / 2.0 * np.arctan(Y * Z / (X * r))
        - Y * Y / 2.0 * np.arctan(Z * X / (Y * r))
        - Z * Z / 2.0 * np.arctan(X * Y / (Z * r))
    )


def unit_cube_average():
    """Average of 1/|x| over the unit cube centered at the origin."""
    return 8.0 * box_integral(0.5, 0.5, 0.5)


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
    return KernelSpec("full", R=default_radius(1.6))


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
