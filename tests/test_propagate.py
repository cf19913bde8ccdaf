import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frnse.grid import (GridSpec, gaussian_field, h1_norm, l2_norm, make_grid,
                        random_band_limited, Field)
from frnse.propagate import free_evolve, free_gaussian_exact, free_phase


@pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
def test_free_phase_bitwise_equals_direct_exp(n):
    spec = GridSpec(n, 1.6)
    g = make_grid(spec)
    for t in (0.0, 1e-3, -1e-3, 0.25):
        for a1 in (1.0, 0.05):
            assert np.array_equal(free_phase(spec, t, a1), np.exp(-1j * a1 * t * g.ksq))
    u, inv = g.ksq_levels
    assert not u.flags.writeable and not inv.flags.writeable
    assert np.array_equal(u[inv], g.ksq)


def test_zero_time_is_identity(gspec16, rng):
    psi = random_band_limited(gspec16, rng)
    assert free_evolve(psi, 0.0, 1.0) is psi


def test_plane_wave_phase(gspec16):
    g = make_grid(gspec16)
    xg, yg, zg = np.meshgrid(g.x, g.x, g.x, indexing="ij")
    k = 2.0 * np.pi / 1.6 * np.array([2.0, -1.0, 3.0])
    pw = Field(gspec16, np.exp(1j * (k[0] * xg + k[1] * yg + k[2] * zg)))
    t, a1 = 0.043, 0.9
    out = free_evolve(pw, t, a1)
    expected = np.exp(-1j * a1 * float(k @ k) * t) * pw.values
    assert np.max(np.abs(out.values - expected)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-0.5, max_value=0.5))
def test_group_law(t, s):
    spec = GridSpec(8, 1.6)
    psi = random_band_limited(spec, np.random.default_rng(11))
    once = free_evolve(psi, t + s, 1.0)
    twice = free_evolve(free_evolve(psi, t, 1.0), s, 1.0)
    assert np.max(np.abs(once.values - twice.values)) < 1e-12


def test_unitarity(gspec16, rng):
    psi = random_band_limited(gspec16, rng)
    moved = free_evolve(psi, 0.37, 1.0)
    assert l2_norm(moved) == pytest.approx(l2_norm(psi), rel=1e-13)
    assert h1_norm(moved) == pytest.approx(h1_norm(psi), rel=1e-13)


def test_inverse(gspec16, rng):
    psi = random_band_limited(gspec16, rng)
    back = free_evolve(free_evolve(psi, 0.21, 0.8), -0.21, 0.8)
    assert np.max(np.abs(back.values - psi.values)) < 1e-12


def test_gaussian_closed_form(gspec32):
    # independent check of the solver's core propagator: spectral evolution
    # of a sampled Gaussian against the analytic dispersed packet
    sigma, a1 = 0.12, 1.0
    phi = gaussian_field(gspec32, sigma)
    for t in (1e-3, 2e-3):
        ref = free_gaussian_exact(gspec32, sigma, t, a1)
        out = free_evolve(phi, t, a1)
        rel = l2_norm(out - ref) / l2_norm(ref)
        assert rel < 1e-6


def test_gaussian_exact_at_zero(gspec32):
    ref = free_gaussian_exact(gspec32, 0.12, 0.0, 1.0)
    phi = gaussian_field(gspec32, 0.12)
    assert np.max(np.abs(ref.values - phi.values)) < 1e-14
