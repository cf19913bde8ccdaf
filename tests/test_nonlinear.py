import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frnse import nonlinear
from frnse.experiments import lipschitz_battery
from frnse.grid import (Field, GridSpec, from_spectral, l2_norm, make_grid,
                        random_band_limited, to_spectral)
from frnse.kernel import KernelSpec
from frnse.nonlinear import (PhysParams, density, g1, integrand, nonlinear_part, potential,
                             potential_and_energy)


def _g2(psi, kspec):
    """g2(psi) = G1(psi) psi, the part of nonlinear_part at alpha2 = 1 that
    is not g1."""
    part = nonlinear_part(psi, PhysParams(1.0, 1.0), kspec)[0]
    return g1(psi, kspec) - from_spectral(psi.spec, part)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(0.0, 1.0)
    with pytest.raises(ValueError):
        PhysParams(1.0, -0.5)


def test_density_and_terms(gspec8, rng, kfull):
    psi = random_band_limited(gspec8, rng)
    rho = density(psi)
    assert np.allclose(rho.values, np.abs(psi.values) ** 2)
    pot, G1 = potential_and_energy(psi, kfull)
    assert np.array_equal(potential(psi, kfull).values, pot.values)
    assert np.array_equal(g1(psi, kfull).values, psi.values * pot.values)
    # the direct quadrature, no clamp
    direct = gspec8.h**3 * float(np.sum(rho.values.real * pot.values.real))
    assert G1 == pytest.approx(direct, rel=1e-12)
    assert G1 >= 0.0
    # nonlinear_part is (V - G1) psi in coefficients, g1 - g2 with g2 = G1 psi,
    # and G1 from the same potential
    part, energy = nonlinear_part(psi, PhysParams(1.0, 1.0), kfull)
    assert energy == G1
    assert np.array_equal(part, to_spectral(Field(gspec8, (pot.values - G1) * psi.values)))


def test_nonlinear_part_shortcuts(gspec8, rng, kfull):
    psi = random_band_limited(gspec8, rng)
    # alpha2 = 0: exactly zero, though the kernel is still applied for G1
    z, energy = nonlinear_part(psi, PhysParams(1.0, 0.0), kfull)
    assert not np.any(z)
    assert energy == potential_and_energy(psi, kfull)[1] > 0.0
    # otherwise alpha2 * (g1 - g2) with one kernel application
    n = nonlinear_part(psi, PhysParams(1.0, 2.0), kfull)[0]
    ref = to_spectral(2.0 * (g1(psi, kfull) - energy * psi))
    assert np.max(np.abs(n - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_integrand_at_time_zero_is_nonlinear_part(gspec8, rng, kfull):
    # W(0, u) = N(psi) with psi = from_spectral(u): the stepper's first stage
    u = to_spectral(random_band_limited(gspec8, rng))
    params = PhysParams(0.7, 2.0)
    want = nonlinear_part(from_spectral(gspec8, u), params, kfull)[0]
    assert np.array_equal(integrand(gspec8, 0.0, u, params, kfull), want)


@pytest.mark.parametrize("eps, clamped", [(1e-13, True), (1e-11, False)])
def test_g1_round_off_clamp(gspec8, kfull, monkeypatch, eps, clamped):
    # a negative G1 within 1e-12 of the |V| scale, h^3 sum |psi|^2 |V|, is
    # FFT round-off and reads 0; a larger one is kept, sign and all
    psi = Field(gspec8, np.ones((8, 8, 8), complex))
    pot = np.ones((8, 8, 8))
    rest = pot.size - 1.0
    pot[0, 0, 0] = -rest * (1.0 + eps) / (1.0 - eps)  # raw G1 = -eps * scale
    scale = gspec8.h**3 * float(np.sum(np.abs(pot)))
    monkeypatch.setattr(nonlinear, "apply_kernel", lambda kspec, rho: Field(rho.spec, pot))
    _, G1 = potential_and_energy(psi, kfull)
    if clamped:
        assert G1 == 0.0
    else:
        assert G1 == pytest.approx(-eps * scale, rel=1e-3)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.0, max_value=2 * np.pi))
def test_homogeneity(mag, phase):
    # |c psi|^2 = |c|^2 |psi|^2 makes the three terms homogeneous of exact
    # degree 3 (g1), 4 (G1), and 5 (g2) — grid identities, not asymptotics
    spec = GridSpec(8, 1.6)
    kspec = KernelSpec("full")
    psi = random_band_limited(spec, np.random.default_rng(42))
    c = mag * np.exp(1j * phase)
    scaled = c * psi
    assert l2_norm(g1(scaled, kspec)) == pytest.approx(
        mag**3 * l2_norm(g1(psi, kspec)), rel=1e-10)
    assert potential_and_energy(scaled, kspec)[1] == pytest.approx(
        mag**4 * potential_and_energy(psi, kspec)[1], rel=1e-10)
    assert l2_norm(_g2(scaled, kspec)) == pytest.approx(
        mag**5 * l2_norm(_g2(psi, kspec)), rel=1e-10)


def test_balance_identity(gspec8, rng, kfull):
    # Re <psi, i a1 Lap psi + nonlinear_part(psi)> = alpha2 G1 (1 - ||psi||^2):
    # the spectral Laplacian term is skew-adjoint and g1 contributes exactly G1
    psi = random_band_limited(gspec8, rng)
    params = PhysParams(1.3, 0.8)
    lap = from_spectral(gspec8, -make_grid(gspec8).ksq * to_spectral(psi))
    part, G1 = nonlinear_part(psi, params, kfull)
    rhs = 1j * params.alpha1 * lap.values + from_spectral(gspec8, part).values
    val = (gspec8.h**3 * np.vdot(psi.values, rhs)).real  # <f, g> = h^3 sum conj(f) g
    expected = 0.8 * G1 * (1.0 - l2_norm(psi) ** 2)
    scale = max(abs(expected), 1.0)
    assert abs(val - expected) < 1e-11 * scale


def test_truncated_g1_dominated(gspec16, rng):
    # the inner-kernel term is pointwise dominated by the full one for any
    # nonnegative density (dropping a nonnegative kernel piece only shrinks)
    psi = random_band_limited(gspec16, rng)
    full = np.abs(g1(psi, KernelSpec("full")).values)
    trunc = np.abs(g1(psi, KernelSpec("inner", a=0.3)).values)
    assert float(np.max(trunc - full)) <= 1e-12 * float(np.max(full))


def test_lipschitz_growth_slopes(gspec8):
    # g1 is degree-3 and g2 degree-5 homogeneous, so the fitted growth of
    # their max Lipschitz ratios across ball radii is exactly 2 and 4
    _, probes = lipschitz_battery((0.5, 1.0, 2.0), pairs=5, seed=0, gspec=gspec8)[1]["probes"]
    slope = {which: s for which, _, _, _, _, s in probes}
    assert all(np.isfinite(s) for *_, s in probes)
    assert slope["g1_in_L2"] == pytest.approx(2.0, abs=1e-8)
    assert slope["g2_in_L2"] == pytest.approx(4.0, abs=1e-8)
