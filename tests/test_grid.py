import numpy as np
import pytest
import warnings
from hypothesis import given, settings, strategies as st

from frnse.grid import (Field, GridSpec, boundary_decay, from_spectral,
                        gaussian_field, h1_norm, l2_norm, lp_norm, make_grid,
                        plane_wave, random_band_limited, scaled_gaussian,
                        to_spectral, warn_if_cramped)


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 1.6)
    with pytest.raises(ValueError):
        GridSpec(8, -1.0)
    with pytest.raises(ValueError):
        GridSpec(8.5, 1.0)
    s = GridSpec(16, 1.6)
    assert s.h == pytest.approx(0.1)
    assert s.volume == pytest.approx(1.6**3)


def test_grid_wavenumbers(gspec16):
    g = make_grid(gspec16)
    # first positive mode is 2 pi / L
    assert g.k[1] == pytest.approx(2.0 * np.pi / 1.6)
    assert g.ksq.shape == (16, 16, 16)
    assert g.ksq[0, 0, 0] == 0.0


def test_field_shape_and_ops(gspec8, rng):
    flat = rng.standard_normal(8**3) + 1j * rng.standard_normal(8**3)
    f = Field(gspec8, flat)
    assert f.values.shape == (8, 8, 8)
    g = Field(gspec8, rng.standard_normal((8, 8, 8)))
    s = f + g - g
    assert np.allclose(s.values, f.values, atol=1e-14)
    assert np.allclose((2.0 * f).values, (f * 2.0).values)
    with pytest.raises(ValueError):
        Field(gspec8, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        f + Field(GridSpec(8, 2.0), np.zeros((8, 8, 8)))
    assert not f.values.flags.writeable


def test_field_keeps_float64_and_makes_the_rest_complex128(gspec8, rng):
    real = rng.standard_normal((8, 8, 8))
    f = Field(gspec8, real)
    assert f.values.dtype == np.float64 and np.array_equal(f.values, real)
    assert not f.values.flags.writeable
    for values in (real.astype(np.float32), real.astype(np.int64),
                   real.astype(np.complex64), real + 1j * real):
        assert Field(gspec8, values).values.dtype == np.complex128
    # arithmetic keeps a real field real and mixes up to complex
    assert (f + f).values.dtype == np.float64 and (2.0 * f).values.dtype == np.float64
    assert (f + Field(gspec8, np.zeros((8, 8, 8), complex))).values.dtype == np.complex128


def test_spectral_round_trip(gspec16, rng):
    f = random_band_limited(gspec16, rng)
    back = from_spectral(gspec16, to_spectral(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-13


def test_plane_wave_norms(gspec16):
    # e^{ik.x} with k = 2pi/L * (1,2,0): L2 norm sqrt(V), H1 = sqrt(V(1+k^2))
    g = make_grid(gspec16)
    xg, yg, zg = np.meshgrid(g.x, g.x, g.x, indexing="ij")
    k = 2.0 * np.pi / 1.6 * np.array([1.0, 2.0, 0.0])
    pw = Field(gspec16, np.exp(1j * (k[0] * xg + k[1] * yg + k[2] * zg)))
    V = gspec16.volume
    ksq = float(k @ k)
    assert l2_norm(pw) == pytest.approx(np.sqrt(V), rel=1e-12)
    assert h1_norm(pw) == pytest.approx(np.sqrt(V * (1.0 + ksq)), rel=1e-12)
    # the spectral Laplacian multiplies each coefficient by -|k|^2
    lap = from_spectral(gspec16, -g.ksq * to_spectral(pw))
    assert np.max(np.abs(lap.values + ksq * pw.values)) < 1e-9


def test_parseval(gspec16, rng):
    # quadrature L2 norm equals the spectral H1 norm with the (1+k^2) weight
    # dropped; cross-checks the normalization of to_spectral
    f = random_band_limited(gspec16, rng)
    coeffs = to_spectral(f)
    spectral = np.sqrt(gspec16.volume * np.sum(np.abs(coeffs) ** 2))
    quadrature = np.sqrt(gspec16.h**3 * np.sum(np.abs(f.values) ** 2))
    assert spectral == pytest.approx(quadrature, rel=1e-12)
    assert l2_norm(f) == pytest.approx(quadrature, rel=1e-12)


def test_lp_norm(gspec8, rng):
    f = random_band_limited(gspec8, rng)
    assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-12)
    for p in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            lp_norm(f, p)


def test_lp_norm_at_large_p(gspec8, rng):
    # |f|^400 overflows for |f| > 5.9: the sum is taken on |f| / max|f|;
    # where the plain sum is finite and positive it is the formula, bitwise
    f = random_band_limited(gspec8, rng)
    a, h3 = np.abs(f.values), gspec8.h**3
    for p in (2.0, 3.0):
        assert lp_norm(f, p) == float((h3 * np.sum(a**p)) ** (1.0 / p))
    assert a.max() > 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = lp_norm(f, 400.0)
        assert 0.0 < big < np.inf
        assert big == a.max() * (h3 * np.sum((a / a.max()) ** 400.0)) ** (1.0 / 400.0)
        # and a sum that underflows to 0 for a nonzero field
        tiny = lp_norm(f * 1e-200, 3.0)
    assert tiny == pytest.approx(1e-200 * lp_norm(f, 3.0), rel=1e-12)
    assert lp_norm(f * 0.0, 400.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_norm_scaling(re, im):
    spec = GridSpec(8, 1.6)
    rng = np.random.default_rng(7)
    f = random_band_limited(spec, rng)
    c = complex(re, im)
    for nrm in (l2_norm, h1_norm, lambda x: lp_norm(x, 3.0)):
        assert nrm(c * f) == pytest.approx(abs(c) * nrm(f), rel=1e-10, abs=1e-12)


def test_band_limited_band(gspec16, rng):
    # the band keeps |m| <= 2/3 of n/2 per axis: at n=16 modes with |m| >= 6 vanish
    f = random_band_limited(gspec16, rng)
    coeffs = to_spectral(f)
    m = np.fft.fftfreq(16, d=1.0 / 16)  # integer mode numbers
    outside = np.abs(m) >= 6
    mask = outside[:, None, None] | outside[None, :, None] | outside[None, None, :]
    assert np.max(np.abs(coeffs[mask])) < 1e-15
    assert np.min(np.abs(coeffs[~mask])) > 0


def test_gaussian_field(gspec32):
    f = gaussian_field(gspec32, 0.12)
    assert float(np.max(np.abs(f.values))) == pytest.approx(1.0)
    assert boundary_decay(f) < 1e-8
    with pytest.raises(ValueError):
        gaussian_field(gspec32, -0.1)


def test_scaled_gaussian_targets(gspec32):
    f = scaled_gaussian(gspec32, 0.12, l2_target=1.0)
    assert l2_norm(f) == pytest.approx(1.0, rel=1e-12)
    g = scaled_gaussian(gspec32, 0.12, h1_target=0.5)
    assert h1_norm(g) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        scaled_gaussian(gspec32, 0.12, l2_target=1.0, h1_target=1.0)


def test_boundary_decay_reads_all_six_faces(gspec32):
    # one cell off centre toward the index-(n-1) faces: those sit 14 h from
    # the peak, the index-0 faces 15 h away across the periodic seam
    h, sigma = gspec32.h, 0.12
    center = (gspec32.L / 2.0 + h,) * 3
    f = gaussian_field(gspec32, sigma, center=center)
    expected = np.exp(-((14 * h) ** 2) / (2.0 * sigma**2))
    assert boundary_decay(f) == pytest.approx(expected, rel=1e-9)
    assert boundary_decay(f * 0.0) == 0.0  # a zero field has no peak to compare with


def test_warn_if_cramped_only_when_called():
    spec = GridSpec(16, 1.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = scaled_gaussian(spec, 0.3, l2_target=1.0)
    with pytest.warns(UserWarning, match="box boundary"):
        assert warn_if_cramped(f) is f


def test_min_image_center(gspec32):
    # a bump centered at the box corner wraps around: all eight corners high
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = gaussian_field(gspec32, 0.12, center=(0.0, 0.0, 0.0))
    v = np.abs(f.values)
    assert v[0, 0, 0] == pytest.approx(1.0)
    assert v[-1, -1, -1] > 0.5  # one grid step away across the seam


def test_plane_wave_equals_its_meshgrid_samples():
    # broadcasting sums the same three products in the same order
    spec = GridSpec(8, 1.6)
    x = make_grid(spec).x
    xg, yg, zg = np.meshgrid(x, x, x, indexing="ij")
    k = 2.0 * np.pi / spec.L * np.array([1.0, 2.0, -3.0])
    ref = np.exp(1j * (k[0] * xg + k[1] * yg + k[2] * zg))
    assert np.array_equal(plane_wave(spec, (1, 2, -3)).values, ref)
