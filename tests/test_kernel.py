import tracemalloc
import warnings

import numpy as np
import pytest

from frnse import kernel
from frnse.grid import Field, GridSpec, l2_norm, lp_norm, random_band_limited
from frnse.kernel import (KernelSpec, _convolve_real, _workspace, apply_kernel,
                          default_radius, direct_convolution_oracle,
                          kernel_multiplier, kernel_table, tail_norm_bound,
                          tail_norm_estimates)
from frnse.nonlinear import density, potential


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("full", a=0.1)
    with pytest.raises(ValueError):
        KernelSpec("inner")  # needs a
    for a in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            KernelSpec("tail", a=a)
    with pytest.raises(ValueError):
        KernelSpec("sideways")
    assert KernelSpec("tail", a=5.0).a == 5.0  # the reach is the grid's to check


def test_multiplier_is_real_dft_of_table(gspec8, gspec16):
    # the table is the irfftn of the multiplier, even modulo 2n, so its DFT
    # is real up to round-off and rfftn gives the multiplier back
    for gspec in (gspec8, gspec16):
        n = gspec.n
        for kspec in (KernelSpec("full"),
                      KernelSpec("inner", a=0.3),
                      KernelSpec("tail", a=0.3)):
            table = kernel_table(gspec, kspec)
            dft = np.fft.fftn(table)
            assert np.max(np.abs(dft.imag)) <= 1e-14 * np.max(np.abs(dft.real))
            mult = kernel_multiplier(gspec, kspec)
            assert mult.shape == (2 * n, 2 * n, n + 1)
            assert mult.dtype == np.float64 and not mult.flags.writeable
            back = np.fft.rfftn(table)
            assert np.max(np.abs(back - mult)) <= 1e-14 * np.max(np.abs(mult))
            half = dft.real[..., :n + 1]
            assert np.max(np.abs(mult - half)) <= 1e-14 * np.max(np.abs(half))


def test_table_additivity(gspec16):
    # the inner multiplier is the full one minus the tail, bitwise, at a
    # resolved and at a sub-resolution radius
    full = kernel_multiplier(gspec16, KernelSpec("full"))
    for a in (0.3, gspec16.h / 4.0):
        inner = kernel_multiplier(gspec16, KernelSpec("inner", a=a))
        tail = kernel_multiplier(gspec16, KernelSpec("tail", a=a))
        assert np.array_equal(inner, full - tail)
        tables = [kernel_table(gspec16, KernelSpec(v, a=a)) for v in ("inner", "tail")]
        assert np.allclose(sum(tables), kernel_table(gspec16, KernelSpec("full")),
                           rtol=0.0, atol=1e-15)


def test_table_values(gspec16):
    # away from the origin the spectral table approaches h^3/|d|
    table = kernel_table(gspec16, KernelSpec("full"))
    h = gspec16.h
    assert table.shape == (32, 32, 32)
    assert table[3, 2, 1] == pytest.approx(h**3 / (h * np.sqrt(14.0)), rel=1e-3)
    assert table[5, 5, 5] == pytest.approx(h**3 / (h * np.sqrt(75.0)), rel=1e-2)
    # index 2n-1 is the -h displacement: the table is even in d
    assert table[31, 0, 0] == table[1, 0, 0]
    assert table[0, 31, 2] == table[0, 1, 2]


def test_reach_guard(gspec16):
    # a truncation radius must lie inside the box diameter sqrt(3) L; the
    # apply path builds the multiplier, so the multiplier holds the guard
    reach = default_radius(gspec16.L)
    for a in (reach, 2.0 * reach):
        for variant in ("inner", "tail"):
            with pytest.raises(ValueError, match="reach"):
                kernel_multiplier(gspec16, KernelSpec(variant, a=a))
            with pytest.raises(ValueError, match="reach"):
                kernel_table(gspec16, KernelSpec(variant, a=a))
    # just inside the reach the tail is the whole kernel
    near = kernel_multiplier(gspec16, KernelSpec("tail", a=reach * (1.0 - 1e-12)))
    full = kernel_multiplier(gspec16, KernelSpec("full"))
    assert np.allclose(near, full, rtol=0.0, atol=1e-9 * np.max(np.abs(full)))


def test_inner_built_from_cached_full_and_tail(gspec16, monkeypatch):
    # once the full multiplier is cached, an inner build cuts off only at a
    kernel_multiplier.cache_clear()
    full = kernel_multiplier(gspec16, KernelSpec("full"))
    radii = []
    cutoff = kernel._cutoff_multiplier

    def recorded(gspec, r):
        radii.append(r)
        return cutoff(gspec, r)

    monkeypatch.setattr(kernel, "_cutoff_multiplier", recorded)
    inner = kernel_multiplier(gspec16, KernelSpec("inner", a=0.3))
    assert radii == [0.3]
    tail = kernel_multiplier(gspec16, KernelSpec("tail", a=0.3))
    assert radii == [0.3]  # the inner build left the tail cached
    assert np.array_equal(inner, full - tail)
    assert not inner.flags.writeable


def test_multiplier_build_memory():
    # the n=48 full multiplier is built on the even octant, one axis at a
    # time, and never forms the (3n)^3 period grid: it stays under 20.5 MiB
    build = kernel_multiplier.__wrapped__
    gspec, kspec = GridSpec(48, 1.6), KernelSpec("full")
    tracemalloc.start()
    try:
        build(gspec, kspec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20.5 * 2**20


def test_tail_zero_dc_near_analytic(gspec16, gspec32):
    # the DFT at k=0 of the tail table is its sum, the transform's 2 pi a^2,
    # at every radius up to L: no cell is special, not even below h/2
    for gspec in (gspec16, gspec32):
        for a in (gspec.h / 4.0, 0.3, 0.45, gspec.L):
            kspec = KernelSpec("tail", a=a)
            bound = tail_norm_bound(a)
            assert kernel_multiplier(gspec, kspec)[0, 0, 0] == pytest.approx(bound, rel=1e-15)
            dc = float(np.sum(kernel_table(gspec, kspec)))
            assert dc == pytest.approx(bound, rel=1e-12)


def test_apply_matches_direct_oracle(gspec8, rng):
    rho = np.abs(random_band_limited(gspec8, rng).values) ** 2
    dens = Field(gspec8, rho)
    for kspec in (KernelSpec("full"),
                  KernelSpec("inner", a=0.4),
                  KernelSpec("tail", a=0.4)):
        fast = apply_kernel(kspec, dens)
        slow = direct_convolution_oracle(kspec, dens)
        rel = l2_norm(fast - slow) / l2_norm(slow)
        assert rel < 1e-10


SHARED_KSPECS = (KernelSpec("full"), KernelSpec("inner", a=0.4), KernelSpec("tail", a=0.4))


@pytest.mark.parametrize("n", [8, 16])
def test_shared_forward_equals_single_applies(n, rng):
    # one forward transform against several multipliers gives, bit for bit,
    # the single applies the direct oracle vouches for
    gspec = GridSpec(n, 1.6)
    mults = [kernel_multiplier(gspec, kspec) for kspec in SHARED_KSPECS]
    dens = Field(gspec, np.abs(random_band_limited(gspec, rng).values) ** 2)
    for kspec, out in zip(SHARED_KSPECS, _convolve_real(dens.values, *mults)):
        assert np.array_equal(out, apply_kernel(kspec, dens).values)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shared_forward_transform_counts(gspec8, rng, count_transforms, k):
    # k multipliers: rfft, fft, fft once, then ifft, ifft, irfft per multiplier
    mults = [kernel_multiplier(gspec8, kspec) for kspec in SHARED_KSPECS[:k]]
    vals = rng.random((8, 8, 8))
    calls = count_transforms(("rfft", "fft", "ifft", "irfft"))
    assert len(_convolve_real(vals, *mults)) == k
    assert calls == {"rfft": 1, "fft": 2, "ifft": 2 * k, "irfft": k}


def _padded_reference(gspec, kspec, values):
    # the unpruned apply: full complex DFT of the 2x zero-padded density
    # times the full real DFT of the table, cropped back to n
    n = gspec.n
    padded = np.zeros((2 * n,) * 3, dtype=np.complex128)
    padded[:n, :n, :n] = values
    mult = np.fft.fftn(kernel_table(gspec, kspec)).real
    return np.fft.ifftn(np.fft.fftn(padded) * mult)[:n, :n, :n]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 16])
def test_pruned_apply_matches_padded_reference(n, rng):
    gspec = GridSpec(n, 1.6)
    # tail: the self cell and its 6 face neighbours; inner: everything beyond
    a = 1.2 * gspec.h
    values = rng.standard_normal((n, n, n))
    for kspec in (KernelSpec("full"),
                  KernelSpec("inner", a=a),
                  KernelSpec("tail", a=a)):
        ref = _padded_reference(gspec, kspec, values)
        out = apply_kernel(kspec, Field(gspec, values)).values
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)


def test_apply_real_and_positive(gspec16, rng):
    rho = np.abs(random_band_limited(gspec16, rng).values) ** 2
    out = apply_kernel(KernelSpec("full"), Field(gspec16, rho))
    assert np.isrealobj(out.values) or np.max(np.abs(out.values.imag)) == 0.0
    # Newton potential of a nonnegative density is nonnegative
    assert float(np.min(out.values.real)) > -1e-12


def test_apply_dtypes(gspec8, rng):
    # a real density gives a real potential
    kspec = KernelSpec("full")
    psi = random_band_limited(gspec8, rng)
    rho, pot = density(psi), potential(psi, kspec)
    assert rho.values.dtype == np.float64 and pot.values.dtype == np.float64
    assert np.allclose(rho.values, np.abs(psi.values) ** 2, rtol=1e-14, atol=0.0)


def test_apply_rejects_a_complex_density(gspec8, rng):
    # densities are real; a complex one, even with a zero imaginary part, is refused
    kspec = KernelSpec("full")
    for values in (random_band_limited(gspec8, rng).values, np.ones((8, 8, 8), complex)):
        with pytest.raises(ValueError, match="real density"):
            apply_kernel(kspec, Field(gspec8, values))


def test_apply_result_survives_the_next_apply(gspec16, rng):
    # every apply runs in the one cached workspace of its grid size; a
    # result is a fresh array that a later apply on the same grid leaves alone
    kspec = KernelSpec("full")
    first = apply_kernel(kspec, Field(gspec16, rng.random((16, 16, 16))))
    kept = first.values.copy()
    second = apply_kernel(kspec, Field(gspec16, rng.random((16, 16, 16))))
    assert np.array_equal(first.values, kept)
    assert not np.array_equal(second.values, kept)
    for out in (first, second):
        assert not np.shares_memory(out.values, _workspace(16))


def test_warm_real_apply_allocates_less_than_one_padded_spectrum(gspec16, rng):
    # with the multiplier and the workspace cached, a real apply allocates
    # only its padded real lines and its result, not a (2n, 2n, n+1)
    # complex spectrum of 32*32*17*16 bytes
    kspec = KernelSpec("full")
    dens = Field(gspec16, rng.random((16, 16, 16)))
    apply_kernel(kspec, dens)
    tracemalloc.start()
    try:
        apply_kernel(kspec, dens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 32 * 17 * 16


def test_oracle_size_guard(gspec32, rng):
    dens = Field(gspec32, np.ones((32, 32, 32)))
    with pytest.raises(ValueError):
        direct_convolution_oracle(KernelSpec("full"), dens)


def test_tail_norm_estimate_below_bound(gspec32):
    # the power-iteration estimate must sit under the multiplier's peak,
    # its zero frequency 2 pi a^2 (the table's sum), and so under the l1
    # mass of the table (Young), which the negative lobes make larger
    a_list = (0.4, 0.2)
    for a, est in zip(a_list, tail_norm_estimates(gspec32, a_list, p=2.0, trials=8, seed=0,
                                                  iters=120)):
        mult = kernel_multiplier(gspec32, KernelSpec("tail", a=a))
        table = kernel_table(gspec32, KernelSpec("tail", a=a))
        assert mult[0, 0, 0] == pytest.approx(table.sum(), rel=1e-14)
        assert np.max(np.abs(mult)) == mult[0, 0, 0]
        assert est <= mult[0, 0, 0] * (1.0 + 1e-12) < np.abs(table).sum()
        assert est > 0.5 * tail_norm_bound(a)  # and not vacuously small


def test_tail_norm_estimate_below_grid_spacing(gspec16):
    # the spectral tail keeps its full mass below h: no warning, and the
    # power iteration still finds almost all of 2 pi a^2
    a = gspec16.h / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, = tail_norm_estimates(gspec16, (a,), p=2.0, trials=2, seed=0, iters=200)
    assert 0.9 * tail_norm_bound(a) <= est <= (1.0 + 1e-12) * tail_norm_bound(a)


def test_lp_tail_norm_estimates_equal_a_loop_per_radius(gspec16):
    # at p != 2 the trials are drawn once for all radii; each estimate is
    # bitwise the one a per-radius loop gets from the same seeded draws,
    # convolving the real and imaginary parts of each draw apart
    p, trials, seed, a_list = 3.0, 3, 7, (0.4, 0.2, 0.1)
    ests = tail_norm_estimates(gspec16, a_list, p=p, trials=trials, seed=seed)
    for a, est in zip(a_list, ests):
        kspec = KernelSpec("tail", a=a)
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(trials):
            f = random_band_limited(gspec16, rng)
            re, im = (apply_kernel(kspec, Field(gspec16, part)).values
                      for part in (f.values.real, f.values.imag))
            best = max(best, lp_norm(Field(gspec16, re + 1j * im), p) / lp_norm(f, p))
        assert est == best
        assert 0.0 < est < np.abs(kernel_table(gspec16, kspec)).sum()


def test_tail_norm_bound_validation():
    with pytest.raises(ValueError):
        tail_norm_bound(0.0)
    assert tail_norm_bound(0.3) == pytest.approx(2.0 * np.pi * 0.09)
