"""Newton kernel 1/|x| on the box: truncated variants, FFT apply, oracles.

Three radial variants are supported, all with compact support of radius R:

* ``full``   -- 1/|x| on |x| <= R,
* ``inner``  -- 1/|x| on a < |x| <= R (singularity removed),
* ``tail``   -- 1/|x| on 0 < |x| <= a (the part the inner variant removes),

so full = inner + tail identically. R must cover the box diameter
(R >= sqrt(3) L): then zero-padding the grid 2x per axis makes the circular
FFT convolution agree with the free-space convolution for sources inside the
box, with no periodic images.

The padded array is never formed. The apply is a pruned real transform: an
rfft of length 2n along z over the n^2 nonzero lines, then length-2n ffts
along y (n planes) and x, a product with the table's real half-spectrum
(shape (2n, 2n, n+1)), and the inverse steps in reverse order, each one
cropped back to n. All steps run in one complex (2n, 2n, n+1) workspace per
grid size, kept between applies; only its padding is zeroed again. A real
(float64) density gives a float64 potential; a complex density is convolved
as its real part and then its imaginary part, by linearity.

The discrete operator is defined by a sampled real-space table: cell j gets
weight h^3 / |d_j| at the centered displacement d_j, and the singular
self-cell gets the exact cell average of 1/|x| (CUBE_AVG * h^2).  The tail
variant's self-cell weight interpolates between 0 (ball smaller than the
cell's inscribed radius) and the full cell average (ball covers the cell),
via quadrature of 1/|x| over the cell-ball intersection in between; the
inner self-weight is the complement, so additivity is exact by construction.
The direct-summation oracle sums exactly the same table, which makes the
FFT-vs-direct comparison a round-off-level test rather than a
discretization-error test.

The sampled tail operator is bounded by the l1 mass of its table (Young),
the multiplier's zero frequency, not by the continuum bound 2*pi*a^2: their
ratio is a lattice effect of a/h (0.97-1.05 for a/h from 2 to 12).
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, l2_norm, lp_norm, random_band_limited

#: Average of 1/|u| over the unit cube centered at the origin; the self-cell
#: of the sampled kernel is CUBE_AVG * h^2 = h^3 * (CUBE_AVG / h).
CUBE_AVG = 2.3800773639795523

VARIANTS = ("full", "inner", "tail")


@dataclass(frozen=True)
class KernelSpec:
    """Radial kernel selection: variant, support radius R, truncation radius a.

    ``a`` is required (positive, below R) for the inner and tail variants and
    must be omitted/zero for the full kernel.
    """

    variant: str
    R: float
    a: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not np.isfinite(self.R) or self.R <= 0:
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if self.variant == "full":
            if self.a:
                raise ValueError("full kernel takes no truncation radius")
        else:
            if not np.isfinite(self.a) or not 0 < self.a < self.R:
                raise ValueError(
                    f"truncated variants need 0 < a < R, got a={self.a}, R={self.R}"
                )
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "a", float(self.a))


def default_radius(L):
    """Smallest support radius that covers the box diameter."""
    return math.sqrt(3.0) * L


def _tail_self_weight(a, h):
    """Integral of 1/|x| over (cell of side h) ∩ (ball of radius a), centered.

    Exact limits on both sides: 0 when the ball misses every point of the
    cell interior quadrature (a < h/2, inscribed radius), and the full cell
    average CUBE_AVG*h^2 once the ball covers the cell (a >= sqrt(3)h/2).
    The intermediate regime is a midpoint quadrature, clamped into the
    mathematically required range.
    """
    if a < h / 2.0:
        return 0.0
    if a >= math.sqrt(3.0) / 2.0 * h:
        return CUBE_AVG * h**2
    m = 64
    u = ((np.arange(m) + 0.5) / m - 0.5) * h
    ux, uy, uz = np.meshgrid(u, u, u, indexing="ij")
    r = np.sqrt(ux**2 + uy**2 + uz**2)
    integrand = np.where(r <= a, 1.0 / r, 0.0)
    val = integrand.mean() * h**3
    return float(min(max(val, 0.0), min(2.0 * np.pi * a**2, CUBE_AVG * h**2)))


def kernel_table(gspec, kspec):
    """Sampled real-space kernel on the 2x padded grid, FFT index layout.

    Entry [jx, jy, jz] is the convolution weight for the centered displacement
    d = (((j + n) mod 2n) - n) * h per axis, i.e. index = displacement mod 2n.
    Weights: h^3/|d| inside the variant's radial support, the split cell
    average at d = 0, zero elsewhere. Array of shape (2n,)*3.
    """
    n, h, L = gspec.n, gspec.h, gspec.L
    if kspec.R < default_radius(L) * (1.0 - 1e-12):
        raise ValueError(
            f"support radius R={kspec.R} does not cover the box diameter "
            f"{default_radius(L):.6g}; free-space convolution would be wrong"
        )
    N = 2 * n
    j = np.arange(N)
    d2 = ((((j + n) % N) - n) * h) ** 2
    r = np.sqrt(d2[:, None, None] + d2[None, :, None] + d2[None, None, :])
    with np.errstate(divide="ignore"):
        w_full = np.where(r > 0.0, h**3 / np.where(r > 0.0, r, 1.0), 0.0)
    w_full[0, 0, 0] = CUBE_AVG * h**2
    w_full = np.where(r <= kspec.R * (1.0 + 1e-12), w_full, 0.0)
    if kspec.variant == "full":
        return w_full
    a = kspec.a
    w_tail = np.where((r > 0.0) & (r <= a), w_full, 0.0)
    w_tail[0, 0, 0] = _tail_self_weight(a, h)
    return w_tail if kspec.variant == "tail" else w_full - w_tail


@lru_cache(maxsize=16)
def kernel_multiplier(gspec, kspec):
    """Real half-spectrum of kernel_table: the multiplier apply_kernel uses.

    The table is even modulo 2n, so its DFT is real: the rfftn's imaginary
    part is round-off and is dropped, leaving a read-only float64 array of
    shape (2n, 2n, n+1), the z half-spectrum of the full (2n)^3 DFT.
    """
    mult = np.fft.rfftn(kernel_table(gspec, kspec)).real.copy()
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=4)
def _workspace(n):
    """The complex (2n, 2n, n+1) spectrum buffer _convolve_real reuses.
    Shared state: one apply per grid size may run at a time in a process."""
    return np.empty((2 * n, 2 * n, n + 1), dtype=np.complex128)


def _convolve_real(mult, vals):
    """Zero-padded circular convolution of a real (n, n, n) array.

    Forward: rfft along z over the n^2 lines, fft along y over n planes,
    fft along x; inverse in reverse order, cropping to n after each step.
    Every step works in place on the cached workspace of the grid size;
    the forward rfft overwrites its data block, so only the two padding
    blocks (x >= n, and y >= n below it) are zeroed again. The result is a
    fresh array, never a view of the workspace.
    """
    n = vals.shape[-1]
    N = 2 * n
    s = _workspace(n)
    low = s[:n]  # the n x-planes the density occupies
    s[n:] = 0.0
    low[:, n:] = 0.0
    np.fft.rfft(vals, n=N, axis=-1, out=low[:, :n])
    np.fft.fft(low, axis=-2, out=low)
    np.fft.fft(s, axis=-3, out=s)
    s *= mult
    np.fft.ifft(s, axis=-3, out=s)
    np.fft.ifft(low, axis=-2, out=low)
    return np.fft.irfft(low[:, :n], n=N, axis=-1)[..., :n]


def apply_kernel(kspec, density):
    """Free-space convolution of the density with the selected kernel.

    Convolves on the 2x padded grid by the pruned real transform of
    _convolve_real against kernel_multiplier, without forming the padded
    array. A real (float64) density gives a float64 Field; a complex one is
    convolved as its real and then its imaginary part, by linearity, and
    gives a complex128 Field.
    """
    spec = density.spec
    mult = kernel_multiplier(spec, kspec)
    vals = density.values
    if np.isrealobj(vals):
        return Field(spec, _convolve_real(mult, vals))
    re = _convolve_real(mult, vals.real)
    return Field(spec, re + 1j * _convolve_real(mult, vals.imag))


def direct_convolution_oracle(kspec, density):
    """Brute-force O(n^6) free-space convolution over the same sampled table.

    Reference implementation for apply_kernel: sums the identical per-cell
    weights pair by pair, so agreement is limited only by FFT round-off.
    Guarded to n <= 16.
    """
    spec = density.spec
    n = spec.n
    if n > 16:
        raise ValueError(f"direct oracle is O(n^6); n={n} > 16")
    table = kernel_table(spec, kspec)
    rho = density.values
    idx = np.arange(n)
    dmod = (idx[:, None] - idx[None, :]) % (2 * n)  # (x, y) -> displacement index
    out = np.empty((n, n, n), dtype=np.complex128)
    for x1 in range(n):
        part = table[dmod[x1]]  # (y1, j2, j3)
        part = part[:, dmod, :]  # (y1, x2, y2, j3)
        part = part[..., dmod]  # (y1, x2, y2, x3, y3)
        out[x1] = np.einsum("abcde,ace->bd", part, rho)
    return Field(spec, out)


def tail_norm_bound(a):
    """Analytic Schur bound 2*pi*a^2 on the continuum tail operator norm."""
    if a <= 0:
        raise ValueError(f"truncation radius must be positive, got {a}")
    return 2.0 * np.pi * a**2


def tail_norm_estimate(gspec, a, p=2.0, trials=32, seed=0, iters=200):
    """Empirical lower estimate of the L^p operator norm of the tail kernel.

    For p = 2 runs power iteration on the (symmetric, positivity-preserving)
    restricted operator, starting from a seeded nonnegative field; for other
    p it maximizes ||T f||_p / ||f||_p over seeded random band-limited trial
    fields. Either way the result is a lower estimate and must sit below
    the l1 mass of the sampled tail table. Warns when the grid cannot
    resolve the ball (h >= a).
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    if gspec.h >= a:
        warnings.warn(
            f"truncation radius a={a} at or below grid spacing h={gspec.h}; "
            "the discrete tail operator is degenerate and the estimate is vacuous",
            stacklevel=2,
        )
    kspec = KernelSpec("tail", R=default_radius(gspec.L), a=a)
    rng = np.random.default_rng(seed)
    if p == 2.0:
        f = Field(gspec, np.abs(rng.standard_normal((gspec.n,) * 3)) + 0.1)
        est = 0.0
        for _ in range(iters):
            g = apply_kernel(kspec, f)
            nrm = l2_norm(g)
            if nrm == 0.0:
                return 0.0
            new_est = nrm / l2_norm(f)
            if abs(new_est - est) <= 1e-13 * max(est, 1.0):
                est = new_est
                break
            est = new_est
            f = g * (1.0 / nrm)
        return float(est)
    best = 0.0
    for _ in range(trials):
        f = random_band_limited(gspec, rng)
        denom = lp_norm(f, p)
        if denom == 0.0:
            continue
        best = max(best, lp_norm(apply_kernel(kspec, f), p) / denom)
    return float(best)
