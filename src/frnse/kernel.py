"""Newton kernel 1/|x| on the box: truncated variants, FFT apply, oracles.

Three radial variants are supported, with one truncation radius a:

* ``full``   -- 1/|x|,
* ``inner``  -- 1/|x| on |x| > a (singularity removed),
* ``tail``   -- 1/|x| on 0 < |x| <= a (the part the inner variant removes),

so full = inner + tail identically. The kernel's reach is the box's: no
displacement between two points of the box is longer than sqrt(3) L, so
the full kernel is cut off there, and a must lie in (0, sqrt(3) L).
Zero-padding the grid 2x per axis then makes the circular FFT convolution
agree with the free-space convolution for sources inside the box, with no
periodic images.

The padded array is never formed. The apply is a pruned real transform: an
rfft of length 2n along z over the n^2 nonzero lines, then length-2n ffts
along y (n planes) and x, a product with the kernel's real half-spectrum
(shape (2n, 2n, n+1)), and the inverse steps in reverse order, each one
cropped back to n. One forward transform of a density serves any number of
multipliers, with one product and inverse per multiplier. All steps run in
one complex (2n, 2n, n+1) workspace per grid size, kept between applies,
plus a second one when a density meets several multipliers; only the
padding is zeroed again. Densities are real: a float64 density gives a
float64 potential.

The operator is spectral (Vico, Greengard and Ferrando, "Fast convolution
with free-space Green's functions", J. Comput. Phys. 323, 2016): 1/|x| cut
off at r has the transform 8 pi sin^2(|k| r / 2) / |k|^2, 2 pi r^2 at k = 0.
Sampled on a period ceil(1 + r/L) L >= L + r, it puts no periodic image
inside the box's displacements, which are kept and transformed at length
2n. Full takes r = sqrt(3) L, tail r = a, and inner is their difference on
the multiplier. No radius needs resolving on the grid: for every a <= L,
even below h, the tail table sums to 2 pi a^2. It has small negative
lobes: the operators do not preserve positivity, and the tail operator is
bounded in every L^p by the l1 mass of its table (Young).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, l2_norm, lp_norm, random_band_limited

VARIANTS = ("full", "inner", "tail")


@dataclass(frozen=True)
class KernelSpec:
    """Radial kernel selection: variant and truncation radius a.

    ``a`` is required (positive and finite) for the inner and tail variants
    and must be omitted/zero for the full kernel. Its upper limit, the
    kernel's reach sqrt(3) L, is the grid's: kernel_multiplier checks it.
    """

    variant: str
    a: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "full":
            if self.a:
                raise ValueError("full kernel takes no truncation radius")
        elif not np.isfinite(self.a) or self.a <= 0:
            raise ValueError(f"truncated variants need a finite a > 0, got a={self.a}")
        object.__setattr__(self, "a", float(self.a))


def default_radius(L):
    """The kernel's reach: the box diameter sqrt(3) L, which no displacement
    inside the box exceeds."""
    return math.sqrt(3.0) * L


def _cutoff_multiplier(gspec, r):
    """The (2n, 2n, n+1) multiplier of 1/|x| cut off at r <= sqrt(3) L.

    Samples the transform, once per distinct |k|^2, on the even octant of a
    period of M = ceil(1 + r/L) n points per axis; along each axis, an irfft
    of length M, the displacements -n..n-1 kept, and an rfft of length 2n.
    The kernel is even: the octant is mirrored at the end.
    """
    n, h, L = gspec.n, gspec.h, gspec.L
    M = math.ceil(1.0 + r / L) * n
    j2 = np.arange(M // 2 + 1) ** 2
    # the transform at each level jx^2 + jy^2 + jz^2 = (|k| M h / 2 pi)^2
    level = 2.0 * np.pi * r * r * np.sinc(np.sqrt(np.arange(3 * j2[-1] + 1)) * r / (M * h)) ** 2
    octant = level[j2[:, None, None] + j2[None, :, None] + j2[None, None, :]]
    if M > 2 * n:
        keep = np.r_[:n, M - n:M]  # displacements 0..n-1, then -n..-1
        for axis in (2, 1, 0):  # the largest transforms along contiguous lines
            table = np.fft.irfft(octant, n=M, axis=axis).take(keep, axis=axis)
            octant = np.fft.rfft(table, axis=axis).real
    mirror = np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n))
    return octant[mirror][:, mirror]


@lru_cache(maxsize=16)
def kernel_multiplier(gspec, kspec):
    """Real half-spectrum of the kernel on the 2x padded grid: the
    multiplier apply_kernel uses.

    A read-only float64 array of shape (2n, 2n, n+1), the z half-spectrum
    of the (2n)^3 DFT of kernel_table. The full and tail variants are the
    cutoff transforms at sqrt(3) L and at a; the inner one is their
    difference, taken from their cached multipliers.
    """
    reach = default_radius(gspec.L)
    if kspec.a >= reach:
        raise ValueError(f"truncation radius a={kspec.a} must be below the kernel's "
                         f"reach sqrt(3) L = {reach:.6g}")
    if kspec.variant == "inner":
        mult = (kernel_multiplier(gspec, KernelSpec("full"))
                - kernel_multiplier(gspec, KernelSpec("tail", kspec.a)))
    else:
        mult = _cutoff_multiplier(gspec, kspec.a if kspec.variant == "tail" else reach)
    mult.setflags(write=False)
    return mult


def kernel_table(gspec, kspec):
    """Real-space kernel, the (2n,)*3 irfftn of kernel_multiplier: entry
    [jx, jy, jz] weighs the displacement (((j + n) mod 2n) - n) * h per axis."""
    n = gspec.n
    return np.fft.irfftn(kernel_multiplier(gspec, kspec), s=(2 * n,) * 3, axes=(0, 1, 2))


@lru_cache(maxsize=4)
def _workspace(n, slot=0):
    """A complex (2n, 2n, n+1) buffer _convolve_real reuses: slot 0 for the
    spectrum, 1 for all products but the last. Shared state: one apply per
    grid size may run at a time in a process."""
    return np.empty((2 * n, 2 * n, n + 1), dtype=np.complex128)


def _convolve_real(vals, *mults):
    """Zero-padded circular convolutions of a real (n, n, n) array, a list
    of one per multiplier.

    Forward once: rfft along z over the n^2 lines, fft along y over n
    planes, fft along x; per multiplier, the product and the inverse in
    reverse order, cropping to n after each step. Every step works in place
    on the cached workspaces of the grid size; the forward rfft overwrites
    its data block, so only the two padding blocks (x >= n, and y >= n
    below it) are zeroed again. Each result is a fresh array.
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
    out, last = [], len(mults) - 1
    for i, mult in enumerate(mults):
        t = s if i == last else _workspace(n, 1)
        np.multiply(s, mult, out=t)
        np.fft.ifft(t, axis=-3, out=t)
        np.fft.ifft(t[:n], axis=-2, out=t[:n])
        out.append(np.fft.irfft(t[:n, :n], n=N, axis=-1)[..., :n])
    return out


def apply_kernel(kspec, density):
    """Free-space convolution of the density with the selected kernel.

    Convolves on the 2x padded grid by the pruned real transform of
    _convolve_real against kernel_multiplier, without forming the padded
    array. A real (float64) density gives a float64 Field; a complex one
    raises ValueError.
    """
    vals = density.values
    if not np.isrealobj(vals):
        raise ValueError(f"apply_kernel takes a real density, got {vals.dtype}")
    return Field(density.spec, *_convolve_real(vals, kernel_multiplier(density.spec, kspec)))


def direct_convolution_oracle(kspec, density):
    """Brute-force O(n^6) free-space convolution over kernel_table.

    Reference implementation for apply_kernel's pruned transform: sums the
    real-space weights of the same multiplier pair by pair, so agreement is
    limited only by FFT round-off. Guarded to n <= 16.
    """
    spec = density.spec
    n = spec.n
    if n > 16:
        raise ValueError(f"direct oracle is O(n^6); n={n} > 16")
    table = kernel_table(spec, kspec)
    rho = density.values
    idx = np.arange(n)
    dmod = (idx[:, None] - idx[None, :]) % (2 * n)  # (x, y) -> displacement index
    out = np.empty_like(rho)
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


def _power_estimate(gspec, kspec, seed, iters):
    """Power iteration on the symmetric restricted operator of kspec from a
    seeded nonnegative field: its L^2 operator norm from below."""
    rng = np.random.default_rng(seed)
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


def tail_norm_estimates(gspec, a_list, p, trials, seed, iters=200):
    """Empirical lower estimates of the L^p operator norm of the tail
    kernel, one per radius in a_list.

    For p = 2 each radius runs its own power iteration, and stays below the
    multiplier's peak, 2*pi*a^2 for a <= L; for other p it maximizes
    ||T f||_p / ||f||_p over seeded random band-limited trial fields, each
    drawn, normed and transformed forward once for all radii. Either way
    each result is a lower estimate and must sit below the l1 mass of its
    tail table, which the negative lobes lift above 2*pi*a^2.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    kspecs = [KernelSpec("tail", a=a) for a in a_list]
    if p == 2.0:
        return [_power_estimate(gspec, kspec, seed, iters) for kspec in kspecs]
    mults = [kernel_multiplier(gspec, kspec) for kspec in kspecs]
    rng = np.random.default_rng(seed)
    best = [0.0] * len(mults)
    for _ in range(trials):
        f = random_band_limited(gspec, rng)
        denom = lp_norm(f, p)
        if denom == 0.0:
            continue
        re, im = _convolve_real(f.values.real, *mults), _convolve_real(f.values.imag, *mults)
        best = [max(b, lp_norm(Field(gspec, r + 1j * i), p) / denom)
                for b, r, i in zip(best, re, im)]
        del re, im  # the next trial's convolutions need the room
    return [float(b) for b in best]
