"""Periodic-box discretization: coordinates, wavenumbers, transforms, norms.

Transform convention, fixed project-wide: ``to_spectral`` returns coefficients
F such that f(x) = sum_k F(k) exp(i k.x), so the forward transform carries the
1/n^3 factor (numpy's ``norm="forward"``, applied inside the FFT) and
``from_spectral(spec, to_spectral(f))`` recovers f up to round-off.
Quadrature is the trapezoid rule on the periodic grid, i.e. h^3 times the sum
of sample values, which makes Parseval exact up to round-off.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic box: n points per axis, edge length L."""

    n: int
    L: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not np.isfinite(self.L) or self.L <= 0:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        object.__setattr__(self, "L", float(self.L))

    @property
    def h(self):
        return self.L / self.n

    @property
    def volume(self):
        return self.L**3


class Grid:
    """Coordinate and wavenumber tables for a GridSpec (built by make_grid)."""

    def __init__(self, spec):
        self.spec = spec
        n, h = spec.n, spec.h
        self.x = np.arange(n) * h
        # wavenumbers (2*pi/L)*m with m in {0,..,n/2-1, -n/2,..,-1}
        self.k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        k2 = self.k**2
        self.ksq = k2[:, None, None] + k2[None, :, None] + k2[None, None, :]
        self.ksq.setflags(write=False)

    @cached_property
    def ksq_levels(self):
        """Distinct values u of ksq and index inv with u[inv] == ksq, read-only."""
        u, inv = np.unique(self.ksq, return_inverse=True)
        inv = inv.reshape(self.ksq.shape)
        u.setflags(write=False)
        inv.setflags(write=False)
        return u, inv


@lru_cache(maxsize=32)
def make_grid(spec):
    """Return the (cached) Grid for a GridSpec."""
    return Grid(spec)


@dataclass(frozen=True)
class Field:
    """Samples on a periodic grid: float64 when built from float64 values
    (a density, a potential), complex128 for every other dtype.

    Values are stored as an (n, n, n) C-ordered array; the flat index
    convention is idx = (ix*n + iy)*n + iz, i.e. exactly ``values.ravel()``.
    Fields are immutable after construction; arithmetic returns new fields.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.spec.n
        v = np.asarray(self.values)
        if v.dtype != np.float64:
            v = v.astype(np.complex128, copy=False)
        if v.shape == (n * n * n,):
            v = v.reshape(n, n, n)
        if v.shape != (n, n, n):
            raise ValueError(f"values shape {v.shape} incompatible with n={n}")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # -- convenience arithmetic -------------------------------------------
    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("grid mismatch")

    def __add__(self, other):
        self._check(other)
        return Field(self.spec, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(self.spec, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.spec, self.values * scalar)

    __rmul__ = __mul__


def to_spectral(f):
    """Forward transform; returns coefficients F with f(x) = sum F(k) e^{ik.x}."""
    return np.fft.fftn(f.values, norm="forward")


def from_spectral(spec, coeffs):
    """Inverse of to_spectral."""
    return Field(spec, np.fft.ifftn(np.asarray(coeffs), norm="forward"))


def l2_norm(f):
    """Grid L2 norm from the h^3-weighted sample sum."""
    return float(np.sqrt(f.spec.h**3 * np.sum(np.abs(f.values) ** 2)))


def spectral_h1_norm(spec, coeffs):
    """H1 norm of the field with spectral coefficients coeffs, by Parseval."""
    ksq = make_grid(spec).ksq
    return float(np.sqrt(spec.volume * np.sum((1.0 + ksq) * np.abs(coeffs) ** 2)))


def h1_norm(f):
    """Grid H1 norm with the spectral gradient,
    ||f||_H1^2 = ||f||_L2^2 + ||grad f||_L2^2."""
    return spectral_h1_norm(f.spec, to_spectral(f))


def lp_norm(f, p):
    """Grid L^p norm (finite p >= 1) from the h^3-weighted sample sum.

    Where that sum underflows to 0 or overflows for a nonzero field, as at
    large p, it is taken on |f| / max|f| and the norm scaled back by max|f|.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"Lp norm requires a finite p >= 1, got {p}")
    a = np.abs(f.values)
    with np.errstate(over="ignore", under="ignore"):
        total = f.spec.h**3 * np.sum(a**p)
    peak = 1.0
    if not 0.0 < total < np.inf and a.max() > 0.0:
        peak = a.max()
        total = f.spec.h**3 * np.sum((a / peak) ** p)
    return float(peak * total ** (1.0 / p))


def random_band_limited(spec, rng, band_fraction=2.0 / 3.0):
    """Random complex Gaussian field with the top wavenumbers zeroed.

    Modes with per-axis index magnitude above band_fraction * n/2 are removed
    so spectral derivatives stay well resolved.
    """
    n = spec.n
    coeffs = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    m = np.abs(np.fft.fftfreq(n, d=1.0 / n))  # per-axis index magnitude
    cut = band_fraction * (n / 2.0)
    keep = m <= cut
    mask = (
        keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    )
    coeffs = np.where(mask, coeffs, 0.0)
    return from_spectral(spec, coeffs)


def plane_wave(spec, k):
    """The plane wave exp(i k.x) for integer wave numbers k, in units of 2 pi / L."""
    x = make_grid(spec).x
    kx, ky, kz = 2.0 * np.pi / spec.L * np.asarray(k, dtype=float)
    return Field(spec, np.exp(1j * (kx * x[:, None, None] + ky * x[None, :, None]
                                    + kz * x[None, None, :])))


def min_image_r2(spec, center=None):
    """Squared minimum-image distance of every grid point to center.

    Default center is the middle of the box.
    """
    L = spec.L
    if center is None:
        center = (L / 2.0, L / 2.0, L / 2.0)
    x = make_grid(spec).x
    dx, dy, dz = ((x - c + L / 2.0) % L - L / 2.0 for c in center)
    return dx[:, None, None] ** 2 + dy[None, :, None] ** 2 + dz[None, None, :] ** 2


def gaussian_field(spec, sigma, center=None):
    """Gaussian bump exp(-|x-c|^2 / (2 sigma^2)) with minimum-image distance.

    Default center is the middle of the box.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r2 = min_image_r2(spec, center)
    return Field(spec, np.exp(-r2 / (2.0 * sigma**2)).astype(complex))


def scaled_gaussian(spec, sigma, l2_target=None, h1_target=None):
    """Gaussian bump rescaled to a target L2 or H1 norm (at most one)."""
    if l2_target is not None and h1_target is not None:
        raise ValueError("give at most one of l2_target / h1_target")
    f = gaussian_field(spec, sigma)
    if l2_target is not None:
        return f * (l2_target / l2_norm(f))
    if h1_target is not None:
        return f * (h1_target / h1_norm(f))
    return f


def boundary_decay(f):
    """Max |f| on the six boundary faces relative to max |f| overall.

    Used by runners to warn when a box is too small for decaying data.
    """
    a = np.abs(f.values)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    edge = max(
        a[0, :, :].max(), a[-1, :, :].max(),
        a[:, 0, :].max(), a[:, -1, :].max(),
        a[:, :, 0].max(), a[:, :, -1].max(),
    )
    return float(edge / peak)


def warn_if_cramped(f):
    """Warn when f has not decayed below 1e-8 of its peak at the box boundary,
    the usual sign that the box is too small for free-space comparisons.
    Call it where a free-space reading is made; returns f."""
    decay = boundary_decay(f)
    if decay > 1e-8:
        warnings.warn(
            f"initial bump only decays to {decay:.2e} of its peak at the box "
            "boundary; increase L or decrease sigma",
            stacklevel=2,
        )
    return f
