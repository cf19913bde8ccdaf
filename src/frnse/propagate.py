"""Free Schrodinger propagator e^{i*alpha1*t*Lap} as an exact multiplier.

Sign convention, fixed project-wide: the free equation is
i psi_t = -alpha1 * Lap psi, so the spectral multiplier at wavenumber k is
exp(-i * alpha1 * |k|^2 * t).  A plane wave e^{i k0.x} therefore picks up
the phase exp(-i * alpha1 * |k0|^2 * t).
"""

import numpy as np

from .grid import Field, from_spectral, make_grid, min_image_r2, to_spectral


def free_phase(spec, t, alpha1):
    """The spectral multiplier exp(-i alpha1 t |k|^2) of e^{i alpha1 t Lap}:
    one exp per distinct |k|^2, scattered back through the grid's cached
    index, bitwise equal to np.exp(-1j * alpha1 * t * ksq)."""
    u, inv = make_grid(spec).ksq_levels
    return np.exp(-1j * alpha1 * t * u)[inv]


def free_evolve(psi, t, alpha1):
    """Evolve psi for time t under the free equation (t may be negative).

    Exact group on the grid: multiplies each spectral coefficient by a
    unit-modulus phase, hence unitary in L2 and H1. t = 0 returns psi itself.
    """
    if t == 0.0:
        return psi
    return from_spectral(psi.spec, to_spectral(psi) * free_phase(psi.spec, t, alpha1))


def free_gaussian_exact(spec, sigma, t, alpha1):
    """Closed-form free evolution of a Gaussian packet (analytic reference).

    The initial state exp(-|x-c|^2 / (2 sigma^2)), c the middle of the box,
    evolves under i psi_t = -alpha1 Lap psi into

        (sigma^2 / s)^{3/2} * exp(-|x-c|^2 / (2 s)),
        s = sigma^2 + 2 i alpha1 t,

    obtained from the Fourier representation (Gaussian integrals only).
    Valid as a grid reference while the packet stays far from the box
    boundary; distances use the minimum image convention.
    """
    s = sigma**2 + 2j * alpha1 * t
    vals = (sigma**2 / s) ** 1.5 * np.exp(-min_image_r2(spec) / (2.0 * s))
    return Field(spec, vals)
