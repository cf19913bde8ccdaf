"""Nonlocal nonlinearities: the nonlinear part of the semilinear equation.

The evolution solved throughout is

    psi_t = i*alpha1*Laplacian(psi) + alpha2*g1(psi) - alpha2*g2(psi)

with the self-interaction term g1(psi) = psi * K(|psi|^2), the interaction
energy G1(psi) = integral |psi|^2 K(|psi|^2), and the normalization/friction
term g2(psi) = G1(psi) * psi.  The solvers apply the Laplacian term in
spectral space; this module gives them the rest in seven names:

  PhysParams            alpha1 and alpha2, for the solvers and the battery;
  density, potential    |psi|^2 and K(|psi|^2), which g1 reads;
  g1                    psi * K(|psi|^2), for the battery's probes;
  potential_and_energy  K(|psi|^2) and G1(psi) from one density, for
                        nonlinear_part and the battery's G1 and g2;
  nonlinear_part        the coefficients of alpha2*(g1 - g2) and G1(psi) from
                        one kernel apply, for integrand and accepted steps;
  integrand             W(t, u) = e^{-i a1 t Lap} N(e^{i a1 t Lap} u), the
                        Duhamel integrand: the Picard map sums it over nodes
                        and the stepper is RK4 on the Duhamel integrand.

Exact homogeneities (used heavily by the test batteries): g1 has degree 3
(g1(c*psi) = c|c|^2 g1(psi)), G1 degree 4, g2 degree 5 — so the Lipschitz
constant of g2 on an H^1 ball of radius M grows like M^4, as
experiments.lipschitz_battery measures.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Field, from_spectral, to_spectral
from .kernel import apply_kernel
from .propagate import free_phase


@dataclass(frozen=True)
class PhysParams:
    """Equation coefficients: dispersion alpha1 = hbar/2m, coupling alpha2.

    alpha2 = 0 switches off both nonlinear terms (free equation).
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not np.isfinite(self.alpha1) or self.alpha1 <= 0:
            raise ValueError(f"alpha1 must be positive, got {self.alpha1}")
        if not np.isfinite(self.alpha2) or self.alpha2 < 0:
            raise ValueError(f"alpha2 must be nonnegative, got {self.alpha2}")
        object.__setattr__(self, "alpha1", float(self.alpha1))
        object.__setattr__(self, "alpha2", float(self.alpha2))


def density(psi):
    """|psi|^2 as a float64 Field."""
    v = psi.values
    return Field(psi.spec, v.real**2 + v.imag**2)


def potential(psi, kspec):
    """The induced potential K(|psi|^2), a float64 Field."""
    return apply_kernel(kspec, density(psi))


def g1(psi, kspec):
    """Self-interaction term psi * K(|psi|^2).

    With an inner-truncated kernel this is the regularized nonlinearity
    (singularity removed inside radius a); with the full kernel it is the
    Newton self-interaction.
    """
    return Field(psi.spec, psi.values * potential(psi, kspec).values)


def potential_and_energy(psi, kspec):
    """The potential V = K(|psi|^2) and G1(psi) = integral of |psi|^2 V, from
    one density, which is freed on return.

    G1 is nonnegative for the full kernel up to FFT round-off; negative
    values smaller than 1e-12 of the absolute-value scale are clamped to zero.
    """
    rho = density(psi)
    pot = apply_kernel(kspec, rho)
    h3 = psi.spec.h**3
    raw = float(h3 * np.sum(rho.values * pot.values))
    if raw < 0.0:
        scale = float(h3 * np.sum(rho.values * np.abs(pot.values)))
        if -raw <= 1e-12 * scale:
            return pot, 0.0
    return pot, raw


def nonlinear_part(psi, params, kspec):
    """(coefficients, G1): the spectral coefficients of alpha2*(g1(psi) -
    g2(psi)) = alpha2*(V - G1)*psi, the stiffness-free piece of the right-hand
    side, and G1(psi), from one kernel apply, made even when alpha2 = 0."""
    pot, g1v = potential_and_energy(psi, kspec)
    part = Field(psi.spec, params.alpha2 * (pot.values - g1v) * psi.values)
    del pot, psi  # not held through the transform
    return to_spectral(part), g1v


def integrand(spec, t, u, params, kspec):
    """Interaction-picture integrand e^{-i a1 t Lap} N(psi(t)) at coefficients
    u, psi(t) = e^{i a1 t Lap} u: the right-hand side of both solvers."""
    e = free_phase(spec, t, params.alpha1)
    return nonlinear_part(from_spectral(spec, u * e), params, kspec)[0] * e.conj()
