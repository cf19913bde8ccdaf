"""Nonlocal nonlinearities and the full semilinear right-hand side.

The evolution solved throughout is

    psi_t = i*alpha1*Laplacian(psi) + alpha2*g1(psi) - alpha2*g2(psi)

with the self-interaction term g1(psi) = psi * K(|psi|^2), the interaction
energy G1(psi) = integral |psi|^2 K(|psi|^2), and the normalization/friction
term g2(psi) = G1(psi) * psi.  Swapping the full kernel for an
inner-truncated one turns g1 into its regularized version with the
singularity removed.

Exact homogeneities (used heavily by the test batteries): g1 has degree 3
(g1(c*psi) = c|c|^2 g1(psi)), G1 degree 4, g2 degree 5 — so the Lipschitz
constant of g2 on an H^1 ball of radius M grows like M^4.
"""

from dataclasses import dataclass, replace

import numpy as np

from .grid import (Field, from_spectral, h1_norm, l2_norm, laplacian, lp_norm,
                   random_band_limited, to_spectral)
from .kernel import apply_kernel


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

    def free(self):
        """Same dispersion, coupling switched off."""
        return replace(self, alpha2=0.0)


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


def _big_g1_value(psi, pot):
    """G1 from a precomputed potential, with the tiny-ringing clamp."""
    h3 = psi.spec.h**3
    v = psi.values
    dens = v.real**2 + v.imag**2
    raw = float(h3 * np.sum(dens * pot.values))
    if raw < 0.0:
        scale = float(h3 * np.sum(dens * np.abs(pot.values)))
        if -raw <= 1e-12 * scale:
            return 0.0
    return raw


def big_g1(psi, kspec):
    """Interaction energy G1(psi) = integral of |psi|^2 K(|psi|^2).

    Nonnegative for the full kernel up to FFT round-off; negative values
    smaller than 1e-12 of the absolute-value scale are clamped to zero.
    Degree-4 homogeneous: big_g1(c*psi) = |c|^4 big_g1(psi).
    """
    return _big_g1_value(psi, potential(psi, kspec))


def g2(psi, kspec):
    """Normalization term G1(psi) * psi, so ||g2(psi)|| = G1(psi) ||psi||."""
    return big_g1(psi, kspec) * psi


def _nonlinear_and_g1(psi, params, kspec):
    """nonlinear_part(psi) and G1(psi) from one kernel application, which is
    made even when alpha2 = 0. Forms alpha2*(V - G1)*psi with one real factor."""
    pot = potential(psi, kspec)
    g1v = _big_g1_value(psi, pot)
    factor = params.alpha2 * (pot.values - g1v)
    return Field(psi.spec, factor * psi.values), g1v


def nonlinear_part(psi, params, kspec):
    """alpha2*(g1(psi) - g2(psi)) with a single kernel application.

    This is the stiffness-free piece of the right-hand side, shared by the
    time stepper stages and the Duhamel integrand.
    """
    if params.alpha2 == 0.0:
        return Field(psi.spec, np.zeros_like(psi.values))
    return _nonlinear_and_g1(psi, params, kspec)[0]


def spectral_nonlinear_part(spec, coeffs, params, kspec):
    """Spectral coefficients of nonlinear_part at the field whose spectral
    coefficients are coeffs: the one trip through physical space that the
    Duhamel integrand and the stepper stages make."""
    return to_spectral(nonlinear_part(from_spectral(spec, coeffs), params, kspec))


def rhs(psi, params, kspec):
    """Full right-hand side i*alpha1*Lap(psi) + alpha2*g1 - alpha2*g2.

    Satisfies the balance identity Re<psi, rhs(psi)> =
    alpha2 * G1(psi) * (1 - ||psi||_L2^2) for the full kernel: the Laplacian
    contribution is purely imaginary, g1 contributes +alpha2*G1, and g2
    contributes -alpha2*G1*||psi||^2.
    """
    lap = laplacian(psi)
    out = 1j * params.alpha1 * lap.values
    if params.alpha2 != 0.0:
        out = out + nonlinear_part(psi, params, kspec).values
    return Field(psi.spec, out)


# --------------------------------------------------------------------------
# Lipschitz probes
# --------------------------------------------------------------------------

#: Exponents for the mixed-norm probe: difference of g1 measured in L^{3/2},
#: input difference in L^{2.25} (valid exponent triple rho=3, r=1.5).
RHO_PRIME = 1.5
R_ONE = 2.25


@dataclass(frozen=True)
class ProbeReport:
    """One Lipschitz-probe result (CSV row: probe, M, seed, pairs, max_ratio,
    fit_slope; fit_slope is NaN unless the probe was part of an M sweep)."""

    probe: str
    M: float
    seed: int
    pairs: int
    max_ratio: float
    fit_slope: float = float("nan")


def ball_field(gspec, rng, M):
    """Random band-limited field scaled to H^1 norm M*u, u ~ U(0.3, 1).

    Drawing the shape before the scale keeps the field a deterministic
    function of (rng stream, M) that is exactly linear in M, so doubling M
    doubles the field.
    """
    f = random_band_limited(gspec, rng)
    target = M * rng.uniform(0.3, 1.0)
    return f * (target / h1_norm(f))


def _probe_ops(which, kspec):
    if which == "g1_in_L2":
        return (lambda f: g1(f, kspec)), l2_norm, l2_norm
    if which == "g2_in_L2":
        return (lambda f: g2(f, kspec)), l2_norm, l2_norm
    if which == "g1_in_Lrho":
        return (
            (lambda f: g1(f, kspec)),
            lambda f: lp_norm(f, RHO_PRIME),
            lambda f: lp_norm(f, R_ONE),
        )
    raise ValueError(f"unknown probe {which!r}")


def lipschitz_probe(which, M, pairs=40, seed=0, *, gspec, kspec):
    """Empirical Lipschitz ratio of g1 or g2 over an H^1 ball of radius M.

    Draws `pairs` seeded random field pairs inside the ball and returns the
    maximum of ||G(phi) - G(psi)|| / ||phi - psi|| in the probe's norms.
    Coincident pairs (zero denominator) are skipped. Each pair uses the
    child seed [seed, pair_index], so ratios at different M are computed on
    identical field shapes and scale exactly by homogeneity.
    """
    if M <= 0:
        raise ValueError(f"ball radius must be positive, got {M}")
    op, num_norm, den_norm = _probe_ops(which, kspec)
    max_ratio = 0.0
    for i in range(pairs):
        rng = np.random.default_rng([seed, i])
        phi = ball_field(gspec, rng, M)
        psi = ball_field(gspec, rng, M)
        den = den_norm(phi - psi)
        if den == 0.0:
            continue
        ratio = num_norm(op(phi) - op(psi)) / den
        max_ratio = max(max_ratio, ratio)
    return ProbeReport(which, float(M), seed, pairs, float(max_ratio))


def lipschitz_growth(which, Ms, pairs=40, seed=0, *, gspec, kspec):
    """Run lipschitz_probe over several ball radii and fit the growth law.

    Returns (reports, slope) where slope is the least-squares slope of
    log(max_ratio) against log(M) and each report carries it in fit_slope.
    """
    if len(Ms) < 2:
        raise ValueError("need at least two ball radii to fit a growth law")
    raw = [lipschitz_probe(which, M, pairs, seed, gspec=gspec, kspec=kspec) for M in Ms]
    slope = float(
        np.polyfit(np.log([r.M for r in raw]), np.log([r.max_ratio for r in raw]), 1)[0]
    )
    reports = [replace(r, fit_slope=slope) for r in raw]
    return reports, slope
