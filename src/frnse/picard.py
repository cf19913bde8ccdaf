"""Fixed-point construction of solutions via the Duhamel map.

A trajectory on uniform nodes t_j = j T/m is mapped to

    t_j  ->  e^{i a1 t_j Lap} phi
             + integral_0^{t_j} e^{i a1 (t_j - s) Lap}
                   [ a2 g1(psi(s)) - a2 g2(psi(s)) ] ds,

the time integral evaluated by a fixed quadrature over the nodes s <= t_j.
Iterating this map from the free trajectory converges, for small horizons,
at the super-geometric rate delta_k ~ (C T)^k / k!; contraction_report fits
C from successive increments and checks the factorial envelope.

The iteration runs in the interaction picture, on the spectral coefficients
U_j = to_spectral(e^{-i a1 t_j Lap} psi_j), where the map reads
U_j -> phi_hat + integral_0^{t_j} e^{-i a1 s Lap} N(psi(s)) ds and the free
trajectory is phi_hat at every node. A map costs each node two transforms
(to psi_j and back) and one phase, regardless of m. The propagator is
unitary, so both sup-node H^1 distances are Parseval sums on coefficients
in hand. A solve holds its m+1 node coefficients, which each map replaces
in place as it streams over the nodes, and a window of at most four
integrands and three prefixes: (m+1)+7 complex n^3 arrays. The Trajectory
it returns keeps the coefficients and builds a node's Field when it is read.

Two solvers reach the fixed point of the same discrete system. The
Weissinger (Picard, Jacobi) iteration of picard_solve is the one the paper's
local existence rests on; it is the measured one: its increments give
contraction_report's C_fit and factorial envelope, and it always starts
cold. march_solve only solves. Every quadrature rule is causal except
Simpson's node 1, which reads W_2, so the node equations are lower
triangular and it solves them one node at a time, from the free
trajectory's node 0 forward: the step-by-step method for discretized
Volterra equations (P. Linz, Analytical and Numerical Methods for Volterra
Equations, SIAM 1985; H. Brunner, Collocation Methods for Volterra Integral
and Related Functional Equations, CUP 2004). Each node starts from an
Adams-Bashforth prediction, since dU/dt is the integrand in the interaction
picture, and each of its iterations costs one integrand and contracts by
about c dt L, with c the rule's own weight.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, NonConvergence
from .grid import from_spectral, spectral_h1_norm, to_spectral
from .kernel import KernelSpec
from .nonlinear import PhysParams, nonlinear_part
from .propagate import free_phase
from .trajectory import NodeFields, Trajectory

QUAD_RULES = ("trapezoid", "simpson")


@dataclass(frozen=True)
class PicardConfig:
    """Fixed-point solve setup: horizon T, m uniform steps, quadrature rule,
    iteration budget and sup-node H^1 stopping increment."""

    T: float
    m: int
    kspec: KernelSpec
    params: PhysParams
    quad: str = "simpson"
    max_iter: int = 25
    tol: float = 1e-10

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m}")
        if self.quad not in QUAD_RULES:
            raise ValueError(f"quad must be one of {QUAD_RULES}, got {self.quad!r}")
        if self.quad == "simpson" and self.m % 2:
            raise ValueError(f"simpson quadrature needs even m, got {self.m}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "T", float(self.T))

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.m + 1)


def _node_integral(P, W, j, dt, quad):
    """P_j = integral_0^{t_j} W ds (j >= 1) from the samples W and the
    prefixes P_{j-1}, P_{j-2}; one rule for the whole Duhamel map and for a
    march.

    trapezoid: classic running trapezoid, O(dt^2).
    simpson: composite Simpson on even nodes; odd nodes are closed with a
    third-order backward (Adams-Moulton) step, except node 1 which uses the
    quadratic through the first three samples. Uniformly O(dt^4).
    """
    if quad == "trapezoid":
        return P[j - 1] + (dt / 2.0) * (W[j - 1] + W[j])
    if j == 1:
        return (dt / 12.0) * (5.0 * W[0] + 8.0 * W[1] - W[2])
    if j % 2 == 0:
        return P[j - 2] + (dt / 3.0) * (W[j - 2] + 4.0 * W[j - 1] + W[j])
    return P[j - 1] + (dt / 24.0) * (9.0 * W[j] + 19.0 * W[j - 1] - 5.0 * W[j - 2] + W[j - 3])


def _integrand(spec, t, u, cfg):
    """Interaction-picture integrand e^{-i a1 t Lap} N(psi(t)) at one node."""
    e = free_phase(spec, t, cfg.params.alpha1)
    return nonlinear_part(from_spectral(spec, u * e), cfg.params, cfg.kspec)[0] * e.conj()


def _images(spec, coeffs, phi_hat, cfg):
    """Yield (j, image of U_j) in node order. Node j's integrand is taken
    from coeffs[j] when node j is reached (Simpson's node 1 also takes node
    2's), so the caller may replace coeffs[j] once its image is yielded."""
    dt = cfg.T / cfg.m
    P, W = {0: np.zeros_like(phi_hat)}, {}
    for j in range(cfg.m + 1):
        for i in (j, 2) if j == 1 and cfg.quad == "simpson" else (j,):
            if i not in W:
                W[i] = _integrand(spec, cfg.times[i], coeffs[i], cfg)
        if j:
            P[j] = _node_integral(P, W, j, dt, cfg.quad)
        P.pop(j - 2, None)
        W.pop(j - 3, None)
        yield j, P[j] + phi_hat


def duhamel_map(spec, coeffs, phi_hat, cfg):
    """One Jacobi step of the Duhamel map in the interaction picture, in
    place on the list coeffs of the m+1 node coefficients U_j (phi_hat: the
    datum's). Each U_j is replaced by its image, node 0's phi_hat plus a zero
    integral, once the image is measured. Returns (increment, excursion), the
    sup-node H^1 distances of the image from the old nodes and from phi_hat."""
    if len(coeffs) != cfg.m + 1:
        raise ValueError("node count does not match the configuration")
    delta = excursion = 0.0
    for j, new in _images(spec, coeffs, phi_hat, cfg):
        if not np.isfinite(new).all():
            raise DivergenceDetected("non-finite field during fixed-point iteration")
        delta = max(delta, spectral_h1_norm(spec, new - coeffs[j]))
        excursion = max(excursion, spectral_h1_norm(spec, new - phi_hat))
        coeffs[j] = new
    return delta, excursion


@dataclass(frozen=True)
class ConvergenceReport:
    """Increments, fixed-point residual and ball bookkeeping of one solve.

    picard_solve: increments are per iteration, delta_k = sup_j
    ||psi^{k+1}_j - psi^k_j||_H1; residual is the sup-node H^1 distance of
    one more map from the last iterate; iterations counts the maps.
    march_solve: increments are per node, in order from node 1, each the H^1
    change of U_j in its last iteration, i.e. the distance from U_j to the
    point its integrand was taken at (Simpson's nodes 1 and 2, solved as one
    block, share the larger of theirs); residual is the largest of them;
    iterations counts the integrands evaluated after node 0.

    phi_h1 is the H^1 norm of the initial datum (proxy for the contraction
    ball radius); ball_excursion is the largest sup-node H^1 distance any
    iterate reached from the free trajectory.
    """

    increments: tuple
    residual: float
    converged: bool
    iterations: int
    phi_h1: float
    ball_excursion: float
    left_ball: bool
    T: float

    def table(self):
        """The increments as (header, rows): iterations from 1, the residual
        on the last row and NaN above it."""
        last = len(self.increments)
        return (("iteration", "increment", "residual"),
                [(k, d, self.residual if k == last else float("nan"))
                 for k, d in enumerate(self.increments, 1)])


def _finish(phi, cfg, coeffs, increments, residual, iterations, phi_h1, excursion,
            what):
    """Warn on a ball excursion, raise NonConvergence with the report if the
    last increment is not below tol, else return (trajectory, report)."""
    converged = increments[-1] < cfg.tol
    left_ball = excursion > phi_h1 > 0.0
    if left_ball:
        warnings.warn(
            f"iterates left the H^1 ball around the free trajectory "
            f"(excursion {excursion:.3e} > ||phi||_H1 {phi_h1:.3e})",
            stacklevel=3,
        )
    report = ConvergenceReport(
        increments=tuple(increments),
        residual=residual,
        converged=converged,
        iterations=iterations,
        phi_h1=phi_h1,
        ball_excursion=float(excursion),
        left_ball=left_ball,
        T=cfg.T,
    )
    if not converged:
        raise NonConvergence(
            f"increment {increments[-1]:.3e} still above tol {cfg.tol:.1e} after "
            f"{cfg.max_iter} {what}; horizon T={cfg.T} too large for contraction?",
            report=report,
        )
    return Trajectory(cfg.times, NodeFields(phi, cfg.times, coeffs, cfg.params.alpha1)), report


def picard_solve(phi, cfg):
    """Iterate the Duhamel map to its fixed point from the free trajectory
    of phi, the center of the contraction ball.

    Returns (trajectory, report); node 0 of the trajectory is phi itself.
    Raises NonConvergence (with the report attached) when max_iter is
    exhausted with the increment still above tol — the standard signal that
    the horizon T is too large for contraction — and DivergenceDetected on
    NaN/overflow.
    """
    spec = phi.spec
    phi_hat = to_spectral(phi)
    cur = [phi_hat] * (cfg.m + 1)
    phi_h1 = spectral_h1_norm(spec, phi_hat)
    increments, excursion = [], 0.0
    for _ in range(cfg.max_iter):
        # overflow on a diverging iterate (in the map or in the H^1 norms of
        # a huge but finite one) is expected and reported below
        with np.errstate(over="ignore", invalid="ignore"):
            delta, reach = duhamel_map(spec, cur, phi_hat, cfg)
        excursion = max(excursion, reach)
        increments.append(float(delta))
        if delta < cfg.tol:
            break
    residual = (max(spectral_h1_norm(spec, new - cur[j])
                    for j, new in _images(spec, cur, phi_hat, cfg))
                if increments[-1] < cfg.tol else increments[-1])
    return _finish(phi, cfg, cur, increments, residual, len(increments), phi_h1,
                   excursion, "iterations")


def _predict(U, W, j, b, dt):
    """Start for node j from the solved nodes up to b: Adams-Bashforth 4 on
    the integrands from j = 4, linear extrapolation along W_b below."""
    if j < 4:
        return U[b] + ((j - b) * dt) * W[b]
    return U[j - 1] + (dt / 24.0) * (55.0 * W[j - 1] - 59.0 * W[j - 2]
                                     + 37.0 * W[j - 3] - 9.0 * W[j - 4])


def march_solve(phi, cfg):
    """Solve the node equations U_j = phi_hat + P_j(W) of the Duhamel map
    one node at a time, forward from node 0, cold.

    Each node (Simpson's nodes 1 and 2 together, since P_1 reads W_2) starts
    from _predict and is iterated until its H^1 change falls below tol. The
    last integrand evaluated, taken within tol of the final U_j, is kept for
    the later nodes; only the last four integrands and three prefixes are
    held. The fixed point is the one picard_solve reaches; the increments
    are per node (see ConvergenceReport), so no contraction rate is read
    from them. Returns (trajectory, report); raises NonConvergence, naming
    the node, when a node exhausts max_iter and DivergenceDetected on a
    non-finite value.
    """
    spec = phi.spec
    phi_hat = to_spectral(phi)
    phi_h1 = spectral_h1_norm(spec, phi_hat)
    dt, times = cfg.T / cfg.m, cfg.times
    first = (1, 2) if cfg.quad == "simpson" else (1,)
    blocks = [first] + [(j,) for j in range(first[-1] + 1, cfg.m + 1)]
    U = [phi_hat] * (cfg.m + 1)
    P = {0: np.zeros_like(phi_hat)}
    increments, evaluated, excursion = [], 0, 0.0
    # overflow on a diverging node is expected and reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        W = {0: _integrand(spec, 0.0, phi_hat, cfg)}
        for block in blocks:
            for j in block:
                U[j] = _predict(U, W, j, block[0] - 1, dt)
            for _ in range(cfg.max_iter):
                for j in block:
                    W[j] = _integrand(spec, times[j], U[j], cfg)
                evaluated += len(block)
                delta = 0.0
                for j in block:
                    P[j] = _node_integral(P, W, j, dt, cfg.quad)
                    new = phi_hat + P[j]
                    if not np.isfinite(new).all():
                        raise DivergenceDetected(f"non-finite field at node {j}")
                    delta = max(delta, spectral_h1_norm(spec, new - U[j]))
                    excursion = max(excursion, spectral_h1_norm(spec, P[j]))
                    U[j] = new
                if delta < cfg.tol:
                    break
            increments.append(float(delta))
            if not delta < cfg.tol:
                break
            for j in block:
                P.pop(j - 3, None)
                W.pop(j - 4, None)
    return _finish(phi, cfg, U, increments, max(increments), evaluated, phi_h1,
                   excursion, f"iterations at node {'-'.join(map(str, block))}")


@dataclass(frozen=True)
class ContractionReport:
    """Fit of the contraction rate against the factorial envelope.

    C_fit solves delta_{k+1}/delta_k ~ C T/(k+1) in the median; envelope_ok
    says whether delta_k <= 1.25 * delta_0 (C_fit T)^k / k! held for every
    usable increment; ratios_decreasing allows 25% noise headroom.
    """

    C_fit: float
    ratios: tuple
    envelope_ok: bool
    ratios_decreasing: bool
    increments_decreasing: bool
    degenerate: bool


def contraction_report(report):
    """Analyze a ConvergenceReport's increments against (C T)^k / k! decay.

    A first increment at round-off level means the initializer was already
    the fixed point (e.g. the free case alpha2 = 0): that degenerate case is
    reported as such rather than fitted. Otherwise at least 3 increments
    above the round-off floor are required.
    """
    inc = report.increments
    if not inc:
        raise ValueError("report holds no increments")
    if inc[0] <= max(1e-14 * max(report.phi_h1, 1.0), 0.0):
        return ContractionReport(
            C_fit=0.0,
            ratios=(),
            envelope_ok=True,
            ratios_decreasing=True,
            increments_decreasing=True,
            degenerate=True,
        )
    floor = 1e-13 * inc[0]
    usable = []
    for d in inc:
        if d <= floor:
            break
        usable.append(d)
    if len(usable) < 3:
        raise ValueError(
            f"need at least 3 increments above the round-off floor, got {len(usable)}"
        )
    ratios = tuple(usable[k + 1] / usable[k] for k in range(len(usable) - 1))
    C_fit = float(np.median([(k + 1) * r for k, r in enumerate(ratios)]) / report.T)
    ct = C_fit * report.T
    envelope_ok = all(
        usable[k] <= 1.25 * usable[0] * ct**k / math.factorial(k)
        for k in range(1, len(usable))
    )
    ratios_decreasing = all(
        ratios[k + 1] <= 1.25 * ratios[k] for k in range(len(ratios) - 1)
    )
    increments_decreasing = all(
        usable[k + 1] <= usable[k] for k in range(1, len(usable) - 1)
    )
    return ContractionReport(
        C_fit=C_fit,
        ratios=ratios,
        envelope_ok=envelope_ok,
        ratios_decreasing=ratios_decreasing,
        increments_decreasing=increments_decreasing,
        degenerate=False,
    )
