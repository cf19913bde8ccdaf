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
in hand. Both solvers walk the nodes in one loop, _solve_nodes, which keeps
per array only what the rules read next: U_j, P_{j-1} and P_j, W_{j-3} to
W_j. Within a block that is at most four integrands and three prefixes.
picard_solve also holds its m+1 node coefficients and node 0's integrand,
the same in every map: (m+1)+8 complex n^3 arrays; the Trajectory it
returns keeps the coefficients and builds a node's Field when it is read.
march_solve yields each node as it is solved and holds the window alone.

Two solvers reach the fixed point of the same discrete system. The
Weissinger (Picard, Jacobi) iteration of picard_solve is the one the paper's
local existence rests on; it is the measured one: its increments give
contraction_report's C_fit and factorial envelope, and it always starts
cold; each of its maps is one pass of the loop over the old nodes.
march_solve only solves. Every quadrature rule is causal except Simpson's
node 1, which reads W_2, so the node equations are lower triangular and it
solves them one block at a time, from the free trajectory's node 0 forward:
the step-by-step method for discretized Volterra equations (P. Linz,
Analytical and Numerical Methods for Volterra Equations, SIAM 1985; H.
Brunner, Collocation Methods for Volterra Integral and Related Functional
Equations, CUP 2004). Each node starts from an Adams-Bashforth prediction,
since dU/dt is the integrand in the interaction picture, and each of its
iterations costs one integrand and contracts by about c dt L, with c the
rule's own weight.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, NonConvergence
from .grid import spectral_h1_norm, to_spectral
from .kernel import KernelSpec
from .nonlinear import PhysParams, integrand
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


def _predict(u, W, j, b, dt):
    """Start for node j from U_b = u, the last solved node: Adams-Bashforth
    4 on the integrands from j = 4, linear extrapolation along W_b below."""
    if j < 4:
        return u + ((j - b) * dt) * W[b]
    return u + (dt / 24.0) * (55.0 * W[j - 1] - 59.0 * W[j - 2]
                              + 37.0 * W[j - 3] - 9.0 * W[j - 4])


def _solve_nodes(spec, phi_hat, cfg, start=None, w0=None):
    """Walk the node equations U_j = phi_hat + P_j(W) in blocks from node 1
    and yield (block, its U values, change, integrands evaluated) per block.

    Simpson's nodes 1 and 2 form one block, since P_1 reads W_2; every other
    node is its own. A pass over a block takes its integrands at its U_j,
    then sets each U_j to phi_hat + P_j; change is the largest H^1 change of
    a pass. Given start, a node list, each block makes one pass from start's
    U_j, read when the block is reached, so the values are the Duhamel image
    of start. Without it, each block starts from _predict and repeats the
    pass until change is below tol, at most max_iter times: the march. Node
    0's integrand is w0, taken here at phi_hat unless given, and P_0 = 0.
    Between blocks only what the rules and _predict read next is held: U_j,
    P_{j-1}, P_j and W_{j-3} to W_j. Raises DivergenceDetected on a
    non-finite node; the overflow on the way there is expected, so each
    block's arithmetic runs in an errstate that ignores it and that no yield
    spans: the caller's stays its own.
    """
    dt, times, args = cfg.T / cfg.m, cfg.times, (cfg.params, cfg.kspec)
    first = (1, 2) if cfg.quad == "simpson" else (1,)
    with np.errstate(over="ignore", invalid="ignore"):
        P, u = {0: np.zeros_like(phi_hat)}, phi_hat
        W = {0: integrand(spec, 0.0, phi_hat, *args) if w0 is None else w0}
    for block in [first] + [(j,) for j in range(first[-1] + 1, cfg.m + 1)]:
        with np.errstate(over="ignore", invalid="ignore"):
            U = {j: _predict(u, W, j, block[0] - 1, dt) if start is None else start[j]
                 for j in block}
            W.pop(block[0] - 4, None)  # read by _predict only
            for passes in range(1, (cfg.max_iter if start is None else 1) + 1):
                for j in block:
                    W[j] = integrand(spec, times[j], U[j], *args)
                change = 0.0
                for j in block:
                    P[j] = _node_integral(P, W, j, dt, cfg.quad)
                    new = phi_hat + P[j]
                    if not np.isfinite(new).all():
                        raise DivergenceDetected(f"non-finite field at node {j}")
                    change = max(change, spectral_h1_norm(spec, new - U[j]))
                    U[j] = new
                if change < cfg.tol:
                    break
        P.pop(block[-1] - 2, None)
        u = U[block[-1]]
        yield block, [U[j] for j in block], change, passes * len(block)


def duhamel_map(spec, coeffs, phi_hat, cfg, w0=None):
    """One Jacobi step of the Duhamel map in the interaction picture, in
    place on the list coeffs of the m+1 node coefficients U_j (phi_hat: the
    datum's, which coeffs[0] must hold; it is neither read nor replaced;
    w0: its integrand, if already taken).
    Each later U_j is replaced by its image once the image is measured.
    Returns (increment, excursion), the sup-node H^1 distances of the image
    from the old nodes and from phi_hat."""
    if len(coeffs) != cfg.m + 1:
        raise ValueError("node count does not match the configuration")
    delta = excursion = 0.0
    for block, values, change, _ in _solve_nodes(spec, phi_hat, cfg, coeffs, w0):
        delta = max(delta, change)
        for j, new in zip(block, values):
            excursion = max(excursion, spectral_h1_norm(spec, new - phi_hat))
            coeffs[j] = new
    return delta, excursion


@dataclass(frozen=True)
class ConvergenceReport:
    """Increments, fixed-point residual and ball bookkeeping of one
    picard_solve.

    Increments are per iteration, delta_k = sup_j ||psi^{k+1}_j -
    psi^k_j||_H1; residual is the sup-node H^1 distance of one more map from
    the last iterate; iterations counts the maps.

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
    # overflow on a diverging iterate (in the map or in the H^1 norms of a
    # huge but finite one) is expected and reported below
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = integrand(spec, 0.0, phi_hat, cfg.params, cfg.kspec)  # every map's node 0
        for _ in range(cfg.max_iter):
            delta, reach = duhamel_map(spec, cur, phi_hat, cfg, w0)
            excursion = max(excursion, reach)
            increments.append(float(delta))
            if delta < cfg.tol:
                break
    converged, left_ball = increments[-1] < cfg.tol, excursion > phi_h1 > 0.0
    residual = (max(change for _, _, change, _ in _solve_nodes(spec, phi_hat, cfg, cur, w0))
                if converged else increments[-1])
    if left_ball:
        warnings.warn(
            f"iterates left the H^1 ball around the free trajectory "
            f"(excursion {excursion:.3e} > ||phi||_H1 {phi_h1:.3e})",
            stacklevel=2,
        )
    report = ConvergenceReport(
        increments=tuple(increments), residual=residual, converged=converged,
        iterations=len(increments), phi_h1=phi_h1, ball_excursion=float(excursion),
        left_ball=left_ball, T=cfg.T,
    )
    if not converged:
        raise NonConvergence(
            f"increment {increments[-1]:.3e} still above tol {cfg.tol:.1e} after "
            f"{cfg.max_iter} iterations; horizon T={cfg.T} too large for contraction?",
            report=report,
        )
    return Trajectory(cfg.times, NodeFields(phi, cfg.times, cur, cfg.params.alpha1)), report


def march_solve(phi, cfg):
    """Solve the node equations U_j = phi_hat + P_j(W) of the Duhamel map
    one block at a time, forward from node 0, cold: _solve_nodes without a
    start. A block's last integrand, taken within tol of its final U_j, is
    kept for the later nodes. The fixed point is the one picard_solve
    reaches. A generator: yields the node coefficients U_0 = phi_hat, U_1,
    ..., U_m as each block converges and keeps none of them. Raises
    NonConvergence, naming the block and the step T/m (a node's iteration
    contracts by about c dt L), when a block exhausts max_iter and
    DivergenceDetected on a non-finite node.
    """
    phi_hat = to_spectral(phi)
    yield phi_hat
    for block, values, change, _ in _solve_nodes(phi.spec, phi_hat, cfg):
        if not change < cfg.tol:
            raise NonConvergence(
                f"increment {change:.3e} still above tol {cfg.tol:.1e} after {cfg.max_iter} "
                f"iterations at node {'-'.join(map(str, block))}; step T/m={cfg.T / cfg.m:g} "
                "too large for contraction?")
        yield from values


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
