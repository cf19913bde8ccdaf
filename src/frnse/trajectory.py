"""Time-sampled solutions: node fields, node distances, norm-law residuals."""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import from_spectral, spectral_h1_norm
from .propagate import free_phase


class NodeFields(Sequence):
    """A Duhamel solve's node Fields, read from its interaction-picture
    coefficients U_j: node j is from_spectral(U_j e^{-i a1 t_j |k|^2}), built
    each time it is read, node 0 the datum phi itself. Slices are views."""

    def __init__(self, phi, times, coeffs, alpha1, nodes=None):
        self._args = (phi, times, coeffs, alpha1)
        self._nodes = range(len(coeffs)) if nodes is None else nodes

    def __len__(self):
        return len(self._nodes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return NodeFields(*self._args, self._nodes[i])
        phi, times, coeffs, alpha1 = self._args
        j = self._nodes[i]
        if j == 0:
            return phi
        return from_spectral(phi.spec, coeffs[j] * free_phase(phi.spec, times[j], alpha1))


@dataclass(frozen=True)
class Trajectory:
    """A solution sampled at increasing times t_0 < ... < t_m.

    All fields share one grid. Node times need not be uniform (the adaptive
    stepper produces nonuniform snapshots); the fixed-point solvers always
    build uniform ones, and keep their node coefficients as NodeFields.
    """

    times: tuple
    fields: Sequence

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        fields = self.fields
        if not isinstance(fields, NodeFields):  # on phi's grid; reading them would build them
            fields = tuple(fields)
            if any(f.spec != fields[0].spec for f in fields):
                raise ValueError("trajectory fields live on different grids")
        if len(times) != len(fields):
            raise ValueError("times and fields length mismatch")
        if not fields:
            raise ValueError("trajectory needs at least one node")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fields", fields)

    def __len__(self):
        return len(self.fields)

    def final(self):
        return self.fields[-1]


def sup_h1_distance(a, b):
    """max over nodes of ||a_j - b_j||_H1 (the discretized X-norm distance)
    between two NodeFields, as the Parseval sum on U^a_j - U^b_j: both nodes
    carry the same unimodular free phase, which cancels, so no Field is built
    and nothing is transformed. Node 0's coefficients are phi_hat."""
    (phi_a, times_a, coeffs_a, alpha_a), (phi_b, times_b, coeffs_b, alpha_b) = a._args, b._args
    if len(a) != len(b):
        raise ValueError("node count mismatch")
    if phi_a.spec != phi_b.spec:
        raise ValueError("grid mismatch")
    if not np.array_equal([times_a[j] for j in a._nodes], [times_b[j] for j in b._nodes]):
        raise ValueError("node times differ")
    if alpha_a != alpha_b:
        raise ValueError("alpha1 differs")
    return max(spectral_h1_norm(phi_a.spec, coeffs_a[i] - coeffs_b[j])
               for i, j in zip(a._nodes, b._nodes))


def norm_law_residuals(times, l2, g1v, params):
    """Residual of d/dt ||psi||^2 = 2*alpha2*G1(psi)*(1 - ||psi||^2) per node.

    Differentiates the stored node norms with np.gradient (second order on
    nonuniform nodes, ends included; needs 3 nodes) and subtracts the
    predicted right-hand side; returns the signed residual array.
    """
    msq = np.asarray(l2, dtype=float) ** 2
    predicted = 2.0 * params.alpha2 * np.asarray(g1v, dtype=float) * (1.0 - msq)
    return np.gradient(msq, times, edge_order=2) - predicted
