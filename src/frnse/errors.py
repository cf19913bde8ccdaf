"""Shared exception types for the solvers."""


class NonConvergence(Exception):
    """A fixed-point solve hit max_iter with the increment still above tol:
    the Picard iteration, or one block of a march.

    Usually means the horizon T is too large for the contraction regime.
    picard_solve attaches its partial convergence data as ``report``; a
    march names the block in the message and attaches none.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DivergenceDetected(Exception):
    """NaN or overflow appeared during time stepping or fixed-point iteration."""
