"""Spectral solver and verification battery for a frictional Schrodinger
equation with truncated Newton self-interaction on a periodic box."""

__version__ = "0.1.0"
