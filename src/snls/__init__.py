"""Pseudospectral simulation of the 1-D stochastic cubic Schrödinger
equation on the torus with low-regularity symplectic stochastic
Runge-Kutta schemes."""

__version__ = "0.1.0"
