"""Resonance kernels: what `snls kernel-error` evaluates.

The exact oscillatory kernel e^{is(-2kk1+2k2k3)} is approximated by the
interpolated family K_2d built from the interpolation operator P_d; for
d=1 with interpolation point 0 this reduces to the symplectic kernel
e^{-2iskk1} + e^{2isk2k3} - 1.  The closed-form weighted time integrals
of K_2d are reference code, in snls.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Interpolation order d and points gamma_1..gamma_d in [0,1]."""

    d: int
    gamma: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"interpolation order d must be >= 1, got {self.d}")
        if len(self.gamma) != self.d:
            raise ValueError("need exactly d interpolation points")
        if len(set(self.gamma)) != self.d:
            raise ValueError("interpolation points must be distinct")
        for g in self.gamma:
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"interpolation point {g} outside [0,1]")


def default_kernel_spec(d: int) -> KernelSpec:
    """d=1: the single point 0 (symplectic kernel); d>=2: equispaced."""
    if d == 1:
        return KernelSpec(1, (0.0,))
    return KernelSpec(d, tuple(j / (d - 1) for j in range(d)))


@dataclass(frozen=True)
class ModeQuad:
    """Mode quadruple with the resonance constraint k + k1 = k2 + k3."""

    k: int
    k1: int
    k2: int
    k3: int

    def __post_init__(self):
        if self.k + self.k1 != self.k2 + self.k3:
            raise ValueError(
                f"quad ({self.k},{self.k1},{self.k2},{self.k3}) violates k+k1=k2+k3"
            )


def interp_exp(spec: KernelSpec, omega: float, t: float) -> np.ndarray:
    """Coefficients (ascending powers of s) of the degree d-1 polynomial
    matching e^{i omega s} at s = t*gamma_j."""
    if t <= 0:
        raise ValueError(f"step t must be > 0, got {t}")
    nodes = t * np.asarray(spec.gamma, dtype=float)
    vals = np.exp(1j * omega * nodes)
    if spec.d == 1:
        return vals.astype(np.complex128)
    vander = np.vander(nodes, N=spec.d, increasing=True)
    return np.linalg.solve(vander, vals)


def _polyval(coeffs: np.ndarray, s) -> complex:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def kernel_exact(q: ModeQuad, s: float) -> complex:
    """e^{is(-2 k k1 + 2 k2 k3)}."""
    return np.exp(1j * s * (-2.0 * q.k * q.k1 + 2.0 * q.k2 * q.k3))


def kernel_K2d(spec: KernelSpec, q: ModeQuad, s: float, t: float) -> complex:
    """Interpolated kernel
    e^{-2iskk1} P_d[e^{2i.k2k3}](s) + e^{2isk2k3} P_d[e^{-2i.kk1}](s)
    - P_d[e^{2i.k2k3}](s) P_d[e^{-2i.kk1}](s)."""
    w_dom = -2.0 * q.k * q.k1
    w_low = 2.0 * q.k2 * q.k3
    p_low = _polyval(interp_exp(spec, w_low, t), s)
    p_dom = _polyval(interp_exp(spec, w_dom, t), s)
    e_dom = np.exp(1j * w_dom * s)
    e_low = np.exp(1j * w_low * s)
    return e_dom * p_low + e_low * p_dom - p_low * p_dom
