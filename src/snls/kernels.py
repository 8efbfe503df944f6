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

from . import _check

# the largest interpolation order: interp_exp's Vandermonde system on t*gamma
# has condition number ~t^-(d-1), past 1e15 at d=5 and kernel-error's steps
# (3.5e15 at t=2^-11), so no digit would be right.  Callers use d=1 and d=2
MAX_KERNEL_D = 4


@dataclass(frozen=True)
class KernelSpec:
    """Interpolation order d and points gamma_1..gamma_d in [0,1]."""

    d: int
    gamma: tuple

    def __post_init__(self):
        d = _check.integer("interpolation order d", self.d, 1, MAX_KERNEL_D)
        if not isinstance(self.gamma, tuple) or len(self.gamma) != d:
            raise ValueError(f"gamma must be a tuple of d={d} points, got {self.gamma!r}")
        for g in self.gamma:
            _check.real("gamma", g, within=(0.0, 1.0), must="in [0, 1]")
        if len(set(self.gamma)) != d:
            raise ValueError("interpolation points must be distinct")


def default_kernel_spec(d: int) -> KernelSpec:
    """d=1: the single point 0 (symplectic kernel); d>=2: equispaced."""
    d = _check.integer("interpolation order d", d, 1, MAX_KERNEL_D)  # before the points
    if d == 1:
        return KernelSpec(1, (0.0,))
    return KernelSpec(d, tuple(j / (d - 1) for j in range(d)))


@dataclass(frozen=True)
class ModeQuad:
    """Mode quadruple with the resonance constraint k + k1 = k2 + k3; the
    modes may be integer arrays of one shape, one quad per element."""

    k: int | np.ndarray
    k1: int | np.ndarray
    k2: int | np.ndarray
    k3: int | np.ndarray

    def __post_init__(self):
        k, k1, k2, k3 = np.broadcast_arrays(self.k, self.k1, self.k2, self.k3)
        bad = np.argwhere(k + k1 != k2 + k3)
        if len(bad):
            i = tuple(bad[0])
            raise ValueError(f"quad ({k[i]},{k1[i]},{k2[i]},{k3[i]}) violates k+k1=k2+k3")


def interp_exp(spec: KernelSpec, omega, t: float) -> np.ndarray:
    """Coefficients (ascending powers of s) of the degree d-1 polynomial
    matching e^{i omega s} at s = t*gamma_j, along a leading axis of
    length d followed by the shape of omega."""
    t = _check.real("step t", t, gt=0)
    nodes = t * np.asarray(spec.gamma, dtype=float)
    vals = np.exp(1j * np.multiply.outer(nodes, omega))
    vander = np.vander(nodes, N=spec.d, increasing=True)
    return np.linalg.solve(vander, vals.reshape(spec.d, -1)).reshape(vals.shape)


def _horner(c, x):
    """sum_j c[j] x^j over the leading axis of c, in the steps of numpy's
    polyval(x, c, tensor=False), so the values are numpy's bit for bit
    without importing numpy.polynomial."""
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def kernel_exact(q: ModeQuad, s):
    """e^{is(-2 k k1 + 2 k2 k3)}."""
    return np.exp(1j * s * (-2.0 * q.k * q.k1 + 2.0 * q.k2 * q.k3))


def kernel_K2d(spec: KernelSpec, q: ModeQuad, s, t: float):
    """Interpolated kernel
    e^{-2iskk1} P_d[e^{2i.k2k3}](s) + e^{2isk2k3} P_d[e^{-2i.kk1}](s)
    - P_d[e^{2i.k2k3}](s) P_d[e^{-2i.kk1}](s), broadcast over q and s."""
    # both phases as one stack, its axis in front of the broadcast shape of q and s
    w = np.stack(np.broadcast_arrays(2.0 * q.k2 * q.k3, -2.0 * q.k * q.k1))
    w = w.reshape(w.shape[:1] + (1,) * (np.ndim(s) - w.ndim + 1) + w.shape[1:])
    p_low, p_dom = _horner(interp_exp(spec, w, t), s)
    e_low, e_dom = np.exp(1j * w * s)
    return e_dom * p_low + e_low * p_dom - p_low * p_dom
