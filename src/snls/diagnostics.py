"""Conserved-quantity functionals, Sobolev norms, and the Jacobian-based
symplecticity test."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .torus import SpectralField, cubic_convolution


def mass(u: SpectralField) -> float:
    """sum_k |u_k|^2 (Fourier convention)."""
    return float(np.sum(np.abs(u.coefficients) ** 2))


def energy_h0(u: SpectralField, lam: float) -> float:
    """Deterministic Hamiltonian (1/2) sum k^2 |u_k|^2 + (lam/4) * quartic,
    with the quartic evaluated on the truncated mode set."""
    k = u.grid.modes().astype(float)
    kinetic = 0.5 * float(np.sum(k**2 * np.abs(u.coefficients) ** 2))
    if lam == 0.0:
        return kinetic
    quartic = np.vdot(u.coefficients, cubic_convolution(u).coefficients)
    return kinetic + 0.25 * lam * float(np.real(quartic))


def sobolev_norm(u: SpectralField, alpha: float):
    """sqrt( sum_k (1+k^2)^alpha |u_k|^2 ): a float for one field, an
    array over the batch axes for a batch."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    norm = np.sqrt(np.sum(_sobolev_weights(u.grid.K, alpha) * np.abs(u.coefficients) ** 2,
                          axis=-1))
    return float(norm) if norm.ndim == 0 else norm


@lru_cache(maxsize=64)
def _sobolev_weights(K: int, alpha: float) -> np.ndarray:
    """(1+k^2)^alpha for k = -K..K (read-only: shared by every call)."""
    k = np.arange(-K, K + 1).astype(float)
    weights = (1.0 + k**2) ** alpha
    weights.flags.writeable = False
    return weights


def _pack(u: SpectralField) -> np.ndarray:
    """Interleaved real coordinates (Re u_k, Im u_k) per mode."""
    out = np.empty(2 * u.grid.n_modes)
    out[0::2] = u.coefficients.real
    out[1::2] = u.coefficients.imag
    return out


def _unpack(x: np.ndarray, grid) -> SpectralField:
    return SpectralField(x[0::2] + 1j * x[1::2], grid)


def canonical_form(n_modes: int) -> np.ndarray:
    """Block-diagonal J with blocks [[0,1],[-1,0]] per mode."""
    J = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        J[2 * i, 2 * i + 1] = 1.0
        J[2 * i + 1, 2 * i] = -1.0
    return J


def symplectic_defect(step_closure, u: SpectralField, h: float = 1e-5) -> float:
    """|| M^T J M - J ||_inf for the central-difference Jacobian M of a
    deterministic (frozen-noise) one-step map at u."""
    if h <= 0:
        raise ValueError(f"finite-difference step h must be > 0, got {h}")
    grid = u.grid
    x0 = _pack(u)
    dim = len(x0)
    M = np.empty((dim, dim))
    for i in range(dim):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        fp = _pack(step_closure(_unpack(xp, grid)))
        fm = _pack(step_closure(_unpack(xm, grid)))
        M[:, i] = (fp - fm) / (2.0 * h)
    J = canonical_form(grid.n_modes)
    defect = M.T @ J @ M - J
    return float(np.max(np.abs(defect)))
