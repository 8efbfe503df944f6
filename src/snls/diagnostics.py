"""Conserved-quantity functionals and Sobolev norms of coefficient arrays
(..., 2K+1), and the Jacobian-based symplecticity test of a one-step
map of coefficients.  A functional past the float range is inf or NaN,
without a numpy warning."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _check
from .torus import _pad_size, mode_cutoff


@np.errstate(over="ignore")
def mass(c: np.ndarray) -> float:
    """sum_k |c_k|^2 (Fourier convention)."""
    return float(np.sum(np.abs(c) ** 2))


@np.errstate(over="ignore", invalid="ignore")
def energy_h0(c: np.ndarray, lam: float) -> float:
    """Deterministic Hamiltonian (1/2) sum k^2 |c_k|^2 + (lam/4) * quartic,
    with the quartic sum_k conj(c_k) (|u|^2 u)_k on the truncated mode set:
    by Parseval (1/n) sum_j |u(x_j)|^4 on n >= 4K+1 points, free of aliases."""
    lam = _check.real("lambda", lam)
    K = mode_cutoff(c)
    kinetic = 0.5 * float(np.sum(_k_squared(K) * np.abs(c) ** 2))
    if lam == 0.0:
        return kinetic
    n = _pad_size(K)
    u_sq = np.abs(np.fft.ifft(c, n, norm="forward")) ** 2
    return kinetic + 0.25 * lam * float(np.sum(u_sq * u_sq)) / n


@np.errstate(over="ignore")
def sobolev_norm(c: np.ndarray, alpha: float):
    """sqrt( sum_k (1+k^2)^alpha |c_k|^2 ): a float for one field, an
    array over the batch axes for a batch."""
    alpha = _check.real("alpha", alpha, within=(0.0, np.inf), must="finite and >= 0")
    return np.sqrt((_sobolev_weights(mode_cutoff(c), alpha) * np.abs(c) ** 2).sum(axis=-1))


@lru_cache(maxsize=64)
def _k_squared(K: int) -> np.ndarray:
    """k^2 for k = -K..K (read-only: shared by every call)."""
    k = np.arange(-K, K + 1).astype(float)
    k_sq = k**2
    k_sq.flags.writeable = False
    return k_sq


@lru_cache(maxsize=64)
def _sobolev_weights(K: int, alpha: float) -> np.ndarray:
    """(1+k^2)^alpha for k = -K..K (read-only: shared by every call); an
    alpha whose largest weight overflows is refused before any allocation."""
    with np.errstate(over="ignore"):
        top = (1.0 + np.float64(K) ** 2) ** alpha
    if not top < np.inf:
        raise ValueError(f"alpha={alpha} overflows the Sobolev weight (1+K^2)^alpha at K={K}")
    weights = (1.0 + _k_squared(K)) ** alpha
    weights.flags.writeable = False
    return weights


def _pack(c: np.ndarray) -> np.ndarray:
    """Interleaved real coordinates (Re u_k, Im u_k) per mode, along the
    last axis."""
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
    out[..., 0::2] = c.real
    out[..., 1::2] = c.imag
    return out


def canonical_form(n_modes: int) -> np.ndarray:
    """Block-diagonal J with blocks [[0,1],[-1,0]] per mode."""
    return np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])


def symplectic_defect(step_closure, c: np.ndarray, h: float = 1e-5) -> float:
    """|| M^T J M - J ||_inf for the central-difference Jacobian M of a
    deterministic (frozen-noise) one-step map at the coefficients c of
    one field, of shape (2K+1,); any other shape is a ValueError.

    step_closure maps a (2*dim, 2K+1) array of coefficients to one of
    the same shape; it is called once, on the 2*dim perturbed states
    c +- h e_i."""
    h = _check.real("finite-difference step h", h, gt=0, within=(0.0, np.finfo(float).max / 2),
                    must="finite and > 0 with 2h finite")
    mode_cutoff(c)  # refuses a 0-d array or an even length, as the functionals do
    if np.ndim(c) != 1:
        raise ValueError(f"expected the coefficients of one field, got shape {np.shape(c)}")
    x0 = _pack(np.asarray(c))
    dim = len(x0)
    shifts = h * np.eye(dim)
    x = np.concatenate((x0 + shifts, x0 - shifts))  # row i: x0 + h e_i, row dim+i: x0 - h e_i
    f = _pack(step_closure(x[:, 0::2] + 1j * x[:, 1::2]))
    M = ((f[:dim] - f[dim:]) / (2.0 * h)).T
    J = canonical_form(dim // 2)
    defect = M.T @ J @ M - J
    return float(np.max(np.abs(defect)))
