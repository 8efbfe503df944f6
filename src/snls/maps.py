"""Discretisation maps for the cubic nonlinearity and the frozen-noise
stochastic term, as production stepping uses them.

map_F_midpoint_physical is a multiplier-operator form of t * map_F for
the d=1 symplectic kernel with p=0, c=1, evaluated with padded
transforms.  map_F is the Fourier-side ground truth, a direct sum over
resonant mode quadruples weighted by kernel integrals, in snls.oracles;
the operator form is derived from it and tested against it.

Every map takes one field or a batch of fields (leading axes of the
coefficient array) and returns the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _check
from .noise import CovarianceOp
from .torus import SpectralField, _fast_len, _pad_size


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity strength lambda, noise strength kappa, Sobolev
    exponent alpha used for residuals and error norms."""

    lam: float
    kappa: float
    alpha: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "lam", _check.real("lambda", self.lam))
        object.__setattr__(self, "kappa", _check.real("kappa", self.kappa))
        object.__setattr__(self, "alpha", _check.real("alpha", self.alpha, gt=1))


# map_P_frozen forms its product directly up to this many modes and by
# padded transforms above.  Each wins on its side: forcing transforms at
# K=8 took simulate from 0.33 to 0.48 s per 200 steps, and forcing the
# direct product at K=256 from 0.23 to 0.70 s per 40 steps (2 vCPUs)
DIRECT_MAX_MODES = 33
# integrator.step solves the stage's noise part exactly on the direct side
# from this sqrt(t)|a1 kappa| sum|Phi_k| up (crossover table in CHANGES.md)
EXACT_NOISE_MIN_RHO = 0.1


@dataclass(frozen=True)
class NoiseOperator:
    """apply(a): the convolution of coefficients a with b = Phi X on
    modes -K..K, which map_P_frozen scales by -i kappa."""

    K: int
    apply: Callable[[np.ndarray], np.ndarray]


def noise_operator(phi: CovarianceOp, X: np.ndarray) -> NoiseOperator:
    """The frozen noise of a step as map_P_frozen takes it, from the
    normalized increment array X of noise.increment; integrator.step
    builds it once per step.  Batch axes of X carry over."""
    K = phi.K
    if X.shape[-1] != 2 * K + 1:
        raise ValueError(f"noise increment has {X.shape[-1]} modes, covariance has K={K}")
    b = phi.phi * X
    if 2 * K + 1 <= DIRECT_MAX_MODES:
        # out_i = sum_j b_{i-j+K} a_j: the Toeplitz matrix of b, gathered
        # from b with K zeros on either side
        b_pad = np.zeros(b.shape[:-1] + (4 * K + 1,))
        b_pad[..., K : 3 * K + 1] = b
        op = b_pad[..., _toeplitz_index(K)]

        def apply(a):
            return (op @ a[..., None])[..., 0]
    else:
        # the spectrum of b: the full product has index i <-> mode i-2K,
        # i = 0..4K; with n >= 3K+1 points no alias lands on modes -K..K
        n = _fast_len(3 * K + 1)
        op = np.fft.fft(b, n)

        def apply(a):
            return np.fft.ifft(np.fft.fft(a, n) * op)[..., K : 3 * K + 1]
    op.flags.writeable = False
    return NoiseOperator(K, apply)


def map_P_frozen(params: ModelParams, v: SpectralField, noise: NoiseOperator) -> SpectralField:
    """Frozen-noise stochastic map of a full-Taylor stage at node 1:
    coefficient k is -i kappa sum_{k = k1 + k2} v_{k1} Phi_{k2} X_{k2}.

    noise is noise_operator(phi, X) of the normalized increment X over
    the step, as integrator.step draws it from the path.  Batch axes of
    v and X broadcast.
    """
    if noise.K != v.grid.K:
        raise ValueError(f"noise operator has K={noise.K}, field has K={v.grid.K}")
    out = noise.apply(v.coefficients)
    out *= -1j * params.kappa
    return SpectralField.wrap(out, v.grid)


@lru_cache(maxsize=64)
def _toeplitz_index(K: int) -> np.ndarray:
    """Index i - j + 2K of the padded noise at Toeplitz entry (i, j)
    (read-only: shared by every call)."""
    modes = np.arange(2 * K + 1)
    idx = modes[:, None] - modes[None, :] + 2 * K
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=64)
def _midpoint_multipliers(K: int, t: float):
    """Padded size n and map_F_midpoint_physical's read-only tables: the first
    round's (1, 1/(ik) (0 at k=0), e^{-itk^2}/(ik)) on modes -K..K; the
    third's (e^{-itk^2}, (i/2)e^{itk^2})/n, rolled so that index i holds
    mode i-2K; the layout phase e^{2 pi i K j/n}; and the last multipliers
    (i/2)e^{itk^2}/(ik) and (i/2)/(ik) on -K..K."""
    n = _pad_size(K)
    k = np.arange(-K, K + 1).astype(float)
    inv_d = np.divide(1.0, 1j * k, out=np.zeros(2 * K + 1, dtype=np.complex128), where=k != 0)
    kpad = np.fft.fftfreq(n, d=1.0 / n)  # mode numbers of the padded grid
    third = np.array((np.exp(-1j * t * kpad**2), 0.5j * np.exp(1j * t * kpad**2))) / n
    tables = (np.array((np.ones(2 * K + 1), inv_d, np.exp(-1j * t * k**2) * inv_d)),
              np.roll(third, 2 * K, axis=-1), np.exp(2j * np.pi * (K * np.arange(n) % n) / n),
              np.array((np.exp(1j * t * k**2), np.ones(2 * K + 1))) * 0.5j * inv_d)
    for m in tables:
        m.flags.writeable = False
    return (n, *tables)


def map_F_midpoint_physical(params: ModelParams, t: float, v: SpectralField) -> SpectralField:
    """t * map_F for the symplectic kernel (d=1, gamma=0, p=0, c=1),
    via multiplier operators and padded transforms.

    Splitting the kernel weight t*[phi1(-2itkk1) + phi1(2itk2k3) - 1],
    phi1(z) = (e^z - 1)/z, per quad and mapping 1/(ik) factors to the inverse derivative gives

      t*F(v) = -i lam [ S_A + S_B - t * C ]

    with C the cubic convolution, S_A the dominant-phase term (plus its
    kk1=0 corrections) and S_B the lower-phase term (plus its k2k3=0
    corrections); all products are formed without intermediate
    truncation on a 4K-padded grid, in 10 padded transforms.

    Coefficients are transformed in storage order, zero-padded to n, so
    sample j of a field carries the layout phase omega_j = e^{2 pi i K j/n}:
    the spectrum of a cubic product conj(a) b c holds modes -K..K at indices
    0..2K, and that of a square b c mode m at index m+2K.  The forward
    transforms are unnormalized; 1/n is in the third table and the last scale.
    """
    if not t > 0:
        raise ValueError(f"step t must be > 0, got {t}")
    c, K = v.coefficients, v.grid.K
    n, first, third, phase, last = _midpoint_multipliers(K, t)
    # each round's transforms share one FFT call, stacked on a leading axis that
    # its multiplier table takes; physical samples are the unnormalized inverse transform
    stacked = (slice(None),) + (None,) * (c.ndim - 1)
    # physical samples of v, of its inverse derivative d^-1 v and of E(t) d^-1 v
    u, inv_u, einv_u = np.fft.ifft(first[stacked] * c, n, norm="forward")
    u_sq = u * u
    # the S_A kk1 != 0 second piece, (v*v)_m untruncated and the S_B
    # square that needs E(-t)
    spectra = np.fft.fft(np.array((np.conj(inv_u) * u_sq, u_sq, einv_u * einv_u)))

    # S_A, kk1 != 0: (i/2) d^-1 { E(-t)[ conj(E(t)d^-1 v) * E(t)(v^2) ]
    #                             - conj(d^-1 v) * v^2 };
    # S_B: convolve conj(v) with G, where
    # G = (i/2)[ E(-t)((E(t)d^-1 v)^2) - (d^-1 v)^2 ]  (k2 k3 != 0 pairs)
    #   + t (2 v0 v - delta_0 v0^2)                    (k2 k3 = 0 pairs),
    # all of it physical but the E(-t) term.  S_B - t C, C being the spectrum
    # of conj(v) v^2, is one transform of conj(v) (G - t v^2), where
    # G - t v^2 = (i/2)[ ... ] - t (v - v0)^2 (phase omega^2)
    e_u_sq, g = np.fft.ifft(third[stacked] * spectra[1:], norm="forward")
    u_nz = u - phase * c[..., K, None]  # v - v0
    g -= 0.5j * inv_u * inv_u + t * u_nz * u_nz
    # only modes -K..K are kept from here on
    piece1, s_b_cubic = np.fft.fft(
        np.array((np.conj(einv_u) * e_u_sq, np.conj(u) * g)))[..., : 2 * K + 1]
    piece2, t_u_sq_k = spectra[0, ..., : 2 * K + 1], t * spectra[1, ..., K : 3 * K + 1]

    # S_A, kk1 = 0: t conj(v0) (v*v)_k for k != 0;
    # at k = 0 the k1 sum runs over all retained modes
    c_conj = np.conj(c)
    s_a0 = c_conj[..., K, None] * t_u_sq_k
    s_a0[..., K] = (c_conj * t_u_sq_k).sum(axis=-1)
    s = last[0] * piece1 - last[1] * piece2 + s_a0 + s_b_cubic
    return SpectralField.wrap((-1j * params.lam / n) * s, v.grid)
