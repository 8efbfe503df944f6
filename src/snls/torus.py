"""Fourier representation of fields on the torus [0, 2pi).

Fields are stored as the 2K+1 complex coefficients c_k, k = -K..K, in
ascending-k order along the last axis.  Leading axes, if any, index a
batch of independent fields (Monte-Carlo samples) on the same grid.  All
inner products and norms use the plain Fourier convention sum_k |c_k|^2
(the 2*pi factor of the physical integral is dropped uniformly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len


@dataclass(frozen=True)
class TorusGrid:
    """Mode cutoff K: modes -K..K."""

    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"mode cutoff K must be >= 1, got {self.K}")

    @property
    def n_modes(self) -> int:
        return 2 * self.K + 1

    def modes(self) -> np.ndarray:
        """Mode numbers -K..K in storage order."""
        return np.arange(-self.K, self.K + 1)


@dataclass
class SpectralField:
    """Complex Fourier coefficients c_k, k = -K..K, on a TorusGrid.

    coefficients has shape (..., 2K+1): one field, or a batch of fields
    along the leading axes.  The constructor copies and checks its input;
    it is the boundary through which outside data comes in.
    """

    coefficients: np.ndarray
    grid: TorusGrid

    @classmethod
    def wrap(cls, coefficients: np.ndarray, grid: TorusGrid) -> "SpectralField":
        """A field on `coefficients` as given, neither copied nor checked.

        Internal: for complex (..., 2K+1) arrays the caller has just
        computed and owns, as the maps, the propagator and the stage
        solve do."""
        f = object.__new__(cls)
        f.coefficients = coefficients
        f.grid = grid
        return f

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=np.complex128)  # always a copy
        if c.ndim == 0 or c.shape[-1] != self.grid.n_modes:
            raise ValueError(
                f"expected {self.grid.n_modes} coefficients, got shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficient")
        self.coefficients = c

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.coefficients + other.coefficients, self.grid)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.coefficients - other.coefficients, self.grid)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.coefficients * scalar, self.grid)

    __rmul__ = __mul__


def _check_same_grid(a: SpectralField, b: SpectralField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _embed(coeffs: np.ndarray, K: int, n: int) -> np.ndarray:
    """Place modes -K..K into an n-length FFT spectrum (n >= 2K+1),
    along the last axis."""
    spec = np.zeros(coeffs.shape[:-1] + (n,), dtype=np.complex128)
    spec[..., : K + 1] = coeffs[..., K:]
    spec[..., n - K :] = coeffs[..., :K]
    return spec


def _extract(spec: np.ndarray, K: int) -> np.ndarray:
    """Modes -K..K of FFT spectra along the last axis."""
    n = spec.shape[-1]
    return np.concatenate((spec[..., n - K :], spec[..., : K + 1]), axis=-1)


def free_propagator(f: SpectralField, t: float) -> SpectralField:
    """e^{it Laplacian}: multiply coefficient k by e^{-i t k^2}."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    return SpectralField.wrap(f.coefficients * _propagator(f.grid.K, t), f.grid)


@lru_cache(maxsize=64)
def _propagator(K: int, t: float) -> np.ndarray:
    """e^{-i t k^2} for k = -K..K (read-only: shared by every call)."""
    k = np.arange(-K, K + 1).astype(float)
    mult = np.exp(-1j * t * k**2)
    mult.flags.writeable = False
    return mult


def _pad_size(K: int) -> int:
    # cubic products reach mode 3K; 4K+1 points keep aliases out of -K..K
    return next_fast_len(4 * K + 1)


def cubic_convolution(f: SpectralField) -> SpectralField:
    """Spectrum of |u|^2 u on the truncated mode set, via padded transforms.

    Output coefficient k is sum over k = -k1+k2+k3 (all indices in -K..K)
    of conj(c)_{k1} c_{k2} c_{k3}; oracles.cubic_convolution_direct is the direct sum.
    """
    K = f.grid.K
    n = _pad_size(K)
    u = np.fft.ifft(_embed(f.coefficients, K, n)) * n
    spec = np.fft.fft(np.conj(u) * u * u) / n
    return SpectralField.wrap(_extract(spec, K), f.grid)


def write_snapshot(f: SpectralField, path) -> None:
    """Field snapshot file: header `k_min,k_max`, then `k,re,im` per mode."""
    K = f.grid.K
    with open(path, "w") as fh:
        fh.write(f"{-K},{K}\n")
        for k, c in zip(f.grid.modes(), f.coefficients):
            fh.write(f"{k},{c.real:.17g},{c.imag:.17g}\n")


def read_snapshot(path, grid: TorusGrid | None = None) -> SpectralField:
    """Read a write_snapshot file; a malformed line is a ValueError that
    names the file and the line."""
    with open(path) as fh:
        # an empty file reads as an empty header
        header, *rows = [line.strip() for line in fh] or [""]
    try:
        k_min, k_max = map(int, header.split(","))
    except ValueError as exc:
        raise ValueError(f"snapshot {path}:1: expected k_min,k_max, got {header!r}") from exc
    if k_min != -k_max:
        raise ValueError(f"snapshot {path}:1: asymmetric mode range {k_min}..{k_max}")
    K = k_max
    if grid is None:
        grid = TorusGrid(K)
    elif grid.K != K:
        raise ValueError(f"snapshot {path}:1: header has K={K}, grid has K={grid.K}")
    if len(rows) != 2 * K + 1:
        raise ValueError(
            f"snapshot {path}: header promises {2 * K + 1} mode lines, found {len(rows)}"
        )
    coeffs = np.zeros(2 * K + 1, dtype=np.complex128)
    for i, row in enumerate(rows):
        try:
            k_s, re_s, im_s = row.split(",")
            k, coeffs[i] = int(k_s), float(re_s) + 1j * float(im_s)
        except ValueError:
            k = None
        if k != i - K or not np.isfinite(coeffs[i]):
            raise ValueError(f"snapshot {path}:{i + 2}: expected mode {i - K} as k,re,im "
                             f"with finite re and im, got {row!r}")
    return SpectralField(coeffs, grid)
