"""Fourier representation of fields on the torus [0, 2pi).

Fields are stored as the 2K+1 complex coefficients c_k, k = -K..K, in
ascending-k order along the last axis.  Leading axes, if any, index a
batch of independent fields (Monte-Carlo samples) on the same grid.  All
inner products and norms use the plain Fourier convention sum_k |c_k|^2
(the 2*pi factor of the physical integral is dropped uniformly).  The
propagator takes and returns such arrays; a SpectralField pairs one with
its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _check


@dataclass(frozen=True)
class TorusGrid:
    """Mode cutoff K: modes -K..K."""

    K: int

    def __post_init__(self):
        object.__setattr__(self, "K", _check.integer("mode cutoff K", self.K, 1))

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

        Internal: for complex (..., 2K+1) arrays the library has just
        computed, as the maps and the stage solve do; a read-only view
        serves too, since no map or step writes its input."""
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


def mode_cutoff(c: np.ndarray) -> int:
    """K of coefficient arrays on modes -K..K, read from the last axis;
    a 0-d array or an even-length last axis is a ValueError."""
    shape = np.shape(c)
    if not shape or shape[-1] % 2 == 0:
        raise ValueError(f"expected 2K+1 coefficients along the last axis, got shape {shape}")
    return shape[-1] // 2


def free_propagator(c: np.ndarray, t: float) -> np.ndarray:
    """e^{it Laplacian} on coefficients c: multiply coefficient k by e^{-i t k^2}."""
    t = _check.real("propagation time t", t)
    return c * _propagator(mode_cutoff(c), t)


@lru_cache(maxsize=64)
def _propagator(K: int, t: float) -> np.ndarray:
    """e^{-i t k^2} for k = -K..K (read-only: shared by every call)."""
    k = np.arange(-K, K + 1).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        mult = np.exp(-1j * t * k**2)
    if not np.isfinite(mult[0]):  # k = -K, the largest phase
        raise ValueError(f"propagation time t={t} overflows the phase t K^2 at K={K}")
    mult.flags.writeable = False
    return mult


@lru_cache(maxsize=64)
def _fast_len(n: int) -> int:
    """The smallest m >= n with no prime factor above 11: a length that
    numpy.fft transforms fast (scipy.fft.next_fast_len's lengths)."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _pad_size(K: int) -> int:
    # cubic products reach mode 3K; 4K+1 points keep aliases out of -K..K
    return _fast_len(4 * K + 1)


def write_snapshot(f: SpectralField, path) -> None:
    """Field snapshot file: header `k_min,k_max`, then `k,re,im` per mode.
    A batch of fields is a ValueError, raised before the file is opened."""
    if f.coefficients.ndim != 1:
        raise ValueError(f"a snapshot holds one field, got shape {f.coefficients.shape}")
    K = f.grid.K
    with open(path, "w") as fh:
        fh.write(f"{-K},{K}\n")
        for k, c in zip(f.grid.modes(), f.coefficients):
            fh.write(f"{k},{c.real:.17g},{c.imag:.17g}\n")


def read_snapshot(path, grid: TorusGrid) -> SpectralField:
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
    if grid.K != K:
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
