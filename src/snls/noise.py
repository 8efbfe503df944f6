"""Covariance operator, refinable per-mode Wiener paths and the
normalized noise increments that stepping freezes over each step.

Paths are stored as per-mode increments on a dyadic grid and refined by
Brownian-bridge splitting.  Two implementation choices matter:

* All increments are quantized to integer multiples of 2^-40.  Additions
  of such values are exact in double precision while |W_k| stays below
  2^12, which sample_path and refine check, so coarse increments equal
  the sum of their refined children bit for bit, and the Stratonovich
  product identities (snls.oracles) hold to rounding on every discrete path.

* The mode-(-k) path is identical to the mode-k path (W_{-k} = W_k).
  Together with Phi_k = Phi_{-k} this makes the complex noise field
  sum_k Phi_k W_k e^{ikx} real-valued, and it is what makes the
  stochastic discretisation map exactly mass-orthogonal pathwise.

Randomness is counter-based (Philox keyed by seed, mode and refinement
level), so refining a path never perturbs previously drawn increments
and paths are reproducible across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# quantization grain for increments; keeps dyadic sums exact in doubles
_GRAIN = 2.0**-40
# seeds are the first word of the uint64 Philox key
MAX_SEED = 2**64 - 1
# bound on |W_k| along a path: grain multiples below 2^13 are exact in
# doubles, so sums of two values below 2^12 are still exact
_W_LIMIT = 2.0**12


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.round(x / _GRAIN) * _GRAIN


def _check_exact(rows: np.ndarray) -> None:
    """Raise unless every running sum of the increment rows stays below
    _W_LIMIT (a NaN sum fails too)."""
    w = np.cumsum(rows, axis=-1)
    reach = max(w.max(), -w.min())
    if not reach < _W_LIMIT:
        raise ValueError(
            f"path reaches |W| = {reach:.6g} >= 2^12, past which its increments "
            "no longer sum exactly; use a shorter horizon"
        )


def _normals(seed: int, mode: int, level: int, n: int) -> np.ndarray:
    """n standard normals from a stream keyed by (seed, mode, level)."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
    key = np.array([np.uint64(seed), np.uint64(((mode + (1 << 20)) << 24) + level)])
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


@dataclass(frozen=True)
class CovarianceOp:
    """Real, even Fourier multipliers Phi_k, k = -K..K in ascending order."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)  # read-only copy, like NoiseIncrement.w
        phi.flags.writeable = False
        if phi.ndim != 1 or len(phi) % 2 != 1:
            raise ValueError("phi must hold an odd number of modes -K..K")
        if not np.allclose(phi, phi[::-1], rtol=0, atol=0):
            raise ValueError("covariance coefficients must satisfy Phi_k = Phi_{-k}")
        object.__setattr__(self, "phi", phi)

    @property
    def K(self) -> int:
        return (len(self.phi) - 1) // 2


def default_phi(K: int) -> CovarianceOp:
    """Phi_0 = 0, Phi_k = 1/k^2 otherwise."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    k = np.arange(-K, K + 1).astype(float)
    phi = np.where(k == 0, 0.0, 1.0 / np.maximum(k**2, 1.0))
    return CovarianceOp(phi)


@dataclass(frozen=True)
class BrownianPath:
    """Per-mode real Wiener increments on a grid of n_base * 2^level
    cells over [0, horizon].

    increments has shape (2K+1, n_cells); row i holds mode k = i - K.
    Rows for -k and k are identical by construction.  n_base > 1 lets a
    path align with a non-dyadic number of simulation steps while each
    base cell stays dyadically refinable.

    A stacked path (see stack_paths) has increments of shape
    (S, 2K+1, n_cells) and a tuple of S seeds; it drives a batch of S
    samples through `increment`.  refine, mode_row and values take
    single paths, and so do the Stratonovich sums of snls.oracles.
    """

    seed: int | tuple
    K: int
    level: int
    horizon: float
    increments: np.ndarray
    n_base: int = 1

    @property
    def n_cells(self) -> int:
        return self.n_base * 2**self.level

    @property
    def dt(self) -> float:
        return self.horizon / self.n_cells

    def mode_row(self, k: int) -> np.ndarray:
        if self.increments.ndim != 2:
            raise ValueError("mode rows are read from a single path, not a stacked one")
        if not -self.K <= k <= self.K:
            raise ValueError(f"mode {k} outside -{self.K}..{self.K}")
        return self.increments[k + self.K]

    def values(self, k: int) -> np.ndarray:
        """W_k at the grid points 0, dt, ..., horizon (length n_cells+1)."""
        out = np.zeros(self.n_cells + 1)
        np.cumsum(self.mode_row(k), out=out[1:])
        return out

    def cell_index(self, s: float) -> int:
        """Index of the grid point at time s; s must sit on the grid."""
        j = s / self.dt
        j_round = int(round(j))
        if not 0 <= j_round <= self.n_cells or abs(j - j_round) > 1e-9:
            raise ValueError(f"time {s} is not on the level-{self.level} grid")
        return j_round


def sample_path(seed: int, horizon: float, level: int, K: int, n_base: int = 1) -> BrownianPath:
    """Level-`level` path, deterministic in (seed, horizon, K, n_base)."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if n_base < 1:
        raise ValueError(f"n_base must be >= 1, got {n_base}")
    inc = np.empty((2 * K + 1, n_base * 2**level))
    for k in range(0, K + 1):
        row = _quantize(np.sqrt(horizon / n_base) * _normals(seed, k, 0, n_base))
        for lev in range(1, level + 1):
            row = _split(row, seed, k, lev, horizon)
        inc[K + k] = row
        inc[K - k] = row
    _check_exact(inc[K:])  # rows K-k mirror rows K+k
    return BrownianPath(
        seed=seed, K=K, level=level, horizon=horizon, increments=inc, n_base=n_base
    )


def _split(row: np.ndarray, seed: int, mode: int, level: int, horizon: float) -> np.ndarray:
    """Bridge-split level-(level-1) increments into level-`level` ones."""
    n = len(row)
    # midpoint displacement variance is a quarter of the parent cell length
    xi = _quantize(np.sqrt(horizon / n) / 2.0 * _normals(seed, mode, level, n))
    first = _quantize(row / 2.0) + xi
    out = np.empty(2 * n)
    out[0::2] = first
    out[1::2] = row - first  # exact: both are multiples of the grain
    return out


def refine(path: BrownianPath) -> BrownianPath:
    """Bridge refinement; coarse increments are exact sums of children."""
    if path.increments.ndim != 2:
        raise ValueError("refine takes a single path, not a stacked one")
    inc = np.empty((2 * path.K + 1, 2 * path.n_cells))
    for k in range(0, path.K + 1):
        row = _split(path.increments[path.K + k], path.seed, k, path.level + 1, path.horizon)
        inc[path.K + k] = row
        inc[path.K - k] = row
    _check_exact(inc[path.K:])
    return BrownianPath(
        seed=path.seed, K=path.K, level=path.level + 1,
        horizon=path.horizon, increments=inc, n_base=path.n_base,
    )


def stack_paths(paths) -> BrownianPath:
    """One path holding the increments of `paths` (same K, level,
    horizon and n_base) along a leading sample axis."""
    first = paths[0]
    for p in paths:
        if (p.K, p.level, p.horizon, p.n_base) != (first.K, first.level, first.horizon,
                                                   first.n_base):
            raise ValueError("stacked paths must share K, level, horizon and n_base")
    return BrownianPath(
        seed=tuple(p.seed for p in paths), K=first.K, level=first.level,
        horizon=first.horizon, increments=np.stack([p.increments for p in paths]),
        n_base=first.n_base,
    )


@dataclass(frozen=True)
class NoiseIncrement:
    """Normalized increments W_{n,k} = (W_k(t1) - W_k(t0)) / sqrt(t1-t0).

    w has shape (2K+1,), or (S, 2K+1) for a stacked path.  It is kept as
    a read-only copy: map_P_frozen caches the noise operator it builds
    from w here, and that operator must never describe other values."""

    w: np.ndarray
    step: float
    # (phi, apply) of the last map_P_frozen call on this increment
    operator: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


def increment(path: BrownianPath, t0: float, t1: float) -> NoiseIncrement:
    j0 = path.cell_index(t0)
    j1 = path.cell_index(t1)
    if j1 <= j0:
        raise ValueError(f"need t1 > t0 on the grid, got [{t0}, {t1}]")
    step = (j1 - j0) * path.dt
    w = path.increments[..., j0:j1].sum(axis=-1) / np.sqrt(step)
    return NoiseIncrement(w=w, step=step)
