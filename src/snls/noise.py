"""Covariance operator, refinable per-mode Wiener paths and the
normalized noise increments that stepping freezes over each step.

Paths are stored as per-mode increments on a dyadic grid and refined by
Brownian-bridge splitting.  Two implementation choices matter:

* All increments are quantized to integer multiples of 2^-40.  Additions
  of such values are exact in double precision while |W_k| stays below
  2^12, which sample_path and refine check, so coarse increments equal
  the sum of their refined children bit for bit, and the Stratonovich
  product identities (snls.oracles) hold to rounding on every discrete path.

* A path stores each of the modes 0..K once, and mode -k is read from
  the row of mode k (W_{-k} = W_k).  Together with Phi_k = Phi_{-k} this
  makes the complex noise field sum_k Phi_k W_k e^{ikx} real-valued, and
  it is what makes the stochastic discretisation map exactly
  mass-orthogonal pathwise.

Randomness is counter-based (Philox keyed by seed, mode and refinement
level), so refining a path never perturbs previously drawn increments
and paths are reproducible across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _check

# quantization grain for increments; keeps dyadic sums exact in doubles
_GRAIN = 2.0**-40
# the largest Brownian path sample_path draws, in doubles (1 GiB)
MAX_PATH_VALUES = 2**27
# the largest mode cutoff K: path sizes count 2K+1 values per cell
MAX_K = (MAX_PATH_VALUES - 1) // 2
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


def _normals(seed: int | tuple, level: int, n_modes: int, n: int) -> np.ndarray:
    """(n_modes, n) standard normals, with a leading axis of S for a tuple
    of S seeds; row k comes from the stream keyed by (seed, k, level).

    One Philox bit generator serves every row: it is reset to each
    row's key with a zero counter and an empty buffer, which is the
    state a fresh Philox(key=...) starts in, so the draws are the same
    bits.  The generator lives only for this call.
    """
    seeds = tuple(map(_check.seed, seed if isinstance(seed, tuple) else (seed,)))
    bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    generator = np.random.Generator(bit_generator)
    out = np.empty((len(seeds), n_modes, n))
    for i, s in enumerate(seeds):
        for k in range(n_modes):
            key = np.array([s, ((k + (1 << 20)) << 24) + level], dtype=np.uint64)
            bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0,
            }
            out[i, k] = generator.standard_normal(n)
    return out if isinstance(seed, tuple) else out[0]


@dataclass(frozen=True)
class CovarianceOp:
    """Real, finite, even Fourier multipliers Phi_k, k = -K..K in ascending order."""

    phi: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.phi):  # the float copy below would drop the imaginary parts
            raise ValueError("covariance coefficients must be real, "
                             f"got dtype {np.asarray(self.phi).dtype}")
        phi = np.array(self.phi, dtype=float)  # a read-only copy
        phi.flags.writeable = False
        if phi.ndim != 1 or len(phi) % 2 != 1:
            raise ValueError("phi must hold an odd number of modes -K..K")
        if not np.isfinite(phi).all():
            i = np.argmin(np.isfinite(phi))
            raise ValueError(
                f"covariance coefficients must be finite, got Phi_{i - len(phi) // 2} = {phi[i]}")
        if not np.allclose(phi, phi[::-1], rtol=0, atol=0):
            raise ValueError("covariance coefficients must satisfy Phi_k = Phi_{-k}")
        object.__setattr__(self, "phi", phi)

    @property
    def K(self) -> int:
        return (len(self.phi) - 1) // 2


def default_phi(K: int) -> CovarianceOp:
    """Phi_0 = 0, Phi_k = 1/k^2 otherwise."""
    K = _check.integer("K", K, 1, MAX_K)
    k = np.arange(-K, K + 1).astype(float)
    phi = np.where(k == 0, 0.0, 1.0 / np.maximum(k**2, 1.0))
    return CovarianceOp(phi)


@dataclass(frozen=True)
class BrownianPath:
    """Per-mode real Wiener increments on a grid of n_base * 2^level
    cells over [0, horizon].

    increments has shape (K+1, n_cells); row k holds mode k and, since
    W_{-k} = W_k, mode -k too, so each mode is stored once.  n_base > 1
    lets a path align with a non-dyadic number of simulation steps while
    each base cell stays dyadically refinable.

    A stacked path, drawn by sample_path from a tuple of S seeds, has
    increments of shape (S, K+1, n_cells); it drives S samples through
    `increment`, and refine refines each.  The Stratonovich sums of
    snls.oracles take single paths.
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

    def cell_index(self, s: float) -> int:
        """Index of the grid point at time s; s must sit on the grid."""
        j = _check.real("time", s) / self.dt
        j_round = int(round(j))
        if not 0 <= j_round <= self.n_cells or abs(j - j_round) > 1e-9:
            raise ValueError(f"time {s} is not on the level-{self.level} grid")
        return j_round


def sample_path(seed, horizon: float, level: int, K: int, n_base: int = 1) -> BrownianPath:
    """Level-`level` path, deterministic in (seed, horizon, K, n_base); for
    a tuple of seeds, the stacked path whose sample i is that of seed[i]."""
    if isinstance(seed, tuple) and not seed:
        raise ValueError("sample_path needs at least one seed, got an empty tuple")
    level = _check.integer("level", level, 0)
    horizon = _check.real("horizon", horizon, gt=0)
    n_base = _check.integer("n_base", n_base, 1)
    K = _check.integer("K", K, 1)
    _check_size(seed, K, n_base, level)
    normals = _normals(seed, 0, K + 1, n_base)
    rows = _quantize(np.sqrt(horizon / n_base) * normals)
    for lev in range(1, level + 1):
        rows = _split(rows, seed, lev, horizon)
    _check_exact(rows)
    return BrownianPath(seed, K, level, horizon, rows, n_base)


def _check_size(seed, K: int, n_base: int, level: int) -> None:
    """Raise if the level-`level` path of seed (a tuple for a stacked
    path) would pass MAX_PATH_VALUES, at 2K+1 values per cell."""
    n_paths = len(seed) if isinstance(seed, tuple) else 1
    # a shift, not 2**level, which a huge level would make huge
    if n_paths * (2 * K + 1) * n_base > MAX_PATH_VALUES >> level:
        raise ValueError(f"{n_paths} path(s) at K={K}, n_base={n_base} and level={level} "
                         f"would hold more than {MAX_PATH_VALUES} values")


def _split(rows: np.ndarray, seed, level: int, horizon: float) -> np.ndarray:
    """Bridge-split the level-(level-1) increments of modes 0..K (one
    row each, per sample) into level-`level` ones."""
    n = rows.shape[-1]
    normals = _normals(seed, level, rows.shape[-2], n)
    # midpoint displacement variance is a quarter of the parent cell length
    xi = _quantize(np.sqrt(horizon / n) / 2.0 * normals)
    first = _quantize(rows / 2.0) + xi
    out = np.empty(rows.shape[:-1] + (2 * n,))
    out[..., 0::2] = first
    out[..., 1::2] = rows - first  # exact: both are multiples of the grain
    return out


def refine(path: BrownianPath) -> BrownianPath:
    """Bridge refinement; coarse increments are exact sums of children."""
    level = path.level + 1
    _check_size(path.seed, path.K, path.n_base, level)
    rows = _split(path.increments, path.seed, level, path.horizon)
    _check_exact(rows)
    return BrownianPath(path.seed, path.K, level, path.horizon, rows, path.n_base)


def increment(path: BrownianPath, t0: float, t1: float) -> np.ndarray:
    """Normalized increments W_{n,k} = (W_k(t1) - W_k(t0)) / sqrt(t1-t0),
    of shape (2K+1,) for modes -K..K, or (S, 2K+1) for a stacked path."""
    j0 = path.cell_index(t0)
    j1 = path.cell_index(t1)
    if j1 <= j0:
        raise ValueError(f"need t1 > t0 on the grid, got [{t0}, {t1}]")
    x = path.increments[..., j0:j1].sum(axis=-1) / np.sqrt((j1 - j0) * path.dt)
    return np.concatenate((x[..., :0:-1], x), axis=-1)  # W_{-k} = W_k
