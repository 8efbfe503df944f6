"""Resonance kernels: what `snls kernel-error` evaluates.

The exact oscillatory kernel e^{is(-2kk1+2k2k3)} is approximated by the
interpolated family K_2d built from the interpolation operator P_d; for
d=1 with interpolation point 0 this reduces to the symplectic kernel
e^{-2iskk1} + e^{2isk2k3} - 1.  The closed-form weighted time integrals
of K_2d are reference code, in snls.oracles.
"""

from __future__ import annotations

import math
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
        for name in ("k", "k1", "k2", "k3"):
            mode = getattr(self, name)
            if np.ndim(mode) == 0 and not isinstance(mode, np.ndarray):
                _check.integer(f"mode {name}", mode)
            elif np.asarray(mode).dtype.kind not in "iu":
                raise ValueError(f"mode {name} must be an integer array, got {mode!r}")
        k, k1, k2, k3 = np.broadcast_arrays(self.k, self.k1, self.k2, self.k3)
        bad = np.argwhere(k + k1 != k2 + k3)
        if len(bad):
            i = tuple(bad[0])
            raise ValueError(f"quad ({k[i]},{k1[i]},{k2[i]},{k3[i]}) violates k+k1=k2+k3")
        # integer-dtype modes keep every phase below 2^130; only Python ints
        # past uint64, held in object arrays, can take one past the float range
        if any(m.dtype == object for m in (k, k1, k2, k3)):
            for i in np.ndindex(k.shape):
                if not _finite_phases(k[i], k1[i], k2[i], k3[i]):
                    raise ValueError(f"quad ({k[i]},{k1[i]},{k2[i]},{k3[i]}) has a phase "
                                     "-2kk1, 2k2k3 or their sum past the float range")


def _finite_phases(k, k1, k2, k3) -> bool:
    """Whether the kernels' phases -2kk1 and 2k2k3, and their sum, are
    finite floats."""
    try:
        return math.isfinite(-2.0 * float(k) * float(k1) + 2.0 * float(k2) * float(k3))
    except OverflowError:  # a mode past the float range
        return False


def _steps(t):
    """One step as a float, or an array of steps as floats; each finite and > 0."""
    if np.ndim(t) == 0:
        return _check.real("step t", t, gt=0)
    steps = np.asarray(t)
    # an array of bools, complex numbers, strs or objects holds no real step
    kind_ok = steps.dtype.kind in "iuf"
    bad = steps[~(np.isfinite(steps) & (steps > 0))] if kind_ok else steps.ravel()
    if bad.size:
        raise ValueError(f"step t must be finite and > 0, got {bad[0].item()!r}")
    return steps.astype(float)


def interp_exp(spec: KernelSpec, omega, t) -> np.ndarray:
    """Coefficients (ascending powers of s) of the degree d-1 polynomial
    matching e^{i omega s} at s = t*gamma_j, for each step t and each
    frequency omega: a leading axis of length d followed by the shape of
    t (none for one step) and the shape of omega."""
    t = _steps(t)
    w = np.asarray(omega)
    if w.size and w.dtype.kind not in "iuf":  # bool, complex, str or object
        raise ValueError(f"frequency omega must be real, got {w.ravel()[:1].tolist()[0]!r}")
    bad = ~np.isfinite(w)
    if bad.any():
        raise ValueError(f"frequency omega must be finite, got {w[bad][0].item()}")
    nodes = np.multiply.outer(t, np.asarray(spec.gamma, dtype=float))  # the steps' axes, then d
    batch, d = nodes.shape[:-1], spec.d
    vals = np.exp(1j * np.multiply.outer(nodes, omega)).reshape(batch + (d, np.size(omega)))
    vander = np.vander(nodes.ravel(), N=d, increasing=True).reshape(batch + (d, d))
    coeffs = np.moveaxis(np.linalg.solve(vander, vals), -2, 0)
    return coeffs.reshape((d,) + batch + np.shape(omega))


def _horner(c, x):
    """sum_j c[j] x^j over the leading axis of c, in the steps of numpy's
    polyval(x, c, tensor=False), so the values are numpy's bit for bit
    without importing numpy.polynomial."""
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def _exp_table(omega, s):
    """e^{i omega s} exponentiated once per distinct (omega, s) pair: the
    table over the sorted distinct omega (rows) and s (columns), those
    omega, and the table index of each omega and each s in their shapes
    (np.unique's inverse has another shape in numpy 1.x than in 2.x).
    np.unique merges -0.0 with 0.0, whose exponentials and interpolants
    are the same bits.  A non-finite omega or s is refused: np.unique sorts
    -inf first and inf and NaN last, so only the two ends are checked."""
    (w, w_index), (v, s_index) = (np.unique(x, return_inverse=True) for x in (omega, s))
    for name, x in (("frequency omega", w), ("point s", v)):
        for end in x[:1], x[-1:]:
            if not np.isfinite(end).all():
                raise ValueError(f"{name} must be finite, got {end[0]}")
    table = np.zeros((len(w), len(v)), complex)  # i omega s, exponentiated in place
    np.multiply.outer(w, v, out=table.imag)
    np.exp(table, out=table)
    return table, w, w_index.reshape(np.shape(omega)), s_index.reshape(np.shape(s))


def kernel_exact(q: ModeQuad, s):
    """e^{is(-2 k k1 + 2 k2 k3)}, broadcast over q and s; each s finite."""
    table, _, w_index, s_index = _exp_table(-2.0 * q.k * q.k1 + 2.0 * q.k2 * q.k3, s)
    return table[w_index, s_index]


def kernel_K2d(spec: KernelSpec, q: ModeQuad, s, t):
    """Interpolated kernel
    e^{-2iskk1} P_d[e^{2i.k2k3}](s) + e^{2isk2k3} P_d[e^{-2i.kk1}](s)
    - P_d[e^{2i.k2k3}](s) P_d[e^{-2i.kk1}](s), broadcast over q, s and t.

    t is one step, or an array of steps of shape (T, 1, ..., 1) with the
    rank of the result: step t[i] interpolates the slice [i] of the
    result.  Each distinct phase e^{i omega s} is exponentiated once, and
    the interpolants are solved and summed on the distinct frequencies."""
    t = _steps(t)  # before any work; interp_exp checks the steps again
    # both phases as one stack, its axis in front of the quads' shape
    w = np.stack(np.broadcast_arrays(2.0 * q.k2 * q.k3, -2.0 * q.k * q.k1))
    shape = np.broadcast_shapes(w.shape[1:], np.shape(s), np.shape(t))
    if np.ndim(t) == 0:  # one step: the slice of a leading step axis of length 1
        return kernel_K2d(spec, q, s, np.full((1,) * (len(shape) + 1), t))[0]
    if t.shape != (len(t),) + (1,) * (len(shape) - 1):
        raise ValueError(f"steps t must be of shape (T, 1, ..., 1) with the rank of the "
                         f"result {shape}, got shape {t.shape}")
    s = np.broadcast_to(s, np.broadcast_shapes(np.shape(s), t.shape))  # step i's points: s[i]
    table, w, w_index, s_index = _exp_table(w, s)
    coeffs = interp_exp(spec, w, np.ravel(t))  # (d, T, distinct frequencies)
    # flat indices of each phase into a step's (frequency, point) arrays; a
    # take is several times faster than a 2-d gather
    n = s[0].size
    at = np.arange(n).reshape(s.shape[1:])
    low_at, dom_at = (np.broadcast_to(i * n + at, shape) for i in w_index)
    out = np.empty(shape, complex)
    for i in range(len(out)):  # one step at a time: no temporary of the result's size
        e = table[:, s_index[i].ravel()]
        p = _horner(coeffs[:, i, :, None], s[i].ravel())
        p_low, p_dom = p.take(low_at[i]), p.take(dom_at[i])
        out[i] = e.take(dom_at[i]) * p_low + e.take(low_at[i]) * p_dom - p_low * p_dom
    return out
