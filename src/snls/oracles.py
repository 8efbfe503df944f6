"""Reference code: the direct sums, closed-form kernel integrals and
discrete Stratonovich sums that the tests and the acceptance criteria
compare the production code against, and the tableau coefficient check
and step bound that they test.  Nothing here runs in stepping or in the
commands."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _check
from .kernels import KernelSpec, ModeQuad, interp_exp
from .maps import ModelParams
from .noise import BrownianPath
from .torus import mode_cutoff

if TYPE_CHECKING:  # integrator imports this module
    from .integrator import Tableau


def _resonant_sum(c: np.ndarray, weight) -> np.ndarray:
    """sum over k = -k1+k2+k3 (all indices in -K..K) of
    weight(q) conj(c)_{k1} c_{k2} c_{k3}, along the last axis; q is the
    ModeQuad of every resonant quad as index arrays, k1 slowest and k3
    fastest, and each output mode adds its quads in that order."""
    K = mode_cutoff(c)
    k1, k2, k3 = np.meshgrid(*3 * [np.arange(-K, K + 1)], indexing="ij")
    k = -k1 + k2 + k3
    keep = np.abs(k) <= K
    q = ModeQuad(k[keep], k1[keep], k2[keep], k3[keep])
    terms = weight(q) * np.conj(c[..., q.k1 + K]) * c[..., q.k2 + K] * c[..., q.k3 + K]
    out = np.zeros(c.shape, dtype=complex)
    np.add.at(out, (..., q.k + K), terms)
    return out


def map_F(
    params: ModelParams,
    spec: KernelSpec,
    t: float,
    c: float,
    p: int,
    v: np.ndarray,
) -> np.ndarray:
    """Deterministic resonance map of coefficients v (..., 2K+1), direct
    O(K^3) sum over quads."""
    if not t > 0:
        raise ValueError(f"step t must be > 0, got {t}")
    return -1j * params.lam * _resonant_sum(v, lambda q: kernel_weight(spec, q, t, c, p))


def cubic_convolution_direct(c: np.ndarray) -> np.ndarray:
    """Direct O(K^3) triple sum; the dealiasing ground truth."""
    return _resonant_sum(c, lambda q: 1.0)


def orthogonality_defect(u: np.ndarray, g: np.ndarray) -> float:
    """Re sum_k conj(u_k) g_k; zero for both discretisation maps.  Arrays
    of different sizes are a ValueError."""
    return float(np.real(np.vdot(u, g)))


def weighted_exp_integral(omega, T: float, p: int):
    """Closed-form int_0^T s^p e^{i omega s} ds, elementwise over omega."""
    if p < 0:
        raise ValueError(f"power p must be >= 0, got {p}")
    if T < 0:
        raise ValueError(f"upper limit T must be >= 0, got {T}")
    omega = np.asarray(omega, dtype=float)
    out = np.empty(omega.shape, dtype=complex)
    # The integration-by-parts recursion divides by omega once per power
    # of s, losing ~eps/|omega T|^{p+1}; below |omega T| = 1 the series
    # int s^p sum_m (i w s)^m / m! ds converges fast enough to use
    # instead: its terms past m ~ 20 are below the sum's rounding
    series = np.abs(omega * T) < 1.0
    iw = 1j * omega[series]
    term = np.full(iw.shape, T ** (p + 1), dtype=complex)
    acc = np.zeros(iw.shape, dtype=complex)
    for m in range(40):
        acc += term / (p + m + 1)
        term = term * (iw * T / (m + 1))
    out[series] = acc
    iw = 1j * omega[~series]
    val = (np.exp(iw * T) - 1.0) / iw  # p = 0
    for q in range(1, p + 1):
        val = (T**q * np.exp(iw * T) - q * val) / iw
    out[~series] = val
    return out[()]


def kernel_weight(spec: KernelSpec, q: ModeQuad, t: float, c: float, p: int):
    """(1/t^{p+1}) int_0^{ct} K_2d(s) s^p ds in closed form, elementwise
    over the modes of q; interp_exp checks t and weighted_exp_integral
    checks p."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"node c must lie in [0,1], got {c}")
    w_dom = -2.0 * q.k * q.k1
    w_low = 2.0 * q.k2 * q.k3
    a_low = interp_exp(spec, w_low, t)  # P_d[e^{2i.k2k3}]
    a_dom = interp_exp(spec, w_dom, t)  # P_d[e^{-2i.kk1}]
    T = c * t
    total = 0.0 + 0.0j
    for a, w in ((a_low, w_dom), (a_dom, w_low)):
        for j, aj in enumerate(a):
            total += aj * weighted_exp_integral(w, T, p + j)
    # the product of the two interpolants, a_low[i] a_dom[j] s^{i+j}
    for i, ai in enumerate(a_low):
        for j, aj in enumerate(a_dom):
            total -= ai * aj * T ** (p + i + j + 1) / (p + i + j + 1)
    return total / t ** (p + 1)


def path_values(path: BrownianPath, k: int) -> np.ndarray:
    """W_k at the grid points 0, dt, ..., horizon (length n_cells+1)."""
    if path.increments.ndim != 2:
        raise ValueError("mode rows are read from a single path, not a stacked one")
    k = _check.integer("mode k", k, -path.K, path.K)
    out = np.zeros(path.n_cells + 1)
    np.cumsum(path.increments[abs(k)], out=out[1:])  # W_{-k} = W_k
    return out


def strat_integral(path: BrownianPath, k2: int, k3: int, t: float) -> float:
    """Trapezoidal (Stratonovich) sum int_0^t W_{k2}(s) o dW_{k3}(s)."""
    j = path.cell_index(t)
    w2 = path_values(path, k2)[: j + 1]  # refuses a stacked path
    dw3 = path.increments[abs(_check.integer("mode k", k3, -path.K, path.K)), :j]
    return float(np.sum(0.5 * (w2[:-1] + w2[1:]) * dw3))


def symmetrized_midpoint_double(path: BrownianPath, k2: int, k3: int, t: float) -> float:
    """int_0^t (W2(s) - W2(t)/2) o dW3 + int_0^t (W3(s) - W3(t)/2) o dW2.

    Telescopes to zero on every discrete path; this is the cancellation
    that lets the schemes drop the double stochastic integral.
    """
    i23 = strat_integral(path, k2, k3, t)
    i32 = strat_integral(path, k3, k2, t)
    j = path.cell_index(t)
    w2_t = path_values(path, k2)[j]
    w3_t = path_values(path, k3)[j]
    return (i23 - 0.5 * w2_t * w3_t) + (i32 - 0.5 * w3_t * w2_t)


@dataclass(frozen=True)
class TableauViolation:
    i: int
    j: int
    defect: float


def validate_tableau(tab: Tableau, tol: float = 1e-14) -> list[TableauViolation]:
    """Check b_i b_j - b_i a_j - b_j a_i = 0 for i,j in {0,1}."""
    a = (tab.a0, tab.a1)
    b = (tab.b0, tab.b1)
    defects = {(i, j): b[i] * b[j] - b[i] * a[j] - b[j] * a[i] for i in range(2) for j in range(2)}
    return [TableauViolation(i, j, d) for (i, j), d in defects.items() if abs(d) > tol]


def step_bound(C_R: float, C_PhiW: float) -> float:
    """Largest t with C_R t + C_PhiW sqrt(t) < 1 (contraction condition).

    Returns the unique positive root of C_R t + C_PhiW sqrt(t) = 1.
    """
    if C_R <= 0:
        raise ValueError(f"C_R must be > 0, got {C_R}")
    if C_PhiW < 0:
        raise ValueError(f"C_PhiW must be >= 0, got {C_PhiW}")
    # sqrt(t) = 2 / (C_PhiW + sqrt(C_PhiW^2 + 4 C_R)): the rationalized
    # quadratic root, free of cancellation for all positive constants
    root = 2.0 / (C_PhiW + np.sqrt(C_PhiW**2 + 4.0 * C_R))
    return float(root**2)
