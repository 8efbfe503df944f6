"""Experiment drivers: strong local error, kernel approximation order,
conservation and symplecticity checks.

Every driver is a pure function of its configuration (seeds included);
Monte-Carlo aggregation runs in fixed seed order for bit reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _check
from .config import MAX_PATH_VALUES, RunConfig, initial_field
from .diagnostics import sobolev_norm, symplectic_defect
from .integrator import (
    ExperimentInvalidError,
    FixedPointConfig,
    StepOutcome,
    StepRejectedError,
    midpoint_tableau,
    simulate,
    step,
)
from .kernels import ModeQuad, default_kernel_spec, kernel_K2d, kernel_exact
from .maps import ModelParams
from .noise import BrownianPath, CovarianceOp, sample_path
from .torus import SpectralField


@dataclass
class ErrorTable:
    """Error-vs-step-size table with a fitted log-log slope.

    rows: (t, rms error, max error, samples used, rejections, degenerate)
    """

    rows: list = field(default_factory=list)
    slope: float = float("nan")
    fit_residual: float = float("nan")

    def add_row(self, t, rms, mx, samples, rejections, degenerate):
        self.rows.append((t, rms, mx, samples, rejections, degenerate))

    def fit_slope(self) -> None:
        """Least-squares slope over non-degenerate rows."""
        pts = [(r[0], r[1]) for r in self.rows if not r[5]]
        if len(pts) < 2:
            self.slope = float("nan")
            self.fit_residual = float("nan")
            return
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
        self.slope = float(coeffs[0])
        self.fit_residual = float(res[0]) if len(res) else 0.0

    def write_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(line + "\n")
            fh.write(f"# slope={self.slope:.6g},fit_residual={self.fit_residual:.6g}\n")
            fh.write("t,error_rms,error_max,samples,rejections,degenerate\n")
            for t, rms, mx, n, rej, deg in self.rows:
                fh.write(f"{t:.17g},{rms:.17g},{mx:.17g},{n},{rej},{int(deg)}\n")


def reference_solution(
    u0: SpectralField,
    params: ModelParams,
    phi: CovarianceOp,
    path: BrownianPath,
    t_end: float,
    fp: FixedPointConfig,
) -> StepOutcome:
    """Midpoint run at the path's finest resolution over [0, t_end];
    the strong-error oracle for coarse runs on the same randomness.

    converged marks the samples that passed every substep (one field on
    one path is a batch with no batch axes), with per-sample iterations
    summed and the largest residual over the substeps."""
    n_sub = path.cell_index(t_end)
    if n_sub < 256:
        raise ValueError(
            f"path resolution too coarse for a reference ({n_sub} substeps < 256)"
        )
    tab = midpoint_tableau()
    dt = path.dt
    u = u0
    iterations, residual, converged = 0, 0.0, True
    for j in range(n_sub):
        outcome = step(u, tab, params, phi, path, j * dt, dt, fp)
        u = outcome.state
        iterations = iterations + outcome.iterations
        residual = np.maximum(residual, outcome.residual)
        converged = converged & outcome.converged
    return StepOutcome(u, iterations, residual, converged)


def cmd_local_error(
    config: RunConfig,
    samples: int = 64,
    t_values=tuple(2.0**-e for e in range(4, 10)),
    ref_level: int = 8,
) -> ErrorTable:
    """One-step H^alpha error of the midpoint scheme against a same-path
    refined reference, averaged in root mean square over sample paths.

    Each step size steps the one initial field on the stacked path of
    its samples, which makes a batch; a sample whose coarse step or
    reference is rejected counts as a rejection."""
    samples = _check.integer("samples", samples, 16)
    ref_level = _check.integer("ref_level", ref_level)
    _check.integer("ref_level", ref_level, 8, must=(
        ">= 8 (the reference needs 2^ref_level >= 256 substeps)"))
    try:
        ts = tuple(_check.real("t", t, gt=0) for t in t_values)
    except (TypeError, ValueError):  # not iterable, or a bad step size
        ts = ()
    if not ts:
        raise ValueError(f"t_values must be one or more finite step sizes > 0, got {t_values!r}")
    # sample path i is seeded with seed + 1000*i + 1
    max_seed = _check.MAX_SEED - 1000 * (samples - 1) - 1
    if config.seed > max_seed:
        raise ValueError(
            f"seed {config.seed} is too large for {samples} local-error samples: "
            f"their path seeds run past 2^64-1; the largest usable seed is {max_seed}"
        )
    # sample_path counts samples * (2K+1) * 2^ref_level values; a shift,
    # not 2**ref_level, which a huge ref_level would make huge
    max_K = ((MAX_PATH_VALUES >> ref_level) // samples - 1) // 2
    if max_K < 1:
        max_samples = (MAX_PATH_VALUES >> ref_level) // 3
        fix = (f"sample count is {max_samples}" if max_samples >= 16 else  # else none fits
               f"ref_level is {(MAX_PATH_VALUES // (3 * 16)).bit_length() - 1} (for 16 samples)")
        raise ValueError(
            f"{samples} local-error samples are too many at refinement level {ref_level}: "
            f"their paths would pass {MAX_PATH_VALUES} values even at K=1; the largest "
            f"usable {fix}"
        )
    if config.K > max_K:
        raise ValueError(
            f"K={config.K} is too large for {samples} local-error samples at refinement "
            f"level {ref_level}: their paths would pass {MAX_PATH_VALUES} values; "
            f"the largest usable K is {max_K}"
        )
    params, phi, tab, fp = config.stepping()
    u0 = initial_field(config.initial_data, config.K, seed=config.seed)
    scale = sobolev_norm(u0.coefficients, config.alpha)

    seeds = tuple(config.seed + 1000 * i + 1 for i in range(samples))
    table = ErrorTable()
    for t in ts:
        path = sample_path(seeds, t, ref_level, config.K)
        coarse = step(u0, tab, params, phi, path, 0.0, t, fp)
        ref = reference_solution(u0, params, phi, path, t, fp)
        accepted = coarse.converged & ref.converged
        rejections = samples - int(np.count_nonzero(accepted))
        errors = sobolev_norm(coarse.state.coefficients - ref.state.coefficients,
                              config.alpha)[accepted]
        if rejections > 0.2 * samples:
            rejected = [seeds[i] for i in np.flatnonzero(~accepted)]
            more = f" and {rejections - 5} more" if rejections > 5 else ""
            raise ExperimentInvalidError(
                f"{rejections}/{samples} rejected steps at t={t}; path seeds of the rejected "
                f"samples: {', '.join(map(str, rejected[:5]))}{more}"
            )
        rms = float(np.sqrt(np.mean(errors**2)))
        degenerate = rms <= 1e-13 * scale
        table.add_row(t, rms, float(np.max(errors)), len(errors), rejections, degenerate)
    table.fit_slope()
    return table


# cmd_kernel_error's table: KERNEL_QUADS random quads with modes in
# -KERNEL_MODE_BOUND..KERNEL_MODE_BOUND, KERNEL_S_POINTS points s in
# (0, t] per step size t, and the step sizes per degree d.  For d=1 the
# construction decays like t^2 once every phase is resolved, so the range
# sits below 1/(2*KERNEL_MODE_BOUND^2).  For d=2 the fully resolved decay
# is t^4 (the error is a product of two quadratic interpolation errors,
# sharper than the quoted t^{d+1} bound); the t^3 envelope is what the
# maximum over mixed-frequency quads traces across the phase-resolution
# crossover, so the range spans that crossover.
KERNEL_MODE_BOUND = 8
KERNEL_QUADS = 40
KERNEL_S_POINTS = 64
KERNEL_T_VALUES = {1: tuple(2.0**-e for e in range(7, 14)),
                   2: tuple(2.0**-e for e in range(2, 12))}
# s/t: t * _S_FRACTIONS is linspace(0, t, 65)[1:] bit for bit (t/64, j/64 exact)
_S_FRACTIONS = np.linspace(0.0, 1.0, KERNEL_S_POINTS + 1)[1:]
# the finite-difference step of cmd_symplectic's Jacobian
SYMPLECTIC_H = 1e-5


def _draw_quads(seed: int, d: int) -> np.ndarray:
    """cmd_kernel_error's KERNEL_QUADS mode quads, one (k, k1, k2, k3) per row.

    Triples (k1, k2, k3) come from default_rng([seed, d]) in blocks of
    KERNEL_QUADS rows; those with k = -k1 + k2 + k3 in the mode bound and
    k*k1*k2*k3 != 0 are kept in order.  numpy's bounded integer draws
    continue one stream from call to call, so these are the quads that
    drawing one triple at a time gives."""
    rng = np.random.default_rng([seed, d])
    blocks, kept = [], 0
    while kept < KERNEL_QUADS:
        k1, k2, k3 = rng.integers(-KERNEL_MODE_BOUND, KERNEL_MODE_BOUND + 1,
                                  size=(KERNEL_QUADS, 3)).T
        k = -k1 + k2 + k3
        quads = np.stack([k, k1, k2, k3], axis=1)
        blocks.append(quads[(np.abs(k) <= KERNEL_MODE_BOUND) & (k * k1 * k2 * k3 != 0)])
        kept += len(blocks[-1])
    return np.concatenate(blocks)[:KERNEL_QUADS]


def cmd_kernel_error(d: int, seed: int) -> ErrorTable:
    """max_{quads, s<=t} |K_2d - exact kernel| against t, on the KERNEL_* table."""
    d = _check.integer("d", d, 1, 2, must="the integer 1 or 2")
    seed = _check.seed(seed)
    spec = default_kernel_spec(d)
    q = ModeQuad(*_draw_quads(seed, d).T[:, :, None])  # one quad per row
    ts = np.array(KERNEL_T_VALUES[d])[:, None, None]  # one step size per leading slice
    s = ts * _S_FRACTIONS
    error = kernel_K2d(spec, q, s, ts)
    error -= kernel_exact(q, s)
    table = ErrorTable()
    for t, row in zip(KERNEL_T_VALUES[d], error):
        worst = float(np.max(np.abs(row)))
        table.add_row(t, worst, worst, KERNEL_QUADS, 0, worst < 1e-15)
    table.fit_slope()
    return table


def cmd_conservation(config: RunConfig):
    """Run the configured trajectory; report mass and H0 drift."""
    record = simulate(config)
    m = record.column("mass")
    if m[0] == 0.0:
        raise ValueError("initial data of zero mass: the relative mass drift is undefined")
    e = record.column("energy_h0")
    summary = {
        "mass_drift_rel": float(np.max(np.abs(m - m[0])) / m[0]),
        "energy_h0_drift": float(np.max(np.abs(e - e[0]))),
        "steps": config.n_steps,
    }
    return record, summary


def cmd_symplectic(config: RunConfig):
    """Frozen-noise one-step Jacobian defect at the configured state,
    with a Richardson check at h/2."""
    if config.K > 6:
        raise ValueError("symplectic Jacobian test is limited to K <= 6")
    params, phi, tab, fp = config.stepping()
    u0 = initial_field(config.initial_data, config.K, seed=config.seed)
    path = sample_path(config.seed, config.t, 0, config.K)

    def closure(c):
        # every perturbed state is stepped, as one batch, on the one path;
        # symplectic_defect has just computed the states, so they are wrapped
        outcome = step(SpectralField.wrap(c, u0.grid), tab, params, phi, path, 0.0, config.t, fp)
        if not outcome.converged.all():
            raise StepRejectedError(0, 0.0, outcome, fp.max_iter)
        return outcome.state.coefficients

    defect = symplectic_defect(closure, u0.coefficients, h=SYMPLECTIC_H)
    defect_half = symplectic_defect(closure, u0.coefficients, h=SYMPLECTIC_H / 2.0)
    return {"defect": defect, "defect_half_h": defect_half, "h": SYMPLECTIC_H}
