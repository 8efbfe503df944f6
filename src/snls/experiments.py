"""Experiment drivers: strong local error, kernel approximation order,
conservation and symplecticity checks.

Every driver is a pure function of its configuration (seeds included);
Monte-Carlo aggregation runs in fixed seed order for bit reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, initial_field
from .diagnostics import sobolev_norm, symplectic_defect
from .integrator import (
    ExperimentInvalidError,
    FixedPointConfig,
    StepOutcome,
    StepRejectedError,
    midpoint_tableau,
    simulate,
    step,
    step_with_increment,
)
from .kernels import ModeQuad, default_kernel_spec, kernel_K2d, kernel_exact
from .maps import ModelParams
from .noise import (
    MAX_SEED,
    BrownianPath,
    CovarianceOp,
    increment,
    sample_path,
    stack_paths,
)
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
    fp: FixedPointConfig | None = None,
) -> StepOutcome:
    """Midpoint run at the path's finest resolution over [0, t_end];
    the strong-error oracle for coarse runs on the same randomness.

    converged marks the samples that passed every substep (one field on
    one path is a batch with no batch axes), with per-sample iterations
    summed and the largest residual over the substeps."""
    n_sub = path.cell_index(t_end)
    if t_end / n_sub > t_end / 256 + 1e-15:
        raise ValueError(
            f"path resolution too coarse for a reference ({n_sub} substeps < 256)"
        )
    if fp is None:
        fp = FixedPointConfig()
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

    Each step size runs its sample paths as one batch; a sample whose
    coarse step or reference is rejected counts as a rejection."""
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    # sample path i is seeded with seed + 1000*i + 1
    max_seed = MAX_SEED - 1000 * (samples - 1) - 1
    if config.seed > max_seed:
        raise ValueError(
            f"seed {config.seed} is too large for {samples} local-error samples: "
            f"their path seeds run past 2^64-1; the largest usable seed is {max_seed}"
        )
    params, phi, tab, fp = config.stepping()
    u0 = initial_field(config.initial_data, config.K, seed=config.seed)
    scale = sobolev_norm(u0, config.alpha)

    u = SpectralField(np.broadcast_to(u0.coefficients, (samples, u0.grid.n_modes)), u0.grid)

    table = ErrorTable()
    for t in t_values:
        path = stack_paths([sample_path(config.seed + 1000 * i + 1, t, ref_level, config.K)
                            for i in range(samples)])
        coarse = step(u, tab, params, phi, path, 0.0, t, fp)
        ref = reference_solution(u, params, phi, path, t, fp)
        accepted = coarse.converged & ref.converged
        rejections = samples - int(np.count_nonzero(accepted))
        errors = sobolev_norm(coarse.state - ref.state, config.alpha)[accepted]
        if rejections > 0.2 * samples:
            raise ExperimentInvalidError(
                f"{rejections}/{samples} rejected steps at t={t}"
            )
        rms = float(np.sqrt(np.mean(errors**2)))
        degenerate = rms < 1e-13 * scale
        table.add_row(t, rms, float(np.max(errors)), len(errors), rejections, degenerate)
    table.fit_slope()
    return table


def cmd_kernel_error(
    d: int,
    mode_bound: int = 8,
    t_values=None,
    n_quads: int = 40,
    n_s: int = 65,
    seed: int = 0,
) -> ErrorTable:
    """max_{quads, s<=t} |K_2d - exact kernel| against t.

    The default t range depends on d.  For d=1 the construction decays
    like t^2 once every phase is resolved, so the range sits below
    1/(2*mode_bound^2).  For d=2 the fully resolved decay is t^4 (the
    error is a product of two quadratic interpolation errors, sharper
    than the quoted t^{d+1} bound); the t^3 envelope is what the maximum
    over mixed-frequency quads traces across the phase-resolution
    crossover, so the default range spans that crossover.
    """
    if d not in (1, 2):
        raise ValueError(f"d must be 1 or 2, got {d}")
    if t_values is None:
        t_values = (
            tuple(2.0**-e for e in range(7, 14))
            if d == 1
            else tuple(2.0**-e for e in range(2, 12))
        )
    spec = default_kernel_spec(d)
    rng = np.random.default_rng([seed, d])
    quads = []
    while len(quads) < n_quads:
        k1, k2, k3 = rng.integers(-mode_bound, mode_bound + 1, size=3)
        k = -k1 + k2 + k3
        if abs(k) <= mode_bound and k * k1 * k2 * k3 != 0:
            quads.append(ModeQuad(int(k), int(k1), int(k2), int(k3)))
    table = ErrorTable()
    for t in t_values:
        s_grid = np.linspace(0.0, t, n_s)[1:]
        worst = 0.0
        for q in quads:
            for s in s_grid:
                worst = max(worst, abs(kernel_K2d(spec, q, s, t) - kernel_exact(q, s)))
        table.add_row(t, worst, worst, n_quads, 0, worst < 1e-15)
    table.fit_slope()
    return table


def cmd_conservation(config: RunConfig):
    """Run the configured trajectory; report mass and H0 drift."""
    record = simulate(config)
    m = record.column("mass")
    e = record.column("energy_h0")
    summary = {
        "mass_drift_rel": float(np.max(np.abs(m - m[0])) / m[0]),
        "energy_h0_drift": float(np.max(np.abs(e - e[0]))),
        "steps": config.n_steps,
    }
    return record, summary


def cmd_symplectic(config: RunConfig, h: float = 1e-5):
    """Frozen-noise one-step Jacobian defect at the configured state,
    with a Richardson check at h/2."""
    if config.K > 6:
        raise ValueError("symplectic Jacobian test is limited to K <= 6")
    params, phi, tab, fp = config.stepping()
    u0 = initial_field(config.initial_data, config.K, seed=config.seed)
    path = sample_path(config.seed, config.t, 0, config.K)
    X = increment(path, 0.0, config.t)

    def closure(u):
        # every perturbed state is stepped, as one batch
        outcome = step_with_increment(u, tab, params, phi, X, config.t, fp)
        if not outcome.converged.all():
            raise StepRejectedError(0, 0.0, outcome, fp.max_iter)
        return outcome.state

    defect = symplectic_defect(closure, u0, h=h)
    defect_half = symplectic_defect(closure, u0, h=h / 2.0)
    return {"defect": defect, "defect_half_h": defect_half, "h": h}
