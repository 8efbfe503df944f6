"""Stochastic resonance-based stepping with the one-stage scheme.

A Tableau holds the four coefficients of the scheme's one stage: a0 and
a1 weight the deterministic and stochastic maps in the stage equation,
b0 and b1 in the update.  The stage is the full-Taylor stage at node 1
of the d=1 symplectic kernel.  Each step freezes the noise increment of
the interval, solves the implicit stage equation for the stage field by
fixed-point iteration and forms the update through the free propagator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import sobolev_norm
from .maps import ModelParams, map_F_midpoint_physical, map_P_frozen
from .noise import BrownianPath, CovarianceOp, NoiseIncrement, increment
# map_F is never called here: the benchmark wraps it at this name to show that stepping skips it
from .oracles import map_F  # noqa: F401
from .torus import SpectralField, free_propagator


@dataclass(frozen=True)
class Tableau:
    """Stage coefficients a0/a1 and output weights b0/b1 of the one
    stage, each a finite real number."""

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            value = getattr(self, name)
            # numbers.Real admits Python and numpy scalars, not arrays or strings
            try:
                finite = isinstance(value, numbers.Real) and math.isfinite(value)
            except OverflowError:  # an int past the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))


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


def midpoint_tableau() -> Tableau:
    """b=1, a=1/2: the resonance midpoint rule."""
    return Tableau(a0=0.5, a1=0.5, b0=1.0, b1=1.0)


def explicit_tableau() -> Tableau:
    """b=1, a=0: violates the coefficient condition; negative control."""
    return Tableau(a0=0.0, a1=0.0, b0=1.0, b1=1.0)


TABLEAUX = {"midpoint": midpoint_tableau, "explicit": explicit_tableau}


# a residual past this factor times its running minimum rejects a sample
DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class FixedPointConfig:
    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.tol < np.inf or self.max_iter < 1:
            raise ValueError("invalid fixed-point configuration")


@dataclass
class StepOutcome:
    """Result of a step.  iterations, residual and converged hold one
    entry per sample (0-d for one field), and a sample that was not
    converged keeps its input state."""

    state: SpectralField
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray


class ExperimentInvalidError(RuntimeError):
    """Too many rejected steps, or non-finite diagnostics: the results cannot be trusted."""


class StepRejectedError(ExperimentInvalidError):
    """The stage solve of a step was rejected: the step bound is
    violated.  Raised by the commands that need every step accepted;
    step_index and time (its start) name the step, and for a batch the
    first rejected sample gives iterations and residual."""

    def __init__(self, step_index, time, outcome: StepOutcome, max_iter):
        self.step_index = step_index
        self.time = time
        first = np.unravel_index(np.argmin(outcome.converged), np.shape(outcome.converged))
        self.iterations = int(outcome.iterations[first])
        self.residual = float(outcome.residual[first])
        reason = (f"did not converge in {max_iter} iterations" if self.iterations == max_iter
                  else f"diverging after {self.iterations} iterations")
        super().__init__(f"step {step_index} from t={time:.6g}: fixed-point iteration "
                         f"{reason} (residual {self.residual:.3e})")


@dataclass
class FixedPointResult:
    """What fixed_point_solve found; unpacks as the tuple
    (x, iterations, residual, history).

    residual, sample_iterations and converged hold one entry per sample
    (0-d for one problem), iterations counts the sweeps made (the
    largest per-sample count) and history the largest finite residual
    over the samples still iterating at each sweep (NaN if none is).
    """

    x: object
    iterations: int
    residual: np.ndarray
    history: list
    sample_iterations: np.ndarray
    converged: np.ndarray

    def __iter__(self):
        return iter((self.x, self.iterations, self.residual, self.history))


def fixed_point_solve(iteration_map, guess, fp: FixedPointConfig, norm) -> FixedPointResult:
    """Iterate x <- map(x) until norm(map(x), x) <= tol.

    norm returns one residual per sample (a number for one problem), and
    x ends in the batch axes and one more axis.  A sample is rejected
    when its residual is not finite or grows past DIVERGENCE_FACTOR
    times its running minimum, or when max_iter is exhausted.  Each
    sample stops on its own: a converged sample is frozen at its solution
    and a rejected one at the guess, while the others iterate on.
    Nothing is raised; the caller reads converged.
    """
    x = guess
    history = []
    for it in range(1, fp.max_iter + 1):
        x_new = iteration_map(x)
        res = np.asarray(norm(x_new, x), dtype=float)
        if it == 1:
            active = np.ones(res.shape, dtype=bool)
            converged = np.zeros(res.shape, dtype=bool)
            best = np.full(res.shape, np.inf)
            counts = np.zeros(res.shape, dtype=int)
            residual = res
        # a NaN or inf residual would hide the other samples' residuals
        finite = res[active & np.isfinite(res)]
        history.append(float(finite.max()) if finite.size else np.nan)
        residual = np.where(active, res, residual)
        counts += active
        # fmin, unlike min, keeps the running minimum when res is NaN
        best = np.fmin(best, res)
        done = active & (res <= fp.tol)
        failed = active & ~done & ((res > DIVERGENCE_FACTOR * best) | ~np.isfinite(res))
        converged |= done
        active &= ~(done | failed)
        take = active | done
        if take.all():
            x = x_new
        else:
            held = np.where(np.expand_dims(failed, -1), guess, x) if failed.any() else x
            x = np.where(np.expand_dims(take, -1), x_new, held)
        if not active.any():
            break
    return FixedPointResult(x, it, residual, history, counts, converged)


# linear noise sweeps per evaluation of the nonlinear map in the stage
# iteration; see step_with_increment
NOISE_SWEEPS = 2


def step_with_increment(
    u_n: SpectralField,
    tab: Tableau,
    params: ModelParams,
    phi: CovarianceOp,
    X: NoiseIncrement,
    t: float,
    fp: FixedPointConfig,
) -> StepOutcome:
    """One step with a frozen noise increment (deterministic given X).

    The stage equation U = u_n + t a0 K(U) + sqrt(t) a1 L(U) is solved
    by fixed-point iteration on the stage field.  Each sweep evaluates
    the nonlinear K once at the iterate and then makes NOISE_SWEEPS
    sweeps of the linear noise term L with K held.  The fixed point is
    the one of the stage equation: with B = sqrt(t) a1 L and
    r = u_n + t a0 K(U), two sweeps give G(U) = (I + B) r + B^2 U, and
    (I - B^2) U = (I + B) r is (I - B) U = r whenever I + B is
    invertible; for the midpoint rule B is a real multiple of the
    skew-Hermitian L, so it always is.  The contraction rate drops from
    about rho_K + rho_L to about rho_K + rho_L^2, and fixed_point_solve
    counts the outer sweeps.

    u_n and X.w may carry a batch of samples along their leading axes;
    a rejected solve is reported in the StepOutcome, not raised."""
    if not t > 0:
        raise ValueError(f"step t must be > 0, got {t}")
    if abs(X.step - t) > 1e-9 * t:
        raise ValueError(f"noise increment was built for step {X.step}, the step is {t}")
    sqrt_t = np.sqrt(t)
    grid = u_n.grid
    u = u_n.coefficients

    # t K and L on the coefficients; the maps are looked up as module
    # globals at every call
    def t_K(U):
        return map_F_midpoint_physical(params, t, SpectralField.wrap(U, grid)).coefficients

    def L(U):
        return map_P_frozen(params, phi, SpectralField.wrap(U, grid), X).coefficients

    def iteration(U):
        rhs = u + tab.a0 * t_K(U)
        for _ in range(NOISE_SWEEPS):
            U = rhs + (sqrt_t * tab.a1) * L(U)
        return U

    def norm(new, old):
        return sobolev_norm(SpectralField.wrap(new - old, grid), params.alpha)

    # an overflow rejects its sample through a non-finite residual
    with np.errstate(all="ignore"):
        solve = fixed_point_solve(iteration, u, fp, norm)
        update = u + tab.b0 * t_K(solve.x) + (sqrt_t * tab.b1) * L(solve.x)
        state = free_propagator(SpectralField.wrap(update, grid), t)
    if not np.all(solve.converged):
        kept = np.where(np.expand_dims(solve.converged, -1), state.coefficients, u)
        state = SpectralField.wrap(kept, grid)
    return StepOutcome(
        state=state,
        iterations=solve.sample_iterations,
        residual=solve.residual,
        converged=solve.converged,
    )


def step(
    u_n: SpectralField,
    tab: Tableau,
    params: ModelParams,
    phi: CovarianceOp,
    path: BrownianPath,
    t_n: float,
    t: float,
    fp: FixedPointConfig,
) -> StepOutcome:
    """One step of the scheme; the noise increment is drawn from the
    path over [t_n, t_n + t] and frozen for the whole solve.  A stacked
    path with a batch of fields steps every sample at once."""
    X = increment(path, t_n, t_n + t)
    return step_with_increment(u_n, tab, params, phi, X, t, fp)


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


@dataclass
class RunRecord:
    """Per-step diagnostics of a trajectory, with seed provenance."""

    config_lines: list
    rows: list = field(default_factory=list)
    final_state: SpectralField | None = None

    COLUMNS = ("step", "time", "mass", "energy_h0", "sobolev_alpha",
               "fp_iters", "fp_residual", "rejected")

    def add_row(self, step_idx, time, m, e, s, iters, residual, rejected):
        self.rows.append((step_idx, time, m, e, s, iters, residual, rejected))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            for line in self.config_lines:
                fh.write(line + "\n")
            fh.write(",".join(self.COLUMNS) + "\n")
            for r in self.rows:
                fh.write(
                    f"{r[0]},{r[1]:.17g},{r[2]:.17g},{r[3]:.17g},{r[4]:.17g},"
                    f"{r[5]},{r[6]:.17g},{r[7]}\n"
                )

    def column(self, name) -> np.ndarray:
        idx = self.COLUMNS.index(name)
        return np.array([r[idx] for r in self.rows])


def simulate(config) -> RunRecord:
    """Run config.n_steps steps from the configured initial data,
    recording mass, H0, the H^alpha norm and solver diagnostics."""
    from .config import initial_field
    from .diagnostics import energy_h0, mass
    from .noise import sample_path

    u = initial_field(config.initial_data, config.K, seed=config.seed)
    params, phi, tab, fp = config.stepping()
    record = RunRecord(config_lines=config.echo_lines())

    def diagnostics(u, n):
        """Mass, H0 and H^alpha norm after n steps, raised by name if not finite."""
        with np.errstate(all="ignore"):
            values = (mass(u), energy_h0(u, config.lam), sobolev_norm(u, config.alpha))
        for name, value in zip(RunRecord.COLUMNS[2:5], values):
            if not math.isfinite(value):
                if n == 0:
                    raise ValueError(f"initial data: {name} is not finite ({value})")
                raise ExperimentInvalidError(
                    f"step {n - 1} from t={(n - 1) * config.t:.6g}: {name} is not finite "
                    f"({value})")
        return values

    record.add_row(0, 0.0, *diagnostics(u, 0), 0, 0.0, 0)
    if config.n_steps:  # a run of no steps draws no path
        path = sample_path(config.seed, config.n_steps * config.t, 0,
                           config.K, n_base=config.n_steps)
    for n in range(config.n_steps):
        outcome = step(u, tab, params, phi, path, n * config.t, config.t, fp)
        if not outcome.converged:
            raise StepRejectedError(n, n * config.t, outcome, fp.max_iter)
        u = outcome.state
        record.add_row(n + 1, (n + 1) * config.t, *diagnostics(u, n + 1),
                       int(outcome.iterations), float(outcome.residual), 0)
    record.final_state = u
    return record
