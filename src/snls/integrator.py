"""Stochastic resonance-based Runge-Kutta stepping.

A Tableau holds the coefficient matrices of the deterministic and
stochastic maps and the output weights.  Every stage is the full-Taylor
stage at node 1 of the d=1 symplectic kernel, the one the scheme uses.
Each step freezes the noise increment of the interval, solves the
coupled implicit stage system by simultaneous fixed-point iteration and
forms the update through the free propagator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import sobolev_norm
# map_F is never called here: the benchmark wraps it at this name to show that stepping skips it
from .maps import ModelParams, map_F, map_F_midpoint_physical, map_P_frozen  # noqa: F401
from .noise import BrownianPath, CovarianceOp, NoiseIncrement, increment
from .torus import SpectralField, free_propagator


@dataclass(frozen=True)
class Tableau:
    """Coefficient matrices a0/a1 and output weights b0/b1 of the
    stages."""

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self):
        n = np.size(self.b0)
        if n == 0:
            raise ValueError("tableau needs at least one stage")
        for name, shape in (("b0", (n,)), ("b1", (n,)), ("a0", (n, n)), ("a1", (n, n))):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != shape or not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be a finite array of shape {shape}")
            object.__setattr__(self, name, m)

    @property
    def n_stages(self) -> int:
        return len(self.b0)


@dataclass(frozen=True)
class TableauViolation:
    i: int
    j: int
    stage: int
    other_stage: int
    defect: float


def validate_tableau(tab: Tableau, tol: float = 1e-14) -> list[TableauViolation]:
    """Check b_s^(i) b_st^(j) - b_s^(i) a^(j)_{s,st} - b_st^(j) a^(i)_{st,s} = 0
    for all stage pairs (s, st) and i,j in {0,1}."""
    a = (tab.a0, tab.a1)
    b = (tab.b0, tab.b1)
    violations = []
    n = tab.n_stages
    for i in range(2):
        for j in range(2):
            for s in range(n):
                for st in range(n):
                    defect = b[i][s] * b[j][st] - b[i][s] * a[j][s, st] - b[j][st] * a[i][st, s]
                    if abs(defect) > tol:
                        violations.append(TableauViolation(i, j, s, st, defect))
    return violations


def midpoint_tableau() -> Tableau:
    """Single stage, b=1, a=1/2: the resonance midpoint rule."""
    return Tableau(
        a0=np.array([[0.5]]),
        a1=np.array([[0.5]]),
        b0=np.array([1.0]),
        b1=np.array([1.0]),
    )


def explicit_tableau() -> Tableau:
    """b=1, a=0: violates the coefficient condition; negative control."""
    return Tableau(
        a0=np.array([[0.0]]),
        a1=np.array([[0.0]]),
        b0=np.array([1.0]),
        b1=np.array([1.0]),
    )


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


class StepRejectedError(RuntimeError):
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
    largest per-sample count) and history the largest residual over the
    samples still iterating at each sweep.
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
        history.append(float(res[active].max()))
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

    The stage system U = u_n + t a0 K(U) + sqrt(t) a1 L(U) is solved by
    fixed-point iteration.  Each sweep evaluates the nonlinear K once at
    the iterate and then makes NOISE_SWEEPS sweeps of the linear noise
    term L with K held.  The fixed point is the one of the stage system:
    with B = sqrt(t) a1 L and r = u_n + t a0 K(U), two sweeps give
    G(U) = (I + B) r + B^2 U, and (I - B^2) U = (I + B) r is (I - B) U = r
    whenever I + B is invertible; for the midpoint rule B is a real
    multiple of the skew-Hermitian L, so it always is.  The contraction
    rate drops from about rho_K + rho_L to about rho_K + rho_L^2, and
    fixed_point_solve counts the outer sweeps.

    u_n and X.w may carry a batch of samples along their leading axes;
    a rejected solve is reported in the StepOutcome, not raised."""
    if not t > 0:
        raise ValueError(f"step t must be > 0, got {t}")
    if abs(X.step - t) > 1e-9 * t:
        raise ValueError(f"noise increment was built for step {X.step}, the step is {t}")
    n = tab.n_stages
    sqrt_t = np.sqrt(t)
    grid = u_n.grid

    # t K and L on the stacked stages; the maps are looked up as module
    # globals at every call
    def t_K(stages):
        return map_F_midpoint_physical(params, t, SpectralField.wrap(stages, grid)).coefficients

    def L(stages):
        return map_P_frozen(params, phi, SpectralField.wrap(stages, grid), X).coefficients

    def combine(U, terms, weights, scale):
        # U + sum_st scale w_st terms_st, zero weights skipped
        for st in range(n):
            if weights[st] != 0.0:
                U = U + (scale * weights[st]) * terms[st]
        return U

    def iteration(stages):
        tKs = t_K(stages)
        rhs = [combine(u_n.coefficients, tKs, tab.a0[s], 1.0) for s in range(n)]
        for _ in range(NOISE_SWEEPS):
            Ls = L(stages)
            stages = np.stack([combine(rhs[s], Ls, tab.a1[s], sqrt_t) for s in range(n)])
        return stages

    def norm(new, old):
        # the largest stage residual of each sample
        return np.max(sobolev_norm(SpectralField.wrap(new - old, grid), params.alpha), axis=0)

    guess = np.stack([u_n.coefficients] * n)
    # an overflow rejects its sample through a non-finite residual
    with np.errstate(all="ignore"):
        solve = fixed_point_solve(iteration, guess, fp, norm)
        update = combine(u_n.coefficients, t_K(solve.x), tab.b0, 1.0)
        update = combine(update, L(solve.x), tab.b1, sqrt_t)
        state = free_propagator(SpectralField.wrap(update, grid), t)
    if not np.all(solve.converged):
        kept = np.where(np.expand_dims(solve.converged, -1), state.coefficients, u_n.coefficients)
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

    seed: int
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


def simulate(config, u0: SpectralField | None = None) -> RunRecord:
    """Run config.n_steps steps from the configured initial data,
    recording mass, H0, the H^alpha norm and solver diagnostics."""
    from .config import initial_field
    from .diagnostics import energy_h0, mass
    from .noise import default_phi, sample_path

    if u0 is None:
        u0 = initial_field(config.initial_data, config.K, seed=config.seed)
    params = ModelParams(lam=config.lam, kappa=config.kappa, alpha=config.alpha)
    phi = default_phi(config.K)
    tab = TABLEAUX[config.tableau]()
    fp = FixedPointConfig(tol=config.fp_tol, max_iter=config.fp_max_iter)
    record = RunRecord(seed=config.seed, config_lines=config.echo_lines())

    u = u0.copy()
    record.add_row(0, 0.0, mass(u), energy_h0(u, config.lam),
                   sobolev_norm(u, config.alpha), 0, 0.0, 0)
    if config.n_steps == 0:
        record.final_state = u
        return record

    path = sample_path(config.seed, config.n_steps * config.t, 0,
                       config.K, n_base=config.n_steps)
    for n in range(config.n_steps):
        outcome = step(u, tab, params, phi, path, n * config.t, config.t, fp)
        if not outcome.converged:
            raise StepRejectedError(n, n * config.t, outcome, fp.max_iter)
        u = outcome.state
        record.add_row(n + 1, (n + 1) * config.t, mass(u),
                       energy_h0(u, config.lam),
                       sobolev_norm(u, config.alpha),
                       int(outcome.iterations), float(outcome.residual), 0)
    record.final_state = u
    return record
