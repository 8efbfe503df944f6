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
from dataclasses import dataclass, field

import numpy as np

from . import _check, maps
from .diagnostics import sobolev_norm
from .maps import ModelParams, map_F_midpoint_physical, map_P_frozen
from .noise import BrownianPath, CovarianceOp, increment
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
            object.__setattr__(self, name, _check.real(name, getattr(self, name)))


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
        object.__setattr__(self, "tol", _check.real("tol", self.tol, gt=0))
        # range() needs an integer: a float count fails only inside the solve
        object.__setattr__(self, "max_iter", _check.integer(
            "max_iter", self.max_iter, 1, must="an integer >= 1"))


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
    (0-d for one problem).  trail holds every sample's residual at every
    sweep, shape (iterations, *batch), NaN after the sweep in which the
    sample stopped; iterations and history are read off it.
    """

    x: object
    residual: np.ndarray
    sample_iterations: np.ndarray
    converged: np.ndarray
    trail: np.ndarray

    @property
    def iterations(self) -> int:
        """The sweeps made: the largest per-sample count."""
        return len(self.trail)

    @property
    def history(self) -> list:
        """The largest finite residual over the samples still iterating
        at each sweep (NaN if none is)."""
        # a NaN or inf residual would hide the other samples' residuals
        rows = self.trail.reshape(len(self.trail), -1)
        return np.fmax.reduce(rows, axis=1, where=np.isfinite(rows), initial=np.nan).tolist()

    def __iter__(self):
        return iter((self.x, self.iterations, self.residual, self.history))


def fixed_point_solve(iteration_map, guess, fp: FixedPointConfig, norm) -> FixedPointResult:
    """Iterate x <- map(x) until norm(map(x), x) <= tol.

    norm returns one residual per sample (a number for one problem), and
    x ends in the batch axes and one more axis.  A sample is rejected
    when its residual is not finite or grows past DIVERGENCE_FACTOR
    times its running minimum, or when max_iter is exhausted.  Each
    sample stops on its own: a converged sample is frozen at its solution
    and a rejected one at its last iterate, while the others iterate on.
    Nothing is raised; the caller reads converged and decides what a
    rejected sample holds.

    The first residual chooses the path: a number runs the sweeps in
    Python floats (_solve_one), an array runs them in numpy over the
    batch, and both stop every sample in the same sweep on the same x.
    In the batch, a stopped sample's residual reads NaN from the next
    sweep on, which fails every stop test, and each sample's residual
    is read off the trail at its last sweep.
    """
    x_new = iteration_map(guess)
    res = norm(x_new, guess)
    if np.ndim(res) == 0:
        return _solve_one(iteration_map, guess, x_new, float(res), fp, norm)
    x = guess
    trail = []
    best = np.inf
    active = np.ones(np.shape(res), dtype=bool)
    sweeps = np.zeros(np.shape(res), dtype=int)
    for it in range(1, fp.max_iter + 1):
        if it > 1:
            x_new = iteration_map(x)
            res = norm(x_new, x)
        res = np.where(active, np.asarray(res, dtype=float), np.nan)
        trail.append(res)
        sweeps += active
        # fmin, unlike min, keeps the running minimum when res is NaN
        best = np.fmin(best, res)
        # finite, above tol and at most DIVERGENCE_FACTOR times the
        # running minimum; a NaN, as a stopped sample's, fails every test
        active = (res > fp.tol) & (res < np.inf) & (res <= DIVERGENCE_FACTOR * best)
        take = active | (res <= fp.tol)  # iterating on, or converged
        x = x_new if take.all() else np.where(np.expand_dims(take, -1), x_new, x)
        if not active.any():
            break
    trail = np.array(trail)
    # each sample's residual is its trail entry at its last sweep
    rows = trail.reshape(len(trail), -1)
    residual = rows[sweeps.ravel() - 1, np.arange(rows.shape[1])].reshape(sweeps.shape)
    return FixedPointResult(x, residual, sweeps, np.asarray(residual <= fp.tol), trail)


def _solve_one(iteration_map, x, x_new, res, fp, norm) -> FixedPointResult:
    """fixed_point_solve's sweeps for one problem, from its first sweep
    (x_new and the float res): the batch path's stop rules in floats."""
    trail = [res]
    best = math.inf
    while True:
        # best first: min keeps it when res is NaN, as np.fmin does
        best = min(best, res)
        if res <= fp.tol:
            x = x_new
            break
        if not res < math.inf or res > DIVERGENCE_FACTOR * best:
            break  # rejected: x stays the last iterate
        x = x_new
        if len(trail) == fp.max_iter:
            break
        x_new = iteration_map(x)
        res = float(norm(x_new, x))
        trail.append(res)
    return FixedPointResult(x, np.asarray(res), np.asarray(len(trail)),
                            np.asarray(res <= fp.tol), np.array(trail))


# linear noise sweeps per evaluation of the nonlinear map in the stage
# iteration; see step
NOISE_SWEEPS = 2


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
    """One step of the scheme over [t_n, t_n + t].  The noise increment
    X of that interval is drawn from the path and frozen for the whole
    solve as one noise operator, so on a fixed path the step is a
    deterministic map of u_n.  The solve runs on u_n's coefficients.

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
    counts the outer sweeps.  When L is a direct product (2K+1 <=
    maps.DIRECT_MAX_MODES) and sqrt(t) |a1 kappa| sum|Phi_k| >=
    maps.EXACT_NOISE_MIN_RHO, a bound that reads no noise value, a sweep
    is U <- (I - B)^-1 r instead, with B built once from L of the unit
    fields; ||(I - B)^-1|| <= 1 leaves the rate at rho_K alone (the
    midpoint rule as a Cayley transform).

    The solve starts from the stage equation without K, solved the same
    way from V = u_n (V = u_n + sqrt(t) a1 L(V)): this removes the
    O(sqrt t) noise part of the starting error and leaves the O(t) part
    of K.  For b = 2a (the midpoint rule and its (b, b/2) family) the
    update is taken from the stage, 2U - u_n, and costs no evaluation;
    any other tableau evaluates both maps once more at the stage.

    A stacked path steps every sample at once, from one field or from a
    batch of one field per sample; a rejected solve is reported in the
    StepOutcome, not raised, and its sample keeps u_n."""
    if not t > 0:
        raise ValueError(f"step t must be > 0, got {t}")
    X = increment(path, t_n, t_n + t)
    sqrt_t = np.sqrt(t)
    grid = u_n.grid
    u = u_n.coefficients

    # t K and L on the coefficients; the maps are looked up as module
    # globals at every call
    def t_K(U):
        return map_F_midpoint_physical(params, t, SpectralField.wrap(U, grid)).coefficients

    def L(U):
        return map_P_frozen(params, SpectralField.wrap(U, grid), noise).coefficients

    def noise_sweeps(rhs, U):
        for _ in range(NOISE_SWEEPS):
            U = rhs + (sqrt_t * tab.a1) * L(U)
        return U

    def iteration(U):
        return noise_solve(u + tab.a0 * t_K(U), U)

    def norm(new, old):
        return sobolev_norm(new - old, params.alpha)

    n = grid.n_modes
    # an overflow, also of a huge finite Phi, rejects its sample through
    # a non-finite residual
    with np.errstate(all="ignore"):
        noise = maps.noise_operator(phi, X)
        rho = sqrt_t * abs(tab.a1 * params.kappa) * np.abs(phi.phi).sum()
        if n <= maps.DIRECT_MAX_MODES and rho >= maps.EXACT_NOISE_MIN_RHO:
            # column j of B is B of unit field j, which sits on a leading axis
            lead = (1,) * (max(u.ndim, X.ndim) - 1)
            units = np.eye(n, dtype=complex).reshape(n, *lead, n)
            B = (sqrt_t * tab.a1) * np.moveaxis(L(units), 0, -1)
            inverse = np.linalg.inv(np.eye(n) - B)

            def noise_solve(rhs, U):
                return (inverse @ rhs[..., None])[..., 0]
        else:
            noise_solve = noise_sweeps
        solve = fixed_point_solve(iteration, noise_solve(u, u), fp, norm)
        if tab.b0 == 2 * tab.a0 and tab.b1 == 2 * tab.a1:
            # at the fixed point U = u + a0 tK(U) + a1 sqrt(t) L(U), so
            # u + b0 tK(U) + b1 sqrt(t) L(U) = u + 2(U - u) = 2U - u
            # (d = b A^-1 = 2 in Hairer & Wanner, Solving ODEs II, IV.8)
            update = 2 * solve.x - u
        else:
            update = u + tab.b0 * t_K(solve.x) + (sqrt_t * tab.b1) * L(solve.x)
        state = free_propagator(update, t)
    if not solve.converged.all():
        state = np.where(np.expand_dims(solve.converged, -1), state, u)
    return StepOutcome(SpectralField.wrap(state, grid), solve.sample_iterations, solve.residual,
                       solve.converged)


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
        c = u.coefficients
        values = (mass(c), energy_h0(c, config.lam), sobolev_norm(c, config.alpha))
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
