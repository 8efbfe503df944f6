"""Tableaux, the implicit stage solver, stepping, conservation, and a
deterministic ODE oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import snls.integrator
import snls.maps
from snls.diagnostics import energy_h0, mass, sobolev_norm
from snls.integrator import (
    DIVERGENCE_FACTOR,
    NOISE_SWEEPS,
    ExperimentInvalidError,
    FixedPointConfig,
    StepRejectedError,
    Tableau,
    explicit_tableau,
    fixed_point_solve,
    midpoint_tableau,
    simulate,
    step,
)
from snls.maps import ModelParams, map_F_midpoint_physical, map_P_frozen, noise_operator
from snls.noise import CovarianceOp, default_phi, increment, sample_path
from snls.oracles import cubic_convolution_direct, step_bound, validate_tableau
from snls.torus import SpectralField, free_propagator, TorusGrid
from snls.config import ConfigError, RunConfig, initial_field

from helpers import random_field


FP = FixedPointConfig(tol=1e-12, max_iter=100)


# ----------------------------------------------------------------- tableaux


def test_midpoint_tableau_passes_coefficient_condition():
    assert validate_tableau(midpoint_tableau()) == []


def test_explicit_tableau_fails_coefficient_condition():
    violations = validate_tableau(explicit_tableau())
    assert violations
    assert max(abs(v.defect) for v in violations) == pytest.approx(1.0)


@given(b=st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-6))
@settings(max_examples=30, deadline=None)
def test_single_stage_b_half_b_family_passes(b):
    # b*b - b*(b/2) - b*(b/2) = 0 for every b: the whole midpoint family
    tab = Tableau(a0=b / 2.0, a1=b / 2.0, b0=b, b1=b)
    assert validate_tableau(tab) == []


def test_tableau_defect_reported_to_1e14():
    tab = Tableau(a0=0.5 + 5e-14, a1=0.5, b0=1.0, b1=1.0)
    violations = validate_tableau(tab, tol=1e-14)
    assert violations and abs(violations[0].defect) == pytest.approx(1e-13, rel=0.2)


def test_tableau_validation_errors():
    with pytest.raises(ValueError):
        Tableau(a0=np.zeros((0, 0)), a1=np.zeros((0, 0)), b0=np.zeros(0), b1=np.zeros(0))
    with pytest.raises(ValueError):
        Tableau(a0=np.array([[0.5, 0.0]]), a1=np.array([[0.5]]),
                b0=np.array([1.0]), b1=np.array([1.0]))
    with pytest.raises(ValueError):
        Tableau(a0=np.nan, a1=0.5, b0=1.0, b1=1.0)
    with pytest.raises(ValueError):
        Tableau(a0=np.array([[0.5]]), a1=0.5, b0=1.0, b1=1.0)


# ------------------------------------------------------------ fixed point


def test_fixed_point_solves_linear_contraction():
    # x <- 0.5 x + 1 has fixed point 2
    sol, it, res, hist = fixed_point_solve(
        lambda x: 0.5 * x + 1.0, 0.0, FP, lambda a, b: abs(a - b)
    )
    assert abs(sol - 2.0) < 1e-11
    assert res <= FP.tol
    assert len(hist) == it


def test_fixed_point_rejects_expansion():
    out = fixed_point_solve(lambda x: 2.0 * x + 1.0, 1.0, FP, lambda a, b: abs(a - b))
    assert not out.converged


def test_fixed_point_max_iter_exhaustion():
    # slowly contracting: no sample of one problem or of a batch reaches
    # tol in 3 iterations, so no sample stops before max_iter, and each
    # ends on its last sweep's residual, as it does alone
    fp = FixedPointConfig(tol=1e-12, max_iter=3)

    def solve(a):
        return fixed_point_solve(lambda x: a * x + 1.0, np.zeros(a.shape), fp,
                                 lambda new, old: np.abs(new - old)[..., 0])

    for a in (np.array([0.999]), np.array([[0.999], [0.99], [-0.995]])):
        out = solve(a)
        assert out.iterations == 3 and not out.converged.any()
        assert (out.sample_iterations == 3).all()
        np.testing.assert_array_equal(out.residual, out.trail[-1])
        for s in np.ndindex(a.shape[:-1]):
            alone = solve(a[s])
            assert alone.sample_iterations == 3 and not alone.converged
            assert out.residual[s] == alone.residual == alone.trail[-1]


def test_fixed_point_batch_keeps_per_sample_semantics():
    # x <- a x + 1 per sample: a=0.5 converges, a=2 diverges, a=0.999
    # runs out of iterations; each sample ends as it would alone
    fp = FixedPointConfig(tol=1e-12, max_iter=60)
    a = np.array([0.5, 2.0, 0.999])

    def norm(new, old):
        return np.abs(new - old)[:, 0]

    out = fixed_point_solve(lambda x: a[:, None] * x + 1.0, np.ones((3, 1)), fp, norm)
    alone = fixed_point_solve(lambda x: 0.5 * x + 1.0, 1.0, fp, lambda p, q: abs(p - q))
    diverging = fixed_point_solve(lambda x: 2.0 * x + 1.0, 1.0, fp, lambda p, q: abs(p - q))
    assert alone.converged and not diverging.converged
    assert list(out.converged) == [True, False, False]
    assert list(out.sample_iterations) == [alone.iterations, diverging.iterations, 60]
    assert out.x[0, 0] == alone.x and out.residual[0] == alone.residual
    # the slow sample iterates on after the first stop: its residual is
    # its last sweep's, not the one it had when the first sample stopped
    slow = fixed_point_solve(lambda x: 0.999 * x + 1.0, 1.0, fp, lambda p, q: abs(p - q))
    assert out.residual[2] == slow.residual == slow.trail[-1]
    assert out.residual[2] == pytest.approx(0.999**60, rel=1e-12)
    assert out.x[2, 0] == slow.x
    assert out.iterations == 60 and len(out.history) == 60
    x, iterations, residual, history = out
    assert iterations == 60 and all(isinstance(h, float) for h in history)


def test_fixed_point_rejects_a_non_finite_residual_in_one_sweep():
    # x <- a x + 1 with a = NaN gives a NaN residual and a = inf an inf
    # one: both samples stop after one sweep at their guess, and the
    # finite sample ends as it would alone
    fp = FixedPointConfig(tol=1e-12, max_iter=60)
    a = np.array([0.5, np.nan, np.inf])

    def norm(new, old):
        return np.abs(new - old)[:, 0]

    guess = np.array([[1.0], [2.0], [3.0]])
    out = fixed_point_solve(lambda x: a[:, None] * x + 1.0, guess, fp, norm)
    alone = fixed_point_solve(lambda x: 0.5 * x + 1.0, 1.0, fp, lambda p, q: abs(p - q))
    assert list(out.converged) == [True, False, False]
    assert list(out.sample_iterations) == [alone.iterations, 1, 1]
    assert out.x[0, 0] == alone.x and out.residual[0] == alone.residual
    np.testing.assert_array_equal(out.x[1:], guess[1:])
    assert np.isnan(out.residual[1]) and out.residual[2] == np.inf


def test_fixed_point_history_keeps_the_finite_residuals():
    # the sample whose residual turns NaN in sweep 1 drops out of the
    # history, which follows the finite sample; a sweep with no finite
    # residual records NaN
    a = np.array([0.5, np.nan])
    out = fixed_point_solve(lambda x: a[:, None] * x + 1.0, np.zeros((2, 1)), FP,
                            lambda new, old: np.abs(new - old)[:, 0])
    assert out.history[:3] == [1.0, 0.5, 0.25]
    assert len(out.history) == out.iterations
    assert all(type(h) is float for h in out.history)
    alone = fixed_point_solve(lambda x: np.nan * x + 1.0, 0.0, FP, lambda p, q: abs(p - q))
    assert alone.iterations == 1 and len(alone.history) == 1 and np.isnan(alone.history[0])


# slopes a of the per-sample map x <- a x + c: contracting, expanding,
# too slow for max_iter, and a NaN or inf slope that rejects in sweep 1
SLOPES = {
    "contracting": st.floats(-0.9, 0.9),
    "expanding": st.floats(1.5, 4.0) | st.floats(-4.0, -1.5),
    "slow": st.floats(0.99, 0.999),
    "nan": st.just(np.nan),
    "inf": st.just(np.inf),
}


@st.composite
def mixed_batches(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(SLOPES)), min_size=1, max_size=6))
    a = np.array([draw(SLOPES[kind]) for kind in kinds])
    c = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=len(a), max_size=len(a))))
    guess = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(a), max_size=len(a)))
    return a, c, np.array(guess)[:, None], draw(st.integers(1, 60))


def lone_reference(a, c, x, fp):
    """The stopping rules of fixed_point_solve on one scalar x <- a x + c,
    in Python floats: (x, sweeps, residuals), x frozen at the solution or
    at the last iterate before a rejecting sweep."""
    residuals, best = [], math.inf
    for _ in range(fp.max_iter):
        new = a * x + c
        res = abs(new - x)
        residuals.append(res)
        best = min(best, res) if res == res else best
        if res <= fp.tol:
            return new, len(residuals), residuals
        if not res < math.inf or res > DIVERGENCE_FACTOR * best:
            return x, len(residuals), residuals
        x = new
    return x, fp.max_iter, residuals


@given(batch=mixed_batches())
@settings(max_examples=60, deadline=None)
def test_batched_solve_ends_every_sample_as_it_ends_alone(batch):
    # one batch mixes every way a sample can stop; each sample ends with
    # the x, count, residual, verdict and trail of its lone solve, which
    # follows the scalar reference, and the history is the largest finite
    # residual of the samples still iterating at each sweep
    a, c, guess, max_iter = batch
    fp = FixedPointConfig(tol=1e-12, max_iter=max_iter)

    def solve(a, c, guess, norm):
        def iteration(x):
            with np.errstate(all="ignore"):
                return a * x + c

        def residual(new, old):
            with np.errstate(all="ignore"):
                return norm(np.abs(new - old))

        return fixed_point_solve(iteration, guess, fp, residual)

    out = solve(a[:, None], c[:, None], guess, lambda r: r[:, 0])
    alone = [solve(a[s], c[s], guess[s], lambda r: r[0]) for s in range(len(a))]
    assert out.trail.shape == (out.iterations, len(a))
    assert out.iterations == max(one.iterations for one in alone)
    expected_history = np.full(out.iterations, np.nan)
    for s, one in enumerate(alone):
        x, n, residuals = lone_reference(float(a[s]), float(c[s]), float(guess[s, 0]), fp)
        assert one.iterations == one.sample_iterations == n == out.sample_iterations[s]
        np.testing.assert_array_equal(one.x, [x])
        np.testing.assert_array_equal(one.trail, residuals)
        np.testing.assert_array_equal(one.residual, residuals[-1])
        assert one.converged == (residuals[-1] <= fp.tol)
        np.testing.assert_array_equal(out.x[s], one.x)
        np.testing.assert_array_equal(out.residual[s], one.residual)
        assert out.converged[s] == one.converged
        np.testing.assert_array_equal(out.trail[:n, s], one.trail)
        assert np.isnan(out.trail[n:, s]).all()
        finite = np.where(np.isfinite(residuals), residuals, np.nan)
        expected_history[:n] = np.fmax(expected_history[:n], finite)
    np.testing.assert_array_equal(out.history, expected_history)
    assert all(type(h) is float for h in out.history)


def test_step_rejects_an_overflowing_sample_and_keeps_the_batch():
    # the first sweep overflows on a sample with huge data: that sample
    # is rejected with its input state, the others step as they would alone
    params = ModelParams(lam=1.0, kappa=1.0)
    K, t = 4, 0.01
    phi = default_phi(K)
    u = np.stack([random_field(K, s, scale=0.5).coefficients for s in range(3)])
    u[1] *= 1e150
    path = sample_path((1, 2, 3), t, 0, K)
    with np.errstate(all="raise"):  # no warning escapes the stage solve
        out = step(SpectralField(u, TorusGrid(K)), midpoint_tableau(), params, phi, path,
                   0.0, t, FP)
    assert list(out.converged) == [True, False, True]
    assert out.iterations[1] == 1 and not np.isfinite(out.residual[1])
    np.testing.assert_array_equal(out.state.coefficients[1], u[1])
    for s in (0, 2):
        one = step(SpectralField(u[s], TorusGrid(K)), midpoint_tableau(), params, phi,
                   sample_path(1 + s, t, 0, K), 0.0, t, FP)
        assert out.iterations[s] == one.iterations
        np.testing.assert_allclose(out.state.coefficients[s], one.state.coefficients,
                                   rtol=0, atol=1e-14)
    assert not np.shares_memory(out.state.coefficients, u)


@pytest.mark.parametrize("huge, converged", [(1e308, True), (1.5e308, False)])
def test_step_with_a_huge_finite_phi_lets_no_overflow_escape(huge, converged):
    # with Phi_-2 = Phi_2 = huge, sqrt(t)|a1 kappa| sum|Phi_k| overflows,
    # and at 1.5e308 so does Phi_2 X_2 (X_2 = -1.39 on this path).  Both
    # are formed inside the step's errstate: at 1e308 the noise solve
    # (I - B)^-1 keeps the step mass-conserving, and at 1.5e308 the
    # infinite B rejects the sample, which keeps its input state
    K, t = 2, 0.01
    u = initial_field("smooth", K, seed=1)
    phi = CovarianceOp(np.array([huge, 1.0, 0.0, 1.0, huge]))
    with np.errstate(all="raise"):
        out = step(u, midpoint_tableau(), ModelParams(lam=1.0, kappa=1.0), phi,
                   sample_path(1, t, 0, K), 0.0, t, FP)
    assert out.converged == converged
    assert mass(out.state.coefficients) == pytest.approx(mass(u.coefficients), rel=1e-14)
    if not converged:
        np.testing.assert_array_equal(out.state.coefficients, u.coefficients)


def test_explicit_step_rejects_an_overflowing_K():
    # a = 0 weighs an infinite K by 0, which gives a NaN stage and
    # residual: the step is rejected and keeps its finite input state
    K, t = 4, 0.01
    u = SpectralField(np.full(2 * K + 1, 1e150 + 0j), TorusGrid(K))
    out = step(u, explicit_tableau(), ModelParams(lam=1.0, kappa=1.0), default_phi(K),
               sample_path(1, t, 0, K), 0.0, t, FP)
    assert not out.converged and out.iterations == 1 and np.isnan(out.residual)
    np.testing.assert_array_equal(out.state.coefficients, u.coefficients)


def test_batched_step_matches_single_steps():
    params = ModelParams(lam=1.0, kappa=1.0)
    K, t = 6, 0.01
    fields = [random_field(K, s, scale=0.5) for s in range(3)]
    paths = [sample_path(s, t, 0, K) for s in range(3)]
    u = SpectralField(np.stack([f.coefficients for f in fields]), fields[0].grid)
    out = step(u, midpoint_tableau(), params, default_phi(K), sample_path((0, 1, 2), t, 0, K),
               0.0, t, FP)
    assert out.converged.all()
    for i, (f, p) in enumerate(zip(fields, paths)):
        one = step(f, midpoint_tableau(), params, default_phi(K), p, 0.0, t, FP)
        assert out.iterations[i] == one.iterations
        np.testing.assert_allclose(out.state.coefficients[i], one.state.coefficients,
                                   rtol=0, atol=1e-14)


def test_fixed_point_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(tol=0.0)
    with pytest.raises(ValueError):
        FixedPointConfig(tol=float("nan"))
    # range() needs an integer count: a float one used to fail inside the solve
    for max_iter in (0, 2.5, float("nan"), float("inf"), "3"):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            FixedPointConfig(max_iter=max_iter)
        with pytest.raises(ConfigError, match="fp_max_iter must be"):
            RunConfig(seed=1, fp_max_iter=max_iter)
    assert FixedPointConfig(max_iter=np.int64(3)).max_iter == 3
    # "1" < 0 raised TypeError, and True passed as one iteration
    with pytest.raises(ValueError, match="tol must be finite and > 0, got '1'"):
        FixedPointConfig(tol="1")
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1, got True"):
        FixedPointConfig(max_iter=True)


# ---------------------------------------------------------------- stepping


def test_step_conserves_mass_midpoint():
    params = ModelParams(lam=1.0, kappa=1.0)
    K = 6
    u = random_field(K, 3, scale=0.5)
    path = sample_path(1, 0.01, 0, K)
    out = step(u, midpoint_tableau(), params, default_phi(K), path, 0.0, 0.01, FP)
    m = mass(u.coefficients)
    assert abs(mass(out.state.coefficients) - m) < 1e-12 * m
    assert out.converged and out.residual <= FP.tol


@pytest.mark.parametrize("samples", [None, 3])
def test_stage_solves_the_stage_equation_like_plain_picard(samples):
    # the midpoint stage U = u + (t/2) K(U) + (sqrt(t)/2) L(U), recovered
    # from the step as (e^{-it Laplacian} u_1 + u) / 2, solves the stage
    # equation to fp_tol and equals the stage of a plain Picard solve
    # (one evaluation of each map per sweep), which needs more sweeps
    params = ModelParams(lam=1.0, kappa=1.5)
    K, t = 8, 0.01
    phi = default_phi(K)
    seeds = [1] if samples is None else range(samples)
    fields = [random_field(K, s, scale=0.1) for s in seeds]
    paths = [sample_path(s, t, 0, K) for s in seeds]
    if samples is None:
        u, path = fields[0], paths[0]
    else:
        u = SpectralField(np.stack([f.coefficients for f in fields]), fields[0].grid)
        path = sample_path(tuple(seeds), t, 0, K)
    X = increment(path, 0.0, t)

    def stage_map(c):
        U = SpectralField(c, u.grid)
        return (u.coefficients + 0.5 * map_F_midpoint_physical(params, t, U).coefficients
                + 0.5 * np.sqrt(t) * map_P_frozen(params, U, noise_operator(phi, X)).coefficients)

    def norm(new, old):
        return sobolev_norm(new - old, params.alpha)

    picard = fixed_point_solve(stage_map, u.coefficients, FP, norm)
    out = step(u, midpoint_tableau(), params, phi, path, 0.0, t, FP)
    assert np.all(out.converged) and np.all(picard.converged)
    stage = 0.5 * (free_propagator(out.state.coefficients, -t) + u.coefficients)
    assert np.all(norm(stage_map(stage), stage) <= FP.tol)
    scale = sobolev_norm(picard.x, params.alpha)
    assert np.all(norm(stage, picard.x) <= 1e-12 * scale)
    assert np.all(out.iterations < picard.sample_iterations)


def _counting(monkeypatch, name):
    """Count the calls to snls.integrator.<name>, which step looks up."""
    calls = []
    real = getattr(snls.integrator, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(snls.integrator, name, counted)
    return calls


@pytest.mark.parametrize("tableau, extra_F", [(midpoint_tableau, 0), (explicit_tableau, 1)])
def test_step_map_evaluation_counts(tableau, extra_F, monkeypatch):
    # one F per outer sweep; the Richardson branch makes NOISE_SWEEPS P
    # per sweep and for the starting guess, the exact branch one P for
    # the whole step (L of the unit fields); the midpoint update comes
    # from the stage, any other tableau evaluates F (and P) once more
    F_calls = _counting(monkeypatch, "map_F_midpoint_physical")
    P_calls = _counting(monkeypatch, "map_P_frozen")
    K, t = 6, 0.01
    for exact in (False, True):
        monkeypatch.setattr(snls.maps, "EXACT_NOISE_MIN_RHO", 0.0 if exact else np.inf)
        F_calls.clear()
        P_calls.clear()
        out = step(random_field(K, 3, scale=0.2), tableau(), ModelParams(lam=1.0, kappa=1.0),
                   default_phi(K), sample_path(1, t, 0, K), 0.0, t, FP)
        assert out.converged
        n = int(out.iterations)
        assert len(F_calls) == n + extra_F
        assert len(P_calls) == (1 if exact else NOISE_SWEEPS * (n + 1)) + extra_F


@pytest.mark.parametrize("seed", range(1, 7))
def test_strong_noise_steps_converge(seed):
    # K=8 smooth data, t=0.1 and kappa=3: sqrt(t) |a1 kappa| sum|Phi_k|
    # is 1.45, far past the Richardson sweeps' reach (seed 1 took 98
    # sweeps with them, seed 4 took 51 and the other four were rejected);
    # with the noise part solved exactly every one is a short solve
    record = simulate(RunConfig(seed=seed, K=8, t=0.1, kappa=3.0, n_steps=1))
    assert record.column("fp_iters")[1] <= 15
    m = record.column("mass")
    assert abs(m[1] - m[0]) <= 1e-12 * m[0]


@pytest.mark.parametrize("samples", [None, 3])
def test_exact_and_richardson_noise_solves_give_the_same_stage(samples, monkeypatch):
    # K=6, t=0.01: both branches converge, to the stage equation's one
    # fixed point, so the stages agree to the solver tolerance
    params = ModelParams(lam=1.0, kappa=1.0)
    K, t = 6, 0.01
    seeds = [5] if samples is None else range(samples)
    fields = [random_field(K, s, scale=0.2).coefficients for s in seeds]
    u = SpectralField(fields[0] if samples is None else np.stack(fields), TorusGrid(K))
    path = sample_path(seeds[0] if samples is None else tuple(seeds), t, 0, K)
    stages = []
    for gate in (0.0, np.inf):
        monkeypatch.setattr(snls.maps, "EXACT_NOISE_MIN_RHO", gate)
        out = step(u, midpoint_tableau(), params, default_phi(K), path, 0.0, t, FP)
        assert np.all(out.converged)
        stages.append(0.5 * (free_propagator(out.state.coefficients, -t) + u.coefficients))
    assert np.all(sobolev_norm(stages[0] - stages[1], params.alpha) <= FP.tol)


@pytest.mark.parametrize("samples", [None, 3])
def test_midpoint_update_from_the_stage_is_the_evaluated_update(samples):
    # the step returns e^{it Laplacian}(2U - u); at the stage U it equals
    # e^{it Laplacian}(u + b0 t K(U) + b1 sqrt(t) L(U)) up to fp_tol
    params = ModelParams(lam=1.0, kappa=1.5)
    K, t = 8, 0.01
    phi = default_phi(K)
    tab = midpoint_tableau()
    seeds = [4] if samples is None else range(samples)
    fields = [random_field(K, s, scale=0.1) for s in seeds]
    paths = [sample_path(s, t, 0, K) for s in seeds]
    if samples is None:
        u, path = fields[0], paths[0]
    else:
        u = SpectralField(np.stack([f.coefficients for f in fields]), fields[0].grid)
        path = sample_path(tuple(seeds), t, 0, K)
    X = increment(path, 0.0, t)
    out = step(u, tab, params, phi, path, 0.0, t, FP)
    assert np.all(out.converged)
    U = SpectralField(0.5 * (free_propagator(out.state.coefficients, -t) + u.coefficients),
                      u.grid)
    update = (u.coefficients + tab.b0 * map_F_midpoint_physical(params, t, U).coefficients
              + tab.b1 * np.sqrt(t) * map_P_frozen(params, U, noise_operator(phi, X)).coefficients)
    evaluated = free_propagator(update, t)
    defect = sobolev_norm(out.state.coefficients - evaluated, params.alpha)
    assert np.all(defect <= 1e-12 * sobolev_norm(out.state.coefficients, params.alpha))


def test_step_explicit_tableau_moves_mass():
    params = ModelParams(lam=1.0, kappa=1.0)
    K = 6
    u = random_field(K, 3, scale=0.5)
    path = sample_path(1, 0.01, 0, K)
    out = step(u, explicit_tableau(), params, default_phi(K), path, 0.0, 0.01, FP)
    assert abs(mass(out.state.coefficients) - mass(u.coefficients)) > 1e-8


def test_step_rejects_oversized_step():
    params = ModelParams(lam=5.0, kappa=1.0)
    K = 6
    u = random_field(K, 3, scale=2.0)
    path = sample_path(1, 10.0, 0, K)
    out = step(u, midpoint_tableau(), params, default_phi(K), path, 0.0, 10.0, FP)
    assert not out.converged
    assert out.converged.shape == out.iterations.shape == out.residual.shape == ()
    np.testing.assert_array_equal(out.state.coefficients, u.coefficients)


def test_step_deterministic_given_path():
    params = ModelParams(lam=1.0, kappa=1.0)
    K = 4
    u = random_field(K, 5, scale=0.5)
    path = sample_path(2, 0.01, 0, K)
    a = step(u, midpoint_tableau(), params, default_phi(K), path, 0.0, 0.01, FP)
    b = step(u, midpoint_tableau(), params, default_phi(K), path, 0.0, 0.01, FP)
    np.testing.assert_array_equal(a.state.coefficients, b.state.coefficients)


@pytest.mark.parametrize("t", [0.0, -0.01, float("nan")])
def test_step_rejects_a_step_size_that_is_not_positive(t):
    # refused before the increment is drawn, which would name the
    # interval instead
    K = 4
    path = sample_path(2, 0.01, 0, K)
    with pytest.raises(ValueError, match="step t must be > 0"):
        step(random_field(K, 5, scale=0.5), midpoint_tableau(), ModelParams(lam=1.0, kappa=1.0),
             default_phi(K), path, 0.0, t, FP)


def test_midpoint_step_matches_ode_oracle_without_noise():
    # [DERIVED] kappa=0: the scheme approximates the truncated-NLS ODE
    # i u_t = -u_xx + lam |u|^2 u (projected); compare one step against
    # scipy DOP853 on the spectral ODE with strong-order-2 tolerance
    K = 4
    lam = 1.0
    u0 = random_field(K, 8, scale=0.5)
    grid = u0.grid
    params = ModelParams(lam=lam, kappa=0.0)
    phi = default_phi(K)

    def rhs(_, y):
        c = y[: 2 * K + 1] + 1j * y[2 * K + 1 :]
        k = grid.modes().astype(float)
        dc = -1j * k**2 * c - 1j * lam * cubic_convolution_direct(c)
        return np.concatenate([dc.real, dc.imag])

    errors = []
    ts = [0.01, 0.005, 0.0025]
    for t in ts:
        path = sample_path(1, t, 0, K)
        out = step(u0, midpoint_tableau(), params, phi, path, 0.0, t, FP)
        y0 = np.concatenate([u0.coefficients.real, u0.coefficients.imag])
        sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-12, atol=1e-12)
        exact = sol.y[: 2 * K + 1, -1] + 1j * sol.y[2 * K + 1 :, -1]
        errors.append(
            sobolev_norm(out.state.coefficients - exact, 2.0)
        )
    # third-order one-step error (midpoint local order plus the O(t^2)
    # kernel defect integrated over the step): ratio ~ 8 when t halves
    assert errors[2] < 2e-3
    assert errors[0] / errors[1] > 5.0
    assert errors[1] / errors[2] > 5.0


# --------------------------------------------------------------- step bound


@given(
    log_cr=st.floats(-3.0, 3.0),
    log_cphi=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_step_bound_root_property(log_cr, log_cphi):
    C_R = 10.0**log_cr
    C_PhiW = 10.0**log_cphi
    t = step_bound(C_R, C_PhiW)
    assert t > 0
    assert abs(C_R * t + C_PhiW * np.sqrt(t) - 1.0) < 1e-12


def test_step_bound_edge_cases():
    assert step_bound(2.0, 0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        step_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        step_bound(1.0, -1.0)


# ----------------------------------------------------------------- simulate


def test_simulate_record_and_determinism(tmp_path):
    cfg = RunConfig(seed=42, K=4, t=1e-2, n_steps=5)
    rec1 = simulate(cfg)
    rec2 = simulate(cfg)
    assert rec1.rows == rec2.rows
    np.testing.assert_array_equal(
        rec1.final_state.coefficients, rec2.final_state.coefficients
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rec1.write_csv(p1)
    rec2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    header = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# seed=42") for l in header)
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 6  # header + rows


def test_simulate_zero_steps():
    cfg = RunConfig(seed=1, K=3, n_steps=0)
    rec = simulate(cfg)
    assert len(rec.rows) == 1
    assert rec.final_state is not None


def test_simulate_seed_changes_trajectory():
    a = simulate(RunConfig(seed=1, K=3, n_steps=3))
    b = simulate(RunConfig(seed=2, K=3, n_steps=3))
    assert not np.array_equal(a.final_state.coefficients, b.final_state.coefficients)


def test_simulate_energy_drift_small_at_small_step():
    cfg = RunConfig(seed=6, K=8, t=1e-3, n_steps=50, kappa=0.1)
    rec = simulate(cfg)
    e = rec.column("energy_h0")
    assert np.max(np.abs(e - e[0])) < 0.05 * max(1.0, abs(e[0]))


def test_simulate_rejection_carries_step_index():
    cfg = RunConfig(seed=6, K=6, t=5.0, n_steps=3, lam=5.0)
    with pytest.raises(StepRejectedError) as exc:
        simulate(cfg)
    # a rejected step is one of the ways an experiment becomes invalid
    assert isinstance(exc.value, ExperimentInvalidError)
    n = exc.value.step_index
    assert n is not None and exc.value.time == n * cfg.t
    assert str(exc.value).startswith(f"step {n} from t={n * cfg.t:g}: fixed-point iteration")


def test_simulate_rejection_names_an_exhausted_max_iter():
    cfg = RunConfig(seed=5, K=4, t=1e-2, n_steps=3, fp_max_iter=2)
    with pytest.raises(StepRejectedError) as exc:
        simulate(cfg)
    assert exc.value.step_index == 0 and exc.value.iterations == 2
    assert str(exc.value).startswith("step 0 from t=0: fixed-point iteration "
                                     "did not converge in 2 iterations (residual ")
