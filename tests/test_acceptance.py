"""End-to-end acceptance criteria.

Each test evaluates one numbered criterion at its stated tolerance and
emits a single PASS/FAIL line (echoed in the terminal summary).
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ACCEPTANCE_LINES

from snls.config import RunConfig, initial_field
from snls.diagnostics import mass, sobolev_norm, symplectic_defect
from snls.experiments import cmd_kernel_error, cmd_local_error
from snls.integrator import (
    FixedPointConfig,
    Tableau,
    explicit_tableau,
    midpoint_tableau,
    simulate,
    step_bound,
    step_with_increment,
    validate_tableau,
)
from snls.kernels import ModeQuad, default_kernel_spec, kernel_K2d
from snls.maps import ModelParams, map_F_midpoint_physical, map_P_frozen
from snls.noise import default_phi, increment, sample_path
from snls.oracles import (
    cubic_convolution_direct,
    kernel_weight,
    map_F,
    orthogonality_defect,
    strat_integral,
    symmetrized_midpoint_double,
)
from snls.torus import SpectralField, TorusGrid, cubic_convolution, free_propagator


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def random_field(K, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(K)
    c = scale * (rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1))
    return SpectralField(c, grid)


def test_criterion_1_mass_conservation():
    # midpoint, K=16, t=1e-2, 100 steps, smooth data, fp tol 1e-12:
    # relative mass drift <= 1e-9; explicit control drifts >= 1e-6,
    # growing with n; runtime <= 1 min
    t0 = time.perf_counter()
    cfg = RunConfig(seed=2024, K=16, t=1e-2, n_steps=100, fp_tol=1e-12,
                    initial_data="smooth")
    rec = simulate(cfg)
    m = rec.column("mass")
    drift = float(np.max(np.abs(m - m[0])) / m[0])

    ctl = simulate(RunConfig(seed=2024, K=16, t=1e-2, n_steps=100,
                             tableau="explicit", initial_data="smooth"))
    mc = ctl.column("mass")
    ctl_drift = np.abs(mc - mc[0]) / mc[0]
    growing = ctl_drift[-1] > ctl_drift[len(ctl_drift) // 2] > ctl_drift[10]
    elapsed = time.perf_counter() - t0

    ok = drift <= 1e-9 and ctl_drift[-1] >= 1e-6 and growing and elapsed <= 60
    report(1, "mass conservation", ok,
           f"midpoint drift {drift:.2e} (<=1e-9), explicit drift "
           f"{ctl_drift[-1]:.2e} (>=1e-6, growing={growing}), {elapsed:.1f}s")


def test_criterion_2_pathwise_symplecticity():
    # frozen-noise one-step Jacobian defect <= 1e-5 at K=4, t=1e-3,
    # h=1e-5, over 5 random states x 5 noise draws; linear-flow control
    # <= 1e-10; explicit control >= 1e-3 at t=1e-2; runtime <= 2 min
    t0 = time.perf_counter()
    K, t, h = 4, 1e-3, 1e-5
    params = ModelParams(lam=1.0, kappa=1.0)
    phi = default_phi(K)
    fp = FixedPointConfig(tol=1e-13, max_iter=200)
    tab = midpoint_tableau()

    worst = 0.0
    for state_seed in range(5):
        u = random_field(K, 100 + state_seed)
        for noise_seed in range(5):
            path = sample_path(200 + noise_seed, t, 0, K)
            X = increment(path, 0.0, t)

            def closure(v):
                # v is the batch of perturbed states; a rejected sample
                # would be the identity map
                outcome = step_with_increment(v, tab, params, phi, X, t, fp)
                assert outcome.converged.all()
                return outcome.state

            worst = max(worst, symplectic_defect(closure, u, h=h))

    u = random_field(K, 100)
    linear = symplectic_defect(lambda v: free_propagator(v, t), u, h=h)

    te = 1e-2
    path = sample_path(200, te, 0, K)
    Xe = increment(path, 0.0, te)
    etab = explicit_tableau()

    def explicit_closure(v):
        outcome = step_with_increment(v, etab, params, phi, Xe, te, fp)
        assert outcome.converged.all()
        return outcome.state

    explicit = symplectic_defect(explicit_closure, u, h=h)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-5 and linear <= 1e-10 and explicit >= 1e-3 and elapsed <= 120
    report(2, "pathwise symplecticity", ok,
           f"max defect {worst:.2e} (<=1e-5), linear {linear:.2e} (<=1e-10), "
           f"explicit {explicit:.2e} (>=1e-3), {elapsed:.1f}s")


def test_criterion_3_local_error_order():
    # one-step H^2 error vs 256x-refined same-path reference, 64 samples,
    # t in 2^-4..2^-9: slope 1.5 +- 0.2; kappa=0 control slope >= 2;
    # runtime <= 10 min
    t0 = time.perf_counter()
    cfg = RunConfig(seed=11, K=8, lam=1.0, kappa=1.0, alpha=2.0)
    table = cmd_local_error(cfg, samples=64)
    # the kappa=0 control is deterministic, so 16 identical samples suffice
    ctl = cmd_local_error(RunConfig(seed=11, K=8, lam=1.0, kappa=0.0),
                          samples=16)
    elapsed = time.perf_counter() - t0

    ok = abs(table.slope - 1.5) <= 0.2 and ctl.slope >= 2.0 and elapsed <= 600
    report(3, "local error order", ok,
           f"slope {table.slope:.3f} (1.5+-0.2), kappa=0 slope "
           f"{ctl.slope:.3f} (>=2), {elapsed:.0f}s")


def test_criterion_4_kernel_approximation_order():
    # interpolated-kernel error slope d+1 +- 0.2 (d=1) / +- 0.3 (d=2)
    # over random mode quads with |k| <= 8; runtime <= 1 min
    t0 = time.perf_counter()
    t1 = cmd_kernel_error(1, mode_bound=8, seed=0)
    t2 = cmd_kernel_error(2, mode_bound=8, seed=0)
    elapsed = time.perf_counter() - t0
    ok = abs(t1.slope - 2.0) <= 0.2 and abs(t2.slope - 3.0) <= 0.3 and elapsed <= 60
    report(4, "kernel approximation order", ok,
           f"d=1 slope {t1.slope:.3f} (2+-0.2), d=2 slope {t2.slope:.3f} "
           f"(3+-0.3), {elapsed:.1f}s")


def test_criterion_5_orthogonality():
    # Re<u, F(u)> and Re<u, P*(u, X)> <= 1e-12 (scaled) over 200 draws
    K = 6
    t, c, p = 1e-2, 1.0, 0
    params = ModelParams(lam=1.3, kappa=0.9)
    phi = default_phi(K)
    spec = default_kernel_spec(1)
    worst_f = worst_p = 0.0
    fields = [random_field(K, seed) for seed in range(200)]
    # the quad weights of the O(K^3) oracle do not depend on u: one call
    # takes the 200 draws as a batch
    grid = fields[0].grid
    batch = SpectralField(np.stack([u.coefficients for u in fields]), grid)
    F = map_F(params, spec, t, c, p, batch).coefficients
    for seed, u in enumerate(fields):
        m = mass(u)
        g = SpectralField(F[seed], grid)
        worst_f = max(worst_f, abs(orthogonality_defect(u, g)) / max(1.0, m**2))
        X = increment(sample_path(seed, t, 0, K), 0.0, t)
        gp = map_P_frozen(params, phi, u, X)
        scale = max(1.0, m * float(np.max(np.abs(X.w))))
        worst_p = max(worst_p, abs(orthogonality_defect(u, gp)) / scale)
    ok = worst_f <= 1e-12 and worst_p <= 1e-12
    report(5, "orthogonality of discretisation maps", ok,
           f"max scaled Re<u,F(u)> {worst_f:.2e}, max scaled "
           f"Re<u,P*(u,X)> {worst_p:.2e} (both <=1e-12)")


def test_criterion_6_stratonovich_identities():
    # pair identity and symmetrized midpoint double integral <= 1e-13
    # pathwise on 1000 sampled discrete paths
    worst_pair = worst_sym = 0.0
    for seed in range(1000):
        level = 1 + seed % 6
        path = sample_path(seed, 1.0, level, 3)
        for (k2, k3) in ((2, 3), (1, -2)):
            i23 = strat_integral(path, k2, k3, 1.0)
            i32 = strat_integral(path, k3, k2, 1.0)
            w2 = path.values(k2)[-1]
            w3 = path.values(k3)[-1]
            worst_pair = max(worst_pair, abs(i23 + i32 - w2 * w3))
            worst_sym = max(
                worst_sym, abs(symmetrized_midpoint_double(path, k2, k3, 1.0))
            )
    ok = worst_pair <= 1e-13 and worst_sym <= 1e-13
    report(6, "Stratonovich identities", ok,
           f"pair identity defect {worst_pair:.2e}, symmetrized double "
           f"{worst_sym:.2e} (both <=1e-13, 1000 paths)")


def test_criterion_7_oracle_equivalences():
    # physical-space midpoint map == Fourier direct sum (1e-10, K<=8);
    # padded cubic convolution == direct triple sum (1e-12, K<=8);
    # kernel_weight == adaptive quadrature (1e-10)
    params = ModelParams(lam=1.3, kappa=0.0)
    worst_map = worst_cubic = 0.0
    for seed in range(10):
        K = 1 + seed % 8
        u = random_field(K, seed)
        t = 0.01 * (1 + seed % 3)
        fast = map_F_midpoint_physical(params, t, u).coefficients
        slow = (t * map_F(params, default_kernel_spec(1), t, 1.0, 0, u)).coefficients
        worst_map = max(worst_map,
                        np.max(np.abs(fast - slow)) / max(1.0, np.max(np.abs(slow))))
        a = cubic_convolution(u).coefficients
        b = cubic_convolution_direct(u).coefficients
        worst_cubic = max(worst_cubic,
                          np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))

    worst_weight = 0.0
    for d in (1, 2):
        spec = default_kernel_spec(d)
        for p in (0, 1):
            for q in (ModeQuad(2, 3, 4, 1), ModeQuad(-1, 5, 2, 2)):
                t, c = 0.05, 0.8
                val = kernel_weight(spec, q, t, c, p)
                re, _ = quad(lambda s: (kernel_K2d(spec, q, s, t) * s**p).real,
                             0, c * t, epsabs=1e-15)
                im, _ = quad(lambda s: (kernel_K2d(spec, q, s, t) * s**p).imag,
                             0, c * t, epsabs=1e-15)
                worst_weight = max(worst_weight,
                                   abs(val - (re + 1j * im) / t ** (p + 1)))
    ok = worst_map <= 1e-10 and worst_cubic <= 1e-12 and worst_weight <= 1e-10
    report(7, "oracle equivalences", ok,
           f"fast-vs-direct map {worst_map:.2e} (<=1e-10), padded-vs-direct "
           f"cubic {worst_cubic:.2e} (<=1e-12), weight-vs-quadrature "
           f"{worst_weight:.2e} (<=1e-10)")


def test_criterion_8_tableau_gate():
    # accepts midpoint and every single-stage (b, a=b/2) tableau;
    # rejects (b=1, a=0); defects reported to 1e-14
    ok_mid = validate_tableau(midpoint_tableau()) == []
    ok_family = True
    for b in (-2.0, -0.5, 0.25, 1.0, 3.0):
        tab = Tableau(a0=b / 2, a1=b / 2, b0=b, b1=b)
        ok_family &= validate_tableau(tab) == []
    violations = validate_tableau(explicit_tableau())
    ok_reject = bool(violations) and max(abs(v.defect) for v in violations) == 1.0
    perturbed = Tableau(a0=0.5 + 5e-14, a1=0.5, b0=1.0, b1=1.0)
    small = validate_tableau(perturbed, tol=1e-14)
    ok_tol = bool(small) and abs(abs(small[0].defect) - 1e-13) < 3e-14
    ok = ok_mid and ok_family and ok_reject and ok_tol
    report(8, "tableau gate", ok,
           f"midpoint accepted={ok_mid}, (b,b/2) family accepted={ok_family}, "
           f"(1,0) rejected={ok_reject}, 1e-13 defect detected={ok_tol}")


def test_criterion_9_step_bound_root():
    # returned t satisfies C_R t + C_PhiW sqrt(t) = 1 to 1e-12 across a
    # log grid of constants
    worst = 0.0
    grid_vals = np.logspace(-3, 3, 13)
    for C_R in grid_vals:
        for C_PhiW in np.concatenate([[0.0], grid_vals]):
            tb = step_bound(float(C_R), float(C_PhiW))
            worst = max(worst, abs(C_R * tb + C_PhiW * np.sqrt(tb) - 1.0))
    ok = worst <= 1e-12
    report(9, "step-bound root property", ok,
           f"max residual {worst:.2e} (<=1e-12) on 13x14 log grid")
