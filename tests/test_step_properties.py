"""Invariants of a whole step of the midpoint scheme, over random small
configs: batch invariance (bit for bit), pathwise mass conservation and
gauge invariance.  Any refactor of the stepping path must keep them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.config import RunConfig, initial_field
from snls.diagnostics import mass, sobolev_norm
from snls.integrator import FixedPointConfig, midpoint_tableau, step
from snls.maps import DIRECT_MAX_MODES, ModelParams
from snls.noise import default_phi, sample_path
from snls.torus import SpectralField, TorusGrid

FP = FixedPointConfig(tol=1e-12, max_iter=100)
# the largest K whose noise operator is the gathered Toeplitz matrix;
# above it map_P_frozen convolves through the FFT
K_DIRECT = (DIRECT_MAX_MODES - 1) // 2


def smooth_field(K, seed, samples=None):
    """Random coefficients decaying like (1+k^2)^-1.5, of unit H^2 norm
    per sample: far enough above the rounding floor for fp_tol=1e-12."""
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) if samples is None else (samples, 2 * K + 1)
    k = np.arange(-K, K + 1)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (1.0 + k**2) ** -1.5
    return SpectralField(c / np.asarray(sobolev_norm(c, 2.0))[..., None], TorusGrid(K))


steps = st.floats(1e-3, 2e-2)
couplings = st.floats(-2.0, 2.0)
noise_levels = st.floats(0.0, 1.5)
seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("modes", [st.integers(1, K_DIRECT), st.integers(K_DIRECT + 1, 24)],
                         ids=["toeplitz", "fft"])
@given(data=st.data(), samples=st.integers(2, 4), t=steps, lam=couplings, kappa=noise_levels,
       seed=seeds)
@settings(max_examples=10, deadline=None)
def test_batched_step_is_bitwise_the_single_step(modes, data, samples, t, lam, kappa, seed):
    # both noise-operator branches: K <= K_DIRECT and K > K_DIRECT
    K = data.draw(modes, label="K")
    params = ModelParams(lam=lam, kappa=kappa)
    phi = default_phi(K)
    u = smooth_field(K, seed, samples)
    seeds = tuple(seed + s for s in range(samples))
    paths = [sample_path(s, t, 0, K) for s in seeds]
    stacked = sample_path(seeds, t, 0, K)
    out = step(u, midpoint_tableau(), params, phi, stacked, 0.0, t, FP)
    for s, path in enumerate(paths):
        one = step(SpectralField(u.coefficients[s], u.grid), midpoint_tableau(), params, phi,
                   path, 0.0, t, FP)
        np.testing.assert_array_equal(out.state.coefficients[s], one.state.coefficients)
        assert (out.solve.sample_iterations[s], out.solve.converged[s]) == (
            one.solve.sample_iterations, one.solve.converged)
        assert out.solve.residual[s] == one.solve.residual
    # one field on the stacked path is the batch of its copies (cmd_local_error's batch)
    assert_one_field_is_its_tiled_batch(u.coefficients[0], u.grid, params, phi, stacked, t, FP)


def assert_one_field_is_its_tiled_batch(c, grid, params, phi, path, t, fp):
    """step of field c on a stacked path equals the step of c tiled once
    per sample, bit for bit; returns that outcome."""
    tiled = np.tile(c, (len(path.seed), 1))
    one = step(SpectralField(c, grid), midpoint_tableau(), params, phi, path, 0.0, t, fp)
    batch = step(SpectralField(tiled, grid), midpoint_tableau(), params, phi, path, 0.0, t, fp)
    assert one.state.coefficients.shape == tiled.shape
    assert one.state.coefficients.tobytes() == batch.state.coefficients.tobytes()
    np.testing.assert_array_equal(one.solve.sample_iterations, batch.solve.sample_iterations)
    np.testing.assert_array_equal(one.solve.converged, batch.solve.converged)
    return one


def test_one_field_on_a_stacked_path_keeps_it_where_a_sample_is_rejected():
    # cmd_local_error's coarse step at t=2^-4 for config seed 8 with
    # lambda=12.5 and kappa=1.5: sample 6 (path seed 6009) is rejected, as
    # in test_batched_local_error_step_matches_serial_steps, and keeps u0
    cfg = RunConfig(seed=8, K=8, lam=12.5, kappa=1.5, alpha=2.0)
    t, samples = 2.0**-4, 16
    u0 = initial_field(cfg.initial_data, cfg.K, seed=cfg.seed)
    params, phi, _, fp = cfg.stepping()
    path = sample_path(tuple(cfg.seed + 1000 * i + 1 for i in range(samples)), t, 8, cfg.K)
    out = assert_one_field_is_its_tiled_batch(u0.coefficients, u0.grid, params, phi, path, t, fp)
    assert np.flatnonzero(~out.solve.converged).tolist() == [6]
    np.testing.assert_array_equal(out.state.coefficients[6], u0.coefficients)


@given(K=st.integers(1, 24), t=steps, lam=couplings, kappa=noise_levels, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_step_conserves_mass_pathwise(K, t, lam, kappa, seed):
    # the update 2U - u conserves mass only as far as the stage solve
    # converged (the mass change is 4 Re<U - u, U>, zero at the fixed
    # point), so a converged step is held to 1e-12 relative per step
    u = smooth_field(K, seed)
    out = step(u, midpoint_tableau(), ModelParams(lam=lam, kappa=kappa), default_phi(K),
               sample_path(seed, t, 0, K), 0.0, t, FP)
    if out.solve.converged:
        m = mass(u.coefficients)
        assert abs(mass(out.state.coefficients) - m) <= 1e-12 * m
    else:  # a rejected step keeps its input
        np.testing.assert_array_equal(out.state.coefficients, u.coefficients)


@given(K=st.integers(1, 24), t=steps, lam=couplings, kappa=noise_levels, seed=seeds,
       theta=st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=25, deadline=None)
def test_step_is_gauge_invariant(K, t, lam, kappa, seed, theta):
    # F(e^{i theta} u) = e^{i theta} F(u) and P is linear in u, so
    # step(e^{i theta} u) = e^{i theta} step(u) up to rounding and the
    # solve tolerance
    params = ModelParams(lam=lam, kappa=kappa)
    phi = default_phi(K)
    path = sample_path(seed, t, 0, K)
    u = smooth_field(K, seed)
    gauge = np.exp(1j * theta)
    out = step(u, midpoint_tableau(), params, phi, path, 0.0, t, FP)
    turned = step(SpectralField(gauge * u.coefficients, u.grid), midpoint_tableau(), params,
                  phi, path, 0.0, t, FP)
    assert out.solve.converged and turned.solve.converged
    defect = sobolev_norm(turned.state.coefficients - gauge * out.state.coefficients, 2.0)
    assert defect <= 1e-12 * sobolev_norm(out.state.coefficients, 2.0)
