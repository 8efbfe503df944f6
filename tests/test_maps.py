"""Discretisation maps: trivial cases, orthogonality, and the
physical-space fast path against the Fourier-side direct sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.kernels import default_kernel_spec
from snls.maps import ModelParams, map_F_midpoint_physical, map_P_frozen, noise_operator
from snls.noise import (
    CovarianceOp,
    default_phi,
    increment,
    sample_path,
)
from snls.oracles import map_F, orthogonality_defect
from snls.torus import SpectralField, TorusGrid, _pad_size, free_propagator

from helpers import random_field


PARAMS = ModelParams(lam=1.3, kappa=0.8)
SPEC1 = default_kernel_spec(1)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lam=np.nan, kappa=1.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, kappa=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0, kappa=1.0, alpha=np.nan)
    # numpy's isfinite and the alpha comparison raised TypeError on these
    with pytest.raises(ValueError, match="lambda must be finite, got 'x'"):
        ModelParams("x", 1.0)
    with pytest.raises(ValueError, match="alpha must be finite and > 1, got None"):
        ModelParams(1.0, 1.0, None)


# ------------------------------------------------------------------ map_F


def test_map_F_zero_field_and_zero_lambda():
    grid = TorusGrid(3)
    z = SpectralField(np.zeros(7), grid)
    np.testing.assert_array_equal(
        map_F(PARAMS, SPEC1, 0.01, 1.0, 0, z.coefficients), 0.0
    )
    f = random_field(3, 0)
    np.testing.assert_array_equal(
        map_F(ModelParams(lam=0.0, kappa=1.0), SPEC1, 0.01, 1.0, 0, f.coefficients),
        0.0,
    )


def test_map_F_rejects_nonpositive_t():
    f = random_field(2, 0)
    with pytest.raises(ValueError):
        map_F(PARAMS, SPEC1, 0.0, 1.0, 0, f.coefficients)


def test_map_F_single_mode_closed_form():
    # only v_1 = a: resonant quads force k = k1 = k2 = k3 = 1, so
    # out_1 = -i lam * weight(1,1,1,1) * |a|^2 a  [DERIVED by hand]
    from snls.kernels import ModeQuad
    from snls.oracles import kernel_weight

    a = 1.0 - 2.0j
    c = np.zeros(5, dtype=complex)
    c[3] = a  # k = 1
    t = 0.02
    out = map_F(PARAMS, SPEC1, t, 1.0, 0, c)
    w = kernel_weight(SPEC1, ModeQuad(1, 1, 1, 1), t, 1.0, 0)
    expected = np.zeros(5, dtype=complex)
    expected[3] = -1j * PARAMS.lam * w * np.abs(a) ** 2 * a
    np.testing.assert_allclose(out, expected, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 5),
       t=st.floats(1e-4, 0.2))
@settings(max_examples=20, deadline=None)
def test_map_F_mass_orthogonality(seed, K, t):
    # Re<v, F(v)> = 0: the generator moves no mass
    v = random_field(K, seed)
    g = map_F(PARAMS, SPEC1, t, 1.0, 0, v.coefficients)
    scale = np.sum(np.abs(v.coefficients) ** 2) ** 2
    assert abs(orthogonality_defect(v.coefficients, g)) < 1e-12 * max(1.0, scale)


def test_map_F_higher_order_kernel_and_power():
    # d=2, p=1 goes through the generic kernel-weight path; orthogonality
    # still holds because the swap symmetry holds for every d and p
    spec2 = default_kernel_spec(2)
    v = random_field(3, 5)
    g = map_F(PARAMS, spec2, 0.05, 0.6, 1, v.coefficients)
    assert abs(orthogonality_defect(v.coefficients, g)) < (
        1e-12 * np.sum(np.abs(v.coefficients) ** 2) ** 2)


# ----------------------------------------------------------- fast path


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8),
       t=st.floats(1e-4, 0.2))
@settings(max_examples=25, deadline=None)
def test_fast_physical_path_matches_direct_sum(seed, K, t):
    # multiplier-operator evaluation == Fourier-side direct sum (1e-10)
    v = random_field(K, seed)
    fast = map_F_midpoint_physical(PARAMS, t, v).coefficients
    slow = t * map_F(PARAMS, SPEC1, t, 1.0, 0, v.coefficients)
    scale = max(1.0, np.max(np.abs(slow)))
    np.testing.assert_allclose(fast, slow, atol=1e-10 * scale)


@pytest.mark.parametrize("K", range(1, 13))
def test_fast_path_matches_direct_sum_at_every_layout(K):
    # the stored-order layout: the third-round table rolled by 2K and the
    # slices 0..2K and K..3K of the spectra hold for every padded length n,
    # n = 4K+1 or above it (K = 3, 4, 7, 9, 10); for one field and a batch
    n_above = {k for k in range(1, 13) if _pad_size(k) > 4 * k + 1}
    assert n_above == {3, 4, 7, 9, 10}
    t = 0.07
    c = np.stack([random_field(K, 100 * K + s).coefficients for s in range(3)])
    slow = t * map_F(PARAMS, SPEC1, t, 1.0, 0, c)
    fast = map_F_midpoint_physical(PARAMS, t, SpectralField(c, TorusGrid(K))).coefficients
    one = map_F_midpoint_physical(PARAMS, t, SpectralField(c[0], TorusGrid(K))).coefficients
    for got, want in ((fast, slow), (one, slow[0])):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-10 * max(1.0, np.max(np.abs(want))))


def test_maps_act_on_each_sample_of_a_batch():
    K, t = 5, 0.02
    fields = [random_field(K, s) for s in range(4)]
    batch = SpectralField(np.stack([f.coefficients for f in fields]), fields[0].grid)
    incs = [make_increment(K, s, t) for s in range(4)]
    X = np.stack(incs)
    phi = default_phi(K)
    maps = (
        lambda v, x: map_F_midpoint_physical(PARAMS, t, v).coefficients,
        lambda v, x: map_F(PARAMS, SPEC1, t, 1.0, 0, v.coefficients),
        lambda v, x: map_P_frozen(PARAMS, v, noise_operator(phi, x)).coefficients,
    )
    for f in maps:
        out = f(batch, X)
        for i in range(4):
            one = f(fields[i], incs[i])
            np.testing.assert_allclose(out[i], one, rtol=0,
                                       atol=1e-15 * max(1.0, np.max(np.abs(one))))


def test_fast_path_makes_four_fft_calls_of_ten_transforms(monkeypatch):
    # the four rounds of stacked transforms (3 + 3 + 2 + 2), for one field
    # and for a batch with two batch axes, whose samples are the flat
    # batch's bit for bit
    K, t = 8, 0.01
    fields = np.stack([random_field(K, s).coefficients for s in range(6)])
    flat = map_F_midpoint_physical(PARAMS, t, SpectralField(fields, TorusGrid(K)))
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _f=getattr(np.fft, name), **kwargs):
            calls.append(a.size // a.shape[-1])
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    for batch in ((), (2, 3)):
        calls.clear()
        c = fields[0] if batch == () else fields.reshape(batch + (2 * K + 1,))
        out = map_F_midpoint_physical(PARAMS, t, SpectralField(c, TorusGrid(K)))
        n_fields = int(np.prod(batch))
        assert [rows // n_fields for rows in calls] == [3, 3, 2, 2], batch
    assert out.coefficients.tobytes() == flat.coefficients.reshape(2, 3, -1).tobytes()


@pytest.mark.parametrize("t", [0.0, -0.01])
def test_fast_path_rejects_nonpositive_t(t):
    with pytest.raises(ValueError, match=f"step t must be > 0, got {t}"):
        map_F_midpoint_physical(PARAMS, t, random_field(2, 0))


def test_fast_path_zero_lambda():
    v = random_field(4, 1)
    out = map_F_midpoint_physical(ModelParams(lam=0.0, kappa=1.0), 0.01, v)
    np.testing.assert_array_equal(out.coefficients, 0.0)


# ------------------------------------------------------------ map_P_frozen


def make_increment(K, seed, step):
    path = sample_path(seed, step, 0, K)
    return increment(path, 0.0, step)


def test_map_P_zero_kappa():
    v = random_field(3, 2)
    X = make_increment(3, 0, 0.01)
    out = map_P_frozen(ModelParams(lam=1.0, kappa=0.0), v, noise_operator(default_phi(3), X))
    np.testing.assert_array_equal(out.coefficients, 0.0)


def test_map_P_single_mode_closed_form():
    # v_1 = a, noise only at k2 = +-1 with Phi_1 = 1:
    # out_k = -i kappa a Phi_{k-1} X_{k-1}  [DERIVED by hand]
    grid = TorusGrid(2)
    a = 0.5 + 1.0j
    c = np.zeros(5, dtype=complex)
    c[3] = a
    X = make_increment(2, 3, 0.01)
    phi = default_phi(2)
    out = map_P_frozen(PARAMS, SpectralField(c, grid), noise_operator(phi, X))
    expected = np.zeros(5, dtype=complex)
    for k in range(-2, 3):
        k2 = k - 1
        if -2 <= k2 <= 2:
            expected[k + 2] = -1j * PARAMS.kappa * a * phi.phi[k2 + 2] * X[k2 + 2]
    np.testing.assert_allclose(out.coefficients, expected, atol=1e-14)


def test_noise_operator_and_map_P_refuse_a_mode_mismatch():
    X = make_increment(3, 0, 0.01)
    with pytest.raises(ValueError, match="noise increment has 7 modes, covariance has K=4"):
        noise_operator(default_phi(4), X)
    with pytest.raises(ValueError, match="noise operator has K=3, field has K=4"):
        map_P_frozen(PARAMS, random_field(4, 0), noise_operator(default_phi(3), X))


def map_P_double_sum(kappa, phi, v, w):
    """-i kappa sum_{k = k1 + k2} v_{k1} Phi_{k2} w_{k2}, term by term."""
    K = (v.shape[-1] - 1) // 2
    out = np.zeros(np.broadcast_shapes(v.shape, w.shape), dtype=complex)
    for k in range(-K, K + 1):
        for k1 in range(-K, K + 1):
            k2 = k - k1
            if -K <= k2 <= K:
                out[..., k + K] += v[..., k1 + K] * phi[k2 + K] * w[..., k2 + K]
    return -1j * kappa * out


@pytest.mark.parametrize("K", [8, 16, 17, 40])  # direct products up to K=16, transforms above
@pytest.mark.parametrize("batched", ["field", "increment"])
def test_map_P_matches_double_sum(K, batched):
    t, samples = 0.01, 3
    fields = [random_field(K, s) for s in range(samples)]
    paths = [sample_path(s, t, 0, K) for s in range(samples)]
    if batched == "field":
        v = SpectralField(np.stack([f.coefficients for f in fields]), fields[0].grid)
        X = increment(paths[0], 0.0, t)
    else:
        v = fields[0]
        X = increment(sample_path(tuple(range(samples)), t, 0, K), 0.0, t)
    # the second phi, on the same X, gives its own operator
    for phi in (default_phi(K), CovarianceOp(1.0 + default_phi(K).phi)):
        out = map_P_frozen(PARAMS, v, noise_operator(phi, X)).coefficients
        expected = map_P_double_sum(PARAMS.kappa, phi.phi, v.coefficients, X)
        assert out.shape == expected.shape == (samples, 2 * K + 1)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6) | st.integers(17, 24))
@settings(max_examples=30, deadline=None)
def test_map_P_mass_orthogonality(seed, K):
    # Re<v, P*(v, X)> = 0 pathwise; relies on W_{-k} = W_k and even Phi
    v = random_field(K, seed)
    X = make_increment(K, seed + 1, 0.01)
    g = map_P_frozen(PARAMS, v, noise_operator(default_phi(K), X))
    scale = np.sum(np.abs(v.coefficients) ** 2)
    assert abs(orthogonality_defect(v.coefficients, g.coefficients)) < (
        1e-12 * max(1.0, scale * np.max(np.abs(X))))


def test_map_P_orthogonality_fails_for_asymmetric_noise():
    # negative control: independent (non-mirrored) mode noises break the
    # pathwise orthogonality; this is why paths are symmetrized
    rng = np.random.default_rng(0)
    K = 4
    v = random_field(K, 9)
    X = rng.standard_normal(2 * K + 1)
    g = map_P_frozen(PARAMS, v, noise_operator(default_phi(K), X))
    assert abs(orthogonality_defect(v.coefficients, g.coefficients)) > 1e-6


@pytest.mark.parametrize("K", [8, 17])  # the Toeplitz matrix, the spectrum
def test_map_P_operator_cached_on_the_increment_follows_phi(K):
    # a step holds the operator of its increment over all its map_P_frozen
    # calls; each phi on the same X gets its own, and reusing one gives the
    # same result every call
    v = random_field(K, 4)
    X = make_increment(K, 5, 0.01)
    for phi in (default_phi(K), CovarianceOp(1.0 + default_phi(K).phi), default_phi(K)):
        noise = noise_operator(phi, X)
        expected = map_P_double_sum(PARAMS.kappa, phi.phi, v.coefficients, X)
        for _ in range(2):  # the second call reuses the held operator
            out = map_P_frozen(PARAMS, v, noise).coefficients
            np.testing.assert_allclose(out, expected, rtol=0,
                                       atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("K", [8, 17])
@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_map_and_propagator_outputs_own_their_memory(K, lam):
    # outputs are wrapped unchecked, so none may alias an input; the
    # noise operator and the cached multipliers are read-only, so an output
    # that aliased one of them would not be writeable
    params = ModelParams(lam=lam, kappa=lam)
    v = random_field(K, 6)
    X = make_increment(K, 7, 0.01)
    phi = default_phi(K)
    noise = noise_operator(phi, X)
    outs = [
        map_F_midpoint_physical(params, 0.01, v).coefficients,
        map_P_frozen(params, v, noise).coefficients,
        map_P_frozen(params, v, noise).coefficients,
        free_propagator(v.coefficients, 0.01),
        free_propagator(v.coefficients, 0.0),
    ]
    shared = [v.coefficients, X, phi.phi]
    for out in outs:
        assert not any(np.shares_memory(out, a) for a in shared)
        assert out.flags.writeable
    assert not np.shares_memory(outs[1], outs[2])
