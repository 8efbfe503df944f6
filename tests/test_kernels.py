"""Resonance kernels: closed-form integrals against quadrature oracles,
symmetries, and the approximation order."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import snls.kernels
from snls.experiments import _draw_quads
from snls.kernels import (
    KernelSpec,
    ModeQuad,
    _horner,
    default_kernel_spec,
    interp_exp,
    kernel_K2d,
    kernel_exact,
)
from snls.oracles import kernel_weight, weighted_exp_integral


def quads_strategy(bound=8):
    def build(k1, k2, k3):
        return ModeQuad(-k1 + k2 + k3, k1, k2, k3)

    return st.builds(
        build,
        st.integers(-bound, bound),
        st.integers(-bound, bound),
        st.integers(-bound, bound),
    )


def spec_strategy():
    one = st.just(KernelSpec(1, (0.0,)))
    two = st.sampled_from(
        [KernelSpec(2, (0.0, 1.0)), KernelSpec(2, (0.25, 0.75)), KernelSpec(2, (0.0, 0.5))]
    )
    three = st.just(KernelSpec(3, (0.0, 0.5, 1.0)))
    return st.one_of(one, two, three)


# ------------------------------------------- weighted exponential integral


@pytest.mark.parametrize("omega", [0.0, 1e-9, 1e-5, 0.3, -4.7, 128.0, -128.0])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_weighted_exp_integral_matches_quadrature(omega, p):
    # [DERIVED] oracle: scipy adaptive quadrature of s^p e^{i omega s}
    T = 0.37
    val = weighted_exp_integral(omega, T, p)
    re, _ = quad(lambda s: s**p * np.cos(omega * s), 0.0, T, epsabs=1e-14)
    im, _ = quad(lambda s: s**p * np.sin(omega * s), 0.0, T, epsabs=1e-14)
    assert abs(val - (re + 1j * im)) < 1e-12


def test_weighted_exp_integral_zero_omega_is_monomial_integral():
    for p in range(4):
        T = 0.8
        np.testing.assert_allclose(
            weighted_exp_integral(0.0, T, p), T ** (p + 1) / (p + 1), rtol=1e-14
        )


def test_weighted_exp_integral_accurate_on_both_sides_of_switch():
    # [DERIVED] quadrature oracle just below (series branch) and just
    # above (recursion branch) the |omega T| = 1 switch
    T = 1.0
    for omega in (0.9e-4, 1.1e-4, 0.9, 1.1):
        for p in (0, 3):
            val = weighted_exp_integral(omega, T, p)
            re, _ = quad(lambda s: s**p * np.cos(omega * s), 0.0, T, epsabs=1e-15)
            im, _ = quad(lambda s: s**p * np.sin(omega * s), 0.0, T, epsabs=1e-15)
            assert abs(val - (re + 1j * im)) < 1e-12


def test_weighted_exp_integral_rejects_bad_args():
    with pytest.raises(ValueError):
        weighted_exp_integral(1.0, 0.5, -1)
    with pytest.raises(ValueError):
        weighted_exp_integral(1.0, -0.5, 0)


# ----------------------------------------------------------- interpolation


@given(spec=spec_strategy(), omega=st.floats(-128.0, 128.0), t=st.floats(1e-4, 0.5))
@settings(max_examples=60, deadline=None)
def test_interp_exp_matches_at_nodes(spec, omega, t):
    coeffs = interp_exp(spec, omega, t)
    for g in spec.gamma:
        s = t * g
        val = sum(c * s**j for j, c in enumerate(coeffs))
        assert abs(val - np.exp(1j * omega * s)) < 1e-9 * max(1.0, np.abs(coeffs).max())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_horner_is_numpy_polyval_bit_for_bit(d):
    # kernel_K2d's shapes: coefficients (d, Q, 1) from interp_exp and s of
    # shape (S,), or a scalar s
    from numpy.polynomial.polynomial import polyval

    rng = np.random.default_rng(d)
    spec = default_kernel_spec(d)
    omega = rng.integers(-128, 129, size=(40, 1)).astype(float)
    t = 2.0**-5
    s = np.linspace(0.0, t, 65)[1:]
    for c in (interp_exp(spec, omega, t),
              rng.standard_normal((d, 40, 1)) + 1j * rng.standard_normal((d, 40, 1))):
        for x in (s, float(s[7])):
            got, want = _horner(c, x), polyval(x, c, tensor=False)
            assert got.shape == want.shape == np.broadcast_shapes(c.shape[1:], np.shape(x))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [0.0, -0.1, np.nan, np.inf, "1"])
@pytest.mark.parametrize("d", [1, 2])
def test_interp_exp_refuses_a_step_that_is_not_finite_and_positive(d, t):
    # a NaN step used to give NaN coefficients, an infinite one numpy
    # warnings and a str one a TypeError
    spec = default_kernel_spec(d)
    with pytest.raises(ValueError, match="step t must be finite and > 0"):
        interp_exp(spec, 1.0, t)
    with pytest.raises(ValueError, match="step t must be finite and > 0"):
        kernel_K2d(spec, ModeQuad(1, 2, 1, 2), 0.5, t)


@pytest.mark.parametrize("steps, bad", [
    ([0.1, np.nan], "nan"), ([0.1, 0.0], "0.0"), ([[0.1], [-0.5]], "-0.5"),
    ([np.inf, 0.1], "inf"), (np.array([True]), "True"), (np.array(["0.1"]), "'0.1'"),
])
def test_interp_exp_refuses_an_array_step_by_its_value(steps, bad):
    # an array of steps is checked entry by entry and the message names the
    # first bad one; with numpy warnings as errors, a NaN step raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"step t must be finite and > 0, got {bad}")
                           + "$"):
            interp_exp(default_kernel_spec(2), 1.0, steps)


@pytest.mark.parametrize("omega, bad", [
    (np.inf, "inf"), (np.nan, "nan"), (np.array([[1.0], [-np.inf]]), "-inf"),
])
def test_interp_exp_refuses_a_frequency_that_is_not_finite(omega, bad):
    # an infinite omega used to raise numpy's "invalid value encountered in
    # multiply" under warnings as errors, and to give NaN coefficients otherwise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"frequency omega must be finite, got {bad}")
                           + "$"):
            interp_exp(default_kernel_spec(2), omega, 0.1)


@pytest.mark.parametrize("omega, bad", [
    (1 + 1j, "(1+1j)"), ("1.0", "'1.0'"), (None, "None"), (True, "True"),
    (np.array([[2j], [1.0]]), "2j"),
])
def test_interp_exp_refuses_a_frequency_that_is_not_real(omega, bad):
    # a complex omega used to be accepted, a str or None to raise numpy's TypeError;
    # the message names the first entry of an array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"frequency omega must be real, got {bad}")
                           + "$"):
            interp_exp(default_kernel_spec(2), omega, 0.1)


@pytest.mark.parametrize("s, bad", [
    (np.inf, "inf"), (np.nan, "nan"), (-np.inf, "-inf"),
    (np.array([[0.1, np.nan], [0.2, 0.3]]), "nan"), (np.array([np.inf, -np.inf]), "-inf"),
])
@pytest.mark.parametrize("kernel", [
    kernel_exact,
    lambda q, s: kernel_K2d(default_kernel_spec(1), q, s, 0.1),
    lambda q, s: kernel_K2d(default_kernel_spec(2), q, s, 0.1),
], ids=["exact", "K2d-1", "K2d-2"])
def test_kernels_refuse_a_point_that_is_not_finite(kernel, s, bad):
    # an infinite s used to raise numpy's "invalid value encountered in
    # multiply" under warnings as errors, a NaN one "... in exp", and both
    # to give NaN otherwise; -inf sorts first, so it is the one named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"point s must be finite, got {bad}") + "$"):
            kernel(ModeQuad(np.array([1, 2]), 2, 1, np.array([2, 3])), s)


def test_interp_exp_takes_an_array_of_steps():
    # one polynomial per step and frequency: (d,) + shape(t) + shape(omega),
    # each the one that step alone gives, bit for bit
    spec, omega, steps = default_kernel_spec(3), np.array([[2.0, -6.0, 0.0]]), [0.03, 2.0**-4]
    got = interp_exp(spec, omega, np.reshape(steps, (2, 1)))
    assert got.shape == (3, 2, 1, 1, 3)
    for i, t in enumerate(steps):
        assert got[:, i, 0].tobytes() == interp_exp(spec, omega, t).tobytes()


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0, ())
    with pytest.raises(ValueError):
        KernelSpec(2, (0.5, 0.5))
    with pytest.raises(ValueError):
        KernelSpec(1, (1.5,))
    with pytest.raises(ValueError):
        KernelSpec(2, (0.0,))
    # True was accepted as d=1, 1.5 raised TypeError
    for d in (True, 1.5):
        with pytest.raises(ValueError, match=f"interpolation order d must be an integer, got {d}"):
            default_kernel_spec(d)
    with pytest.raises(ValueError, match="gamma must be in \\[0, 1\\], got nan"):
        KernelSpec(1, (np.nan,))


def test_kernel_spec_refuses_a_huge_order_at_once():
    # the gamma tuple is never built: 2**70 points used to run out of memory
    for d in (2**70, 10**6):
        with pytest.raises(ValueError, match=f"interpolation order d must be in 1..4, got {d}"):
            default_kernel_spec(d)
        with pytest.raises(ValueError, match="interpolation order d must be in 1..4"):
            KernelSpec(d, (0.0,))


def test_default_specs():
    assert default_kernel_spec(1).gamma == (0.0,)
    assert default_kernel_spec(2).gamma == (0.0, 1.0)


def test_mode_quad_resonance_constraint():
    with pytest.raises(ValueError):
        ModeQuad(1, 1, 1, 0)
    # an array quad is checked element by element
    k1, k2, k3 = np.array([1, 2, -3]), np.array([4, 0, 1]), np.array([2, 2, 5])
    ModeQuad(-k1 + k2 + k3, k1, k2, k3)
    k = -k1 + k2 + k3
    k[1] += 1
    with pytest.raises(ValueError, match=r"quad \(1,2,0,2\) violates"):
        ModeQuad(k, k1, k2, k3)
    with pytest.raises(ValueError, match="broadcast"):
        ModeQuad(k[:2], k1, k2, k3)


@pytest.mark.parametrize("modes, message", [
    ((1.5, 0.5, 1, 1), "mode k must be an integer, got 1.5"),
    ((True, 0, 1, 0), "mode k must be an integer, got True"),
    (("1", 0, 1, 0), "mode k must be an integer, got '1'"),
    ((1, None, 1, 0), "mode k1 must be an integer, got None"),
    ((2, 1, np.array([1.0, 2.0]), np.array([2, 1])), "mode k2 must be an integer array, got "),
    ((1, 0, 1, np.array([False])), "mode k3 must be an integer array, got "),
])
def test_mode_quad_refuses_modes_that_are_not_integers(modes, message):
    # ModeQuad(1.5, 0.5, 1, 1) and ModeQuad(True, 0, 1, 0) used to be
    # accepted, and ModeQuad("1", 0, 1, 0) raised numpy's UFuncTypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            ModeQuad(*modes)


def test_mode_quad_refuses_modes_whose_phases_pass_the_float_range():
    # ModeQuad(10**200, 10**200, 10**200, 10**200) was accepted, and
    # kernel_exact then refused "frequency omega must be finite, got nan",
    # a frequency the caller never gave
    big, e153 = 10**200, 10**153
    cases = [(big, big, big, big),
             (10**400, 1, 10**400, 1),  # no float holds the mode
             (15 * e153, -15 * e153, 0, 0),  # -2kk1 = 4.5e308
             (17 * e153, -3 * e153, 7 * e153, 7 * e153)]  # each phase ~1e308, the sum 2e308
    # an int64 array beside Python ints: the second quad is named
    mixed = (np.array([1, 10**18]), 10**291, 10**291, np.array([1, 10**18]))
    for modes, quad in [(m, m) for m in cases] + [(mixed, (10**18, 10**291, 10**291, 10**18))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"quad ({','.join(map(str, quad))}) has a phase -2kk1, 2k2k3 or their sum "
                    "past the float range")):
                ModeQuad(*modes)
    # phases that stay finite pass, in Python ints and beside int64 arrays
    ModeQuad(10**150, 10**150, 10**150, 10**150)
    ModeQuad(np.array([1, 2]), big, big, np.array([1, 2]))


def test_mode_quad_takes_python_and_numpy_integers():
    # fails on a copy that tests each mode with isinstance(mode, int)
    ModeQuad(np.int64(1), 2, np.uint8(1), 2)
    ModeQuad(np.array([1, 2], dtype=np.int32), np.array([2, 1], dtype=np.uint16), 1, 2)


# ------------------------------------------------------------ kernel K2d


def test_d1_kernel_closed_form():
    # with gamma = (0,): K = e^{-2iskk1} + e^{2isk2k3} - 1
    spec = default_kernel_spec(1)
    q = ModeQuad(2, 3, 4, 1)
    for s, t in [(0.01, 0.02), (0.3, 0.5)]:
        expected = np.exp(-2j * s * q.k * q.k1) + np.exp(2j * s * q.k2 * q.k3) - 1.0
        assert abs(kernel_K2d(spec, q, s, t) - expected) < 1e-13


@given(
    q=quads_strategy(),
    spec=spec_strategy(),
    s_frac=st.floats(0.0, 1.0),
    t=st.floats(1e-4, 0.5),
)
@settings(max_examples=80, deadline=None)
def test_conjugate_swap_symmetry(q, spec, s_frac, t):
    # K2d(s; k,k1,k2,k3) = conj(K2d(s; k2,k3,k,k1)) for all d, gamma, s
    s = s_frac * t
    swapped = ModeQuad(q.k2, q.k3, q.k, q.k1)
    a = kernel_K2d(spec, q, s, t)
    b = kernel_K2d(spec, swapped, s, t)
    assert abs(a - np.conj(b)) < 1e-13 * max(1.0, abs(a))


@given(
    q=quads_strategy(),
    spec=spec_strategy(),
    s_frac=st.floats(0.0, 1.0),
    t=st.floats(1e-4, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_conjugate_slot_swap_invariance(q, spec, s_frac, t):
    # K2d(s; k2,k3,k,k1) = K2d(s; k2,k3,k1,k): swapping the two
    # conjugated slots leaves the kernel unchanged
    s = s_frac * t
    a = kernel_K2d(spec, ModeQuad(q.k2, q.k3, q.k, q.k1), s, t)
    b = kernel_K2d(spec, ModeQuad(q.k2, q.k3, q.k1, q.k), s, t)
    assert abs(a - b) < 1e-13 * max(1.0, abs(a))


@given(
    quads=st.lists(quads_strategy(), min_size=1, max_size=6),
    spec=spec_strategy(),
    s_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    t=st.floats(1e-4, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_array_kernels_match_scalar_kernels(quads, spec, s_fracs, t):
    # one call on a (quads x s) grid gives the per-point values
    q = ModeQuad(*np.array([(p.k, p.k1, p.k2, p.k3) for p in quads]).T[:, :, None])
    s = t * np.array(s_fracs)
    grid_K2d, grid_exact = kernel_K2d(spec, q, s, t), kernel_exact(q, s)
    assert grid_K2d.shape == grid_exact.shape == (len(quads), len(s_fracs))
    for i, p in enumerate(quads):
        for j, sj in enumerate(s):
            assert abs(grid_K2d[i, j] - kernel_K2d(spec, p, sj, t)) <= 1e-14
            assert abs(grid_exact[i, j] - kernel_exact(p, sj)) <= 1e-14


def kernel_K2d_per_phase(spec, q, s, t):
    """kernel_K2d with each phase evaluated on its own (two interpolation
    solves, two Horner sums, two exponentials): the oracle of the stack."""
    w_dom = -2.0 * q.k * q.k1
    w_low = 2.0 * q.k2 * q.k3
    p_low = _horner(interp_exp(spec, w_low, t), s)
    p_dom = _horner(interp_exp(spec, w_dom, t), s)
    e_dom = np.exp(1j * w_dom * s)
    e_low = np.exp(1j * w_low * s)
    return e_dom * p_low + e_low * p_dom - p_low * p_dom


def kernel_cases():
    """(quad, s) on the four shape pairs: scalar quad with scalar s and
    with s of shape (64,), quads (40, 1) with s (64,), quads (5,) with
    scalar s."""
    s64 = np.linspace(0.0, 1.0, 65)[1:]
    quads = _draw_quads(3, 2)
    return [(ModeQuad(3, -2, 4, -3), 0.7), (ModeQuad(3, -2, 4, -3), s64),
            (ModeQuad(*quads.T[:, :, None]), s64), (ModeQuad(*quads[:5].T), 0.7)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [2.0**-5, 0.03])
def test_stacked_kernel_is_the_per_phase_kernel_bit_for_bit(d, t):
    spec = default_kernel_spec(d)
    for q, s_frac in kernel_cases():
        got, want = kernel_K2d(spec, q, t * s_frac, t), kernel_K2d_per_phase(spec, q, t * s_frac, t)
        assert got.shape == want.shape == np.broadcast_shapes(np.shape(q.k), np.shape(s_frac))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (d, np.shape(q.k), np.shape(s_frac))


def test_kernel_K2d_makes_one_interpolation_call(monkeypatch):
    # one solve over the distinct frequencies of both phases
    calls = []

    def counted(spec, omega, t):
        calls.append(np.shape(omega))
        return interp_exp(spec, omega, t)

    monkeypatch.setattr(snls.kernels, "interp_exp", counted)
    for q, s in kernel_cases():
        calls.clear()
        kernel_K2d(default_kernel_spec(2), q, s * 0.01, 0.01)
        distinct = np.unique(np.stack(np.broadcast_arrays(2.0 * q.k2 * q.k3, -2.0 * q.k * q.k1)))
        assert calls == [distinct.shape]


# rows k, k1, k2, k3 of three quads with both signs of a zero frequency,
# which np.unique merges: -2.0*k*k1 is -0.0 in the first quad and 0.0 in
# the second, and 2.0*k2*k3 is -0.0 in the third
ZERO_MODES = np.array([[0, 0, 2], [3, -3, -3], [1, -1, 0], [2, -2, -1]])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("steps", [[2.0**-e for e in range(3, 8)], [0.03, 0.1, 1 / 3, 0.007]])
def test_batched_kernels_are_the_per_step_kernels_bit_for_bit(d, steps):
    # an array of steps, one per leading slice, gives each step's own
    # kernels.  Fails on a copy that interpolates every slice at the first
    # step (at d >= 2: the d=1 interpolant does not depend on the step) and
    # on one that takes every slice's exponentials at the first step's
    # points.  At the zero-mode quads the merged -0.0 and 0.0 frequencies
    # must also give the per-phase kernel, which evaluates each sign alone
    spec = default_kernel_spec(d)
    cases = kernel_cases() + [(ModeQuad(*ZERO_MODES), 0.7),
                              (ModeQuad(*ZERO_MODES[:, :, None]), np.linspace(0.0, 1.0, 65)[1:])]
    for q, s_frac in cases:
        shape = np.broadcast_shapes(np.shape(q.k), np.shape(s_frac))
        ts = np.reshape(steps, (len(steps),) + (1,) * len(shape))
        got_K2d, got_exact = kernel_K2d(spec, q, ts * s_frac, ts), kernel_exact(q, ts * s_frac)
        for want, got in (([kernel_K2d(spec, q, t * s_frac, t) for t in steps], got_K2d),
                          ([kernel_K2d_per_phase(spec, q, t * s_frac, t) for t in steps], got_K2d),
                          ([np.exp(1j * (t * s_frac) * (-2.0 * q.k * q.k1 + 2.0 * q.k2 * q.k3))
                            for t in steps], got_exact)):
            assert got.shape == (len(steps),) + shape and got.dtype == complex
            assert got.tobytes() == np.array(want).tobytes(), (d, shape)


def test_kernel_K2d_refuses_steps_off_the_leading_axis():
    q = ModeQuad(*_draw_quads(3, 2).T[:, :, None])  # quads (40, 1), s (64,): a result of rank 2
    for t in (np.full((1, 40, 1), 0.1), np.full((1, 1, 64), 0.1), np.full((2, 1, 64), 0.1)):
        with pytest.raises(ValueError, match=re.escape("steps t must be of shape (T, 1, ..., 1)")):
            kernel_K2d(default_kernel_spec(2), q, np.linspace(0.0, 0.1, 64), t)


def test_kernel_exact_on_resonance_free_quads():
    # kk1 = k2k3 = 0 makes the interpolated kernel exact at all t  [TRIVIAL]
    spec = default_kernel_spec(2)
    q = ModeQuad(0, 1, 0, 1)  # k*k1 = 0, k2*k3 = 0
    for t in (0.5, 0.03):
        for s in np.linspace(0, t, 7):
            assert abs(kernel_K2d(spec, q, s, t) - kernel_exact(q, s)) < 1e-13


def test_kernel_error_order_d1():
    # log-log slope of max_{s<=t} |K2d - exact| is d+1 = 2 +- 0.2 over
    # t in 2^-4..2^-10, for quads whose phases are resolved on that range
    spec = default_kernel_spec(1)
    rng = np.random.default_rng(42)
    quads = []
    while len(quads) < 20:
        k1, k2, k3 = rng.integers(-8, 9, size=3)
        k = -k1 + k2 + k3
        if abs(k) <= 8 and k * k1 * k2 * k3 != 0 and abs(k * k1) <= 8 and abs(k2 * k3) <= 8:
            quads.append((k, k1, k2, k3))
    q = ModeQuad(*np.array(quads).T[:, :, None])  # one quad per row
    ts = [2.0**-e for e in range(4, 11)]
    errs = []
    for t in ts:
        s = np.linspace(0, t, 33)[1:]
        errs.append(np.max(np.abs(kernel_K2d(spec, q, s, t) - kernel_exact(q, s))))
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


# ---------------------------------------------------------- kernel weight


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_kernel_weight_matches_quadrature(d, p):
    # [DERIVED] oracle: adaptive quadrature of K2d(s) s^p over [0, ct]
    spec = default_kernel_spec(d)
    t, c = 0.05, 0.7
    for q in [ModeQuad(2, 3, 4, 1), ModeQuad(-1, 5, 2, 2), ModeQuad(0, 2, 1, 1)]:
        val = kernel_weight(spec, q, t, c, p)
        re, _ = quad(
            lambda s: (kernel_K2d(spec, q, s, t) * s**p).real, 0, c * t, epsabs=1e-15
        )
        im, _ = quad(
            lambda s: (kernel_K2d(spec, q, s, t) * s**p).imag, 0, c * t, epsabs=1e-15
        )
        oracle = (re + 1j * im) / t ** (p + 1)
        assert abs(val - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_kernel_weight_d1_phi1_form():
    # d=1, p=0, c=1: weight = phi1(-2itkk1) + phi1(2itk2k3) - 1, where
    # phi1(z) = (e^z - 1)/z
    spec = default_kernel_spec(1)
    q = ModeQuad(2, 3, 4, 1)
    t = 0.01
    z_dom, z_low = -2j * t * q.k * q.k1, 2j * t * q.k2 * q.k3
    expected = (np.exp(z_dom) - 1.0) / z_dom + (np.exp(z_low) - 1.0) / z_low - 1.0
    assert abs(kernel_weight(spec, q, t, 1.0, 0) - expected) < 1e-13


def test_kernel_weight_zero_upper_limit():
    spec = default_kernel_spec(1)
    q = ModeQuad(1, 1, 1, 1)
    assert kernel_weight(spec, q, 0.1, 0.0, 0) == 0.0


def test_kernel_weight_argument_validation():
    spec = default_kernel_spec(1)
    q = ModeQuad(1, 1, 1, 1)
    with pytest.raises(ValueError):
        kernel_weight(spec, q, -0.1, 1.0, 0)
    with pytest.raises(ValueError):
        kernel_weight(spec, q, 0.1, 1.5, 0)
    with pytest.raises(ValueError):
        kernel_weight(spec, q, 0.1, 1.0, -2)
