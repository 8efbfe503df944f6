"""Wiener paths: bit-exact refinement, symmetry, distributional sanity,
and the discrete Stratonovich identities."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.noise import (
    BrownianPath,
    CovarianceOp,
    default_phi,
    increment,
    refine,
    sample_path,
    _check_exact,
)
from snls.oracles import path_values, strat_integral, symmetrized_midpoint_double


# ------------------------------------------------------------- covariance


def test_covariance_requires_even_symmetry():
    with pytest.raises(ValueError):
        CovarianceOp(np.array([1.0, 2.0, 3.0]))  # Phi_{-1} != Phi_1
    CovarianceOp(np.array([3.0, 2.0, 3.0]))  # ok


@pytest.mark.parametrize("phi, bad", [
    ([np.inf, 1.0, 0.0, 1.0, np.inf], "Phi_-2 = inf"),
    ([np.nan, 1.0, 0.0, 1.0, np.nan], "Phi_-2 = nan"),
    ([1.0, 1.0, -np.inf, 1.0, 2.0], "Phi_0 = -inf"),  # not even either
])
def test_covariance_requires_finite_coefficients(phi, bad):
    # an infinite Phi used to be accepted and give a step a NaN residual;
    # a NaN one was refused as not even, since NaN != NaN.  Finiteness is
    # checked first, so the message names the non-finite coefficient
    with pytest.raises(ValueError, match=re.escape(f"must be finite, got {bad}")):
        CovarianceOp(np.array(phi))


def test_covariance_refuses_a_complex_phi():
    # a complex Phi used to be stored as its real part, [1, 0, 0, 0, 1] here,
    # with only a ComplexWarning, a traceback under warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="covariance coefficients must be real, got dtype "
                                             "complex128"):
            CovarianceOp(np.array([1, 0.5j, 0, 0.5j, 1]))


def test_covariance_requires_odd_length():
    with pytest.raises(ValueError):
        CovarianceOp(np.array([1.0, 1.0]))


def test_default_phi_values():
    # a float K used to pass the range check and fail as "phi must hold an
    # odd number of modes"; a K past any path is refused before arange
    for K, message in ((2.5, "K must be an integer, got 2.5"), (0, "K must be in 1..67108863"),
                       (2**64 + 1, "K must be in 1..67108863")):
        with pytest.raises(ValueError, match=re.escape(message)):
            default_phi(K)
    op = default_phi(3)
    np.testing.assert_allclose(
        op.phi, [1 / 9, 1 / 4, 1.0, 0.0, 1.0, 1 / 4, 1 / 9]
    )
    assert op.K == 3


# ------------------------------------------------------ path construction


@given(seed=st.integers(0, 2**32 - 1), level=st.integers(0, 6), K=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_refinement_preserves_coarse_increments_bit_exact(seed, level, K):
    p = sample_path(seed, 0.37, level, K)
    fine = refine(refine(p))
    # each coarse increment equals the exact sum of its 4 children
    summed = fine.increments.reshape(fine.increments.shape[0], -1, 4).sum(axis=2)
    np.testing.assert_array_equal(summed, p.increments)


def test_direct_sampling_matches_iterated_refinement():
    base = sample_path(7, 2.0, 0, 2)
    assert np.array_equal(sample_path(7, 2.0, 3, 2).increments,
                          refine(refine(refine(base))).increments)


def _mirrored(rows):
    """The rows of modes -K..K, from a path's rows of modes 0..K."""
    return np.concatenate([rows[:0:-1], rows])


def test_draws_are_pinned():
    # SHA-256 of the increments of sample paths and of their refinements,
    # as first drawn, in rows of modes -K..K.  A change to the draws trips
    # this test, and so would a change in numpy's Philox generator or its
    # ziggurat normals.
    h = hashlib.sha256()
    for K in range(1, 9):
        for level in (0, 1, 3, 8):
            for nb in (1, 3, 7):
                p = sample_path(K * 100 + level, 0.37, level, K, n_base=nb)
                h.update(_mirrored(p.increments).tobytes())
                h.update(_mirrored(refine(p).increments).tobytes())
    assert h.hexdigest() == "68d95b8fd1e46a6b1819f052f2bd3ea3013af07ae76346afd62cafbdc5e879c5"


def test_mode_symmetry():
    # a path stores modes 0..K once; increment gives modes -K..K with X_{-k} == X_k
    p = sample_path(11, 1.0, 4, 6)
    stacked = sample_path((11, 12), 1.0, 4, 6)
    assert p.increments.shape == (7, 16) and stacked.increments.shape == (2, 7, 16)
    for K in (1, 2, 5):
        assert sample_path(3, 1.0, 0, K).increments.shape == (K + 1, 1)
    for t0, t1 in ((0.0, 1.0), (0.25, 0.5), (0.625, 0.6875)):
        for X in (increment(p, t0, t1), increment(stacked, t0, t1)):
            assert X.shape[-1] == 13
            for k in range(1, 7):
                np.testing.assert_array_equal(X[..., k + p.K], X[..., -k + p.K])


def test_distinct_modes_distinct_paths():
    p = sample_path(11, 1.0, 2, 3)
    assert not np.array_equal(p.increments[1], p.increments[2])
    other = sample_path(12, 1.0, 2, 3)
    assert not np.array_equal(other.increments[1], p.increments[1])


def test_n_base_grid():
    p = sample_path(5, 1.0, 0, 2, n_base=100)
    assert p.n_cells == 100
    assert p.dt == pytest.approx(0.01)
    fine = refine(p)
    assert fine.n_cells == 200
    summed = fine.increments[:, 0::2] + fine.increments[:, 1::2]
    np.testing.assert_array_equal(summed, p.increments)


def test_sample_path_validation():
    with pytest.raises(ValueError):
        sample_path(0, -1.0, 0, 2)
    # an infinite horizon gives infinite increments, whose NaN running
    # sums would pass a `reach >= 2^12` test
    for horizon in (np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            sample_path(1, horizon, 0, 2, n_base=10)
    with pytest.raises(ValueError):
        sample_path(0, 1.0, -1, 2)
    with pytest.raises(ValueError):
        sample_path(0, 1.0, 0, 2, n_base=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            sample_path(seed, 1.0, 0, 2)
    sample_path(2**64 - 1, 1.0, 0, 2)
    with pytest.raises(ValueError, match="at least one seed"):
        sample_path((), 1.0, 2, 2)
    # a float or a bool seed used to become the Philox key: 1.5 drew seed 1's path
    for seed in (1.5, True, np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            sample_path(seed, 1.0, 1, 2)
    for K in (0, -3):
        with pytest.raises(ValueError, match=f"K must be >= 1, got {K}$"):
            sample_path(1, 1.0, 1, K)
    for name in ("level", "K", "n_base"):
        args = {"level": 1, "K": 2, "n_base": 1, name: 1.5}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.5"):
            sample_path(1, 1.0, **args)
    # the path size is refused before any draw: 2^level is never formed
    for args in ({"level": 2**64 + 1}, {"K": 2**70}, {"n_base": 2**64 + 1}, {"level": 26},
                 {"K": 2**26}):
        args = {"level": 0, "K": 1, "n_base": 1, **args}
        with pytest.raises(ValueError, match="would hold more than 134217728 values"):
            sample_path(1, 1.0, **args)


def test_refine_refuses_a_path_past_the_size_bound(monkeypatch):
    # refine used to double a path with no size check, so a path drawn at
    # the bound refined to twice MAX_PATH_VALUES.  The bound counts 2K+1
    # values per cell: 3 at K=1
    monkeypatch.setattr("snls.noise.MAX_PATH_VALUES", 48)
    paths = [sample_path(1, 1.0, 4, 1), sample_path((1, 2), 1.0, 3, 1)]  # 3 x 16, 2 x 3 x 8

    def split(*args):
        raise AssertionError("refine split a path past the bound")

    monkeypatch.setattr("snls.noise._split", split)  # refused before any allocation
    for path in paths:
        with pytest.raises(ValueError, match=f"and level={path.level + 1} would hold more "
                                             "than 48 values"):
            refine(path)


def test_paths_past_the_exact_range_are_refused():
    # |W| ~ sqrt(horizon) = 2^15, far past the 2^12 of exact sums
    with pytest.raises(ValueError, match="2\\^12"):
        sample_path(0, 2.0**30, 0, 2)
    # for seed 14 the level-0 values stay below 2^12 and a bridge
    # midpoint does not
    path = sample_path(14, 2.0**25, 0, 1)
    with pytest.raises(ValueError, match="2\\^12"):
        refine(path)
    # a NaN running sum is refused, not read as in range
    with pytest.raises(ValueError, match="2\\^12"):
        _check_exact(np.array([[0.5, np.nan, 0.5]]))


def test_cell_index_off_grid_rejected():
    p = sample_path(0, 1.0, 2, 1)
    assert p.cell_index(0.25) == 1
    assert p.cell_index(np.float64(0.5)) == 2 and p.cell_index(1) == 4
    with pytest.raises(ValueError):
        p.cell_index(0.3)
    with pytest.raises(ValueError):
        p.cell_index(1.25)


@pytest.mark.parametrize("time", ["x", None, True, math.nan, math.inf, 1 + 0j])
def test_cell_index_and_increment_refuse_a_time_that_is_not_a_finite_real(time):
    p = sample_path(0, 1.0, 2, 1)
    message = re.escape(f"time must be finite, got {time!r}")
    with pytest.raises(ValueError, match=message):
        p.cell_index(time)
    with pytest.raises(ValueError, match=message):
        increment(p, 0.25, time)


def test_endpoint_variance_is_horizon():
    # [DERIVED] W_k(T) ~ N(0, T): sample variance over many seeds
    T = 2.5
    vals = np.array([path_values(sample_path(s, T, 0, 1), 1)[-1] for s in range(4000)])
    assert abs(np.mean(vals)) < 0.1
    assert abs(np.var(vals) - T) < 0.2


def test_refined_increment_variance():
    # level-3 cells have variance horizon/8
    T = 1.0
    paths = [sample_path(s, T, 3, 1) for s in range(500)]
    incs = np.concatenate([p.increments[1] for p in paths])
    assert abs(np.var(incs) - T / 8) < 0.01


# ------------------------------------------------------------- increments


def test_increment_normalization():
    p = sample_path(3, 1.0, 4, 2)
    X = increment(p, 0.25, 0.75)
    raw = p.increments[np.abs(np.arange(-2, 3)), 4:12].sum(axis=1)  # modes -2..2
    np.testing.assert_array_equal(X, raw / np.sqrt(0.5))


def test_increment_rejects_degenerate_interval():
    p = sample_path(3, 1.0, 2, 1)
    with pytest.raises(ValueError):
        increment(p, 0.5, 0.5)


def test_stacked_path_increments_are_per_path_increments():
    seeds = (4, 5, 6)
    # sample i of a tuple draw is the path of seeds[i], bit for bit, and
    # so is sample i of its refinement
    for K in range(1, 9):
        for level in (0, 1, 3, 8):
            for nb in (1, 3, 7):
                stacked = sample_path(seeds, 0.37, level, K, n_base=nb)
                fine = refine(stacked)
                assert stacked.seed == fine.seed == seeds
                for i, s in enumerate(seeds):
                    p = sample_path(s, 0.37, level, K, n_base=nb)
                    assert stacked.increments[i].tobytes() == p.increments.tobytes()
                    assert fine.increments[i].tobytes() == refine(p).increments.tobytes()
    paths = [sample_path(s, 1.0, 3, 2) for s in seeds]
    stacked = sample_path(seeds, 1.0, 3, 2)
    assert stacked.increments.shape == (3, 3, 8)
    for t0, t1 in ((0.0, 1.0), (0.25, 0.5)):
        X = increment(stacked, t0, t1)
        for i, p in enumerate(paths):
            np.testing.assert_array_equal(X[i], increment(p, t0, t1))
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed must be in 0..2\\^64-1, got {bad}$"):
            sample_path((4, bad, 6), 1.0, 2, 2)


def test_increments_consistent_across_levels():
    p = sample_path(9, 1.0, 2, 2)
    f = refine(p)
    a = increment(p, 0.25, 1.0)
    b = increment(f, 0.25, 1.0)
    np.testing.assert_array_equal(a, b)


# ------------------------------------------- Stratonovich sum identities


@given(seed=st.integers(0, 2**32 - 1), level=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_pair_identity_pathwise(seed, level):
    # I_{23} + I_{32} = W_2(t) W_3(t) exactly (up to rounding) on every
    # discrete path, at every grid time
    p = sample_path(seed, 1.0, level, 3)
    for t in (p.dt, 0.5, 1.0):
        i23, i32 = strat_integral(p, 2, 3, t), strat_integral(p, 3, 2, t)
        j = p.cell_index(t)
        prod = path_values(p, 2)[j] * path_values(p, 3)[j]
        assert abs(i23 + i32 - prod) < 1e-13


@given(seed=st.integers(0, 2**32 - 1), level=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_symmetrized_double_integral_vanishes(seed, level):
    # symmetrized midpoint double integral telescopes to zero pathwise
    p = sample_path(seed, 1.0, level, 3)
    for t in (0.5, 1.0):
        assert abs(symmetrized_midpoint_double(p, 2, 3, t)) < 1e-13


def test_strat_integral_quadratic_variation_case():
    # int W o dW at the trapezoidal level equals W(t)^2/2 exactly
    p = sample_path(21, 1.0, 6, 1)
    val = strat_integral(p, 1, 1, 1.0)
    w = path_values(p, 1)[-1]
    assert abs(val - 0.5 * w * w) < 1e-13


def test_strat_integral_refinement_consistency():
    # the trapezoidal sum converges as the same path is refined
    p = sample_path(33, 1.0, 6, 2)
    a = strat_integral(p, 1, 2, 1.0)
    b = strat_integral(refine(refine(p)), 1, 2, 1.0)
    assert abs(a - b) < 0.2


def test_covariance_is_a_read_only_copy():
    # CovarianceOp checks Phi_k = Phi_{-k} once, when it is made, so its
    # phi may change neither in place nor through the array it was made from
    raw = np.ones(5)
    phi = CovarianceOp(raw)
    raw[0] = 2.0
    assert phi.phi[0] == 1.0
    phi = default_phi(2)
    with pytest.raises(ValueError):
        phi.phi[0] = 1.0
