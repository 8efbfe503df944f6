"""Wiener paths: bit-exact refinement, symmetry, distributional sanity,
and the discrete Stratonovich identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.noise import (
    BrownianPath,
    CovarianceOp,
    NoiseIncrement,
    default_phi,
    increment,
    refine,
    sample_path,
    stack_paths,
    _check_exact,
)
from snls.oracles import strat_integral, symmetrized_midpoint_double


# ------------------------------------------------------------- covariance


def test_covariance_requires_even_symmetry():
    with pytest.raises(ValueError):
        CovarianceOp(np.array([1.0, 2.0, 3.0]))  # Phi_{-1} != Phi_1
    CovarianceOp(np.array([3.0, 2.0, 3.0]))  # ok


def test_covariance_requires_odd_length():
    with pytest.raises(ValueError):
        CovarianceOp(np.array([1.0, 1.0]))


def test_default_phi_values():
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


def test_mode_symmetry():
    p = sample_path(11, 1.0, 4, 6)
    for k in range(1, 7):
        np.testing.assert_array_equal(p.mode_row(k), p.mode_row(-k))


def test_distinct_modes_distinct_paths():
    p = sample_path(11, 1.0, 2, 3)
    assert not np.array_equal(p.mode_row(1), p.mode_row(2))
    assert not np.array_equal(sample_path(12, 1.0, 2, 3).mode_row(1), p.mode_row(1))


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
    with pytest.raises(ValueError):
        p.cell_index(0.3)
    with pytest.raises(ValueError):
        p.cell_index(1.25)


def test_endpoint_variance_is_horizon():
    # [DERIVED] W_k(T) ~ N(0, T): sample variance over many seeds
    T = 2.5
    vals = np.array([sample_path(s, T, 0, 1).values(1)[-1] for s in range(4000)])
    assert abs(np.mean(vals)) < 0.1
    assert abs(np.var(vals) - T) < 0.2


def test_refined_increment_variance():
    # level-3 cells have variance horizon/8
    T = 1.0
    incs = np.concatenate(
        [sample_path(s, T, 3, 1).mode_row(1) for s in range(500)]
    )
    assert abs(np.var(incs) - T / 8) < 0.01


# ------------------------------------------------------------- increments


def test_increment_normalization():
    p = sample_path(3, 1.0, 4, 2)
    X = increment(p, 0.25, 0.75)
    raw = p.increments[:, 4:12].sum(axis=1)
    np.testing.assert_array_equal(X.w, raw / np.sqrt(0.5))
    assert X.step == pytest.approx(0.5)


def test_increment_rejects_degenerate_interval():
    p = sample_path(3, 1.0, 2, 1)
    with pytest.raises(ValueError):
        increment(p, 0.5, 0.5)


def test_stacked_path_increments_are_per_path_increments():
    paths = [sample_path(s, 1.0, 3, 2) for s in (4, 5, 6)]
    stacked = stack_paths(paths)
    assert stacked.seed == (4, 5, 6) and stacked.increments.shape == (3, 5, 8)
    for t0, t1 in ((0.0, 1.0), (0.25, 0.5)):
        X = increment(stacked, t0, t1)
        for i, p in enumerate(paths):
            np.testing.assert_array_equal(X.w[i], increment(p, t0, t1).w)
    with pytest.raises(ValueError):
        refine(stacked)
    with pytest.raises(ValueError):
        stacked.values(1)
    with pytest.raises(ValueError):
        stack_paths([paths[0], sample_path(7, 1.0, 2, 2)])


def test_increments_consistent_across_levels():
    p = sample_path(9, 1.0, 2, 2)
    f = refine(p)
    a = increment(p, 0.25, 1.0)
    b = increment(f, 0.25, 1.0)
    np.testing.assert_array_equal(a.w, b.w)


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
        prod = p.values(2)[j] * p.values(3)[j]
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
    w = p.values(1)[-1]
    assert abs(val - 0.5 * w * w) < 1e-13


def test_strat_integral_refinement_consistency():
    # the trapezoidal sum converges as the same path is refined
    p = sample_path(33, 1.0, 6, 2)
    a = strat_integral(p, 1, 2, 1.0)
    b = strat_integral(refine(refine(p)), 1, 2, 1.0)
    assert abs(a - b) < 0.2


def test_increment_and_covariance_are_read_only_copies():
    # map_P_frozen caches an operator built from X.w and phi on X, so
    # neither may change under it
    path = sample_path(3, 0.5, 0, 2)
    X = increment(path, 0.0, 0.5)
    with pytest.raises(ValueError):
        X.w[0] = 1.0
    raw = np.ones(5)
    X = NoiseIncrement(w=raw, step=0.5)
    raw[0] = 2.0
    assert X.w[0] == 1.0
    phi = default_phi(2)
    with pytest.raises(ValueError):
        phi.phi[0] = 1.0
