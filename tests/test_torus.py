"""Spectral grid and fields, the free propagator, dealiased cubic products
and snapshots."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.torus import (
    SpectralField,
    TorusGrid,
    cubic_convolution,
    free_propagator,
    read_snapshot,
    write_snapshot,
)
from snls.oracles import cubic_convolution_direct


def random_field(K, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(K)
    c = scale * (rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1))
    return SpectralField(c, grid)


def test_make_grid_rejects_bad_K():
    with pytest.raises(ValueError, match="K must be >= 1"):
        TorusGrid(0)


def test_field_validation():
    grid = TorusGrid(3)
    with pytest.raises(ValueError):
        SpectralField(np.zeros(5, dtype=complex), grid)  # wrong length
    with pytest.raises(ValueError):
        SpectralField(np.full(7, np.nan, dtype=complex), grid)
    assert SpectralField(np.zeros((4, 7)), grid).coefficients.shape == (4, 7)  # a batch
    with pytest.raises(ValueError):
        SpectralField(np.zeros((4, 5)), grid)
    with pytest.raises(ValueError):
        SpectralField(np.array(1.0 + 0j), grid)
    batch = np.zeros((4, 7), dtype=complex)
    batch[2, 3] = np.inf
    with pytest.raises(ValueError):
        SpectralField(batch, grid)


def test_field_copies_input():
    grid = TorusGrid(2)
    c = np.ones(5, dtype=complex)
    f = SpectralField(c, grid)
    c[0] = 99.0
    assert f.coefficients[0] == 1.0


def test_wrap_neither_copies_nor_checks():
    # the internal constructor takes the caller's array as it is; only
    # the public one copies and validates
    grid = TorusGrid(2)
    c = np.full(5, np.nan, dtype=complex)
    f = SpectralField.wrap(c, grid)
    assert f.coefficients is c and f.grid == grid
    with pytest.raises(ValueError):
        SpectralField(f.coefficients, grid)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_free_propagator_is_unitary_and_invertible(seed, t):
    f = random_field(5, seed)
    g = free_propagator(f, t)
    np.testing.assert_allclose(
        np.sum(np.abs(g.coefficients) ** 2),
        np.sum(np.abs(f.coefficients) ** 2),
        rtol=1e-12,
    )
    back = free_propagator(g, -t)
    np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-12)


def test_free_propagator_zero_time_is_identity():
    f = random_field(4, 7)
    np.testing.assert_array_equal(free_propagator(f, 0.0).coefficients, f.coefficients)


def test_free_propagator_rejects_nonfinite_time():
    f = random_field(2, 0)
    with pytest.raises(ValueError):
        free_propagator(f, np.nan)


def test_free_propagator_phase_value():
    # mode k=3, t=0.1 -> factor e^{-0.9i}  [TRIVIAL]
    grid = TorusGrid(3)
    c = np.zeros(7, dtype=complex)
    c[6] = 1.0  # k = 3
    g = free_propagator(SpectralField(c, grid), 0.1)
    np.testing.assert_allclose(g.coefficients[6], np.exp(-0.9j), atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_cubic_convolution_matches_direct_triple_sum(seed, K):
    # padded-FFT product vs O(K^3) direct sum oracle  [DERIVED]
    f = random_field(K, seed)
    fast = cubic_convolution(f).coefficients
    slow = cubic_convolution_direct(f).coefficients
    scale = max(1.0, np.max(np.abs(slow)))
    np.testing.assert_allclose(fast, slow, atol=1e-12 * scale)


def test_cubic_convolution_single_mode():
    # conj(u) u u with only u_1 = a: output mode 1 gets |a|^2 a  [TRIVIAL]
    grid = TorusGrid(3)
    c = np.zeros(7, dtype=complex)
    a = 2.0 - 1.0j
    c[4] = a  # k = 1
    out = cubic_convolution(SpectralField(c, grid)).coefficients
    expected = np.zeros(7, dtype=complex)
    expected[4] = np.abs(a) ** 2 * a
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_cubic_convolution_zero_field():
    grid = TorusGrid(4)
    out = cubic_convolution(SpectralField(np.zeros(9), grid))
    np.testing.assert_array_equal(out.coefficients, 0.0)


def test_field_arithmetic():
    f = random_field(3, 1)
    g = random_field(3, 2)
    np.testing.assert_allclose(
        (f + g).coefficients, f.coefficients + g.coefficients
    )
    np.testing.assert_allclose(
        (f - g).coefficients, f.coefficients - g.coefficients
    )
    np.testing.assert_allclose((2.5 * f).coefficients, 2.5 * f.coefficients)


def test_grid_mismatch_rejected():
    f = random_field(3, 1)
    g = random_field(4, 1)
    with pytest.raises(ValueError):
        _ = f + g


def test_snapshot_roundtrip_exact(tmp_path):
    f = random_field(7, 99)
    p = tmp_path / "snap.csv"
    write_snapshot(f, p)
    g = read_snapshot(p, f.grid)
    np.testing.assert_array_equal(g.coefficients, f.coefficients)


def test_snapshot_reader_infers_grid(tmp_path):
    f = random_field(5, 3)
    p = tmp_path / "snap.csv"
    write_snapshot(f, p)
    g = read_snapshot(p)
    assert g.grid.K == 5
    np.testing.assert_array_equal(g.coefficients, f.coefficients)


@pytest.mark.parametrize("change", ["drop last", "drop first", "extra"])
def test_snapshot_reader_checks_the_mode_count(tmp_path, change):
    p = tmp_path / "snap.csv"
    write_snapshot(random_field(3, 4), p)
    header, *rows = p.read_text().splitlines()
    rows = {"drop last": rows[:-1], "drop first": rows[1:], "extra": rows + ["4,1,0"]}[change]
    p.write_text("\n".join([header, *rows]) + "\n")
    message = f"{p}: header promises 7 mode lines, found {len(rows)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(p)


@pytest.mark.parametrize("line, edit", [
    pytest.param(2, "-4,1", id="short-row"),
    pytest.param(6, "0,nan,0", id="nan"),
    pytest.param(7, "2,0,0", id="out-of-order"),
    pytest.param(8, "2,1,x", id="not-a-number"),
])
def test_snapshot_reader_names_the_file_and_line(tmp_path, line, edit):
    p = tmp_path / "snap.csv"
    write_snapshot(random_field(4, 5), p)
    lines = p.read_text().splitlines()
    lines[line - 1] = edit
    p.write_text("\n".join(lines) + "\n")
    message = f"snapshot {p}:{line}: expected mode {line - 6} as k,re,im with finite re and im"
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {edit!r}")):
        read_snapshot(p)


@pytest.mark.parametrize("header", ["abc", "-4", "-4,4,1", ""])
def test_snapshot_reader_names_a_bad_header(tmp_path, header):
    p = tmp_path / "snap.csv"
    p.write_text(header + "\n" if header else "")
    message = f"snapshot {p}:1: expected k_min,k_max, got {header!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(p)
