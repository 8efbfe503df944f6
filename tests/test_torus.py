"""Spectral grid and fields, the free propagator, padded lengths and
snapshots."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from snls.torus import (
    SpectralField,
    TorusGrid,
    _fast_len,
    _pad_size,
    free_propagator,
    read_snapshot,
    write_snapshot,
)
from snls.diagnostics import energy_h0, sobolev_norm

from helpers import random_field


def test_make_grid_rejects_bad_K():
    with pytest.raises(ValueError, match="K must be >= 1"):
        TorusGrid(0)
    # 1.5 was accepted and "3" raised TypeError
    for K in (1.5, "3"):
        with pytest.raises(ValueError, match=re.escape(f"K must be an integer, got {K!r}")):
            TorusGrid(K)
    assert type(TorusGrid(np.int8(3)).K) is int


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
    f = random_field(5, seed).coefficients
    g = free_propagator(f, t)
    np.testing.assert_allclose(
        np.sum(np.abs(g) ** 2),
        np.sum(np.abs(f) ** 2),
        rtol=1e-12,
    )
    back = free_propagator(g, -t)
    np.testing.assert_allclose(back, f, atol=1e-12)


def test_free_propagator_zero_time_is_identity():
    f = random_field(4, 7).coefficients
    np.testing.assert_array_equal(free_propagator(f, 0.0), f)


def test_free_propagator_rejects_nonfinite_time():
    f = random_field(2, 0).coefficients
    with pytest.raises(ValueError):
        free_propagator(f, np.nan)


def test_free_propagator_refuses_a_phase_past_the_float_range():
    with pytest.raises(ValueError, match="t=1e\\+308 overflows the phase t K\\^2 at K=2"):
        free_propagator(np.zeros(5, dtype=complex), 1e308)


@pytest.mark.parametrize("c", [np.array(1.0 + 0j), np.zeros(4), np.zeros((3, 6))])
def test_array_functions_refuse_coefficients_of_no_odd_length(c):
    # each reads K from the last axis with torus.mode_cutoff
    message = re.escape(f"expected 2K+1 coefficients along the last axis, got shape {c.shape}")
    for f in (lambda c: free_propagator(c, 0.1), lambda c: sobolev_norm(c, 2.0),
              lambda c: energy_h0(c, 1.0)):
        with pytest.raises(ValueError, match=message):
            f(c)


def test_free_propagator_phase_value():
    # mode k=3, t=0.1 -> factor e^{-0.9i}  [TRIVIAL]
    c = np.zeros(7, dtype=complex)
    c[6] = 1.0  # k = 3
    g = free_propagator(c, 0.1)
    np.testing.assert_allclose(g[6], np.exp(-0.9j), atol=1e-14)


def test_fast_len_is_scipys_next_fast_len():
    ns = range(1, 2**14 + 1)
    assert [_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]
    # the padded lengths of the benchmark's F (K=8, K=256) and P (K=256)
    assert (_pad_size(8), _pad_size(256), _fast_len(3 * 256 + 1)) == (33, 1029, 770)


def test_library_imports_numpy_alone():
    # every snls module, imported in a fresh interpreter, leaves scipy
    # out of sys.modules: at run time the library needs numpy alone; nor
    # does it import numpy.polynomial (kernels evaluates its polynomials
    # with its own Horner sum), which costs every process import time
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import importlib, pkgutil, sys, snls\n"
            "names = [m.name for m in pkgutil.iter_modules(snls.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('snls.' + name)\n"
            "print(len(names), 'scipy' in sys.modules, 'numpy.polynomial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    n_modules = len(list((src / "snls").glob("*.py"))) - 1  # all but __init__
    assert proc.stdout.split() == [str(n_modules), "False", "False"]


def test_snapshot_roundtrip_exact(tmp_path):
    f = random_field(7, 99)
    p = tmp_path / "snap.csv"
    write_snapshot(f, p)
    g = read_snapshot(p, f.grid)
    np.testing.assert_array_equal(g.coefficients, f.coefficients)


def test_snapshot_of_a_batch_is_refused_before_the_file_is_opened(tmp_path):
    # no file with a header and no modes is left behind
    batch = SpectralField(np.stack([random_field(3, s).coefficients for s in range(2)]),
                          TorusGrid(3))
    p = tmp_path / "snap.csv"
    with pytest.raises(ValueError, match=re.escape("a snapshot holds one field, got shape (2, 7)")):
        write_snapshot(batch, p)
    assert not p.exists()


@pytest.mark.parametrize("change", ["drop last", "drop first", "extra"])
def test_snapshot_reader_checks_the_mode_count(tmp_path, change):
    p = tmp_path / "snap.csv"
    write_snapshot(random_field(3, 4), p)
    header, *rows = p.read_text().splitlines()
    rows = {"drop last": rows[:-1], "drop first": rows[1:], "extra": rows + ["4,1,0"]}[change]
    p.write_text("\n".join([header, *rows]) + "\n")
    message = f"{p}: header promises 7 mode lines, found {len(rows)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(p, TorusGrid(3))


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
        read_snapshot(p, TorusGrid(4))


@pytest.mark.parametrize("header", ["abc", "-4", "-4,4,1", ""])
def test_snapshot_reader_names_a_bad_header(tmp_path, header):
    p = tmp_path / "snap.csv"
    p.write_text(header + "\n" if header else "")
    message = f"snapshot {p}:1: expected k_min,k_max, got {header!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_snapshot(p, TorusGrid(4))


@pytest.mark.parametrize("header, message", [
    ("-3,4", "asymmetric mode range -3..4"),
    ("-3,3", "header has K=3, grid has K=4"),
])
def test_snapshot_reader_refuses_a_header_of_another_mode_range(tmp_path, header, message):
    p = tmp_path / "snap.csv"
    p.write_text(header + "\n")
    with pytest.raises(ValueError, match=re.escape(f"snapshot {p}:1: {message}")):
        read_snapshot(p, TorusGrid(4))
