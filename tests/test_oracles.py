"""The reference code in snls.oracles stays apart from production: only
integrator imports from it, and only the name map_F, which the benchmark
wraps there to show that stepping never calls it; the oracles share no
code with the fast map they check; and their elementwise forms equal
their per-element values."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from snls.kernels import ModeQuad, default_kernel_spec
from snls.maps import ModelParams
from snls.noise import sample_path
from snls.oracles import (
    _resonant_sum,
    cubic_convolution_direct,
    kernel_weight,
    map_F,
    orthogonality_defect,
    path_values,
    strat_integral,
    weighted_exp_integral,
)

from helpers import random_field

SRC = Path(__file__).resolve().parent.parent / "src" / "snls"

# numpy's transforms and the private helpers of the fast F map and the
# padded cubic convolution
FAST_MAP_NAMES = {"fft", "_midpoint_multipliers", "_horner", "_pad_size", "_fast_len"}


def _oracle_imports(source: str) -> list:
    """The names a module imports from snls.oracles ("*" for the module
    itself)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += ["*" for alias in node.names if alias.name == "snls.oracles"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the flat snls package
                module = f"snls.{module}" if module else "snls"
            if module == "snls.oracles":
                names += [alias.name for alias in node.names]
            elif module == "snls":
                names += ["*" for alias in node.names if alias.name == "oracles"]
    return names


@pytest.mark.parametrize("source, names", [
    ("from .oracles import map_F, kernel_weight", ["map_F", "kernel_weight"]),
    ("from snls.oracles import strat_integral", ["strat_integral"]),
    ("from . import oracles", ["*"]),
    ("from snls import oracles", ["*"]),
    ("import snls.oracles", ["*"]),
    ("def f():\n    from .oracles import map_F", ["map_F"]),
    ("from .maps import map_P_frozen\nimport numpy", []),
])
def test_guard_sees_every_import_form(source, names):
    assert _oracle_imports(source) == names


def test_only_integrator_imports_the_oracles_and_only_map_F():
    found = {path.stem: _oracle_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "oracles" in found
    assert {module: names for module, names in found.items() if names} == {
        "integrator": ["map_F"]}


def _names(source: str) -> set:
    """Every identifier a module names: names, attributes, each dotted
    part of an imported module or name, and strings (a getattr)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= set(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@pytest.mark.parametrize("source, found", [
    ("np.fft.ifft(x)", {"fft"}),
    ("import numpy.fft", {"fft"}),
    ("from numpy import fft as f", {"fft"}),
    ("from numpy.fft import rfft", {"fft"}),
    ("from .maps import _midpoint_multipliers", {"_midpoint_multipliers"}),
    ("from . import kernels\nkernels._horner(c, x)", {"_horner"}),
    ("def f():\n    from .torus import _fast_len, _pad_size", {"_fast_len", "_pad_size"}),
    ("getattr(torus, '_fast_len')(torus._pad_size(3))", {"_fast_len", "_pad_size"}),
    ('"""No fft here."""\nnp.convolve(a, b)', set()),
])
def test_guard_sees_every_name_of_the_fast_map(source, found):
    assert _names(source) & FAST_MAP_NAMES == found


def test_oracles_share_no_code_with_the_fast_map():
    assert not _names((SRC / "oracles.py").read_text()) & FAST_MAP_NAMES


T_STEP = 0.05
# omega*t at 0, at tiny values, on both sides of |omega c t| = 1 for
# c = 0.6 and 1, and at |omega c t| = 1e6
OMEGA_T = np.array([0.0, 1e-9, -1e-9, 0.5, -0.9, 0.99, 1.2, -1.5, 1.7, -3.0, 40.0,
                    -1e6, 1e6 / 0.6])


@pytest.mark.parametrize("c", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_weighted_exp_integral_on_an_array_is_its_value_per_element(c, p):
    omega = OMEGA_T / T_STEP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = weighted_exp_integral(omega, c * T_STEP, p)
        each = [weighted_exp_integral(w, c * T_STEP, p) for w in omega]
    assert whole.shape == omega.shape
    np.testing.assert_allclose(whole, each, rtol=1e-15, atol=0)


def _quads():
    """Quads whose |2kk1 ct| and |2k2k3 ct| at t = 0.05 run from 0 to 3.0
    for c = 1 and from 0 to 1.8 for c = 0.6, on both sides of 1, and two
    with |2kk1 t| = 1e6."""
    quads = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 2, 1, 1), (2, 3, 4, 1), (-1, 5, 2, 2),
             (3, 3, 3, 3), (3, 4, 5, 2), (-3, 5, 1, 1), (4, 4, 4, 4), (5, -6, -2, 1),
             (10**7, 1, 10**7, 1), (-(10**7), 1, -(10**7), 1)]
    return ModeQuad(*map(np.array, zip(*quads)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("c", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_kernel_weight_on_arrays_is_its_value_per_element(d, c, p):
    spec, q = default_kernel_spec(d), _quads()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = kernel_weight(spec, q, T_STEP, c, p)
        each = [kernel_weight(spec, ModeQuad(*quad), T_STEP, c, p)
                for quad in zip(q.k, q.k1, q.k2, q.k3)]
    assert whole.shape == q.k.shape
    np.testing.assert_allclose(whole, each, rtol=1e-15, atol=0)


@pytest.mark.parametrize("K", [1, 2])
def test_resonant_sum_is_the_triple_loop(K):
    rng = np.random.default_rng(K)
    c = rng.standard_normal((3, 2 * K + 1)) + 1j * rng.standard_normal((3, 2 * K + 1))
    spec = default_kernel_spec(2)
    for weight in (lambda q: kernel_weight(spec, q, T_STEP, 0.6, 1), lambda q: 1.0):
        loop = np.zeros_like(c)
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                for k3 in range(-K, K + 1):
                    k = -k1 + k2 + k3
                    if abs(k) <= K:
                        loop[:, k + K] += (weight(ModeQuad(k, k1, k2, k3)) * np.conj(c[:, k1 + K])
                                           * c[:, k2 + K] * c[:, k3 + K])
        np.testing.assert_allclose(_resonant_sum(c, weight), loop, rtol=0,
                                   atol=1e-15 * np.max(np.abs(loop)))


def test_orthogonality_defect_rejects_fields_on_different_grids():
    with pytest.raises(ValueError):
        orthogonality_defect(random_field(3, 1).coefficients, random_field(4, 1).coefficients)


def test_direct_sums_refuse_coefficients_of_no_odd_length():
    # the arrays carry no grid, so the mode range comes from their shape
    for c in (np.ones(4, dtype=complex), np.ones((3, 6), dtype=complex), np.complex128(1.0)):
        with pytest.raises(ValueError, match="expected 2K\\+1 coefficients"):
            cubic_convolution_direct(c)
        with pytest.raises(ValueError, match="expected 2K\\+1 coefficients"):
            map_F(ModelParams(lam=1.0, kappa=0.0), default_kernel_spec(1), 0.01, 1.0, 0, c)


def test_path_values_read_one_mode_of_a_single_path():
    p = sample_path(3, 1.0, 2, 2)
    assert path_values(p, -1).tolist() == [0.0, *np.cumsum(p.increments[1])]
    with pytest.raises(ValueError, match="not a stacked one"):
        path_values(sample_path((4, 5, 6), 1.0, 3, 2), 1)
    # a mode past -K would wrap to another row as a negative index
    for k, message in ((3, "in -2..2, got 3"), (-3, "in -2..2, got -3"),
                       (1.0, "an integer, got 1.0")):
        for read in (lambda: path_values(p, k), lambda: strat_integral(p, 1, k, 1.0)):
            with pytest.raises(ValueError, match=re.escape(f"mode k must be {message}")):
                read()
