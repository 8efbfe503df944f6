"""Functionals and the Jacobian symplecticity probe."""

import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from snls.diagnostics import (
    canonical_form,
    energy_h0,
    mass,
    sobolev_norm,
    symplectic_defect,
)
from snls.oracles import cubic_convolution_direct
from snls.torus import free_propagator

from helpers import random_field


def test_mass_single_mode():
    c = np.zeros(5, dtype=complex)
    c[3] = 3.0 - 4.0j
    assert mass(c) == pytest.approx(25.0)


def test_sobolev_norm_values():
    f = np.zeros(5, dtype=complex)
    f[4] = 1.0  # k = 2
    assert sobolev_norm(f, 0.0) == pytest.approx(1.0)
    assert sobolev_norm(f, 2.0) == pytest.approx(5.0)  # (1+4)^2 = 25, sqrt = 5
    with pytest.raises(ValueError):
        sobolev_norm(f, -1.0)


def test_energy_h0_against_physical_quadrature():
    # [DERIVED] for a field supported on |k| <= K/3 the truncated quartic
    # is the full quartic, so H0 = (1/2pi) int (|u_x|^2/2 + lam |u|^4/4)
    K = 9
    rng = np.random.default_rng(4)
    c = np.zeros(2 * K + 1, dtype=complex)
    for k in (-3, -1, 0, 2, 3):
        c[k + K] = rng.standard_normal() + 1j * rng.standard_normal()
    lam = 0.7

    ks = np.arange(-K, K + 1)

    def u(x):
        return np.sum(c * np.exp(1j * ks * x))

    def ux(x):
        return np.sum(1j * ks * c * np.exp(1j * ks * x))

    integrand = lambda x: 0.5 * np.abs(ux(x)) ** 2 + 0.25 * lam * np.abs(u(x)) ** 4
    val, _ = quad(integrand, 0.0, 2 * np.pi, limit=200, epsabs=1e-12)
    np.testing.assert_allclose(energy_h0(c, lam), val / (2 * np.pi), rtol=1e-9)


@pytest.mark.parametrize("K", range(1, 13))
def test_energy_h0_quartic_by_parseval_is_the_direct_quartic(K):
    # (1/n) sum_j |u(x_j)|^4 on the padded grid against the direct sum
    # sum_k conj(c_k) (|u|^2 u)_k over the truncated mode set
    c, lam = random_field(K, 200 + K).coefficients, 1.7
    kinetic = 0.5 * np.sum(np.arange(-K, K + 1) ** 2 * np.abs(c) ** 2)
    want = kinetic + 0.25 * lam * np.real(np.vdot(c, cubic_convolution_direct(c)))
    assert energy_h0(c, lam) == pytest.approx(want, rel=1e-13, abs=0)


def test_energy_h0_lambda_zero_is_kinetic():
    f = random_field(4, 1)
    k = f.grid.modes().astype(float)
    expected = 0.5 * np.sum(k**2 * np.abs(f.coefficients) ** 2)
    assert energy_h0(f.coefficients, 0.0) == pytest.approx(expected)


def test_canonical_form_structure():
    J = canonical_form(3)
    assert J.shape == (6, 6)
    np.testing.assert_array_equal(J.T, -J)
    np.testing.assert_array_equal(J @ J, -np.eye(6))


def test_symplectic_defect_identity_map():
    f = random_field(3, 0)
    # central differences carry ~eps*|x|/h rounding, so not exactly 0
    assert symplectic_defect(lambda u: u, f.coefficients) < 1e-10
    # a list of coefficients is one field too (it raised AttributeError)
    assert symplectic_defect(lambda u: u, list(f.coefficients)) < 1e-10


def test_symplectic_defect_free_flow():
    # the exact linear flow is symplectic; central differences are exact
    # for linear maps up to rounding
    f = random_field(3, 1)
    assert symplectic_defect(lambda u: free_propagator(u, 0.3), f.coefficients) < 1e-10


def test_symplectic_defect_detects_dissipation():
    # u -> 0.9 u scales the form by 0.81: defect 0.19
    f = random_field(2, 2)
    d = symplectic_defect(lambda u: 0.9 * u, f.coefficients)
    assert d == pytest.approx(1.0 - 0.81, abs=1e-8)


def test_symplectic_defect_rejects_bad_h():
    f = random_field(2, 2)
    with pytest.raises(ValueError):
        symplectic_defect(lambda u: u, f.coefficients, h=0.0)


@pytest.mark.parametrize("c, message", [
    (np.zeros((2, 5), complex), "expected the coefficients of one field, got shape (2, 5)"),
    (np.array(1.0 + 0j), "expected 2K+1 coefficients along the last axis, got shape ()"),
    (np.zeros(4, complex), "expected 2K+1 coefficients along the last axis, got shape (4,)"),
])
def test_symplectic_defect_refuses_coefficients_of_no_one_field(c, message):
    # a batch used to fail in numpy's broadcasting, a 0-d array with an
    # IndexError, and an even length returned a defect of 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            symplectic_defect(lambda u: u, c)


def test_symplectic_defect_steps_every_column_in_one_batch():
    f = random_field(3, 3)
    batches = []

    def closure(u):
        batches.append(u.shape)
        return free_propagator(u, 0.3)

    assert symplectic_defect(closure, f.coefficients) < 1e-10
    assert batches == [(4 * f.grid.n_modes, f.grid.n_modes)]


def test_functionals_past_the_float_range_are_quietly_not_finite():
    # a numpy overflow or invalid-value warning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sobolev_norm(np.array([10, 1, 1, 1, 10], dtype=complex), 440.0) == np.inf
        big = np.array([0, 0, 1e200], dtype=complex)
        assert mass(big) == np.inf
        assert energy_h0(big, 0.0) == np.inf
        assert not np.isfinite(energy_h0(big, 1.0))
        assert energy_h0(np.array([0, 1e100, 0], dtype=complex), 1.0) == np.inf
