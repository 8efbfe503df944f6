"""Arguments of the Python API: every public constructor and command
either accepts a wrong value or refuses it with a ValueError that names
the argument, and one module, snls._check, holds the type checks."""

import ast
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snls.experiments
from snls import _check
from snls.config import ConfigError, RunConfig, initial_field
from snls.diagnostics import energy_h0, sobolev_norm, symplectic_defect
from snls.experiments import cmd_kernel_error, cmd_local_error
from snls.integrator import FixedPointConfig, Tableau
from snls.kernels import KernelSpec, default_kernel_spec, interp_exp
from snls.maps import ModelParams
from snls.noise import default_phi, sample_path
from snls.torus import SpectralField, TorusGrid, free_propagator

SRC = Path(__file__).resolve().parent.parent / "src" / "snls"

SPEC = default_kernel_spec(1)
CFG = RunConfig(seed=1, K=2)
FIELD = SpectralField([0.1, 0.2j, 1.0, -0.3, 0.4 - 0.1j], TorusGrid(2))


def _interp_exp(t):
    return interp_exp(SPEC, 1.0, t)


def _sobolev_norm(alpha):
    return sobolev_norm(FIELD.coefficients, alpha)


def _energy_h0(lam):
    return energy_h0(FIELD.coefficients, lam)


def _symplectic_defect(h):
    return symplectic_defect(lambda v: v, FIELD.coefficients, h)


def _free_propagator(t):
    return free_propagator(FIELD.coefficients, t)


def _local_error(**kwargs):
    return cmd_local_error(CFG, **kwargs)


def _initial_field(seed):
    # a rough preset: its phases are drawn from the seed
    return initial_field("rough-1", 2, seed=seed)


# (callable, its valid arguments, the kind of each: "int", "real", "str"
# or "seq"); RunConfig's out is never read by the library and has no check
CALLS = {
    "RunConfig": (RunConfig, dict(
        seed=(1, "int"), K=(2, "int"), t=(0.01, "real"), n_steps=(2, "int"),
        lam=(1.0, "real"), kappa=(1.0, "real"), alpha=(2.0, "real"),
        tableau=("midpoint", "str"), kernel_d=(1, "int"), fp_tol=(1e-12, "real"),
        fp_max_iter=(100, "int"), initial_data=("smooth", "str"))),
    "ModelParams": (ModelParams, dict(lam=(1.0, "real"), kappa=(1.0, "real"),
                                      alpha=(2.0, "real"))),
    "FixedPointConfig": (FixedPointConfig, dict(tol=(1e-12, "real"), max_iter=(100, "int"))),
    "Tableau": (Tableau, dict(a0=(0.5, "real"), a1=(0.5, "real"), b0=(1.0, "real"),
                              b1=(1.0, "real"))),
    "TorusGrid": (TorusGrid, dict(K=(2, "int"))),
    "KernelSpec": (KernelSpec, dict(d=(1, "int"), gamma=((0.0,), "seq"))),
    "default_kernel_spec": (default_kernel_spec, dict(d=(1, "int"))),
    "default_phi": (default_phi, dict(K=(2, "int"))),
    "sample_path": (sample_path, dict(seed=(1, "int"), horizon=(1.0, "real"), level=(1, "int"),
                                      K=(2, "int"), n_base=(1, "int"))),
    "interp_exp": (_interp_exp, dict(t=(0.5, "real"))),
    "cmd_kernel_error": (cmd_kernel_error, dict(d=(1, "int"), seed=(0, "int"))),
    "initial_field": (_initial_field, dict(seed=(1, "int"))),
    "sobolev_norm": (_sobolev_norm, dict(alpha=(2.0, "real"))),
    "energy_h0": (_energy_h0, dict(lam=(1.0, "real"))),
    "symplectic_defect": (_symplectic_defect, dict(h=(1e-5, "real"))),
    "free_propagator": (_free_propagator, dict(t=(0.01, "real"))),
    "cmd_local_error": (_local_error, dict(samples=(16, "int"), t_values=((0.25,), "seq"),
                                           ref_level=(8, "int"))),
}
CASES = [(call, arg) for call, (_, args) in CALLS.items() for arg in args]

# the wrong classes: a str, None, a bool, a float (for an int), NaN, +-inf,
# a numpy scalar and an int past 2^64
SCALARS = st.one_of(
    st.text(max_size=3), st.none(), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    # small numpy integers: a valid level of 20 already draws a 40 MB path
    st.integers(-5, 5).map(np.int64), st.floats().map(np.float64),
    st.integers(min_value=2**64), st.integers(max_value=-(2**64)),
)
WRONG = {
    "int": SCALARS,
    "real": SCALARS,
    "str": SCALARS.filter(lambda v: not isinstance(v, str)),
    "seq": st.one_of(SCALARS, SCALARS.map(lambda v: (v,))),
}


class _Sampled(Exception):
    """cmd_local_error accepted its arguments and began to sample."""


@pytest.mark.parametrize("call, arg", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_each_argument_is_accepted_or_refused_by_name(call, arg, data):
    # a command runs only on refused arguments: local-error stops at its
    # first path draw, and a kernel-error run takes milliseconds
    function, args = CALLS[call]
    kwargs = {name: value for name, (value, _) in args.items()}
    kwargs[arg] = data.draw(WRONG[args[arg][1]], label=arg)
    error = ConfigError if call == "RunConfig" else ValueError
    with warnings.catch_warnings(), \
            mock.patch.object(snls.experiments, "sample_path", side_effect=_Sampled):
        warnings.simplefilter("error")
        try:
            function(**kwargs)
        except _Sampled:
            pass
        except error as exc:
            assert arg in str(exc), (call, arg, kwargs[arg], str(exc))


def _imports(source: str) -> set:
    """The top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("source, imports_numbers", [
    ("import numbers", True),
    ("from numbers import Integral", True),
    ("def f():\n    import numbers.abc", True),
    ("import numpy as np\nfrom . import numbers", False),
])
def test_guard_sees_every_import_of_numbers(source, imports_numbers):
    assert ("numbers" in _imports(source)) is imports_numbers


def test_only_the_checker_imports_numbers():
    # the integer and real type tests live in snls._check alone
    found = {path.stem for path in SRC.glob("*.py") if "numbers" in _imports(path.read_text())}
    assert found == {"_check"}


_FIELD_TYPES = {"SpectralField", "NoiseIncrement"}


def _field_types(source: str) -> set:
    """Which of _FIELD_TYPES a source names: imported (as any alias),
    defined, used or read as a module attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    return names & _FIELD_TYPES


@pytest.mark.parametrize("source, names", [
    ("from .torus import SpectralField", {"SpectralField"}),
    ("from snls.torus import TorusGrid as G, SpectralField as F", {"SpectralField"}),
    ("from . import torus\nf = torus.SpectralField", {"SpectralField"}),
    ("class NoiseIncrement:\n    pass", {"NoiseIncrement"}),
    ("from .torus import TorusGrid, mode_cutoff", set()),
])
def test_guard_sees_every_name_of_a_field_type(source, names):
    assert _field_types(source) == names


def test_fields_only_at_the_api_boundary():
    # step, reference_solution, the two maps, snapshots and initial_field
    # take fields; the oracles, the diagnostics and the noise increment
    # are arrays
    found = {path.stem: _field_types(path.read_text()) for path in SRC.glob("*.py")}
    assert {module for module, names in found.items() if "SpectralField" in names} == {
        "torus", "maps", "integrator", "experiments", "config"}
    assert not any("NoiseIncrement" in names for names in found.values())


def test_an_int_past_the_float_range_is_refused_by_name():
    # float() of it raises OverflowError, which the checker turns into NaN
    with pytest.raises(ValueError, match=f"^t must be finite, got {10**400}$"):
        _check.real("t", 10**400)
