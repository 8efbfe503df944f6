"""The benchmark's view of the library: every name that perfbench/ wraps
or calibrates at must still exist where it looks for it, and stepping
must call the maps through those names.

perfbench/ traces the layers from outside, by binding ("module:attr"),
so a rename or a moved import here breaks traced runs and the untraced
calibration without failing any other test.  Its output checks patch
the two maps in snls.integrator to show that a broken program fails;
a step that bound the maps elsewhere would not see the patch.  It also
wraps the O(K^3) oracle snls.integrator.map_F and expects stepping never
to call it, which is why integrator keeps that name bound, and it reads
every fixed_point_solve result as (x, iterations, residual, history).
The two perfbench modules are loaded read-only, by file path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import snls.experiments
import snls.integrator
from snls.config import RunConfig
from snls.integrator import FixedPointConfig, explicit_tableau, midpoint_tableau, step
from snls.maps import ModelParams
from snls.noise import default_phi, sample_path
from snls.torus import SpectralField, TorusGrid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

BINDINGS = sorted(
    {binding for binding, _ in tracing.SPANS}
    | {tracing.FIELD_NEW}
    | {b for w in workloads.WORKLOADS.values() for b in w.calibration_points}
)


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    owner, attr = tracing.resolve(binding)
    assert callable(getattr(owner, attr, None)), f"{binding} does not resolve to a callable"


def _zero_map(*args):
    # perfbench's stub: the field is the last argument of F and the
    # second-to-last of P
    v = args[-1] if isinstance(args[-1], SpectralField) else args[-2]
    return SpectralField(0 * v.coefficients, v.grid)


def _step(tableau=midpoint_tableau, samples=None):
    K, t = 4, 0.01
    rng = np.random.default_rng(0)
    shape = (2 * K + 1,) if samples is None else (samples, 2 * K + 1)
    u = SpectralField(0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)),
                      TorusGrid(K))
    path = sample_path(1 if samples is None else tuple(1 + s for s in range(samples)), t, 0, K)
    return step(u, tableau(), ModelParams(lam=1.0, kappa=1.0), default_phi(K), path, 0.0, t,
                FixedPointConfig())


@pytest.mark.parametrize("target", ["map_F_midpoint_physical", "map_P_frozen"])
def test_step_calls_the_maps_through_the_integrator_globals(target, monkeypatch):
    intact = _step().state.coefficients
    monkeypatch.setattr(snls.integrator, target, _zero_map)
    assert np.abs(_step().state.coefficients - intact).max() > 1e-6


def _no_oracle(*args):
    raise AssertionError("stepping called the O(K^3) oracle map_F")


@pytest.mark.parametrize("tableau", [midpoint_tableau, explicit_tableau])
@pytest.mark.parametrize("samples", [None, 3])
def test_step_never_calls_the_oracle(tableau, samples, monkeypatch):
    monkeypatch.setattr(snls.integrator, "map_F", _no_oracle)
    assert np.all(_step(tableau, samples).solve.converged)


@pytest.mark.parametrize("samples", [None, 3])
def test_fixed_point_result_reads_as_the_tracer_reads_it(samples, monkeypatch):
    # perfbench's _record_solve unpacks four values, adds iterations to
    # an int counter and takes ratios of successive history entries
    solve = snls.integrator.fixed_point_solve
    seen = []

    def traced(*args, **kwargs):
        result = solve(*args, **kwargs)
        _, iterations, _, history = result
        assert isinstance(iterations, int) and len(history) == iterations
        assert all(isinstance(h, float) for h in history)
        seen.append(iterations)
        return result

    monkeypatch.setattr(snls.integrator, "fixed_point_solve", traced)
    _step(samples=samples)
    assert seen


def test_local_error_draws_one_stacked_path_per_step_size(monkeypatch):
    # perfbench wraps snls.experiments:sample_path and counts its calls;
    # each step size's samples come from one call, with one seed each
    draw = snls.experiments.sample_path
    seeds = []

    def counted(seed, *args, **kwargs):
        seeds.append(seed)
        return draw(seed, *args, **kwargs)

    monkeypatch.setattr(snls.experiments, "sample_path", counted)
    table = snls.experiments.cmd_local_error(RunConfig(seed=1, K=2), samples=16,
                                             t_values=(2.0**-4, 2.0**-5))
    assert len(table.rows) == 2
    assert seeds == [tuple(1 + 1000 * i + 1 for i in range(16))] * 2
