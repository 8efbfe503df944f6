"""The benchmark's view of the library: every name that perfbench/ wraps
or calibrates at must still exist where it looks for it.

perfbench/ traces the layers from outside, by binding ("module:attr"),
so a rename or a moved import here breaks traced runs and the untraced
calibration without failing any other test.  The two perfbench modules
are loaded read-only, by file path.
"""

import importlib.util
from pathlib import Path

import pytest

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
