"""The reference code in snls.oracles stays apart from production: only
integrator imports from it, and only the name map_F, which the benchmark
wraps there to show that stepping never calls it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "snls"


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
