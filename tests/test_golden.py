"""Fresh command outputs against the committed goldens of tests/golden/
(made by scripts/make_golden.py)."""

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    out = tmp_path_factory.mktemp("golden")
    return {name: make_golden.run(name, out) for name in make_golden.GOLDENS}


def test_outputs_are_the_goldens_byte_for_byte(fresh):
    made_with = json.loads((GOLDEN / "versions.json").read_text())["numpy"]
    if made_with != np.__version__:
        pytest.skip(f"goldens made with numpy {made_with}, running numpy {np.__version__}")
    for name, path in fresh.items():
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_outputs_match_the_goldens_to_1e_8(fresh):
    # every number in the file to a relative 1e-8, every other token exactly
    for name, path in fresh.items():
        got, want = path.read_text().splitlines(), (GOLDEN / name).read_text().splitlines()
        assert len(got) == len(want), name
        for line, (a, b) in enumerate(zip(got, want), 1):
            ta, tb = re.split(r"[,=]", a), re.split(r"[,=]", b)
            assert len(ta) == len(tb), (name, line)
            for x, y in zip(ta, tb):
                try:
                    x, y = float(x), float(y)
                except ValueError:
                    assert x == y, (name, line)
                    continue
                assert math.isclose(x, y, rel_tol=1e-8), (name, line, x, y)
