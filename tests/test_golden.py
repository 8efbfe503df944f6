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
# simulate columns that the solver's rounding decides, left out of the
# comparison across numpy versions
SOLVER_COLUMNS = ("fp_iters", "fp_residual")
# symplectic.txt's defects are the rounding noise of a finite-difference
# Jacobian (about 1e-11), which any rounding change moves by percents, so
# each is held to criterion 2's bound instead of to the golden
DEFECT_KEYS = ("defect", "defect_half_h")
DEFECT_BOUND = 1e-5


@pytest.fixture(scope="module")
def make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fresh(make_golden, tmp_path_factory):
    """{golden file name: its freshly made output}."""
    out = tmp_path_factory.mktemp("golden")
    return {file: path for name in make_golden.GOLDENS
            for file, path in make_golden.run(name, out).items()}


def test_every_golden_file_is_made_and_committed(fresh):
    assert {"simulate-k8.csv.final", "simulate-k256.csv.final"} <= set(fresh)
    assert sorted(p.name for p in GOLDEN.iterdir() if p.name != "versions.json") == sorted(fresh)


def test_outputs_are_the_goldens_byte_for_byte(make_golden, fresh):
    made_with = json.loads((GOLDEN / "versions.json").read_text())["numpy"]
    if made_with != np.__version__:
        pytest.skip(f"goldens made with numpy {made_with}, running numpy {np.__version__}")
    moved = {file: make_golden.largest_moves(path.read_text(), (GOLDEN / file).read_text())
             for file, path in fresh.items()
             if path.read_bytes() != (GOLDEN / file).read_bytes()}
    assert not moved, "outputs differ from the goldens; largest relative move per column:\n" + (
        "\n".join(f"{file}: {make_golden.format_moves(m)}" for file, m in moved.items()))


def test_largest_moves_names_each_column_and_key(make_golden):
    want = "# slope=2,fit_residual=0\nt,err,n\n0.5,1e-3,40\n0.25,0,40\n"
    got = "# slope=2.2,fit_residual=0\nt,err,n\n0.5,1.5e-3,40\n0.25,1e-9,40\n"
    assert make_golden.largest_moves(got, want) == pytest.approx(
        {"slope": 0.1, "err": 0.5})  # the move of a 0 is absolute: 1e-9 < 0.5
    assert make_golden.largest_moves("-2,2\n0,1.0,nan\n", "-2,2\n0,1.0,0.5\n") == {
        "column 3": math.inf}
    assert make_golden.largest_moves(want + "x\n", want) == {"layout": "5 lines, golden 4"}
    assert make_golden.largest_moves(want.replace("err", "rms"), want) == {
        "layout": "line 2: 't,rms,n', golden 't,err,n'"}
    assert make_golden.format_moves({}) == "unchanged"
    # symplectic's key=value lines: a moved value is named by its key
    want = (GOLDEN / "symplectic.txt").read_text()
    value = want.splitlines()[1].partition("=")[2]
    got = want.replace(value, repr(2 * float(value)))
    assert make_golden.largest_moves(got, want) == {"defect_half_h": 1.0}


def _snapshot(text):
    """Mode numbers and coefficients of a write_snapshot file."""
    rows = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def _assert_matches(file, got, want):
    """Every number of output text got to a relative 1e-8 of the golden
    text want, every other token exactly, but for the solver-decided
    simulate columns and the symplectic defects; a final snapshot to a
    relative 1e-8 in H^2, as perfbench compares it."""
    if file.endswith(".final"):
        (k, a), (k_want, b) = _snapshot(got), _snapshot(want)
        assert np.array_equal(k, k_want), file
        w = (1.0 + k**2) ** 2
        err = math.sqrt(np.sum(w * abs(a - b) ** 2) / np.sum(w * abs(b) ** 2))
        assert err <= 1e-8, (file, err)
        return
    got, want = got.splitlines(), want.splitlines()
    assert len(got) == len(want), file
    skip = set()  # positions of the solver columns, once the header is read
    for line, (a, b) in enumerate(zip(got, want), 1):
        ta, tb = re.split(r"[,=]", a), re.split(r"[,=]", b)
        assert len(ta) == len(tb), (file, line)
        if file == "symplectic.txt" and tb[0] in DEFECT_KEYS:
            assert ta[0] == tb[0], (file, line)
            defect = float(ta[1])
            assert math.isfinite(defect) and defect <= DEFECT_BOUND, (file, line, defect)
            continue
        for j, (x, y) in enumerate(zip(ta, tb)):
            if j in skip:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                assert x == y, (file, line)
                continue
            assert math.isclose(x, y, rel_tol=1e-8), (file, line, x, y)
        if b[:1].isalpha():  # the header row
            skip = {j for j, name in enumerate(tb) if name in SOLVER_COLUMNS}


def test_outputs_match_the_goldens_to_1e_8(fresh):
    for file, path in fresh.items():
        _assert_matches(file, path.read_text(), (GOLDEN / file).read_text())


def test_symplectic_defects_are_held_to_criterion_2s_bound():
    # a rounding move of a defect passes; a defect of the explicit
    # control's order (1e-3) or a NaN one fails, and h keeps the 1e-8 rule
    want = (GOLDEN / "symplectic.txt").read_text()
    defect = want.splitlines()[0].partition("=")[2]
    _assert_matches("symplectic.txt", want.replace(defect, repr(1.02 * float(defect))), want)
    for bad in ("0.001", "nan"):
        with pytest.raises(AssertionError, match="'symplectic.txt', 1"):
            _assert_matches("symplectic.txt", want.replace(defect, bad), want)
    with pytest.raises(AssertionError, match="'symplectic.txt', 3"):
        _assert_matches("symplectic.txt", want.replace("h=1.0000000000000001e-05", "h=2e-05"),
                        want)
