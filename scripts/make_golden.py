#!/usr/bin/env python3
"""Regenerate the golden outputs under tests/golden/.

    python3 scripts/make_golden.py

Each golden is the output file of one `snls` command on a fixed config,
made with this checkout's src/ (for `simulate`, also its `.final`
snapshot).  A golden whose name ends in `.stderr` is a command that
fails on purpose: the file holds its exit code (`exit=<n>`) and then
what it wrote to stderr.  versions.json records the numpy and Python versions that
made them: tests/test_golden.py compares fresh outputs with the goldens
byte for byte on that numpy version only, and to a relative 1e-8 on
every version.  A change that moves output bits on purpose regenerates
the goldens and says in CHANGES.md by how much the values moved: the
script prints, per file and numeric column, the largest relative move
from the goldens it replaces.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from snls import cli  # noqa: E402

# simulate on perfbench's simulate-k8 config, and at K=256 on its
# simulate-k256 config cut to 40 steps
_SIMULATE = {"seed": 1, "t": 0.01, "lambda": 1.0, "kappa": 1.0, "alpha": 2.0,
             "tableau": "midpoint"}
# scripts/symplectic.cfg's values
_SYMPLECTIC = {"seed": 5, "K": 4, "t": 0.001, "lambda": 1.0, "kappa": 1.0,
               "initial_data": "smooth"}
# golden file name -> (command, config values)
GOLDENS = {
    **{f"kernel-error-d{d}.csv": ("kernel-error", {"seed": 1, "kernel_d": d})
       for d in (1, 2)},
    "simulate-k8.csv": ("simulate", {**_SIMULATE, "K": 8, "n_steps": 200, "fp_tol": 1e-12,
                                     "initial_data": "smooth"}),
    "simulate-k256.csv": ("simulate", {**_SIMULATE, "K": 256, "n_steps": 40,
                                       "fp_tol": 1e-10, "initial_data": "rough-1"}),
    # the CLI's own sample count and step sizes (64 samples, t = 2^-4..2^-9)
    "local-error-k1.csv": ("local-error", {"seed": 1, "K": 1}),
    # symplectic writes key=value lines; conservation runs its default 100 steps
    "symplectic.txt": ("symplectic", _SYMPLECTIC),
    "conservation.csv": ("conservation", _SYMPLECTIC),
    # the explicit control blows up on the simulate-k8 config: exit 2
    "simulate-explicit-k8.stderr": ("simulate", {**_SIMULATE, "K": 8, "n_steps": 200,
                                                 "fp_tol": 1e-12, "initial_data": "smooth",
                                                 "tableau": "explicit"}),
}


def run(name, out_dir):
    """Make the golden `name` in out_dir; returns {file name: path} of the
    files it writes (a simulate golden also writes `<name>.final`).  A
    `.stderr` golden is the command's exit code and stderr; any other
    golden whose command exits nonzero is a RuntimeError with both."""
    command, values = GOLDENS[name]
    out = Path(out_dir) / name
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        config = Path(tmp) / "golden.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        rc = cli.main([command, "--config", str(config), "--out", str(out)])
    if name.endswith(".stderr"):
        out.write_text(f"exit={rc}\n{stderr.getvalue()}")
        return {name: out}
    if rc != 0:
        raise RuntimeError(f"snls {command} for {name} exited {rc}: {stderr.getvalue().strip()}")
    files = [out, out.with_name(name + ".final")] if command == "simulate" else [out]
    return {f.name: f for f in files}


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def largest_moves(got: str, want: str) -> dict:
    """{column: largest relative move} of the numbers in `got` against
    those in `want`, two outputs of one layout.  A number is named by its
    key (`# slope=...`), else by the header row above it, else by its
    position; the move of a 0 is absolute.  The first line whose text
    differs other than in its numbers is reported under "layout"."""
    moves, header = {}, None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        moves["layout"] = f"{len(got_lines)} lines, golden {len(want_lines)}"
    for line, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        fa, fb = a.split(","), b.split(",")
        if not b.startswith("#") and all(_number(f) is None for f in fb):
            header = fb
        for j, (x, y) in enumerate(zip(fa, fb)):
            if x == y:
                continue
            (kx, _, vx), (ky, _, vy) = x.rpartition("="), y.rpartition("=")
            nx, ny = _number(vx), _number(vy)
            if nx is None or ny is None or kx != ky or len(fa) != len(fb):
                moves.setdefault("layout", f"line {line}: {a!r}, golden {b!r}")
                continue
            name = ky.lstrip("# ") or (header[j] if header else f"column {j + 1}")
            move = abs(nx - ny) / abs(ny) if ny else abs(nx - ny)
            moves[name] = max(moves.get(name, 0.0), move if move == move else math.inf)
    return moves


def format_moves(moves: dict) -> str:
    return ", ".join(f"{k} {v:.3g}" if isinstance(v, float) else f"{k}: {v}"
                     for k, v in moves.items()) or "unchanged"


def versions():
    return {"numpy": np.__version__, "python": platform.python_version()}


def main():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDENS:
            for file, path in run(name, tmp).items():
                old = GOLDEN / file
                if old.exists():
                    print(f"{file}: {format_moves(largest_moves(path.read_text(), old.read_text()))}")
                old.write_bytes(path.read_bytes())
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=1) + "\n")
    print(f"wrote {len(GOLDENS)} goldens to {GOLDEN} with {versions()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
