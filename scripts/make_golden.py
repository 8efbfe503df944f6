#!/usr/bin/env python3
"""Regenerate the golden outputs under tests/golden/.

    python3 scripts/make_golden.py

Each golden is the output file of one `snls` command on a fixed config,
made with this checkout's src/.  versions.json records the numpy and
Python versions that made them: tests/test_golden.py compares fresh
outputs with the goldens byte for byte on that numpy version only, and
to a relative 1e-8 on every version.  A change that moves output bits
on purpose regenerates the goldens and says in CHANGES.md by how much
the values moved.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from snls import cli  # noqa: E402

# golden file name -> (command, config values)
GOLDENS = {f"kernel-error-d{d}.csv": ("kernel-error", {"seed": 1, "kernel_d": d})
           for d in (1, 2)}


def run(name, out_dir):
    """Make the golden `name` in out_dir; returns its path."""
    command, values = GOLDENS[name]
    out = Path(out_dir) / name
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "golden.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        rc = cli.main([command, "--config", str(config), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"snls {command} for {name} exited {rc}")
    return out


def versions():
    return {"numpy": np.__version__, "python": platform.python_version()}


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name in GOLDENS:
        run(name, GOLDEN)
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=1) + "\n")
    print(f"wrote {len(GOLDENS)} goldens to {GOLDEN} with {versions()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
