#!/usr/bin/env python3
"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each named workload (default: all) on the default seed
and stores its outputs.  Regenerate only when a change is meant to move
the outputs by more than the checks' tolerances, and say so.
"""

import shutil
import sys
import tempfile

from worker import import_snls


def main(names):
    import_snls()
    from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR.parent) as tmp:
            workload = WORKLOADS[name](DEFAULT_SEED, tmp)
            completed, problems = workload.check_pass(workload.run_pass())
            if problems or completed != workload.units:
                raise SystemExit(f"{name}: {problems}")
            for ref_name, out in workload.output_files().items():
                shutil.copyfile(out, REFERENCE_DIR / ref_name)
                print(f"wrote {REFERENCE_DIR / ref_name}")


if __name__ == "__main__":
    main(sys.argv[1:])
