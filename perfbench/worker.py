"""One workload process, started by run.py.

It imports snls from the checkout's src/, generates the workload's
inputs from the seed and makes one untimed warm-up call; that is its
set-up.  With --role setup it stops there.  With --role run it then runs
closed-loop passes for --seconds, checks the outputs, and with --trace 1
traces every other pass (at least one pass of each kind, unless a pass
takes so long that a second would end after MAX_TIMED_S).  The result
goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer, resolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# no further pass starts when it would end later than this after timing began
MAX_TIMED_S = 120.0
# seconds of one calibration burst at the reference speed: the fast state
# of the shared 2-vCPU VM the benchmark was written on (Python 3.11,
# numpy 2.4)
CALIBRATION_REFERENCE_S = 0.002
CALIBRATION_INTERVAL_S = 0.25


def import_snls():
    """Import snls from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import snls

    if Path(snls.__file__).resolve().parent != src / "snls":
        raise ImportError(f"snls imported from {snls.__file__}, not from {src}")


def _calibration_burst():
    """Seconds for a fixed mix of interpreter-bound scalar arithmetic,
    small-array numpy calls and mid-size FFTs, independent of snls."""
    small = np.linspace(0.0, 1.0, 36) + 0j
    large = np.linspace(0.0, 1.0, 1024) + 0j
    t0 = time.perf_counter()
    for i in range(100):
        np.fft.fft(np.fft.ifft(small) * small)
        if i % 5 == 0:
            np.fft.fft(large * large)
        z = complex(0.5, 0.01 * i)
        for j in range(8):
            z = z * z * 0.5 + cmath.exp(1j * j) + np.exp(0.1j * j)
    return time.perf_counter() - t0


def machine_speed():
    """This process's CPU speed now, relative to the reference speed.

    The machine is shared: its speed drifts by up to 2x over tens of
    seconds, which moves every timing in a run alike.  Timings are
    multiplied by this factor to give seconds at the reference speed.
    """
    # the mean, not the median: time the process loses to other guests
    # must count in the calibration as it counts in the timed calls
    return CALIBRATION_REFERENCE_S / statistics.mean(_calibration_burst() for _ in range(5))


class Calibrator:
    """Speed samples taken inside a timed call, after calls of the
    workload's calibration points at most every CALIBRATION_INTERVAL_S;
    the time they take is set aside."""

    def __init__(self, bindings):
        self.targets = [resolve(b) for b in bindings]
        self.speeds = []
        self.paused = 0.0

    def __enter__(self):
        self.last = time.perf_counter()
        self.originals = [getattr(owner, attr) for owner, attr in self.targets]
        for (owner, attr), fn in zip(self.targets, self.originals):
            setattr(owner, attr, self._after(fn))
        return self

    def __exit__(self, *exc):
        for (owner, attr), fn in zip(self.targets, self.originals):
            setattr(owner, attr, fn)

    def _after(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = time.perf_counter()
            if t0 - self.last >= CALIBRATION_INTERVAL_S:
                self.speeds.append(machine_speed())
                self.last = time.perf_counter()
                self.paused += self.last - t0
            return result

        return wrapper


def measure(workload, seconds, traced_run):
    """Timed passes; with traced_run, every other pass is traced, the
    first included.

    Each call of a pass is timed alone, between two calibrations, and its
    time is scaled to the reference speed by the mean speed over the
    call.  Untraced calls also calibrate inside, at the workload's
    calibration points.
    """
    tracer = Tracer() if traced_run else None
    rates = {False: [], True: []}
    wall_rates = []
    attempted = failed = 0
    problems = []
    speed = machine_speed()
    start = time.perf_counter()
    n = 0
    last = 0.0
    while n < (2 if traced_run else 1) or time.perf_counter() - start < seconds:
        if n and time.perf_counter() - start + last > MAX_TIMED_S:
            break
        traced = traced_run and n % 2 == 0
        attempted += workload.units
        wall = scaled = 0.0
        try:
            returns = []
            for call in workload.calls():
                # the tracer counts FFTs, so a traced call is not calibrated inside
                inside = Calibrator(() if traced else workload.calibration_points)
                if traced:
                    tracer.unit = n
                    tracer.install()
                try:
                    with inside:
                        t0 = time.perf_counter()
                        returns.append(call())
                        dt = time.perf_counter() - t0 - inside.paused
                finally:
                    if traced:
                        tracer.uninstall()
                after = machine_speed()
                wall += dt
                scaled += dt * statistics.mean([speed, *inside.speeds, after])
                speed = after
            completed, pass_problems = workload.check_pass(returns)
        except Exception:  # a failing program is a result, not a crash
            failed += workload.units
            problems.append(f"pass {n} raised:\n{traceback.format_exc()}")
            break
        if pass_problems:
            completed = 0
            problems += [f"pass {n}: {p}" for p in pass_problems]
        failed += workload.units - completed
        rates[traced].append(completed / scaled)
        if not traced:
            wall_rates.append(completed / wall)
        last = wall
        n += 1
    try:
        problems += workload.finish()
    except Exception:
        problems.append(f"final checks raised:\n{traceback.format_exc()}")

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rates": rates[False],
        "wall_rates": wall_rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced_run:
        layers = tracer.layer_metrics(max(1, len(rates[True])))
        untraced = statistics.median(rates[False]) if rates[False] else 0.0
        traced = statistics.median(rates[True]) if rates[True] else 0.0
        layers["trace.overhead"] = traced / untraced - 1.0 if untraced and traced else 0.0
        result.update(traced_rates=rates[True], layers=layers,
                      binding_calls=tracer.binding_calls(), spans=len(tracer.spans))
        spans = HERE / "out" / f"spans-{workload.name}-seed{workload.seed}.csv.gz"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--result", required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    import_snls()
    import scipy
    from workloads import WORKLOADS

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        workload.warmup()
        setup_wall = time.monotonic() - args.spawned_at
        speed = statistics.mean(machine_speed() for _ in range(3))
        result = {"setup_s": setup_wall * speed, "setup_wall_s": setup_wall,
                  "rationale": workload.rationale or workload.why,
                  "work_unit": workload.work_unit}
        if args.role == "run":
            result.update(measure(workload, args.seconds, bool(args.trace)))
            result["versions"] = {"python": platform.python_version(),
                                  "numpy": np.__version__, "scipy": scipy.__version__}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
