#!/usr/bin/env python3
"""The snls benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for each one's rationale): simulate-k8,
simulate-k256, local-error, kernel-error.  All are closed loops with one
caller.  Each measurement runs in a fresh process (worker.py), with the
OpenMP, OpenBLAS and MKL thread counts pinned to at most nproc.

With --trace 0 it prints the end-to-end metrics:
  throughput   median over timed passes of work units per second; the
               unit of work is the workload's (steps, samples, kernel
               evaluations) and is computed from the workload's size
  setup_s      process start to the start of timing (imports, input
               generation, one warm-up call), median of several processes
  peak_rss_mb  peak resident memory of the measured process
Seconds in throughput and setup_s are seconds at a fixed reference
speed: on a shared machine the speed of the process drifts by 2-4x, so
worker.py times a fixed calibration burst around and inside every timed
call and scales the call's wall time by it.  Wall-clock figures are kept
in the result file.
Failures (rejected steps or samples, exceptions, failed output checks)
are the result's `failed` out of `attempted` work units; `correct` is
false when an output check failed or the program raised.

With --trace 1 it prints per-layer metrics, taken by timing calls into
each layer's public functions from tracing.py, and `trace.overhead`,
the traced throughput over the untraced throughput minus 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record goes to
perfbench/out/result-<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("simulate-k8", "simulate-k256", "local-error", "kernel-error")
# set-up is measured in this many fresh processes besides the measured one
SETUP_REPEATS = 4
# every process this command starts has finished within this many seconds
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def pinned_env():
    """The environment with each thread-count variable at most nproc."""
    env = dict(os.environ)
    n = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = n
        env[var] = str(min(max(current, 1), n))
    return env


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": "unknown", "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args, role, deadline, env, index):
    """Run one worker process to completion; returns its result dict."""
    result = OUT / f"worker-{os.getpid()}-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--result", str(result)]
    if args.tiny:
        cmd.append("--tiny")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest passes, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "snls" / "__init__.py").is_file():
        print(f"error: no snls package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    try:
        setups = [spawn(args, "setup", deadline, env, i)
                  for i in range(SETUP_REPEATS if not args.trace else 0)]
        run = spawn(args, "run", deadline, env, SETUP_REPEATS)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run)
    setup_s = [s["setup_s"] for s in setups]

    from tracing import LAYER_METRICS

    rates = run["rates"]
    if args.trace:
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "throughput": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    correct = not run["problems"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "rationale": run["rationale"],
        "work_unit": run["work_unit"], "git": git_state(),
        "machine": {"nproc": nproc(), "cpu_model": cpu_model()},
        "versions": run["versions"], "thread_env": {v: env[v] for v in THREAD_VARS},
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "failed_frac": run["failed"] / run["attempted"], "problems": run["problems"],
        "pass_rates": rates, "wall_pass_rates": run["wall_rates"], "setup_samples": setup_s,
        "wall_setup_samples": [s["setup_wall_s"] for s in setups], "metrics": metrics,
    }
    for key in ("traced_rates", "binding_calls", "spans", "spans_file"):
        if key in run:
            record[key] = run[key]
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for problem in run["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
