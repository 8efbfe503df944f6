"""The benchmark's own test.

    python3 -m pytest perfbench/test_bench.py

Runs a tiny size of every workload, traced, through run.py; checks the
result line, the per-layer metrics and the wrapped boundaries; and shows
that the output checks reject a broken program.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import FFTS, LAYER_METRICS, SPANS  # noqa: E402
from worker import import_snls  # noqa: E402

import_snls()

import snls.integrator  # noqa: E402
import snls.kernels  # noqa: E402
import workloads  # noqa: E402
from snls.torus import SpectralField  # noqa: E402

SIM = {"simulate-k8", "simulate-k256"}
LOCAL = {"local-error"}
KERNEL = {"kernel-error"}
STEPPING = SIM | LOCAL
# the workloads each wrapped boundary must see calls on
EXPECTED_REACH = {
    "snls.cli:main": SIM | KERNEL,
    "snls.cli:parse_config": SIM | KERNEL,
    "snls.config:initial_field": SIM,
    "snls.experiments:initial_field": LOCAL,
    "snls.cli:simulate": SIM,
    "snls.integrator:step": SIM,
    "snls.experiments:step": LOCAL,
    "snls.integrator:fixed_point_solve": STEPPING,
    "snls.integrator:map_F_midpoint_physical": STEPPING,
    "snls.integrator:map_F": set(),
    "snls.integrator:map_P_frozen": STEPPING,
    "snls.integrator:increment": STEPPING,
    "snls.noise:sample_path": SIM,
    "snls.experiments:sample_path": LOCAL,
    "snls.integrator:free_propagator": STEPPING,
    "snls.integrator:sobolev_norm": STEPPING,
    "snls.experiments:sobolev_norm": LOCAL,
    "snls.config:sobolev_norm": {"simulate-k8"} | LOCAL,
    "snls.diagnostics:mass": SIM,
    "snls.diagnostics:energy_h0": SIM,
    "snls.experiments:cmd_local_error": LOCAL,
    "snls.experiments:reference_solution": LOCAL,
    "snls.cli:cmd_kernel_error": KERNEL,
    "snls.experiments:kernel_K2d": KERNEL,
    "snls.experiments:kernel_exact": KERNEL,
    "snls.kernels:interp_exp": KERNEL,
    "snls.integrator:RunRecord.write_csv": SIM,
    "snls.cli:write_snapshot": SIM,
    "snls.experiments:ErrorTable.write_csv": LOCAL | KERNEL,
    "numpy.fft:fft": STEPPING,
    "numpy.fft:ifft": STEPPING,
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"])
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_every_boundary_has_an_expected_reach():
    assert set(EXPECTED_REACH) <= {b for b, _ in SPANS} | set(FFTS)
    assert {b for b, _ in SPANS} <= set(EXPECTED_REACH)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, proc.stderr
    metrics = line["metrics"]
    assert set(metrics) == set(LAYER_METRICS)
    for metric, (unit, _) in LAYER_METRICS.items():
        assert metrics[metric]["unit"] == unit
    assert metrics["maps.F_direct.calls"]["value"] == 0
    record = json.loads((HERE / "out" / f"result-{name}-seed3-trace1.json").read_text())
    calls = record["binding_calls"]
    missed = [b for b, reach in EXPECTED_REACH.items() if name in reach and not calls.get(b)]
    assert not missed
    if name in STEPPING:
        assert metrics["torus.field_new.per_step"]["value"] > 0
        assert metrics["integrator.accepted_ratio"]["value"] == 1.0
    for key in ("sha", "dirty"):
        assert key in record["git"]
    assert record["thread_env"] and record["versions"] and record["rationale"]


def test_untraced_run_prints_end_to_end_metrics():
    proc = run_bench("--workload", "simulate-k8", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"]
    assert set(line["metrics"]) == {"throughput", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "simulate-k8", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _zero_map(*args):
    v = args[-1] if isinstance(args[-1], SpectralField) else args[-2]
    return SpectralField(0 * v.coefficients, v.grid)


@pytest.mark.parametrize("broken", ["no nonlinearity", "no noise"])
@pytest.mark.parametrize("workload", [workloads.SimulateK8, workloads.SimulateK256])
def test_checks_reject_a_program_without_a_term(broken, workload, monkeypatch, tmp_path):
    target = "map_F_midpoint_physical" if broken == "no nonlinearity" else "map_P_frozen"
    monkeypatch.setattr(snls.integrator, target, _zero_map)
    w = workload(workloads.DEFAULT_SEED, tmp_path)
    problems = w.check_pass(w.run_pass())[1] + w.finish()
    assert any("reference" in p for p in problems)


def test_checks_accept_the_unbroken_program(tmp_path):
    w = workloads.SimulateK8(workloads.DEFAULT_SEED, tmp_path)
    assert w.check_pass(w.run_pass()) == (w.units, [])
    assert w.finish() == []


def test_checks_reject_a_wrong_kernel(monkeypatch, tmp_path):
    interp_exp = snls.kernels.interp_exp
    monkeypatch.setattr(snls.kernels, "interp_exp",
                        lambda spec, omega, t: interp_exp(spec, omega, t) * (1 + 1e-6))
    w = workloads.KernelError(workloads.DEFAULT_SEED, tmp_path)
    assert w.check_pass(w.run_pass())[1] + w.finish()
