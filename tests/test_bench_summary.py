"""scripts/bench_summary.py on tiny synthetic perfbench result directories."""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
MACHINE = {"cpu_model": "test cpu", "nproc": 2}


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_results(directory, values, machine=MACHINE, metric="throughput", trace=0, units=None,
                  git=None, wall_setup=None):
    # one simulate-k8 run per value, seeds 1, 2, ..., holding `metric` in
    # 1/s or else each metric of `units` (name -> unit) at that value, of
    # the git state `git` (a clean checkout of sha 000...0 by default),
    # with wall_setup[seed - 1], if given, as its wall_setup_samples
    directory.mkdir(exist_ok=True)
    for seed, value in enumerate(values, 1):
        record = {
            "workload": "simulate-k8", "trace": trace, "seed": seed, "tiny": False,
            "seconds": 15.0, "failed": 0, "attempted": 100,
            "git": git or {"sha": "0" * 40, "dirty": False},
            "machine": machine, "versions": {"numpy": "2.0", "python": "3.11"},
            "metrics": {name: {"unit": unit, "value": value}
                        for name, unit in (units or {metric: "1/s"}).items()},
        }
        if wall_setup is not None:
            record["wall_setup_samples"] = wall_setup[seed - 1]
        path = directory / f"result-simulate-k8-seed{seed}-trace{trace}.json"
        path.write_text(json.dumps(record))
    return str(directory)


def test_median_quartiles_and_iqr(bench_summary, tmp_path):
    parent = write_results(tmp_path / "parent", [5.0, 1.0, 4.0, 2.0, 3.0])
    change = write_results(tmp_path / "change", [10.0, 30.0, 20.0])
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    summary = json.loads(out.read_text())
    assert summary["machine"] == MACHINE
    metric = summary["sides"]["parent"]["simulate-k8"]["metrics"]["throughput"]
    assert metric == {"unit": "1/s", "n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert summary["sides"]["parent"]["simulate-k8"]["seeds"] == [1, 2, 3, 4, 5]
    assert summary["sides"]["change"]["simulate-k8"]["metrics"]["throughput"]["median"] == 20.0
    # seeds 4 and 5 ran on the parent only
    assert summary["compare"] == {"simulate-k8": {"throughput": {
        "better": "higher", "ratio": 20.0 / 3.0, "seeds": 3, "change_better": 3,
        "gap_exceeds_parent_iqr": True, "claim_rule_met": False, "within_bound": True}}}


def test_compare_counts_a_lower_is_better_metric_on_seeds_run_on_both_sides(
        bench_summary, tmp_path):
    # setup_s is lower-is-better; seed 4 ran on the parent only, where
    # it is worse than every change run
    parent = write_results(tmp_path / "parent", [1.0, 2.0, 3.0, 10.0], metric="setup_s")
    change = write_results(tmp_path / "change", [0.5, 2.5, 1.0], metric="setup_s")
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    summary = json.loads(out.read_text())
    assert summary["sides"]["parent"]["simulate-k8"]["metrics"]["setup_s"]["iqr"] == 3.0
    assert summary["compare"] == {"simulate-k8": {"setup_s": {
        "better": "lower", "ratio": 1.0 / 2.5, "seeds": 3, "change_better": 2,
        "gap_exceeds_parent_iqr": False, "claim_rule_met": False, "within_bound": True}}}
    # without both a parent and a change there is nothing to compare
    assert bench_summary.main(["--out", str(out), f"a={parent}", f"b={change}"]) == 0
    assert "compare" not in json.loads(out.read_text())


def _flags(bench_summary, tmp_path, parent, change, metric="throughput"):
    # (claim_rule_met, within_bound) of one comparison, in a fresh directory
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    parent = write_results(case / "parent", parent, metric=metric)
    change = write_results(case / "change", change, metric=metric)
    out = case / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    got = json.loads(out.read_text())["compare"]["simulate-k8"][metric]
    return got["claim_rule_met"], got["within_bound"]


def test_claim_rule_needs_9_of_10_pairs_and_a_gap_above_the_parent_iqr(bench_summary, tmp_path):
    # parent 100..109: median 104.5, IQR 4.5
    parent = [100.0 + i for i in range(10)]
    gain = [p + 6.0 for p in parent]  # 10/10 better, gap 6 > 4.5
    assert _flags(bench_summary, tmp_path, parent, gain) == (True, True)
    one_worse = gain[:9] + [parent[9] - 1.0]  # 9/10 better, median gap 6
    assert _flags(bench_summary, tmp_path, parent, one_worse) == (True, True)
    two_worse = gain[:8] + [parent[8] - 1.0, parent[9] - 1.0]  # 8/10
    assert _flags(bench_summary, tmp_path, parent, two_worse) == (False, True)
    small = [p + 4.0 for p in parent]  # 10/10 better, gap 4 <= 4.5
    assert _flags(bench_summary, tmp_path, parent, small) == (False, True)
    # 9 of 9 pairs: the rule reads ten pairs at least
    assert _flags(bench_summary, tmp_path, parent[:9], gain[:9]) == (False, True)
    # a lower-is-better metric gains downwards
    assert _flags(bench_summary, tmp_path, parent, [p - 6.0 for p in parent],
                  metric="setup_s") == (True, True)


def test_within_bound_reads_the_bound_of_benchmark_json(bench_summary, tmp_path):
    # throughput (higher, bound 0.2): a median of 0.8 times the parent's is
    # at the bound, below it out; setup_s (lower, bound 0.25): 1.25 times
    parent = [10.0, 10.0, 10.0]
    assert _flags(bench_summary, tmp_path, parent, [8.0] * 3) == (False, True)
    assert _flags(bench_summary, tmp_path, parent, [7.9] * 3) == (False, False)
    assert _flags(bench_summary, tmp_path, parent, [12.5] * 3, metric="setup_s") == (False, True)
    assert _flags(bench_summary, tmp_path, parent, [12.6] * 3, metric="setup_s") == (False, False)


def test_per_layer_times_of_traced_runs_are_marked_wall_clock(bench_summary, tmp_path):
    # perfbench scales setup_s by the machine's speed but leaves a traced
    # run's per-layer times raw: only the latter carry "clock": "wall"
    side = write_results(tmp_path / "side", [1.0, 2.0], units={"setup_s": "s"})
    write_results(tmp_path / "side", [167.0], trace=1, units={
        "maps.F_fast.us_per_call": "us", "maps.F_fast.self_s": "s", "maps.F_fast.calls": "count",
        "torus.fft.flops_computed.per_step": "flop", "trace.overhead": "ratio"})
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"change={side}"]) == 0
    metrics = json.loads(out.read_text())["sides"]["change"]["simulate-k8"]["metrics"]
    assert {name for name, m in metrics.items() if "clock" in m} == {
        "maps.F_fast.us_per_call", "maps.F_fast.self_s"}
    assert metrics["maps.F_fast.us_per_call"] == {
        "unit": "us", "n": 1, "median": 167.0, "q1": 167.0, "q3": 167.0, "iqr": 0.0,
        "clock": "wall"}
    assert metrics["setup_s"]["median"] == 1.5


def test_wall_clock_setup_is_a_diagnostic_ratio_beside_setup_s(bench_summary, tmp_path):
    # the calibrated setup_s doubles while the wall-clock set-up holds: the
    # machine's speed swung, not the program.  setup_wall_s pools the
    # untraced runs' samples, and its ratio sits in the setup_s entry
    # without moving either flag
    units = {"setup_s": "s"}
    parent = write_results(tmp_path / "parent", [1.0, 1.0, 1.0], units=units,
                           wall_setup=[[2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    write_results(tmp_path / "parent", [1.0], trace=1, units={"trace.overhead": "ratio"},
                  wall_setup=[[100.0]])  # a traced run's set-up is not pooled
    change = write_results(tmp_path / "change", [2.0, 2.0, 2.0], units=units,
                           wall_setup=[[4.0, 4.0], [4.0, 5.0], [5.0, 5.0]])
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 0
    summary = json.loads(out.read_text())
    assert summary["sides"]["parent"]["simulate-k8"]["setup_wall_s"] == 4.5
    assert summary["sides"]["change"]["simulate-k8"]["setup_wall_s"] == 4.5
    assert summary["compare"] == {"simulate-k8": {"setup_s": {
        "better": "lower", "ratio": 2.0, "seeds": 3, "change_better": 0,
        "gap_exceeds_parent_iqr": True, "claim_rule_met": False, "within_bound": False,
        "wall_ratio_diagnostic": 1.0}}}
    # without wall_setup_samples there is neither figure
    bare = write_results(tmp_path / "bare", [1.0, 1.0, 1.0], units=units)
    assert bench_summary.main(["--out", str(out), f"parent={bare}", f"change={change}"]) == 0
    summary = json.loads(out.read_text())
    assert "setup_wall_s" not in summary["sides"]["parent"]["simulate-k8"]
    assert "wall_ratio_diagnostic" not in summary["compare"]["simulate-k8"]["setup_s"]


def test_results_from_two_machines_exit_1(bench_summary, tmp_path, capsys):
    parent = write_results(tmp_path / "parent", [1.0, 2.0])
    change = write_results(tmp_path / "change", [1.0, 2.0], {**MACHINE, "nproc": 4})
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 1
    assert "2 machines" in capsys.readouterr().err
    assert not out.exists()


def test_a_label_of_two_shas_exit_1(bench_summary, tmp_path, capsys):
    # the change's runs 1-2 and its traced run come from two commits
    parent = write_results(tmp_path / "parent", [1.0, 2.0])
    change = write_results(tmp_path / "change", [1.0, 2.0], git={"sha": "a" * 40, "dirty": False})
    write_results(tmp_path / "change", [3.0], trace=1, git={"sha": "b" * 40, "dirty": False})
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 1
    err = capsys.readouterr().err
    assert "label 'change' is not one clean checkout" in err
    assert f"{'a' * 40} (dirty: False), {'b' * 40} (dirty: False)" in err
    assert not out.exists()


@pytest.mark.parametrize("dirty", [True, None])
def test_a_label_of_a_dirty_checkout_exit_1(bench_summary, tmp_path, capsys, dirty):
    # dirty None: perfbench could not read the checkout's state
    parent = write_results(tmp_path / "parent", [1.0, 2.0], git={"sha": "c" * 40, "dirty": dirty})
    change = write_results(tmp_path / "change", [1.0, 2.0])
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), f"parent={parent}", f"change={change}"]) == 1
    assert (f"label 'parent' is not one clean checkout: runs of {'c' * 40} (dirty: {dirty})"
            in capsys.readouterr().err)
    assert not out.exists()


def test_repeated_label_is_a_usage_error(bench_summary, tmp_path, capsys):
    a = write_results(tmp_path / "a", [1.0])
    b = write_results(tmp_path / "b", [2.0])
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_summary.main(["--out", str(out), f"parent={a}", f"parent={b}"])
    assert exc.value.code == 2
    assert "label 'parent' is given twice" in capsys.readouterr().err
    assert not out.exists()


def write_tier1_log(path, wall_s, summary="{n} passed in {wall_s}s", n=634):
    # the stdout of one `pytest -q --durations=10` run: progress dots, the
    # durations listing (3.0 s down) and the closing summary line
    path.write_text("\n".join([
        "." * 72 + " [100%]",
        "=" * 29 + " slowest 10 durations " + "=" * 29,
        *(f"{3.0 - 0.25 * i:.2f}s call     tests/test_x.py::test_{i}" for i in range(10)),
        summary.format(n=n, wall_s=wall_s),
    ]) + "\n")
    return str(path)


def test_tier1_section_holds_each_run_the_median_and_the_median_runs_slowest(
        bench_summary, tmp_path):
    walls = (24.1, 22.0, 23.5)
    parent = [write_tier1_log(tmp_path / f"p{i}.log", w) for i, w in enumerate(walls)]
    change = [write_tier1_log(tmp_path / f"c{i}.log", w, n=640,
                              summary="{n} passed, 2 warnings in {wall_s}s (0:00:21)")
              for i, w in enumerate((21.0, 20.5))]
    out = tmp_path / "BENCH.json"
    argv = ["--out", str(out)]
    for label, logs in (("parent", parent), ("change", change)):
        argv += [arg for log in logs for arg in ("--tier1", f"{label}={log}")]
    assert bench_summary.main(argv) == 0
    summary = json.loads(out.read_text())
    assert summary["tier1_command"].endswith("--durations=10")
    got = summary["tier1"]["parent"]
    assert got["runs"] == [{"file": log, "wall_s": w} for log, w in zip(parent, walls)]
    assert (got["wall_s_median"], got["passed"], got["median_run"]) == (23.5, 634, parent[2])
    assert len(got["slowest"]) == 10
    assert got["slowest"][0] == {"seconds": 3.0, "when": "call", "test": "tests/test_x.py::test_0"}
    # an even count: the median time, and the slowest tests of the lower middle run
    got = summary["tier1"]["change"]
    assert (got["wall_s_median"], got["passed"], got["median_run"]) == (20.75, 640, change[1])


@pytest.mark.parametrize("summary, problem", [
    ("1 failed, 633 passed in 22.0s", "the run has 1 failed"),
    ("==== 633 passed, 2 errors in 22.0s ====", "the run has 2 errors"),
    ("Interrupted: 1 error during collection", "no pytest summary line"),
])
def test_tier1_log_with_failures_or_no_summary_exit_1(bench_summary, tmp_path, capsys, summary,
                                                       problem):
    good = write_tier1_log(tmp_path / "good.log", 22.0)
    bad = write_tier1_log(tmp_path / "bad.log", 22.0, summary=summary)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), "--tier1", f"change={good}",
                               "--tier1", f"change={bad}"]) == 1
    assert f"error: {bad}: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_tier1_logs_of_one_label_must_pass_the_same_count(bench_summary, tmp_path, capsys):
    a = write_tier1_log(tmp_path / "a.log", 22.0)
    b = write_tier1_log(tmp_path / "b.log", 22.0, n=633)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), "--tier1", f"change={a}",
                               "--tier1", f"change={b}"]) == 1
    assert f"{a} (634), {b} (633)" in capsys.readouterr().err
    assert not out.exists()


def test_ci_runs_the_tier1_command_the_summary_records(bench_summary):
    # CI's tier1-log artifact feeds --tier1, so CI must run TIER1_COMMAND
    workflow = SCRIPT.parents[1] / ".github" / "workflows" / "tier1.yml"
    assert bench_summary.TIER1_COMMAND in workflow.read_text()
