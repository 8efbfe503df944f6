#!/usr/bin/env python3
"""Fold perfbench result files into one committed BENCH_*.json.

    python3 scripts/bench_summary.py --out BENCH_<n>.json parent=DIR change=DIR \
        [--tier1 parent=LOG ...] [--tier1 change=LOG ...]

Each LABEL=DIR names a directory of `perfbench/run.py` result files
(`result-<workload>-seed<n>-trace<t>.json`, as in a checkout's
perfbench/out/).  For every label, workload and metric the summary
holds the median, the quartiles and the IQR over the seeds, from
untraced runs for the end-to-end metrics and from traced runs for the
per-layer ones, with the git sha and dirty flag the runs recorded.
perfbench scales only the end-to-end throughput and setup_s by its
measured machine speed; the per-layer times of the one traced run per
side (unit s or us) are raw wall time, marked `"clock": "wall"`, and
compare two moments of a drifting machine, not two programs.  Only the
per-layer counts compare across sides.  The
machine (nproc, CPU model) and the library versions are recorded once,
and a run on any other machine or versions is refused: medians from two
machines do not compare.  So is a label whose runs come from more than
one git sha, or from a checkout that was dirty or whose state perfbench
could not read: its medians would not belong to one program.

When the labels `parent` and `change` are both given, a `compare`
section holds, per workload and end-to-end metric of BENCHMARK.json
(whose `better` gives the direction): the change's median over the
parent's, the number of seeds run untraced on both sides, on how many of
those seeds the change is better, and whether the gap between the
medians exceeds the parent's IQR.  Two flags judge it:
`claim_rule_met`, that the change is better on at least 9 of every 10
paired seeds (and at least 10 seeds are paired) with the medians' gap,
in the better direction, above the parent's IQR; and `within_bound`,
that the change's median is not worse than the parent's by more than
the metric's relative `bound` in BENCHMARK.json.  Beside the metrics,
each workload run on both sides holds `failed_share`: each side's
failed units over its attempted ones, pooled over all its runs, and the
flag `failed_share_not_larger`, that the change's share is at most the
parent's.

setup_s is scaled by a calibration burst, so a swing in the machine's
speed during set-up can move it with no change to the program.  To tell
the two apart, each label and workload also holds `setup_wall_s`: the
median of the untraced result files' `wall_setup_samples`, the unscaled
wall-clock set-up of every process.  In `compare`, the setup_s entry
then holds `wall_ratio_diagnostic`, the change's setup_wall_s over the
parent's.  It is a diagnostic, not a gate: neither flag reads it, and a
calibrated ratio that moves while it stays near 1 points at the
calibration.

Each `--tier1 LABEL=LOG` (repeatable, one per run) names the saved
stdout of one run of the tier-1 command with `--durations=10`
(TIER1_COMMAND).  A `tier1` section then holds, per label, each run's
wall seconds and pass count from pytest's final `N passed in X s` line,
the median of those times, and the ten slowest entries of the median
run (the lower middle one of an even count).  A log with failures or
errors, with no summary line, or whose pass count differs from the
label's other runs exits 1, naming the file.  The logs carry no machine
record: run them on the machine of the perfbench results.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TIER1_COMMAND = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
                 "--continue-on-collection-errors --durations=10")
# pytest's closing line, "634 passed, 2 warnings in 22.41s (0:00:22)" with
# or without the ===== frame, and one entry of its --durations listing
_SUMMARY = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in ([0-9.]+)s\b.*$")
_DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown) +(\S.*)$")


def quartiles(values):
    """(q1, median, q3); q1 = q3 = the value for a single run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def load(directory):
    """Result records of a directory, by (workload, trace, seed)."""
    records = {}
    for path in sorted(Path(directory).glob("result-*.json")):
        r = json.loads(path.read_text())
        if not r.get("tiny"):
            records[(r["workload"], r["trace"], r["seed"])] = r
    if not records:
        raise ValueError(f"no result-*.json files (other than --tiny runs) in {directory}")
    return records


def summarize(records):
    """Per-workload medians and IQRs of one label's records."""
    workloads = {}
    for (workload, trace, seed), r in sorted(records.items()):
        w = workloads.setdefault(workload, {"seeds": [], "traced_seeds": [], "seconds": [],
                                            "failed": 0, "attempted": 0, "git": [],
                                            "metrics": {}, "setup_wall_s": []})
        w["traced_seeds" if trace else "seeds"].append(seed)
        if not trace:
            w["setup_wall_s"].extend(r.get("wall_setup_samples", []))
        if r["seconds"] not in w["seconds"]:
            w["seconds"].append(r["seconds"])
        w["failed"] += r["failed"]
        w["attempted"] += r["attempted"]
        if r["git"] not in w["git"]:
            w["git"].append(r["git"])
        for name, m in r["metrics"].items():
            metric = w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            metric["values"].append(m["value"])
            if trace and m["unit"] in ("s", "us"):
                metric["clock"] = "wall"
    for w in workloads.values():
        samples = w.pop("setup_wall_s")
        if samples:
            w["setup_wall_s"] = statistics.median(samples)
        for m in w["metrics"].values():
            values = m.pop("values")
            q1, med, q3 = quartiles(values)
            m.update(n=len(values), median=med, q1=q1, q3=q3, iqr=q3 - q1)
    return workloads


def compare(records, sides):
    """Change against parent per workload and end-to-end metric, paired by
    seed over untraced runs; a seed run on one side only is not paired."""
    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    better = {name: m["better"] for name, m in metrics.items()}
    by_seed = {}
    for label in ("parent", "change"):
        for (workload, trace, seed), r in records[label].items():
            for name, m in r["metrics"].items():
                if not trace and name in better:
                    by_seed.setdefault((workload, name), {}).setdefault(label, {})[seed] = m["value"]
    result = {}
    for (workload, name), values in sorted(by_seed.items()):
        if len(values) < 2:
            continue
        parent, change = values["parent"], values["change"]
        p = sides["parent"][workload]["metrics"][name]
        c = sides["change"][workload]["metrics"][name]
        sign = 1 if better[name] == "higher" else -1
        seeds = parent.keys() & change.keys()
        change_better = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
        gain = sign * (c["median"] - p["median"])
        result.setdefault(workload, {})[name] = {
            "better": better[name],
            "ratio": c["median"] / p["median"],
            "seeds": len(seeds),
            "change_better": change_better,
            "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["iqr"],
            "claim_rule_met": len(seeds) >= 10 and 10 * change_better >= 9 * len(seeds)
                              and gain > p["iqr"],
            "within_bound": gain >= -metrics[name]["bound"] * abs(p["median"]),
        }
    for workload in sorted(sides["parent"].keys() & sides["change"].keys()):
        share = {label: sides[label][workload]["failed"] / sides[label][workload]["attempted"]
                 for label in ("parent", "change")}
        share["failed_share_not_larger"] = share["change"] <= share["parent"]
        result.setdefault(workload, {})["failed_share"] = share
    for workload, entries in result.items():
        p = sides["parent"][workload].get("setup_wall_s")
        c = sides["change"][workload].get("setup_wall_s")
        if "setup_s" in entries and p and c:
            entries["setup_s"]["wall_ratio_diagnostic"] = c / p
    return result


def tier1_run(path):
    """{file, wall_s, passed, slowest} of one saved tier-1 log."""
    lines = Path(path).read_text().splitlines()
    found = [m for m in map(_SUMMARY.match, lines) if m]
    if not found:
        raise ValueError(f"{path}: no pytest summary line ('N passed in X s')")
    counts = {word: int(n) for n, word in
              (part.split(" ") for part in found[-1].group(1).split(", "))}
    bad = [f"{n} {word}" for word, n in counts.items() if word in ("failed", "error", "errors")]
    if bad:
        raise ValueError(f"{path}: the run has {', '.join(bad)}")
    slowest = [{"seconds": float(m.group(1)), "when": m.group(2), "test": m.group(3).strip()}
               for m in map(_DURATION.match, lines) if m]
    return {"file": str(path), "wall_s": float(found[-1].group(2)),
            "passed": counts.get("passed", 0), "slowest": slowest[:10]}


def tier1(logs):
    """The tier1 section: per label, its runs' wall times and pass count,
    their median and the slowest tests of the median run."""
    section = {}
    for label, paths in logs.items():
        runs = [tier1_run(path) for path in paths]
        if len({r["passed"] for r in runs}) > 1:
            raise ValueError(f"tier-1 logs of label {label!r} pass different test counts: "
                             + ", ".join(f"{r['file']} ({r['passed']})" for r in runs))
        middle = sorted(runs, key=lambda r: r["wall_s"])[(len(runs) - 1) // 2]
        section[label] = {
            "runs": [{"file": r["file"], "wall_s": r["wall_s"]} for r in runs],
            "wall_s_median": statistics.median(r["wall_s"] for r in runs),
            "passed": runs[0]["passed"],
            "median_run": middle["file"],
            "slowest": middle["slowest"],
        }
    return section


def _pairs(p, items, what):
    """{label: [value, ...]} of LABEL=VALUE arguments."""
    pairs = {}
    for item in items:
        label, sep, value = item.partition("=")
        if not (sep and label and value):
            p.error(f"expected LABEL={what}, got {item!r}")
        pairs.setdefault(label, []).append(value)
    return pairs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("sides", nargs="*", metavar="LABEL=DIR")
    p.add_argument("--tier1", action="append", default=[], metavar="LABEL=LOG",
                   help="saved stdout of one tier-1 run with --durations=10 (repeatable)")
    p.add_argument("--out", required=True, help="summary file to write")
    args = p.parse_args(argv)
    if not (args.sides or args.tier1):
        p.error("give at least one LABEL=DIR or --tier1 LABEL=LOG")

    labels = _pairs(p, args.sides, "DIR")
    for label, directories in labels.items():
        if len(directories) > 1:
            p.error(f"label {label!r} is given twice ({directories[0]} and {directories[1]})")
    try:
        records = {label: load(d) for label, (d,) in labels.items()}
        tier1_section = tier1(_pairs(p, args.tier1, "LOG"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    environments = {json.dumps([r["machine"], r["versions"]], sort_keys=True)
                    for recs in records.values() for r in recs.values()}
    if len(environments) > 1:
        print(f"error: results come from {len(environments)} machines or version sets",
              file=sys.stderr)
        return 1
    machine, versions = json.loads(environments.pop()) if environments else (None, None)
    for label, recs in records.items():
        states = sorted({(r["git"]["sha"], r["git"]["dirty"]) for r in recs.values()}, key=str)
        if len(states) > 1 or states[0][1] is not False:
            runs = ", ".join(f"{sha} (dirty: {dirty})" for sha, dirty in states)
            print(f"error: label {label!r} is not one clean checkout: runs of {runs}",
                  file=sys.stderr)
            return 1

    summary = {
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T",
        "machine": machine,
        "versions": versions,
        "sides": {label: summarize(recs) for label, recs in records.items()},
    }
    if {"parent", "change"} <= records.keys():
        summary["compare"] = compare(records, summary["sides"])
    if tier1_section:
        summary["tier1_command"] = TIER1_COMMAND
        summary["tier1"] = tier1_section
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
