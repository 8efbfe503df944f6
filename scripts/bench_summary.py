#!/usr/bin/env python3
"""Fold perfbench result files into one committed BENCH_*.json.

    python3 scripts/bench_summary.py --out BENCH_<n>.json parent=DIR change=DIR

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
the metric's relative `bound` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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
                                            "metrics": {}})
        w["traced_seeds" if trace else "seeds"].append(seed)
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
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("sides", nargs="+", metavar="LABEL=DIR")
    p.add_argument("--out", required=True, help="summary file to write")
    args = p.parse_args(argv)

    labels = {}
    for side in args.sides:
        label, sep, directory = side.partition("=")
        if not (sep and label and directory):
            p.error(f"expected LABEL=DIR, got {side!r}")
        if label in labels:
            p.error(f"label {label!r} is given twice ({labels[label]} and {directory})")
        labels[label] = directory
    try:
        records = {label: load(d) for label, d in labels.items()}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    environments = {json.dumps([r["machine"], r["versions"]], sort_keys=True)
                    for recs in records.values() for r in recs.values()}
    if len(environments) != 1:
        print(f"error: results come from {len(environments)} machines or version sets",
              file=sys.stderr)
        return 1
    machine, versions = json.loads(environments.pop())
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
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
