"""Fold perfbench result records into one BENCH_<n>.json file.

    python3 tools/fold_bench.py --out BENCH_11.json parent=PARENT/.perfbench change=.perfbench

Each NAME=DIR reads DIR/result-*-trace0.json, the records that
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
keeps, one per workload and seed.  For each version and workload the file
gets the gated end-to-end metrics of BENCHMARK.json, each with its value per
seed, median and interquartile range (IQR, the inclusive quartiles of the
seeds run), the failed ops and the golden digest count.  Every version also
records its Python version, nproc, commit and package source sha256, which
must be the same in all of its records.  The first version is taken as
unchanged code: its setup_s spread, over seeds and over the set-up rounds
inside each run, is recorded beside it, and every later version gets the
ratio of its medians to the first version's and, per metric, how many of
the seeds both ran it read better on (BENCHMARK.json says which way is
better).

Standard library only; it reads no package code.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ENVIRONMENT = ("python", "nproc", "commit", "source_sha256")


def spread(values: list[float]) -> dict:
    """The values with their median and interquartile range."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"values": values, "median": median, "iqr": q3 - q1}


def paired_wins(baseline: dict, change: dict, metric: str, higher: bool) -> dict:
    """On the seeds both versions ran, how often the change read better."""
    old = dict(zip(baseline["seeds"], baseline["metrics"][metric]["values"]))
    new = dict(zip(change["seeds"], change["metrics"][metric]["values"]))
    shared = sorted(set(old) & set(new))
    won = sum((new[s] > old[s]) if higher else (new[s] < old[s]) for s in shared)
    return {"wins": won, "pairs": len(shared)}


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise ValueError(f"no result-*-trace0.json records in {directory}")
    return records


def fold_version(records: list[dict], metrics: list[str]) -> dict:
    environment = {key: [] for key in ENVIRONMENT}
    for record in records:
        for key, values in environment.items():
            if record["environment"][key] not in values:
                values.append(record["environment"][key])
    mixed = [key for key, values in environment.items() if len(values) > 1]
    if mixed:
        raise ValueError(f"records differ in {', '.join(mixed)}: {environment}")
    workloads: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == workload), key=lambda r: r["seed"])
        values = {name: [r["setup_s"] if name == "setup_s" else r["end_to_end"][name]
                         for r in runs] for name in metrics}
        workloads[workload] = {
            "seeds": [r["seed"] for r in runs],
            "size": sorted({r["size"] for r in runs}),
            "seconds": sorted({r["environment"]["seconds"] for r in runs}),
            "metrics": {name: spread(values[name]) for name in metrics},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "golden_digests": sorted({r["golden_digests"] for r in runs}),
        }
    return {"environment": {key: values[0] for key, values in environment.items()},
            "workloads": workloads}


def setup_spread(records: list[dict]) -> dict:
    """How far setup_s moves on one version's code, per workload."""
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        setups = [r["setup_s"] for r in runs]
        median = statistics.median(setups)
        rounds = [(min(r["setup_rounds_s"]), max(r["setup_rounds_s"])) for r in runs]
        out[workload] = {
            "setup_s_min": min(setups), "setup_s_max": max(setups),
            "range_over_median": (max(setups) - min(setups)) / median,
            "iqr_over_median": spread(setups)["iqr"] / median,
            "worst_round_range_in_one_run": max(hi / lo for lo, hi in rounds),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fold perfbench result records into BENCH json.")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="the benchmark declaration naming the gated metrics")
    parser.add_argument("versions", nargs="+", metavar="NAME=DIR",
                        help="a version name and the .perfbench directory of its records; "
                             "the first is the unchanged baseline")
    args = parser.parse_args(argv)
    try:
        with open(args.benchmark, encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        metrics = list(better)
        pairs = [item.split("=", 1) for item in args.versions]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("each version is NAME=DIR")
        records = {name: load(directory) for name, directory in pairs}
        versions = {name: fold_version(recs, metrics) for name, recs in records.items()}
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    base = pairs[0][0]
    ratios, wins = {}, {}
    for name, version in versions.items():
        if name == base:
            continue
        ratios[name], wins[name] = {}, {}
        for workload, folded in version["workloads"].items():
            if workload not in versions[base]["workloads"]:
                continue
            baseline = versions[base]["workloads"][workload]
            ratios[name][workload] = {
                metric: entry["median"] / baseline["metrics"][metric]["median"]
                for metric, entry in folded["metrics"].items()}
            wins[name][workload] = {
                metric: paired_wins(baseline, folded, metric, better[metric] == "higher")
                for metric in metrics}
    bench = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "metrics": metrics,
        "baseline": base,
        "versions": versions,
        "median_ratio_to_baseline": ratios,
        "wins_over_baseline_on_shared_seeds": wins,
        "baseline_setup_s_spread": setup_spread(records[base]),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
