"""Record the golden digests: sha256 of every op's output bytes, per seed.

    python3 perfbench/record_digests.py --seeds 1 2 3

Run from the root of a checkout whose package output is trusted.  For each
seed and workload it generates the full-size inputs, runs one pass, refuses
to record if any op fails its intrinsic checks, and writes
perfbench/digests.json.  A later run with one of these seeds counts every op
whose output bytes differ as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import measure  # noqa: E402
from run import source_digest  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record golden output digests.")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    work = os.path.join(os.getcwd(), ".perfbench", f"record-{os.getpid()}")
    table = {"size": "full",
             "source_sha256": source_digest(os.path.join(os.getcwd(), "src", "tristar")),
             "seeds": {}}
    try:
        for seed in args.seeds:
            per_workload = table["seeds"].setdefault(str(seed), {})
            for workload in WORKLOADS:
                shutil.rmtree(work, ignore_errors=True)
                manifest = generate(workload, seed, "full", work)
                phase = measure.timed_phase(manifest["ops"], work, 0, {})
                if phase.failed:
                    print(f"seed {seed} {workload}: {phase.problems}", file=sys.stderr)
                    return 1
                per_workload[workload] = {op["label"]: measure.digest(result)
                                          for op, result in zip(manifest["ops"], phase.first)}
                print(f"seed {seed} {workload}: {len(manifest['ops'])} digests", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(measure.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
