"""The tristar benchmark: one workload, one run, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload analyze-mid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
A run sets up three times (each time a fresh process generates the inputs
and writes them to a work directory), then measures in one more fresh
process, so that neither generation nor another workload shapes its peak
RSS.  Times are wall-clock seconds scaled by a fixed reference loop run
next to them (reference.py), which takes out most of a shared host's drift
in speed; the raw wall times are recorded beside them.  Lines before the
last one record the environment, the op counts and
the figures with their sample counts; the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
with --trace 1 they are its per-layer figures, from a traced run of every op
right after its untraced run.  Span files and result records are kept under
.perfbench/.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_ROUNDS = 3
DEADLINE_S = 170  # a run must end within 180 s; children are killed past this

sys.path.insert(0, HERE)
import reference  # noqa: E402
from workloads import SIZES, UNITS, WORKLOADS  # noqa: E402


def source_digest(src: str) -> str:
    """sha256 over the package's source files, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit(root: str) -> str:
    """The checked-out commit when the checkout is a git repository, else 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[0])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return proc


def benchmark_metrics(root: str) -> tuple[list[dict], list[dict]]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def run(args: argparse.Namespace, root: str) -> dict:
    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    try:
        setups, setups_wall = [], []
        for _ in range(SETUP_ROUNDS):
            shutil.rmtree(work, ignore_errors=True)
            gauge = reference.sample()
            start = time.perf_counter()
            run_child([os.path.join(HERE, "workloads.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--size", args.size, "--out", work],
                      env, deadline)
            setups_wall.append(time.perf_counter() - start)
            setups.append(setups_wall[-1] * reference.scale(gauge + reference.sample()))
        proc = run_child([os.path.join(HERE, "measure.py"), "--work", work,
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         env, deadline)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.trace:
            shutil.move(os.path.join(work, "spans.json"),
                        os.path.join(out_dir, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_rounds_s"] = setups
    result["setup_s"] = statistics.median(setups) + result["worker_setup_s"]
    result["setup_wall_s"] = statistics.median(setups_wall) + result["worker_setup_wall_s"]
    result["environment"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                             "commit": commit(root),
                             "source_sha256": source_digest(os.path.join(root, "src", "tristar")),
                             "seed": args.seed, "workload": args.workload,
                             "size": args.size, "seconds": args.seconds}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict, trace: bool, root: str) -> dict:
    """Print the record lines and return the contract's result object."""
    end_to_end, layers = benchmark_metrics(root)
    env = result["environment"]
    e2e = result["end_to_end"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {env['workload']} seed={env['seed']} size={env['size']} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit']} "
          f"source={env['source_sha256'][:16]}")
    print(f"ops: {attempted} attempted in {result['passes']} passes of "
          f"{result['ops_per_pass']}; failed_ratio {failed / attempted:.4f} "
          f"({failed}/{attempted}); golden digests {result['golden_digests']}")
    for problem in result["problems"]:
        print(f"  failed op: {problem}")
    print(f"throughput_per_s {e2e['throughput_per_s']:.6g} 1/s "
          f"({UNITS[env['workload']]} per second, {e2e['samples']} ops)")
    print(f"latency_p50_s {e2e['latency_p50_s']:.6g} s ({e2e['samples']} ops; "
          f"raw wall {e2e['latency_p50_wall_s']:.6g} s, cpu {e2e['latency_p50_cpu_s']:.6g} s)")
    if "latency_tail_s" in e2e:
        print(f"latency_tail_s {e2e['latency_tail_s']:.6g} s "
              f"(p{e2e['latency_tail_percentile']:.1f}, {e2e['samples']} ops)")
    else:
        print(f"latency_tail_s undefined ({e2e['samples']} ops; needs 21)")
    print(f"setup_s {result['setup_s']:.6g} s (median of {len(result['setup_rounds_s'])} "
          f"set-ups plus the measured process's import and warm-up; "
          f"raw wall {result['setup_wall_s']:.6g} s)")
    print(f"peak_rss_mib {e2e['peak_rss_mib']:.6g} MiB")
    values = dict(e2e, setup_s=result["setup_s"])
    if trace:
        values = result["per_layer"]
        for entry in layers:
            print(f"{entry['name']} {values[entry['name']]:.6g} {entry['unit']}")
    chosen = layers if trace else end_to_end
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in chosen}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one tristar benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "tristar", "cli.py")):
        print("error: run from the root of a tristar checkout (src/tristar not found)",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = report(result, bool(args.trace), root)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
