"""The measured process: run a workload's CLI ops, time them and check every output.

Each op drives the CLI in process through tristar.cli.main(argv), one at a
time, with stdout and stderr captured.  An op fails on a nonzero exit code,
on a failed intrinsic check of its output, or when the sha256 digest of its
output bytes differs from the golden digest recorded for its seed, or from
its own output in the first pass.

Op times are wall-clock seconds scaled by the reference loop (reference.py),
which runs right before and right after every op: a figure reads in seconds
on a host where that loop takes reference.REFERENCE_S.  The raw wall and
CPU times are kept beside them in the record.

    python3 perfbench/measure.py --work DIR --seconds 20 --trace 0

prints one JSON object with the end-to-end figures (and, with --trace 1,
the per-layer figures of a traced run of every op) as its last line.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass

import reference
import spans
from tristar.cli import main as cli_main


@dataclass
class OpResult:
    seconds: float
    cpu: float
    code: int
    stdout: str
    cert: bytes
    stderr: str


def op_argvs(op: dict, work: str) -> list[list[str]]:
    """The CLI command lines of one op: one command, or prove then verify for certify."""
    kind = op["kind"]
    if kind == "analyze":
        return [["analyze", os.path.join(work, op["path"]), "--json"]]
    if kind == "certify":
        path = os.path.join(work, op["path"])
        cert = os.path.join(work, op["cert"])
        local = ["--local", "--r", str(op["local_r"])] if op["local_r"] is not None else []
        return [["prove", path, "--cert", cert] + local, ["verify", "--cert", cert, path]]
    if kind == "exhaust":
        return [["exhaust", "--n", str(op["n"]), "--r", str(op["r"]), "--mode", op["mode"]]
                + (["--prove"] if op["prove"] else [])]
    if kind == "search":
        return [["search", "--n", str(op["n"]), "--r", str(op["r"]),
                 "--objective", op["objective"], "--iters", str(op["iters"]),
                 "--seed", str(op["seed"]), "--restarts", str(op["restarts"])]]
    raise ValueError(f"unknown op kind {kind!r}")


def run_op(op: dict, work: str, main=cli_main) -> OpResult:
    """Run one op in process through main(argv); the time covers those calls only."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    seconds = cpu = 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in op_argvs(op, work):
            start, start_cpu = time.perf_counter(), time.process_time()
            rc = main(argv)
            seconds += time.perf_counter() - start
            cpu += time.process_time() - start_cpu
            if rc != 0:
                code = rc
                break
    cert = b""
    if op["kind"] == "certify" and code == 0:
        with open(os.path.join(work, op["cert"]), "rb") as fh:
            cert = fh.read()
    return OpResult(seconds, cpu, code, out.getvalue(), cert, err.getvalue())


def digest(result: OpResult) -> str:
    """sha256 over the op's stdout bytes and, for certify, its certificate bytes."""
    h = hashlib.sha256(result.stdout.encode())
    h.update(b"\0")
    h.update(result.cert)
    return h.hexdigest()


def report_value(stdout: str, key: str) -> str | None:
    """The value of a 'key value' line of an exhaust or search report."""
    for line in stdout.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    return None


def check(op: dict, result: OpResult) -> list[str]:
    """Intrinsic checks on one op's output; an empty list means the op passed."""
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[:200]}"]
    kind = op["kind"]
    problems = []
    if kind == "analyze":
        try:
            report = json.loads(result.stdout)
        except ValueError:
            return ["analyze output is not JSON"]
        for scope in ("global", "local"):
            for entry in report["bounds"][scope]["entries"]:
                if entry["observable"] == "triple" and entry["status"] == "below":
                    problems.append(f"triple-star row {entry['name']} reads below")
    elif kind == "certify":
        lines = result.stdout.splitlines()
        if len(lines) != 2 or not lines[0].startswith("proved: "):
            problems.append("prove did not report a proof")
        if not lines or lines[-1] != "certificate accepted":
            problems.append("verify did not print 'certificate accepted'")
    elif kind == "exhaust":
        if report_value(result.stdout, "complete") != "yes":
            problems.append("exhaust report is not complete")
        if report_value(result.stdout, "violations") != "0":
            problems.append("exhaust report has violations")
    elif kind == "search":
        if not result.stdout.startswith("search report\n"):
            problems.append("search did not print a report")
        if "theorem violation" in result.stderr:
            problems.append("search ended in a theorem violation")
    return problems


def work_units(op: dict, result: OpResult) -> int:
    """Throughput units of one op: a colouring, the canonical colourings an exhaust covers,
    or evaluations."""
    if op["kind"] == "exhaust":
        return op["canonical"]
    if op["kind"] == "search":
        return int(report_value(result.stdout, "evaluations") or 0)
    return 1


@dataclass
class Phase:
    """What the timed phase did: per-op times by pass, and the failures."""
    times: list[list[float]]  # times[i] = reference seconds of op i in each pass
    wall: list[list[float]]  # the same in wall-clock seconds
    cpu: list[list[float]]  # the same in CPU seconds of this process
    first: list[OpResult]  # each op's result in the first pass
    units: list[int]  # units[p] = work units of the ops that passed in pass p
    attempted: int
    failed: int
    problems: list[str]
    passes: int
    elapsed: float


def timed_phase(ops: list[dict], work: str, seconds: float,
                golden: dict[str, str], after_op=None) -> Phase:
    """Run whole passes over the ops until `seconds` have gone by.

    Whole passes keep the op mix of every run the same, whatever the seed.
    after_op(index, op, result), when given, runs after each op that passed.
    """
    times: list[list[float]] = [[] for _ in ops]
    wall: list[list[float]] = [[] for _ in ops]
    cpu: list[list[float]] = [[] for _ in ops]
    first: list[OpResult] = []
    first_digest: list[str] = []
    units: list[int] = []
    attempted = failed = passes = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        units.append(0)
        for i, op in enumerate(ops):
            gauge = reference.sample()
            result = run_op(op, work)
            scale = reference.scale(gauge + reference.sample())
            found = check(op, result)
            if not found:
                got = digest(result)
                if passes == 0:
                    first.append(result)
                    first_digest.append(got)
                    want = golden.get(op["label"])
                    if want is not None and got != want:
                        found.append("output differs from its golden digest")
                elif got != first_digest[i]:
                    found.append("output differs from the first pass")
            elif passes == 0:
                first.append(result)
                first_digest.append("")
            attempted += 1
            times[i].append(result.seconds * scale)
            wall[i].append(result.seconds)
            cpu[i].append(result.cpu)
            if found:
                failed += 1
                problems += [f"{op['label']}: {p}" for p in found]
            else:
                units[passes] += work_units(op, result)
                if after_op is not None:
                    after_op(i, op, result)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return Phase(times, wall, cpu, first, units, attempted, failed, problems, passes,
                 time.perf_counter() - start)


def latency_tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    Defined only from 21 samples on, so that it lies above the median.
    """
    n = len(samples)
    if n <= 20:
        return None
    ordered = sorted(samples)
    rank = n - 10  # ten samples lie above the rank-th smallest
    return 100.0 * rank / n, ordered[rank - 1]


def typical_op(times: list[list[float]]) -> float:
    """The median over ops of each op's median time across passes.

    Taking each op's median first keeps the figure on the same ops from run
    to run, where a median over all samples jumps between op sizes.
    """
    return statistics.median(statistics.median(per_op) for per_op in times)


def end_to_end(phase: Phase) -> dict:
    samples = [t for per_op in phase.times for t in per_op]
    pass_rates = [units / sum(per_op[p] for per_op in phase.times)
                  for p, units in enumerate(phase.units)]
    figures = {
        "throughput_per_s": statistics.median(pass_rates),
        "latency_p50_s": typical_op(phase.times),
        "latency_p50_wall_s": typical_op(phase.wall),
        "latency_p50_cpu_s": typical_op(phase.cpu),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": len(samples),
    }
    tail = latency_tail(samples)
    if tail is not None:
        figures["latency_tail_s"] = tail[1]
        figures["latency_tail_percentile"] = tail[0]
    return figures


def trace_op(tracer: spans.Tracer, index: int, op: dict, work: str,
              untraced: OpResult) -> None:
    """Run op `index` again under the tracer, right after the untraced command ran.

    Running the two back to back makes the command's time and its spans see
    the same host conditions.  The traced run must print the same bytes.
    """
    tracer.op = index
    with spans.cross_layer_spans(tracer):
        result = run_op(op, work, tracer.wrap("cli.main", cli_main))
    if result.code != untraced.code or digest(result) != digest(untraced):
        raise spans.TracedRunMismatch(f"{op['label']}: the traced run printed other "
                                      f"output than the command")


DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_golden(manifest: dict) -> dict[str, str]:
    """Golden digests for this workload and seed; empty when none were recorded."""
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    if table.get("size") != manifest["size"]:
        return {}
    return table["seeds"].get(str(manifest["seed"]), {}).get(manifest["workload"], {})


def measure(work: str, seconds: float, trace: bool) -> dict:
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = manifest["ops"]
    for op in manifest["warmup"]:
        result = run_op(op, work)
        found = check(op, result)
        if found:
            raise RuntimeError(f"warm-up op {op['label']} failed: {found}")
    setup = time.perf_counter() - _STARTED
    setup_scale = reference.scale(reference.sample(5))
    golden = load_golden(manifest)
    tracer = spans.Tracer() if trace else None

    def traced(index: int, op: dict, result: OpResult) -> None:
        trace_op(tracer, index, op, work, result)
    phase = timed_phase(ops, work, seconds, golden, traced if trace else None)
    out = {"workload": manifest["workload"], "seed": manifest["seed"],
           "size": manifest["size"], "unit": manifest["unit"],
           "ops_per_pass": len(ops), "passes": phase.passes,
           "attempted": phase.attempted, "failed": phase.failed,
           "problems": phase.problems[:20], "golden_digests": len(golden),
           "worker_setup_s": setup * setup_scale, "worker_setup_wall_s": setup,
           "timed_wall_s": phase.elapsed,
           "op_labels": [op["label"] for op in ops], "op_seconds": phase.times,
           "end_to_end": end_to_end(phase)}
    if trace:
        if phase.failed:
            raise RuntimeError(f"{phase.failed} ops failed, so the per-layer figures "
                               f"would not describe the command: {phase.problems[:5]}")
        untraced = sum(sum(times) for times in phase.wall)
        out["per_layer"] = spans.traced_figures(tracer, manifest, work, untraced, phase.passes)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Measure one workload in this process.")
    parser.add_argument("--work", required=True, help="work directory holding manifest.json")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.work, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
