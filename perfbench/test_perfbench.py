"""Tests of the benchmark itself, on its tiny smoke inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "0.2",
                           "--trace", str(trace), "--size", "smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    record = "\n".join(lines[:-1])
    for name in ("throughput_per_s", "latency_p50_s", "latency_tail_s", "setup_s",
                 "peak_rss_mib", "failed_ratio"):
        assert f"\n{name} " in record or f" {name} " in record
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        accounted = sum(values[f"layer.{layer}_s"] for layer in spans.LAYERS)
        assert accounted + values["cli.glue_s"] == pytest.approx(values["trace.traced_op_s"])
        assert values["trace.traced_op_s"] - values["trace.overhead_s"] == \
            pytest.approx(values["trace.untraced_op_s"])


def test_corrupted_golden_digest_counts_as_failed_op(tmp_path):
    work = str(tmp_path)
    ops = generate("certify-1k", 1, "smoke", work)["ops"]
    clean = measure.timed_phase(ops, work, 0, {})
    assert clean.failed == 0
    golden = {op["label"]: measure.digest(result) for op, result in zip(ops, clean.first)}
    assert measure.timed_phase(ops, work, 0, golden).failed == 0
    label = ops[1]["label"]
    golden[label] = "0" * 64
    phase = measure.timed_phase(ops, work, 0, golden)
    assert (phase.attempted, phase.failed) == (len(ops), 1)
    assert phase.problems == [f"{label}: output differs from its golden digest"]


def test_traced_run_that_differs_from_the_command_is_an_error(tmp_path):
    work = str(tmp_path)
    op = generate("exhaust-small", 1, "smoke", work)["ops"][0]
    result = measure.run_op(op, work)
    measure.trace_op(spans.Tracer(), 0, op, work, result)
    minimum = measure.report_value(result.stdout, "minimum")
    result.stdout = result.stdout.replace(f"minimum {minimum}\n", f"minimum {int(minimum) + 1}\n")
    with pytest.raises(spans.TracedRunMismatch):
        measure.trace_op(spans.Tracer(), 0, op, work, result)


def test_swapped_names_are_restored(tmp_path):
    import tristar.cli
    import tristar.oracle
    before = (tristar.cli.parse_colouring, tristar.oracle._iter_rgs)
    work = str(tmp_path)
    op = generate("certify-1k", 1, "smoke", work)["ops"][0]
    measure.trace_op(spans.Tracer(), 0, op, work, measure.run_op(op, work))
    assert (tristar.cli.parse_colouring, tristar.oracle._iter_rgs) == before


def test_exhaust_throughput_counts_canonical_colourings(tmp_path):
    from tristar.oracle import canonical_count
    work = str(tmp_path)
    for op in generate("exhaust-small", 1, "smoke", work)["ops"]:
        assert measure.work_units(op, measure.run_op(op, work)) == canonical_count(op["n"], op["r"])


def test_same_seed_gives_the_same_inputs(tmp_path):
    def inputs(seed: int, name: str) -> dict:
        work = str(tmp_path / name)
        generate("analyze-mid", seed, "smoke", work)
        return {f: open(os.path.join(work, f), "rb").read()
                for f in sorted(os.listdir(work)) if f.endswith(".txt")}
    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "analyze-mid", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
