"""tools/fold_bench.py folds perfbench result records into one BENCH file."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("throughput_per_s", "latency_p50_s", "setup_s", "peak_rss_mib")


def load_tool():
    spec = importlib.util.spec_from_file_location("fold_bench", ROOT / "tools" / "fold_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write_record(directory: Path, workload: str, seed: int, throughput: float,
                 setup: float, source: str = "abc") -> None:
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "size": "full", "attempted": 8, "failed": 0,
        "golden_digests": 8, "setup_s": setup, "setup_rounds_s": [setup, setup * 1.5],
        "end_to_end": {"throughput_per_s": throughput, "latency_p50_s": 1 / throughput,
                       "peak_rss_mib": 24.0},
        "environment": {"python": "3.11.7", "nproc": 2, "commit": "c0ffee",
                        "source_sha256": source, "seed": seed, "workload": workload,
                        "size": "full", "seconds": 20.0},
    }
    path = directory / f"result-{workload}-seed{seed}-full-trace0.json"
    path.write_text(json.dumps(record))


def test_fold_records_medians_iqrs_and_the_baseline_spread(tmp_path):
    for seed, (old, new) in enumerate(((100, 150), (110, 160), (120, 170), (130, 180), (140, 190))):
        write_record(tmp_path / "parent", "exhaust-small", seed, old, 0.2 + seed / 100)
        write_record(tmp_path / "change", "exhaust-small", seed, new, 0.2, source="def")
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--out", str(out), "--benchmark", str(ROOT / "BENCHMARK.json"),
                             f"parent={tmp_path / 'parent'}",
                             f"change={tmp_path / 'change'}"]) == 0
    bench = json.loads(out.read_text())
    assert bench["metrics"] == list(METRICS)
    parent = bench["versions"]["parent"]
    assert parent["environment"]["source_sha256"] == "abc"
    throughput = parent["workloads"]["exhaust-small"]["metrics"]["throughput_per_s"]
    assert throughput["median"] == 120 and throughput["iqr"] == 20
    assert bench["median_ratio_to_baseline"]["change"]["exhaust-small"]["throughput_per_s"] == 170 / 120
    wins = bench["wins_over_baseline_on_shared_seeds"]["change"]["exhaust-small"]
    assert wins["throughput_per_s"] == wins["latency_p50_s"] == {"wins": 5, "pairs": 5}
    assert wins["setup_s"] == {"wins": 4, "pairs": 5}  # seed 0 ties
    spread = bench["baseline_setup_s_spread"]["exhaust-small"]
    assert abs(spread["range_over_median"] - 0.04 / 0.22) < 1e-12
    assert abs(spread["worst_round_range_in_one_run"] - 1.5) < 1e-12


def test_fold_refuses_records_of_different_sources(tmp_path, capsys):
    write_record(tmp_path / "mixed", "exhaust-small", 1, 100, 0.2, source="abc")
    write_record(tmp_path / "mixed", "exhaust-small", 2, 100, 0.2, source="def")
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--out", str(out), "--benchmark", str(ROOT / "BENCHMARK.json"),
                             f"mixed={tmp_path / 'mixed'}"]) == 1
    assert "source_sha256" in capsys.readouterr().err
    assert not out.exists()
