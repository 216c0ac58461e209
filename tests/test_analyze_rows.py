"""The triple rows of `analyze` when no triple star exists and when the scan is skipped.

A colouring with no monochromatic two-edge path reports `none` and is
compared at the single-edge value 2; a report built without the triple
scan reports `skipped`, with no observed value.  Each output is pinned by
its sha256.
"""
from __future__ import annotations

import hashlib
import io
import json

from tristar.cli import build_analysis, main
from tristar.generators import random_colouring

K4_PROPER = "4 3\n1 2 3\n3 2\n1\n"  # each colour a perfect matching

SHA = {
    ("k4", "text"): "376932d583bfbd68c7f99004a68dc798a0dc63d2427d03de1fdcb0e6064a997a",
    ("k4", "json"): "fb8b9734c37dda638a6c6ff08c2bee202c935764e5b3a4c01594b917100a8ba3",
    ("skipped", "text"): "531884849e65a744aaca431f5b4de9fadbfaeb35396b742ba12a53d18146ac83",
    ("skipped", "json"): "6f07c428f2d514ecf9406bb57e3950f2edf2bb396918c4bdcf2d160fe9d7de53",
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def analyze(capsys, monkeypatch, *flags: str) -> str:
    monkeypatch.setattr("sys.stdin", io.StringIO(K4_PROPER))
    assert main(["analyze", "-", *flags]) == 0
    return capsys.readouterr().out


def test_a_colouring_without_two_edge_paths_has_no_triple_star(capsys, monkeypatch):
    text = analyze(capsys, monkeypatch)
    assert "max triple star: none\n" in text
    assert "  triple-star >= 2: observed 2, met\n" in text
    assert sha(text) == SHA["k4", "text"]
    out = analyze(capsys, monkeypatch, "--json")
    assert '"max_triple_star":null' in out
    assert json.loads(out)["max_triple_star"] is None
    assert sha(out) == SHA["k4", "json"]


def test_a_skipped_triple_scan_leaves_the_triple_rows_unobserved():
    report = build_analysis(random_colouring(12, 2, 1), include_triple=False)
    text = report.to_text()
    assert "max triple star: skipped\n" in text
    assert "  triple-star >= 21/2: observed -, skipped\n" in text
    assert sha(text) == SHA["skipped", "text"]
    out = report.to_json()
    assert '"max_triple_star":"skipped"' in out
    row = json.loads(out)["bounds"]["global"]["entries"][-1]
    assert (row["name"], row["observed"], row["status"]) == ("triple-star", None, "skipped")
    assert sha(out) == SHA["skipped", "json"]
