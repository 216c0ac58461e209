"""The paths a theorem violation takes, from the exhaustive check and the search to the CLI.

No proven floor is broken by a real colouring, so each test claims a floor
too high to hold: Q(n) for the exhaustive check, 99 for the search.  The
counts, samples and exit codes that follow are what a real violation would
produce.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest

import tristar.explorer as explorer_module
import tristar.oracle as oracle_module
from tristar.cli import main
from tristar.colouring import EdgeColouring, edge_count, parse_colouring
from tristar.oracle import ExhaustReport, _value_fn, _walk_masks, exhaustive_theorem_check

Q = Fraction

# (n, r, mode): how many canonical colourings fall below a claimed floor of n
CLAIMED = {(4, 3, "triple"): 27, (5, 2, "double"): 6, (5, 3, "component"): 1515}

# sha256 of `exhaust --n 4 --r 3 --mode triple` under the claimed floor 4
EXHAUST_STDOUT = "c33e0f1bace4d47f1c620205f8d4fc85334079a7855d44392c849249b689986a"


@pytest.fixture
def floor_n(monkeypatch):
    monkeypatch.setattr(oracle_module, "proven_floor", lambda n, r, kind: Q(n))


def uncut_report(n: int, r: int, mode: str, floor: Q) -> ExhaustReport:
    """The report under `floor` from the walk with no cuts: every colouring
    valued in full, those below the threshold counted, the five smallest kept."""
    threshold = math.ceil(floor)
    value_of = _value_fn(mode)
    top = min(r, edge_count(n))
    checked = 0
    best, witness, bad_ones = n + 1, (), []
    for a, masks in _walk_masks(n, r, ()):
        checked += 1
        value = value_of(masks, n, top, n + 1)
        if value < best:
            best, witness = value, tuple(a)
        if value < threshold:
            bad_ones.append(tuple(a))
    return ExhaustReport(n, r, mode, checked, best, EdgeColouring(n, r, witness), floor,
                         threshold, len(bad_ones),
                         tuple(EdgeColouring(n, r, s) for s in bad_ones[:5]), 0, True)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, r, mode", sorted(CLAIMED))
def test_violations_are_counted_and_sampled_as_the_uncut_walk_finds_them(floor_n, n, r, mode,
                                                                         threads):
    report = exhaustive_theorem_check(n, r, mode=mode, threads=threads)
    assert report == uncut_report(n, r, mode, Q(n))
    assert report.violation_count == CLAIMED[n, r, mode]
    assert len(report.violations) == 5
    assert not report.ok
    assert report.complete


def test_prove_counts_the_violations_and_verifies_every_certificate(floor_n):
    report = exhaustive_theorem_check(4, 3, mode="triple", prove=True)
    assert report.violation_count == 27
    assert report.proved == 122 == report.colourings_checked
    assert not report.ok


def test_exhaust_prints_five_violation_samples_and_exits_1(floor_n, capsys):
    assert main(["exhaust", "--n", "4", "--r", "3", "--mode", "triple"]) == 1
    out = capsys.readouterr().out
    assert "violations 27\n" in out
    assert out.count("violation sample:\n") == 5
    assert hashlib.sha256(out.encode()).hexdigest() == EXHAUST_STDOUT


def test_search_below_the_floor_exits_1_with_the_colouring_on_stdout(monkeypatch, capsys):
    monkeypatch.setattr(explorer_module, "proven_floor", lambda n, r, kind: Q(99))
    code = main(["search", "--n", "6", "--r", "3", "--objective", "triple", "--iters", "10",
                 "--seed", "1", "--restarts", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("theorem violation: search found triple objective 6, "
                            "below the proven 99\n")
    colouring = parse_colouring(captured.out)
    assert (colouring.n, colouring.m) == (6, 3)
