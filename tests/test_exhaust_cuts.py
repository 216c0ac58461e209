"""The exhaustive scan's monotone prefix cuts.

A prefix whose partial colouring already reaches the scan's stop settles
its whole subtree: its colourings are counted in closed form, or only
proved under --prove.  Every report must equal the one the walk with no
cuts gives, with each colouring valued by a full scan.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tristar.oracle as oracle_module
from tristar.cli import main
from tristar.colouring import EdgeColouring, edge_count, proven_floor
from tristar.errors import BudgetExceededError, TheoremViolation
from tristar.oracle import (ExhaustReport, _completion_counts, _scan_chunk, _value_fn, _walk,
                            _walk_masks, brute_max_double_star, brute_max_triple_star,
                            canonical_count, exhaustive_theorem_check)
from tristar.prover import prove_global, verify_certificate

MODES = ("triple", "double", "component")
SRC = Path(__file__).resolve().parent.parent / "src"


def uncut_report(n: int, r: int, mode: str, prove: bool, prefix: tuple[int, ...] = (),
                 budget: int | None = None) -> ExhaustReport:
    """The report on the colourings extending `prefix`, the first `budget` of
    them at most, from the walk with no cuts and a full scan of each."""
    floor = proven_floor(n, r, mode)
    threshold = math.ceil(floor) if floor is not None else None
    value_of = _value_fn(mode)
    top = min(r, edge_count(n))
    checked = proved = 0
    best, witness, bad_ones = n + 1, (), []
    complete = True
    for a, masks in _walk_masks(n, r, prefix):
        if checked == budget:
            complete = False
            break
        checked += 1
        value = value_of(masks, n, top, n + 1)
        bad = threshold is not None and value < threshold
        if prove:
            colouring = EdgeColouring(n, r, tuple(a))
            try:
                ok = verify_certificate(colouring, prove_global(colouring, r)).ok
            except TheoremViolation:
                ok = False
            proved += ok
            bad = bad or not ok
        if value < best:
            best, witness = value, tuple(a)
        if bad:
            bad_ones.append(tuple(a))
    return ExhaustReport(n, r, mode, checked, best, EdgeColouring(n, r, witness), floor,
                         threshold, len(bad_ones),
                         tuple(EdgeColouring(n, r, s) for s in bad_ones[:5]), proved, complete)


def cut_report(n: int, r: int, mode: str, prove: bool, prefix: tuple[int, ...] = (),
               budget: int | None = None,
               every: int = 7) -> tuple[ExhaustReport, list[int], list[int]]:
    """The chunk scan's report, partial when the budget runs out, its progress
    ticks, and the colourings under each step of its walk: 1 for a full
    string, the closed-form count for a settled prefix."""
    ticks: list[int] = []
    steps: list[int] = []
    length = edge_count(n)
    exact = _completion_counts(r, None)

    def recorded(*args):
        for a, masks, depth, used in _walk(*args):
            steps.append(exact(length - depth, used))
            yield a, masks, depth, used

    with patch.object(oracle_module, "_walk", recorded):
        try:
            report = _scan_chunk(n, r, mode, prove, proven_floor(n, r, mode), budget,
                                 ticks.append, every, prefix)
        except BudgetExceededError as err:
            assert err.processed == budget
            report = err.partial
    return report, ticks, steps


def expected_ticks(steps: list[int], prove: bool, budget: int | None, every: int) -> list[int]:
    """One tick per count, at the last multiple of `every` it passes; --prove
    counts a settled subtree one colouring at a time, and a count the budget
    cuts short stops the scan."""
    counts = [1] * sum(steps) if prove else steps
    ticks, done = [], 0
    for size in counts:
        room = size if budget is None else min(size, budget - done)
        if (done + room) // every > done // every:
            ticks.append((done + room) // every * every)
        done += room
        if room < size:
            break
    return ticks


def assert_cuts_agree(n, r, mode, prove, prefix=(), budget=None, every=7):
    want = uncut_report(n, r, mode, prove, prefix, budget)
    got, ticks, steps = cut_report(n, r, mode, prove, prefix, budget, every)
    assert got == want
    assert ticks == expected_ticks(steps, prove, budget, every)
    if prove or len(steps) == want.colourings_checked:  # leaf by leaf: every multiple
        assert ticks == list(range(every, want.colourings_checked + 1, every))


# every space the walk with no cuts covers in a few seconds; --prove where
# r >= 3 and proving every colouring stays cheap
SPACES = [(n, r) for n in range(2, 6) for r in range(2, 6)] + [(6, 2)]


@pytest.mark.parametrize("n, r", SPACES, ids=[f"k{n}-r{r}" for n, r in SPACES])
def test_cut_scans_match_the_uncut_walk(n, r):
    for mode in MODES:
        assert_cuts_agree(n, r, mode, prove=False)
        if r >= 3 and canonical_count(n, r) <= 10000:
            assert_cuts_agree(n, r, mode, prove=True)


# sha256 of `exhaust --n 6 --r 3` stdout in each mode, recorded from the scan
# that valued every colouring before the cuts: the K_6 r = 3 reports, too
# slow to redo with no cuts in this suite, must not move
K6_R3_UNCUT = {
    "triple": "e9724b235671ce5e42915eb88459f729e75a2c67618bc9afa31ed11f363695df",
    "double": "c8e764adeeaa4bc5e7b36ec8f57888e7800a92a0c0c66970bf3a41a317b1b194",
    "component": "00d7e64b9038eb1be55148c9729fff79848ac928be3dcb23ffe34289580f6347",
}


@pytest.mark.parametrize("mode", MODES)
def test_k6_r3_reports_match_the_uncut_scan(capsys, mode):
    assert main(["exhaust", "--n", "6", "--r", "3", "--mode", mode]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == K6_R3_UNCUT[mode]


@st.composite
def chunks(draw):
    """A restricted-growth prefix of K_6 or K_7 with r = 3 that leaves at most
    9 labels free, so the walk with no cuts stays small, and a scan setting."""
    n = draw(st.sampled_from((6, 7)))
    length = edge_count(n)
    depth = draw(st.integers(length - 9, length))
    prefix, top = [], 0
    for v in draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth)):
        prefix.append(min(v, top + 1))
        top = max(top, prefix[-1])
    budget = draw(st.none() | st.integers(1, 3 ** (length - depth) + 1))
    return (n, tuple(prefix), draw(st.sampled_from(MODES)), draw(st.booleans()), budget,
            draw(st.integers(1, 50)))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=chunks())
def test_cut_chunks_match_the_uncut_walk_on_any_prefix(case):
    n, prefix, mode, prove, budget, every = case
    assert_cuts_agree(n, 3, mode, prove, prefix, budget, every)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(space=st.sampled_from([(n, r) for n, r in SPACES + [(6, 1), (5, 1)] if r <= 4]),
       seed=st.integers(0, 2 ** 32), rate=st.floats(0.0, 1.0))
def test_leaves_and_settled_subtrees_cover_every_colouring(space, seed, rate):
    # Settle prefixes at random: every settled prefix stands for exactly the
    # strings extending it, as the walk with no cuts lists them, and the
    # leaves plus the closed-form counts are all canonical colourings.
    n, r = space
    rnd = random.Random(seed)
    length = edge_count(n)
    exact = _completion_counts(r, None)
    total = 0
    for a, masks, depth, used in _walk(n, r, (), lambda masks: rnd.random() < rate):
        assert used == max(a[:depth]) and not any(a[depth:])
        if depth == length:
            total += 1
            continue
        if r ** (length - depth) <= 3000:
            assert exact(length - depth, used) == sum(1 for _ in _walk_masks(n, r, tuple(a[:depth])))
        total += exact(length - depth, used)
    assert total == canonical_count(n, r)


def test_completion_counts_stop_at_the_cap():
    exact = _completion_counts(4, None)
    for cap in (1, 2, 5, 100, 10 ** 6):
        capped = _completion_counts(4, cap)
        for rem in range(40):
            for t in range(5):
                assert capped(rem, t) == min(exact(rem, t), cap)
    assert [exact(0, t) for t in range(5)] == [1] * 5


# New exact results: the minimum of each mode's maximum over every canonical
# colouring, all at the proven floor's ceiling (n/(r-1) for r = 3, whose
# threshold the r = 4 results also meet), with zero violations
NEW_RESULTS = [(7, 3, 4), (8, 3, 4), (9, 3, 5), (7, 4, 3)]


@pytest.mark.parametrize("n, r, minimum", NEW_RESULTS,
                         ids=[f"k{n}-r{r}" for n, r, _ in NEW_RESULTS])
def test_exhaust_reaches_k9(n, r, minimum):
    for mode in MODES:
        report = exhaustive_theorem_check(n, r, mode=mode)
        assert report.complete and report.ok
        assert report.colourings_checked == canonical_count(n, r)
        assert report.minimum == minimum == report.threshold
        brute = {"triple": brute_max_triple_star, "double": brute_max_double_star}.get(mode)
        if brute is not None:
            assert brute(report.witness).order == minimum


K7_R3_TRIPLE = "66c3c1bd02c42cc4649939b9160a47fd930b4b0190f1c1c06dce24be769c92ce"


def test_exhaust_k7_golden_output(capsys):
    assert main(["exhaust", "--n", "7", "--r", "3", "--mode", "triple"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == K7_R3_TRIPLE
    # one tick per step of the walk that passes a multiple of 200000
    # colourings, at the last multiple it passes
    done = [int(line.split()[1]) for line in err.splitlines()]
    assert len(done) == 307
    assert done == sorted(set(done)) and all(d % 200000 == 0 for d in done)
    assert done[-1] == canonical_count(7, 3) // 200000 * 200000


@pytest.mark.parametrize("mode", MODES)
def test_single_threaded_k8_exhaust_prints_few_progress_lines(capsys, mode):
    # a settled subtree covers up to 10^11 colourings here; one line per
    # 200000 of them would be 1.9 * 10^7 lines (3128 in the triple and
    # component modes and 7818 in the double mode at one line per step)
    assert main(["exhaust", "--n", "8", "--r", "3", "--mode", mode]) == 0
    out, err = capsys.readouterr()
    assert f"colourings_checked {canonical_count(8, 3)}\n" in out
    assert len(err.splitlines()) <= 10000


# A child that runs one CLI command and reports its exit code, the sha256 of
# its stdout, its peak RSS and its CPU time; the child's own rusage holds
# nothing but that one command.
RUN_ONE = """
import hashlib, json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "tristar", *sys.argv[1:]], capture_output=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": proc.returncode, "sha": hashlib.sha256(proc.stdout).hexdigest(),
                  "rss_mib": usage.ru_maxrss / 1024, "cpu_s": usage.ru_utime + usage.ru_stime}))
"""

# stdout digests and CPU seconds of `exhaust --n 2000 --r 3 --budget 5`
# before the walk stopped holding one pair of big-int bit masks per edge,
# which peaked at 974 MiB (2 cores, Python 3.11.7)
BIG_BUDGET_RUNS = {
    "triple": ("2cae4e3688a5e8a496cddf7174f72790690cfe203cbfd895b100112a9ad6b7ff", 7.04),
    "double": ("3237716ac8219b71077a0092d19e34c90ef53618abc44447e3bc50283557f00e", 2.38),
    "component": ("7749c9412e442f087209ef3b55a16dd4f7d5459a633780a9d278c90631c5974e", 2.26),
}


@pytest.mark.parametrize("mode", MODES)
def test_exhaust_at_the_largest_n_stays_small(mode):
    digest, cpu_s = BIG_BUDGET_RUNS[mode]
    argv = ["exhaust", "--n", "2000", "--r", "3", "--mode", mode, "--budget", "5"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", RUN_ONE, *argv], capture_output=True, text=True,
                          env=env, check=True)
    run = json.loads(proc.stdout)
    assert run["code"] == 1
    assert run["sha"] == digest
    assert run["rss_mib"] < 200
    assert run["cpu_s"] < cpu_s
