"""`exhaust --prove`: each canonical colouring proved on the walk's live masks.

Under prove the walk enters every settled subtree and proves each of its
colourings on the masks it keeps live, with no value scan and no mask
rebuild.  The certificates, the reports and the value scans must be the
ones a fresh colouring and the walk without prove give.
"""
from __future__ import annotations

import hashlib
from unittest.mock import patch

import pytest

import tristar.colouring as colouring_module
import tristar.oracle as oracle_module
from tristar.cli import main
from tristar.colouring import EdgeColouring, edge_count, proven_floor
from tristar.oracle import _iter_rgs, _scan_chunk, canonical_count, exhaustive_theorem_check
from tristar.prover import certificate_to_json, prove_global

MODES = ("triple", "double", "component")
SPACES = [(4, 3), (4, 4), (4, 5), (5, 3)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, r", SPACES, ids=[f"k{n}-r{r}" for n, r in SPACES])
def test_walk_certificates_match_fresh_colourings(n, r, mode):
    # The certificates are serialised only after the scan ends, when the
    # walk's rows hold other colourings: one that kept a row would differ.
    certificates = []
    real = oracle_module.prove_global

    def recorded(colouring, claimed):
        cert = real(colouring, claimed)
        certificates.append(cert)
        return cert

    with patch.object(oracle_module, "prove_global", recorded):
        report = _scan_chunk(n, r, mode, True, proven_floor(n, r, mode), None, None, 1, ())
    assert report.proved == report.colourings_checked == canonical_count(n, r)
    assert report.complete and report.ok
    fresh = [certificate_to_json(prove_global(EdgeColouring(n, r, tuple(a)), r))
             for a in _iter_rgs(edge_count(n), r)]
    assert [certificate_to_json(cert) for cert in certificates] == fresh


# sha256 of `exhaust --prove` stdout, recorded before the proofs read the
# walk's masks: r above C(n, 2), where the walk keeps fewer colours than the
# proofs read, and a two-worker K_5 scan
PROVE_RUNS = {
    ("2", "3", ()): ("1f726b3c044c7bd3d202a0308cd779d4b273bb16149ae79f47bc4b5dd3046d62",
                     "f9a8c55dd9827beb24f1b9f4938d6b127314e503bfabbf4e2c2bcc5264036ceb",
                     "c4d6f9d085faff8d24ada0ae7794d4cdef88190e05fc3b350daccb9d2e3ece01"),
    ("3", "4", ()): ("14c0c281b39b69dc09b88af8fa3034aeebf409a7396ef30afd606e59ca937905",
                     "402de0b8439b16e6b65e4d154ebe65c1372a7f0a74227f8e71b984038bcc48ba",
                     "3468f4fd3374a019e310287438a742bd85f0df43781ba210cc5290d5c215a528"),
    ("4", "7", ()): ("8adb63b58fefc89b393e3de66b9e9fcbc66c2e57825bea8839421833fa2da216",
                     "7c834f227aaa89947dbc4efe4ccb9176c2901ffa5d05fbb0ad14e227953990c7",
                     "742e26b92d1670dc1e85a9c5f277bcbb0ee31619418584416040594aa2f430b0"),
    ("5", "3", ("--threads", "2")): (
        "f79ac3c712c8c7b89ce74ccc10e31da25dfb98289f3723571e594c4fc6b7a216",
        "2d76ef16e6c75125be24cdff84aef28af5cd3eee8a42fb63e8f7618edd01344f",
        "6f84ca8ba405d724a5eeb22f1810f14be7569e48f96d43dd0bb36bf1aff4429d"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, r, extra", list(PROVE_RUNS),
                         ids=["k2-r3", "k3-r4", "k4-r7", "k5-r3-threads"])
def test_prove_output_is_unchanged(capsys, n, r, extra, mode):
    assert main(["exhaust", "--n", n, "--r", r, "--mode", mode, "--prove", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PROVE_RUNS[n, r, extra][MODES.index(mode)]


def value_calls(n: int, r: int, mode: str, prove: bool) -> int:
    """How often a full scan calls the mode's value function."""
    calls = 0
    real = oracle_module._value_fn

    def counting(kind):
        value_of = real(kind)

        def counted(*args):
            nonlocal calls
            calls += 1
            return value_of(*args)
        return counted

    with patch.object(oracle_module, "_value_fn", counting):
        report = exhaustive_theorem_check(n, r, mode, prove=prove)
    assert report.colourings_checked == canonical_count(n, r)
    return calls


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, r", [(4, 3), (5, 3), (5, 4)], ids=["k4-r3", "k5-r3", "k5-r4"])
def test_prove_values_what_the_walk_without_prove_values(n, r, mode):
    # a settled prefix is valued once either way, and nothing inside it is
    calls = value_calls(n, r, mode, False)
    assert value_calls(n, r, mode, True) == calls < canonical_count(n, r)


def test_each_proved_colouring_is_validated_exactly_once(monkeypatch):
    # the walk's records get their validation at construction, one check each
    calls = []
    check = colouring_module._find_violations
    monkeypatch.setattr(colouring_module, "_find_violations",
                        lambda colouring: calls.append(colouring) or check(colouring))
    report = exhaustive_theorem_check(5, 3, prove=True)
    assert report.proved == len(calls) == 9842
