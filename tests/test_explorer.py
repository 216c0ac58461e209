"""Annealing search: objective values, determinism, and floor escalation."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction as Q

import pytest

import tristar.explorer as explorer_module
from tristar.colouring import EdgeColouring, edge_count
from tristar.errors import TheoremViolation
from tristar.explorer import SearchConfig, StarHistogram, anneal, objective
from tristar.generators import affine_colouring, constant_colouring
from tristar.rng import SplitMix64

K4_PROPER = EdgeColouring(4, 3, (1, 2, 3, 3, 2, 1))


def test_objective_hand_values():
    assert objective(constant_colouring(6, 2), "double") == 6
    assert objective(affine_colouring(2, 2), "triple") == 4
    assert objective(K4_PROPER, "triple") == 2
    assert objective(affine_colouring(2, 2), "component") == 4
    with pytest.raises(ValueError, match="unknown objective kind"):
        objective(K4_PROPER, "path")


def test_config_validation():
    SearchConfig(4, 3).check()
    cases = [
        (SearchConfig(1, 3), "n >= 2"),
        (SearchConfig(4, 1), "r >= 2"),
        (SearchConfig(4, 3, objective="clique"), "unknown objective kind"),
        (SearchConfig(4, 3, iterations=0), "iterations >= 1"),
        (SearchConfig(4, 3, restarts=0), "restarts >= 1"),
        (SearchConfig(4, 3, cooling=Q(1)), "strictly between 0 and 1"),
        (SearchConfig(4, 3, cooling=Q(0)), "strictly between 0 and 1"),
        (SearchConfig(4, 3, t_start=Q(0)), "temperature must be positive"),
    ]
    for config, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            config.check()
    # anneal runs the same validation up front
    with pytest.raises(ValueError, match="n >= 2"):
        anneal(SearchConfig(1, 3))


def test_anneal_finds_the_k4_optimum():
    config = SearchConfig(4, 3, objective="triple", iterations=300,
                          restarts=2, seed=5)
    outcome = anneal(config)
    assert outcome.best_objective == 2  # the proper colouring level
    assert outcome.floor == Q(2)
    assert outcome.ratio == Q(2 * 2, 4)
    assert objective(outcome.best_colouring, "triple") == 2


def test_anneal_is_deterministic():
    config = SearchConfig(5, 3, objective="triple", iterations=400,
                          restarts=3, seed=11)
    first = anneal(config)
    second = anneal(config)
    assert first == second
    # a different seed still respects the proven level for (5, 3)
    other = anneal(SearchConfig(5, 3, objective="triple", iterations=400,
                                restarts=3, seed=12))
    assert other.best_objective >= 3


def test_anneal_outcome_invariants():
    config = SearchConfig(6, 3, objective="double", iterations=500,
                          restarts=3, seed=2)
    outcome = anneal(config)
    assert outcome.evaluations == 3 * (500 + 1)
    assert outcome.ratio == Q(outcome.best_objective * 2, 6)
    assert objective(outcome.best_colouring, "double") == outcome.best_objective
    values = [e.objective for e in outcome.log]
    assert values == sorted(values, reverse=True) and len(set(values)) == len(values)
    assert values[-1] == outcome.best_objective
    for event in outcome.log:
        assert 0 <= event.restart < 3 and 0 <= event.iteration <= 500


def test_anneal_component_objective_respects_known_optimum():
    # on 8 vertices with 3 colours the largest component can reach size 4
    # but never less; the search stays at or above that level
    config = SearchConfig(8, 3, objective="component", iterations=2000,
                          restarts=3, seed=7)
    outcome = anneal(config)
    assert outcome.floor == Q(8, 2)
    assert outcome.best_objective >= 4
    assert objective(affine_colouring(2, 2), "component") == 4  # the level is attainable


def test_anneal_escalates_below_a_claimed_floor(monkeypatch):
    # force an absurd floor so the very first recorded value trips the guard
    monkeypatch.setattr(explorer_module, "proven_floor", lambda n, r, kind: Q(99))
    config = SearchConfig(4, 3, objective="triple", iterations=10,
                          restarts=1, seed=1)
    with pytest.raises(TheoremViolation) as err:
        anneal(config)
    assert "below the proven 99" in str(err.value)
    assert err.value.colouring is not None
    assert err.value.colouring.n == 4


def test_anneal_draws_each_restart_seed_when_the_restart_begins(monkeypatch):
    monkeypatch.setattr(explorer_module, "proven_floor", lambda n, r, kind: Q(99))
    generators = []
    master_draws = []

    class CountingSplitMix64(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

        def next64(self):
            if self is generators[0]:
                master_draws.append(self.state)
            return super().next64()

    monkeypatch.setattr(explorer_module, "SplitMix64", CountingSplitMix64)
    config = SearchConfig(4, 3, objective="triple", iterations=10,
                          restarts=1000, seed=1)
    with pytest.raises(TheoremViolation):
        anneal(config)  # restart 0 trips the guard on its initial state
    assert len(master_draws) == 1
    assert len(generators) == 2  # the master and restart 0's generator


# --- seeded output pinned at the full-recompute objective --------------------

GOLDEN = [
    (SearchConfig(16, 3, objective="triple", iterations=1500, restarts=2, seed=2,
                  t_start=Q(1, 4), cooling=Q(99, 100)),
     ((0, 0, 16), (0, 1, 15), (1, 1096, 14)), 3002, 14,
     "d939bce886b61191153b056cc184c315522b00e969143643f78aeccf9550c87c"),
    (SearchConfig(24, 4, objective="double", iterations=300, restarts=3, seed=2,
                  t_start=Q(1, 2), cooling=Q(99, 100)),
     ((0, 0, 18), (0, 205, 17), (1, 11, 16), (2, 254, 15)), 903, 15,
     "1d258676e0e9ed881ab7cabbc65437aa887aac314f7b8ddbc5a4ee91f2d35601"),
]


@pytest.mark.parametrize("config, log, evaluations, best, digest", GOLDEN,
                         ids=["triple-n16-r3", "double-n24-r4"])
def test_anneal_golden_outcome(config, log, evaluations, best, digest):
    outcome = anneal(config)
    assert tuple((e.restart, e.iteration, e.objective) for e in outcome.log) == log
    assert outcome.evaluations == evaluations
    assert outcome.best_objective == best
    assert hashlib.sha256(bytes(outcome.best_colouring.colours)).hexdigest() == digest


# The component objective scores each move by a full recompute and takes it
# back on a rejection; at this temperature most uphill moves are rejected.
GOLDEN_COMPONENT = (
    SearchConfig(12, 6, objective="component", iterations=400, restarts=2, seed=5,
                 t_start=Q(1, 4), cooling=Q(99, 100)),
    ((0, 0, 12), (0, 1, 11), (0, 7, 10), (0, 29, 9)), 802, 9,
    "3e64e3c5f4936a9a66b1f113bde2b1df2b663ce2b3c5f4387c5405b484d98c9e")


def test_anneal_component_golden_outcome():
    config, log, evaluations, best, digest = GOLDEN_COMPONENT
    outcome = anneal(config)
    assert tuple((e.restart, e.iteration, e.objective) for e in outcome.log) == log
    assert outcome.evaluations == evaluations
    assert outcome.best_objective == best
    assert hashlib.sha256(bytes(outcome.best_colouring.colours)).hexdigest() == digest


# --- the incremental objective against the full recompute --------------------

def one_factorisation(n: int) -> list[int]:
    """A proper (n-1)-colouring of K_n, n even: every class a perfect matching."""
    colours = {}
    for t in range(n - 1):
        colours[frozenset((t, n - 1))] = t + 1
        for k in range(1, n // 2):
            colours[frozenset(((t + k) % (n - 1), (t - k) % (n - 1)))] = t + 1
    return [colours[frozenset((i, j))] for i in range(n - 1) for j in range(i + 1, n)]


def histogram_starts(rnd: random.Random):
    """(n, r, colours): matchings only, sparse colours, and plain random."""
    yield 4, 3, list(K4_PROPER.colours)
    yield 6, 5, one_factorisation(6)
    for n, r in ((4, 2), (5, 4), (7, 5), (9, 3), (12, 2), (16, 5), (20, 3), (24, 4)):
        # colour 1 takes most edges; the other colours stay sparse
        weights = [8] + [1] * (r - 1)
        yield n, r, rnd.choices(range(1, r + 1), weights, k=edge_count(n))
        yield n, r, [rnd.randint(1, r) for _ in range(edge_count(n))]


@pytest.mark.parametrize("kind", ["double", "triple"])
def test_star_histogram_matches_a_full_recompute(kind):
    rnd = random.Random(kind)
    value_of = explorer_module._mask_objective(kind)
    clamped = 0
    for n, r, colours in histogram_starts(rnd):
        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
        masks = [[0] * n for _ in range(r + 1)]
        for (i, j), c in zip(pairs, colours):
            masks[c][i] |= 1 << j
            masks[c][j] |= 1 << i
        stars = StarHistogram(kind, masks, n, r)

        def check():
            nonlocal clamped
            assert stars.top == value_of(masks, n, r)
            assert stars.count == StarHistogram(kind, masks, n, r).count
            clamped += kind == "triple" and explorer_module.max_triple_star_order(masks, n, r) == 0

        check()
        for _ in range(40):
            k = rnd.randrange(len(pairs))
            old = colours[k]
            new = rnd.choice([c for c in range(1, r + 1) if c != old])
            stars.move(*pairs[k], old, new)
            check()
            if rnd.random() < 0.5:
                colours[k] = new
            else:
                stars.undo()
                check()
    if kind == "triple":
        assert clamped  # some states had no two-edge path at all


def test_config_caps_the_palette():
    SearchConfig(4, 2000).check()
    for r in (2001, 10**20):
        with pytest.raises(ValueError, match="too large.*at most r = 2000"):
            SearchConfig(4, r).check()
