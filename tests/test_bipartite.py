"""Bipartite double-star floors, the scans that meet them, and the cross graph."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as Q

import pytest

from tristar.bipartite import (BipartiteColouredGraph, build_G2, lemma1_bound,
                               lemma2_bound, max_double_star_bipartite,
                               max_mono_double_star_bipartite, random_bipartite,
                               random_local_bipartite)
from tristar.colouring import EdgeColouring
from tristar.generators import affine_colouring, constant_colouring
from tristar.stars import DoubleStarWitness, max_double_star


# --- construction ------------------------------------------------------------

def test_from_plain_edges_degrees():
    g = BipartiteColouredGraph.from_plain_edges(3, 4, [(0, 0), (0, 1), (2, 3)])
    assert g.edge_total() == 3
    assert g.has_uncoloured()
    assert [g.degree_a(a) for a in range(3)] == [2, 0, 1]
    assert [g.degree_b(b) for b in range(4)] == [1, 1, 0, 1]


def test_from_coloured_edges_and_colour_queries():
    g = BipartiteColouredGraph.from_coloured_edges(
        2, 3, 3, [(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 2, 3)])
    assert not g.has_uncoloured()
    assert g.colour_degree_a(1, 0) == 1
    assert g.colour_degree_b(1, 0) == 2
    assert g.colours_at_a(0) == frozenset({1, 2})
    assert g.colours_at_b(0) == frozenset({1})
    assert g.colours_at_b(1) == frozenset({2})


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        BipartiteColouredGraph.from_plain_edges(0, 3, [])
    with pytest.raises(ValueError, match="outside sides"):
        BipartiteColouredGraph.from_plain_edges(2, 2, [(0, 2)])
    with pytest.raises(ValueError, match="colour out of range"):
        BipartiteColouredGraph.from_coloured_edges(2, 2, 1, [(0, 0, 2)])
    with pytest.raises(ValueError, match="two edges"):
        BipartiteColouredGraph.from_coloured_edges(2, 2, 2, [(0, 0, 1), (0, 0, 2)])


# --- plain floor -------------------------------------------------------------

def test_lemma1_bound_values():
    assert lemma1_bound(3, 3, 9) == Q(6)
    assert lemma1_bound(2, 5, 7) == Q(49, 10)
    assert lemma1_bound(4, 4, 0) == Q(0)
    with pytest.raises(ValueError):
        lemma1_bound(0, 3, 1)
    with pytest.raises(ValueError):
        lemma1_bound(3, 3, -1)


def test_complete_bipartite_meets_lemma1_with_equality():
    for a, b in ((2, 3), (4, 4), (1, 6)):
        g = BipartiteColouredGraph.from_plain_edges(
            a, b, [(i, j) for i in range(a) for j in range(b)])
        centre = max_double_star_bipartite(g)
        assert centre.value == a + b
        assert Q(centre.value) == lemma1_bound(a, b, a * b)


def test_lemma1_holds_on_random_graphs():
    rng = random.Random(808)
    for trial in range(300):
        a = rng.randint(1, 8)
        b = rng.randint(1, 8)
        g = random_bipartite(a, b, 1, 2, seed=trial)
        if g.edge_total() == 0:
            continue
        centre = max_double_star_bipartite(g)
        assert Q(centre.value) >= lemma1_bound(a, b, g.edge_total())
        # exhaustive recount: the scan returns the true maximum of d(a)+d(b)
        best = max(g.degree_a(x) + g.degree_b(y)
                   for x in range(a) for y in range(b)
                   if any((g.layers[c][x] >> y) & 1 for c in range(g.m + 1)))
        assert centre.value == best
        assert g.degree_a(centre.a) + g.degree_b(centre.b) == centre.value


def test_max_double_star_bipartite_refuses_hidden_colours():
    g = BipartiteColouredGraph.from_coloured_edges(2, 2, 2, [(0, 0, 1)])
    with pytest.raises(ValueError, match="carries colours"):
        max_double_star_bipartite(g, ignore_colours=False)
    plain = BipartiteColouredGraph.from_plain_edges(2, 2, [(0, 0)])
    assert max_double_star_bipartite(plain, ignore_colours=False).value == 2


def test_no_edges_raises():
    g = BipartiteColouredGraph.from_plain_edges(2, 2, [])
    with pytest.raises(ValueError, match="no edges"):
        max_double_star_bipartite(g)


# --- coloured floor ----------------------------------------------------------

def test_lemma2_bound_values():
    assert lemma2_bound(7, 7, 2, 3, 21) == Q(5, 2)
    assert lemma2_bound(3, 3, 1, 1, 9) == lemma1_bound(3, 3, 9)
    with pytest.raises(ValueError):
        lemma2_bound(3, 3, 0, 1, 1)


def test_mono_scan_counts_colour_degrees():
    g = BipartiteColouredGraph.from_coloured_edges(
        2, 2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)])
    centre = max_mono_double_star_bipartite(g, 2, 2)
    assert (centre.colour, centre.value) == (1, 4)
    assert (centre.a, centre.b) == (0, 0)


def test_mono_scan_enforces_preconditions():
    plain = BipartiteColouredGraph.from_plain_edges(2, 2, [(0, 0)])
    with pytest.raises(ValueError, match="uncoloured"):
        max_mono_double_star_bipartite(plain, 1, 1)
    g = BipartiteColouredGraph.from_coloured_edges(
        1, 2, 2, [(0, 0, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="colour limit exceeded at A-vertex 0"):
        max_mono_double_star_bipartite(g, 1, 1)
    assert max_mono_double_star_bipartite(g, 2, 1).value == 2


def test_lemma2_holds_on_random_local_graphs():
    rng = random.Random(909)
    for trial in range(200):
        a = rng.randint(1, 7)
        b = rng.randint(1, 7)
        m = rng.randint(2, 5)
        r = rng.randint(1, min(3, m))
        t = rng.randint(1, min(3, m))
        g = random_local_bipartite(a, b, m, r, t, 2, 3, seed=trial)
        if g.edge_total() == 0:
            continue
        centre = max_mono_double_star_bipartite(g, r, t)
        assert Q(centre.value) >= lemma2_bound(a, b, r, t, g.edge_total())
        # palettes respected by construction
        assert all(len(g.colours_at_a(x)) <= r for x in range(a))
        assert all(len(g.colours_at_b(y)) <= t for y in range(b))
        # exhaustive recount of d_c(a)+d_c(b) over coloured edges
        best = 0
        for c in range(1, m + 1):
            for x in range(a):
                row = g.layers[c][x]
                for y in range(b):
                    if (row >> y) & 1:
                        value = g.colour_degree_a(c, x) + g.colour_degree_b(c, y)
                        best = max(best, value)
        assert centre.value == best


# --- the cross graph of a double star ----------------------------------------

def test_build_g2_on_the_affine_extremal_colouring():
    colouring = affine_colouring(2, 2)
    star = max_double_star(colouring)
    g2 = build_G2(colouring, star)
    assert g2.a_labels == star.vertices
    assert len(g2.b_labels) == colouring.n - star.order
    assert set(g2.a_labels) | set(g2.b_labels) == set(range(colouring.n))
    # U here is a whole component of its colour, so nothing leaves it
    assert g2.outward_excluded == (0,) * star.order
    # and every cross pair appears (no cross edge wears the excluded colour)
    assert g2.graph.edge_total() == star.order * (colouring.n - star.order)
    # cross edges keep their colouring colours, never the excluded one
    for i, u in enumerate(g2.a_labels):
        for j, v in enumerate(g2.b_labels):
            expect = colouring.colour_of(u, v)
            got = [c for c in range(g2.graph.m + 1)
                   if (g2.graph.layers[c][i] >> j) & 1]
            if expect == g2.excluded_colour:
                assert got == []
            else:
                assert got == [expect]


def test_build_g2_outward_counts_on_randoms():
    rng = random.Random(123)
    checked = 0
    for trial in range(60):
        n = rng.randint(4, 11)
        m = rng.randint(2, 4)
        colours = tuple(rng.randint(1, m) for _ in range(n * (n - 1) // 2))
        colouring = EdgeColouring(n, m, colours)
        star = max_double_star(colouring)
        if star.order >= n:
            continue
        g2 = build_G2(colouring, star)
        checked += 1
        masks = colouring.view.masks[star.colour]
        for i, u in enumerate(g2.a_labels):
            outward = sum(1 for v in g2.b_labels if (masks[u] >> v) & 1)
            assert g2.outward_excluded[i] == outward
    assert checked > 20


def test_build_g2_validates_the_witness():
    colouring = affine_colouring(2, 2)
    star = max_double_star(colouring)
    wrong_colour = DoubleStarWitness(2, star.centres, star.order, star.vertices)
    with pytest.raises(ValueError, match="not colour 2"):
        build_G2(colouring, wrong_colour)
    trimmed = DoubleStarWitness(star.colour, star.centres, star.order - 1,
                                star.vertices[:-1])
    with pytest.raises(ValueError, match="neighbourhood union"):
        build_G2(colouring, trimmed)
    spanning = max_double_star(constant_colouring(6, 3))
    with pytest.raises(ValueError, match="empty complement"):
        build_G2(constant_colouring(6, 3), spanning)


# --- random generators -------------------------------------------------------

def test_random_bipartite_is_deterministic():
    a = random_bipartite(6, 6, 1, 3, seed=99)
    b = random_bipartite(6, 6, 1, 3, seed=99)
    assert a == b
    assert random_bipartite(6, 6, 1, 3, seed=100) != a


def test_random_local_bipartite_rejects_bad_palettes():
    with pytest.raises(ValueError, match="palette sizes"):
        random_local_bipartite(3, 3, 2, 3, 1, 1, 2, seed=1)


# --- both scans against a brute scan in key order ----------------------------

def brute_plain(g: BipartiteColouredGraph) -> tuple[int, int, int]:
    """(value, a, b): the first edge in (a, b) order with the largest d(a) + d(b)."""
    best = (-1, 0, 0)
    for a in range(g.a_size):
        for b in range(g.b_size):
            if any(layer[a] >> b & 1 for layer in g.layers):
                value = g.degree_a(a) + g.degree_b(b)
                if value > best[0]:
                    best = (value, a, b)
    return best


def brute_mono(g: BipartiteColouredGraph) -> tuple[int, int, int, int]:
    """(value, c, a, b): the first colour-c edge in (c, a, b) order with the largest d_c(a) + d_c(b)."""
    best = (-1, 0, 0, 0)
    for c in range(1, g.m + 1):
        for a in range(g.a_size):
            for b in range(g.b_size):
                if g.layers[c][a] >> b & 1:
                    value = g.colour_degree_a(c, a) + g.colour_degree_b(c, b)
                    if value > best[0]:
                        best = (value, c, a, b)
    return best


def assert_scans_match_brute(g: BipartiteColouredGraph) -> None:
    centre = max_double_star_bipartite(g)
    assert (centre.value, centre.a, centre.b) == brute_plain(g)
    if g.m and not g.has_uncoloured():
        mono = max_mono_double_star_bipartite(g, g.m, g.m)
        assert (mono.value, mono.colour, mono.a, mono.b) == brute_mono(g)


def test_both_scans_match_a_brute_scan_on_random_graphs():
    rng = random.Random(1515)
    for _ in range(400):
        a, b, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        uncoloured = rng.random() < 0.3  # layer 0 edges: only the plain scan runs
        density = rng.random()
        triples = [(x, y, rng.randint(0 if uncoloured else 1, m) if m else 0)
                   for x in range(a) for y in range(b) if rng.random() < density]
        if not triples:
            continue
        assert_scans_match_brute(BipartiteColouredGraph.from_coloured_edges(a, b, m, triples))


def test_both_scans_break_ties_in_key_order():
    # a later colour's edge comes first in (a, b) order: the plain scan takes
    # it, the monochromatic scan takes the first colour
    g = BipartiteColouredGraph.from_coloured_edges(2, 2, 2, [(0, 0, 2), (1, 1, 1)])
    assert_scans_match_brute(g)
    assert (max_double_star_bipartite(g).a, max_double_star_bipartite(g).b) == (0, 0)
    mono = max_mono_double_star_bipartite(g, 2, 2)
    assert (mono.colour, mono.a, mono.b, mono.value) == (1, 1, 1, 2)
    # every edge of K_{3,3} ties; the smallest key wins in both scans
    g = BipartiteColouredGraph.from_coloured_edges(
        3, 3, 3, [(x, y, (x + y) % 3 + 1) for x in range(3) for y in range(3)])
    assert_scans_match_brute(g)
    centre = max_double_star_bipartite(g)
    assert (centre.value, centre.a, centre.b) == (6, 0, 0)
    mono = max_mono_double_star_bipartite(g, 3, 3)
    assert (mono.value, mono.colour, mono.a, mono.b) == (2, 1, 0, 0)
    # two equal stars at a = 0 and a = 1: the edge at the smaller b of a = 0 wins
    g = BipartiteColouredGraph.from_coloured_edges(
        2, 4, 2, [(0, 2, 1), (0, 3, 1), (1, 0, 2), (1, 1, 2)])
    assert_scans_match_brute(g)
    centre = max_double_star_bipartite(g)
    assert (centre.value, centre.a, centre.b) == (3, 0, 2)
    mono = max_mono_double_star_bipartite(g, 2, 2)
    assert (mono.value, mono.colour, mono.a, mono.b) == (3, 1, 0, 2)
    # an uncoloured edge counts towards the plain degrees
    g = BipartiteColouredGraph.from_coloured_edges(2, 2, 1, [(0, 1, 0), (1, 0, 1), (1, 1, 1)])
    assert_scans_match_brute(g)
    centre = max_double_star_bipartite(g)
    assert (centre.value, centre.a, centre.b) == (4, 1, 1)


def test_mono_scan_without_edges_raises():
    g = BipartiteColouredGraph.from_coloured_edges(2, 2, 2, [])
    with pytest.raises(ValueError, match="no edges"):
        max_mono_double_star_bipartite(g, 1, 1)


def test_coloured_edges_past_the_entry_cap_are_refused_before_allocating():
    # 10^5 + 1 colour layers of 1000 rows would take about 800 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="100001 colours in use on 1000 vertices"):
            BipartiteColouredGraph.from_coloured_edges(1000, 1, 10 ** 5, [(0, 0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
