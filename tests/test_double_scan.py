"""The double-star scan's caps against scans that skip nothing.

`_double_scan` skips a colour, a centre x or a partner y only when an exact
upper bound (the largest component, or a sum of two colour degrees) shows
the centre edge cannot beat the best so far.  Skewed palettes and hubs
whose edges all share one colour put those bounds right at the best, where
a cap off by one would change the witness or the stop decision.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristar.colouring import EdgeColouring, edge_count, edge_index
from tristar.generators import random_colouring
from tristar.oracle import brute_max_double_star
from tristar.stars import _double_scan, max_double_star

EXAMPLES = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def plain_scan(masks: list[list[int]], n: int, m: int, stop: int) -> tuple[int, int, int, int]:
    """Every centre edge by colour, then lexicographically, keeping strict improvements."""
    best = (0, 0, 0, 0)
    for c in range(1, m + 1):
        row = masks[c]
        for x in range(n - 1):
            for y in range(x + 1, n):
                if row[x] >> y & 1:
                    order = (row[x] | row[y]).bit_count()
                    if order > best[0]:
                        best = (order, c, x, y)
                        if order >= stop:
                            return best
    return best


@st.composite
def skewed_colourings(draw) -> EdgeColouring:
    """n in 7..40; colour weights 0 to 30; up to three one-colour hubs.

    Up to four planted double stars follow, each of order size - 1, size or
    size + 1 with no common neighbour of its centres, so that its order is
    its centres' degree sum when the rest of the colour keeps off them, as
    it does in a colour of weight 0.
    """
    n = draw(st.integers(7, 40))
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    weights[-1] += not any(weights)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    colours = rng.choices(range(1, m + 1), weights, k=edge_count(n))

    def paint(u: int, v: int, c: int) -> None:
        colours[edge_index(n, u, v)] = c

    for _ in range(draw(st.integers(0, 3))):
        hub, c = rng.randrange(n), rng.randint(1, m)
        for v in range(n):
            if v != hub:
                paint(hub, v, c)
    size = draw(st.integers(7, n))
    for c, delta in draw(st.lists(st.tuples(st.integers(1, m), st.integers(-1, 1)), max_size=4)):
        x, y, *leaves = rng.sample(range(n), max(2, min(n, size + delta)))
        split = rng.randint(0, len(leaves))
        other = c % m + 1  # c itself when m == 1
        paint(x, y, c)
        for a in leaves[:split]:
            paint(x, a, c)
            paint(y, a, other)
        for b in leaves[split:]:
            paint(y, b, c)
            paint(x, b, other)
    return EdgeColouring(n, m, tuple(colours))


@EXAMPLES
@given(colouring=skewed_colourings())
def test_witness_equals_the_brute_force_witness(colouring):
    assert max_double_star(colouring) == brute_max_double_star(colouring)


@EXAMPLES
@given(colouring=skewed_colourings(), data=st.data())
def test_scan_equals_the_plain_scan_at_any_stop(colouring, data):
    n, m = colouring.n, colouring.m
    stop = data.draw(st.integers(1, n + 1), label="stop")
    masks = colouring.view.masks
    assert _double_scan(masks, n, m, stop) == plain_scan(masks, n, m, stop)


def tight_pair(n: int, split: int) -> EdgeColouring:
    """Colour 1 is a double star on n - 1 vertices, colour 2 one on all n.

    Both are trees: their centres share no neighbour, so each order is its
    centres' degree sum.  Colour 1 has centres 0, 1 and leaves 2..n-2; colour
    2 has centres 2 and n - 1, with `split` leaves on n - 1 (0 and 1 among
    them) and the rest on 2.  Every other edge is colour 3.
    """
    colours = [3] * edge_count(n)

    def paint(u: int, v: int, c: int) -> None:
        colours[edge_index(n, u, v)] = c

    paint(0, 1, 1)
    for v in range(2, n - 1):
        paint(0 if v % 2 else 1, v, 1)
    paint(2, n - 1, 2)
    leaves = [0, 1] + list(range(3, n - 1))
    for v in leaves[:split]:
        paint(n - 1, v, 2)
    for v in leaves[split:]:
        paint(2, v, 2)
    return EdgeColouring(n, 3, tuple(colours))


@pytest.mark.parametrize("n, split", [(8, 2), (8, 3), (12, 2), (12, 5), (12, 9), (20, 4), (20, 17)])
def test_a_tree_one_vertex_above_the_best_is_found(n, split):
    """Colour 2's degree sum is one above the best: each cap must let it through."""
    colouring = tight_pair(n, split)
    masks = colouring.view.masks
    witness = max_double_star(colouring)
    assert (witness.order, witness.colour, witness.centres) == (n, 2, (2, n - 1))
    assert witness == brute_max_double_star(colouring)
    for stop in range(1, n + 2):
        assert _double_scan(masks, n, 3, stop) == plain_scan(masks, n, 3, stop)


# (order, c, x, y) of random_colouring(1000, r, 0), recorded before the
# degree caps: at r >= 4 they skip most centre edges.
GOLDEN_SCANS = [
    (3, (624, 1, 31, 392)),
    (4, (511, 1, 110, 901)),
    (7, (337, 5, 615, 686)),
    (12, (214, 6, 451, 834)),
    (100, (46, 41, 850, 950)),
]


@pytest.mark.parametrize("r, expected", GOLDEN_SCANS, ids=[f"r{r}" for r, _ in GOLDEN_SCANS])
def test_scan_keeps_the_recorded_n1000_witness(r, expected):
    colouring = random_colouring(1000, r, 0)
    assert _double_scan(colouring.view.masks, 1000, r, 1000) == expected
