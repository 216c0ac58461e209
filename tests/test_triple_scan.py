"""The triple-star scan's gain bound against scans that skip nothing.

A middle x of colour degree d >= 6 visits its leaf pairs by the gains
g(v) = |N(v) - N(x)| - 1 of its leaves, largest first, and stops once
d + 1 + g(u) + g(w) falls below the best.  Hubs whose leaves all have the
same gain, each leaf with its own outer neighbours, put that bound exactly
at the best, where a bound off by one, a tie taken in the wrong order or a
stop taken at the first pair found instead of the first in scan order would
change the result.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristar.colouring import EdgeColouring, edge_count, edge_index
from tristar.generators import random_colouring
from tristar.oracle import brute_max_triple_star
from tristar.stars import _triple_scan, max_triple_star

EXAMPLES = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def every_path(masks: list[list[int]], n: int, m: int) -> list[tuple[int, tuple[int, ...]]]:
    """(order, (c, u, x, w)) of every path u - x - w, by colour, middle x, then u < w."""
    paths = []
    for c in range(1, m + 1):
        row = masks[c]
        for x in range(n):
            leaves = [v for v in range(n) if row[x] >> v & 1]
            for a, u in enumerate(leaves):
                for w in leaves[a + 1:]:
                    paths.append(((row[u] | row[x] | row[w]).bit_count(), (c, u, x, w)))
    return paths


def plain_scan(paths: list[tuple[int, tuple[int, ...]]],
               stop: int) -> tuple[int, int, int, int, int]:
    """The first path whose order reaches stop, else the largest with the smallest key."""
    for order, key in paths:
        if order >= stop:
            return (order, *key)
    if not paths:
        return (0, 0, 0, 0, 0)
    order, key = min(paths, key=lambda path: (-path[0], path[1]))
    return (order, *key)


def assert_scan_matches_at_every_stop(colouring: EdgeColouring) -> None:
    n, m, masks = colouring.n, colouring.m, colouring.view.masks
    paths = every_path(masks, n, m)
    for stop in range(n + 2):
        assert _triple_scan(masks, n, m, stop) == plain_scan(paths, stop), stop


@st.composite
def hub_colourings(draw, n_max: int = 40) -> EdgeColouring:
    """n in 7..n_max; 1 to 4 colours of weight 0 to 30; up to three planted hubs.

    A hub x gets 6 to 12 leaves in one colour.  Each leaf gets `gain`
    outer neighbours of its own in that colour (one leaf may get one more or
    one fewer), joined to x in another colour, so that every leaf adds the
    same number of vertices to N(x), and many paths through x have exactly
    the order d + 1 + g(u) + g(w) that bounds them, when the rest of the
    colour keeps off them, as it does in a colour of weight 0.
    """
    n = draw(st.integers(7, n_max))
    m = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    weights[-1] += not any(weights)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    colours = rng.choices(range(1, m + 1), weights, k=edge_count(n))

    def paint(u: int, v: int, c: int) -> None:
        colours[edge_index(n, u, v)] = c

    for _ in range(draw(st.integers(0, 3))):
        c = rng.randint(1, m)
        other = c % m + 1  # c itself when m == 1
        d = draw(st.integers(6, 12))
        gain = draw(st.integers(0, 3))
        odd = draw(st.integers(-1, 1))
        if 1 + d + d * gain + 1 > n:
            continue
        x, *rest = rng.sample(range(n), 1 + d + d * gain + 1)
        leaves, outer = rest[:d], rest[d:]
        for v in range(n):
            if v != x:
                paint(x, v, other)
        for k, v in enumerate(leaves):
            paint(x, v, c)
            count = gain + (odd if k == d - 1 else 0)
            for p in outer[k * gain:k * gain + count]:
                paint(v, p, c)
    return EdgeColouring(n, m, tuple(colours))


@EXAMPLES
@given(colouring=hub_colourings())
def test_scan_equals_the_plain_scan_at_every_stop(colouring):
    assert_scan_matches_at_every_stop(colouring)


# n 40-70 at r = 2 and 3: every middle is far above the bound degree and
# reaches far, so only the gain bound skips its pairs.
DENSE = [(40, 2, 0), (48, 3, 1), (55, 2, 2), (60, 3, 3), (64, 3, 4), (70, 2, 5)]


@pytest.mark.parametrize("n, r, seed", DENSE, ids=[f"n{n}-r{r}" for n, r, _ in DENSE])
def test_dense_random_scan_equals_the_plain_scan_at_every_stop(n, r, seed):
    assert_scan_matches_at_every_stop(random_colouring(n, r, seed))


@EXAMPLES
@given(colouring=hub_colourings(n_max=12))
def test_witness_equals_the_brute_force_witness(colouring):
    slow, fast = brute_max_triple_star(colouring), max_triple_star(colouring)
    if slow is None:
        assert fast is None
    else:
        assert (slow.colour, slow.centres, slow.order, slow.vertices) == \
               (fast.colour, fast.centres, fast.order, fast.vertices)
