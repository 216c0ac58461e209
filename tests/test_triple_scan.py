"""The triple-star scan's gain bound and degree caps against scans that skip nothing.

A middle x of colour degree d >= 6 visits its leaf pairs by the gains
g(v) = |N(v) - N(x)| - 1 of its leaves, largest first, and stops once
d + 1 + g(u) + g(w) falls below the best.  Hubs whose leaves all have the
same gain, each leaf with its own outer neighbours, put that bound exactly
at the best, where a bound off by one or a tie taken in the wrong order
would change the result.  Below a stop order the scan's result is exact; at
or above it the scan may return any path of order >= stop, so the check
there is that every_path lists the path returned, with the order returned.

As g(v) <= d(v) - 1, the scan also skips a middle whose d + D1 + D2 - 1
(D1 >= D2 the colour's two largest degrees) is below the best, and keeps
only the leaves with d(v) >= best - d - D1 + 1.  Sparse random colourings
and skewed palettes make both caps fire; paths whose order meets them
exactly check that neither is off by one.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tristar import stars
from tristar.colouring import EdgeColouring, edge_count, edge_index
from tristar.generators import affine_colouring, projective_local_colouring, random_colouring
from tristar.oracle import brute_max_triple_star
from tristar.stars import _BOUND_DEGREE, _triple_scan, max_triple_star

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


def plain_scan(paths: list[tuple[int, tuple[int, ...]]]) -> tuple[int, int, int, int, int]:
    """The largest order with the smallest key (c, u, x, w); all zeros without a path."""
    order, key = min(paths, key=lambda path: (-path[0], path[1]), default=(0, (0, 0, 0, 0)))
    return (order, *key)


def assert_scan_matches_at_every_stop(colouring: EdgeColouring) -> None:
    """Above the maximum the plain scan's 5-tuple; at or below it some path reaching stop."""
    n, m, masks = colouring.n, colouring.m, colouring.view.masks
    paths = every_path(masks, n, m)
    orders = {key: order for order, key in paths}
    top = max(orders.values(), default=0)
    for stop in range(n + 2):
        got = _triple_scan(masks, n, m, stop)
        if stop > top or not paths:
            assert got == plain_scan(paths), stop
        else:
            assert stop <= got[0] <= top and orders.get(got[1:]) == got[0], (stop, got)


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


# Colour 2 reaches order 13 below the bound degree, at middle 2.  Its first
# bounded middle, 9, has the colour's largest degree D1 = 6 and ties that best,
# with a smaller key, through leaf 1 of degree 2 = best - 2 * D1 + 1: exactly
# the leaf floor.  A floor one higher drops leaf 1, and centres (2, 13, 9) win
# in place of (1, 9, 13).
# The labels are one digit each, row by row of the upper triangle.
LEAF_FLOOR_TIE = EdgeColouring(14, 6, tuple(map(int, "4662665164632 155421521556 66626552222 "
                                                   "5631622225 122625365 35655132 6214261 "
                                                   "241212 11655 2522 625 62 5".replace(" ", ""))))


@EXAMPLES
@given(colouring=hub_colourings(n_max=12))
@example(colouring=LEAF_FLOOR_TIE)
def test_witness_equals_the_brute_force_witness(colouring):
    slow, fast = brute_max_triple_star(colouring), max_triple_star(colouring)
    if slow is None:
        assert fast is None
    else:
        assert (slow.colour, slow.centres, slow.order, slow.vertices) == \
               (fast.colour, fast.centres, fast.order, fast.vertices)


# r = 8-12 at n = 60-100: colour degrees near n/r put d + D1 + D2 - 1 below
# the best for many middles, and the leaf floor drops leaves from most of
# the rest.
SPARSE = [(60, 8, 0), (70, 9, 1), (80, 10, 2), (90, 11, 3), (100, 12, 4)]


@pytest.mark.parametrize("n, r, seed", SPARSE, ids=[f"n{n}-r{r}" for n, r, _ in SPARSE])
def test_sparse_random_scan_equals_the_plain_scan_at_every_stop(n, r, seed):
    assert_scan_matches_at_every_stop(random_colouring(n, r, seed))


@st.composite
def skewed_colourings(draw) -> EdgeColouring:
    """n in 20..48 with 2 to 12 colours of weights 1 to 1024: degrees that differ by colour."""
    n = draw(st.integers(20, 48))
    m = draw(st.integers(2, 12))
    weights = [2 ** k for k in draw(st.lists(st.integers(0, 10), min_size=m, max_size=m))]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return EdgeColouring(n, m, tuple(rng.choices(range(1, m + 1), weights, k=edge_count(n))))


@EXAMPLES
@given(colouring=skewed_colourings())
def test_skewed_palette_scan_equals_the_plain_scan_at_every_stop(colouring):
    assert_scan_matches_at_every_stop(colouring)


def relabelled(colouring: EdgeColouring, seed: int) -> EdgeColouring:
    """The colouring with its vertices and its colours shuffled."""
    rng = random.Random(seed)
    n, m = colouring.n, colouring.m
    place = list(range(n))
    hue = list(range(1, m + 1))
    rng.shuffle(place)
    rng.shuffle(hue)
    colours = [0] * edge_count(n)
    for i in range(n - 1):
        for j in range(i + 1, n):
            colours[edge_index(n, place[i], place[j])] = hue[colouring.colour_of(i, j) - 1]
    return EdgeColouring(n, m, tuple(colours))


PLANES = [(affine_colouring, 3, 3), (affine_colouring, 5, 2), (projective_local_colouring, 2, 3),
          (projective_local_colouring, 3, 2), (projective_local_colouring, 5, 1)]


@pytest.mark.parametrize("plane, q, mult", PLANES,
                         ids=[f"{plane.__name__.split('_')[0]}-q{q}-x{mult}"
                              for plane, q, mult in PLANES])
def test_relabelled_plane_scan_equals_the_plain_scan_at_every_stop(plane, q, mult):
    assert_scan_matches_at_every_stop(relabelled(plane(q, mult), q * 10 + mult))


@st.composite
def tight_colourings(draw) -> EdgeColouring:
    """Paths u - x - w of order exactly d + d(u) + d(w) - 1, in colours 1 and 2.

    In each of the two colours, a middle x of degree d >= 6 has two leaves
    u and w with the colour's two largest degrees, d(u), d(w) >= d, and
    neighbourhoods of their own; the other leaves and outer neighbours have
    degree 1.  Colour 1's path has order T - 1 and colour 2's order T, so
    colour 2's middle is met with the best at T - 1 and reaches it only
    through a cap that is exact; colour 3 takes every other edge.
    """
    d = draw(st.integers(_BOUND_DEGREE, 8))
    a = draw(st.integers(d, d + 3))
    b = draw(st.integers(d + 1, d + 3))
    spare = draw(st.integers(0, 6))
    sizes = [(d, a, b - 1), (d, a, b)]
    n = sum(d + a + b - 1 for d, a, b in sizes) + spare
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    colours = [3] * edge_count(n)
    free = rng.sample(range(n), n)
    for c, (d, a, b) in enumerate(sizes, 1):
        x, *rest = free[:d + a + b - 1]
        del free[:d + a + b - 1]
        leaves, outer = rest[:d], rest[d:]
        for v in leaves:
            colours[edge_index(n, x, v)] = c
        u, w = rng.sample(leaves, 2)
        for v, p in zip([u] * (a - 1) + [w] * (b - 1), outer):
            colours[edge_index(n, v, p)] = c
    return EdgeColouring(n, 3, tuple(colours))


@EXAMPLES
@given(colouring=tight_colourings())
def test_tight_caps_scan_equals_the_plain_scan_at_every_stop(colouring):
    assert_scan_matches_at_every_stop(colouring)


def test_degree_caps_skip_middles_and_leaves(monkeypatch):
    # the scan lists the leaves of a bounded middle through iter_bits, and
    # only of a middle that the degree caps do not skip: fewer listings than
    # bounded middles show the middle skip, and a listed mask that is no
    # neighbourhood shows the leaf floor
    colouring = random_colouring(100, 12, 4)
    n, m, masks = colouring.n, colouring.m, colouring.view.masks
    listed = []
    real = stars.iter_bits

    def listing(mask):
        listed.append(mask)
        return real(mask)

    monkeypatch.setattr(stars, "iter_bits", listing)
    assert _triple_scan(masks, n, m, n + 1) == plain_scan(every_path(masks, n, m))
    bounded = [masks[c][x] for c in range(1, m + 1) for x in range(n)
               if masks[c][x].bit_count() >= _BOUND_DEGREE]
    assert 0 < len(listed) < len(bounded) // 2
    assert set(listed) - set(bounded)
