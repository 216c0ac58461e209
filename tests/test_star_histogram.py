"""The anneal's star histogram, move by move, against stars chased by definition.

Every monochromatic path and centre edge is listed from `colour_of` alone,
with its order counted vertex by vertex.  For each move of edge {i, j} from
old to new the test checks the rule `StarHistogram.move` relies on: the
stars on the edge itself are exactly the ones that disappear from old and
appear in new, and every other star that changes shifts by exactly one,
down in old and up in new, and is one the rule names.  It then checks each
kernel's orders against those stars and the histogram against a recount.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristar.colouring import EdgeColouring, colour_masks, edge_count, edge_index
from tristar.explorer import _CENTRE_ORDERS, StarHistogram
from tristar.stars import SINGLE_EDGE

KINDS = ("double", "triple")


def star_orders(kind: str, colouring: EdgeColouring, c: int) -> dict[tuple[int, ...], int]:
    """Every star of colour c, keyed by its members, with its order.

    A double star is keyed (x, y), x < y, by its centre edge; a triple star
    (u, x, w), u < w, by its path with middle x.  The order counts the
    members and every vertex joined to a member in colour c.
    """
    n, colour_of = colouring.n, colouring.colour_of

    def order(members):
        return sum(1 for v in range(n)
                   if v in members or any(colour_of(v, x) == c for x in members))

    stars = {}
    for x in range(n):
        ends = [y for y in range(n) if y != x and colour_of(x, y) == c]
        if kind == "double":
            stars.update(((x, y), order((x, y))) for y in ends if y > x)
        else:
            stars.update(((u, x, w), order((u, x, w))) for u in ends for w in ends if u < w)
    return stars


def on_the_edge(star: tuple[int, ...], i: int, j: int) -> bool:
    """Whether {i, j} is one of the star's own edges."""
    if len(star) == 2:
        return set(star) == {i, j}
    u, x, w = star
    return {u, x} == {i, j} or {x, w} == {i, j}


def shifts_by_the_rule(star: tuple[int, ...], i: int, j: int,
                       colouring: EdgeColouring, c: int) -> bool:
    """Whether a star off the edge holds i (or j) and no other member meets j (or i)."""
    for t, s in ((i, j), (j, i)):
        if t in star:
            return all(v != s and colouring.colour_of(v, s) != c for v in star if v != t)
    return False


def recount(kind: str, colouring: EdgeColouring) -> list[int]:
    """The histogram by definition: every star's order, plus the single-edge entry."""
    count = [0] * (colouring.n + 1)
    count[SINGLE_EDGE] += 1
    for c in range(1, colouring.m + 1):
        for order in star_orders(kind, colouring, c).values():
            count[order] += 1
    return count


def recoloured(colouring: EdgeColouring, i: int, j: int, new: int) -> EdgeColouring:
    colours = list(colouring.colours)
    colours[edge_index(colouring.n, i, j)] = new
    return EdgeColouring(colouring.n, colouring.m, tuple(colours))


def check_move(kind: str, stars: StarHistogram, before: EdgeColouring,
               i: int, j: int, new: int) -> EdgeColouring:
    """Move {i, j} to new through the histogram, checking the rule, the kernels and the count."""
    n, r = before.n, before.m
    old = before.colour_of(i, j)
    after = recoloured(before, i, j, new)
    masks_before = colour_masks(n, r, before.colours)
    masks_after = colour_masks(n, r, after.colours)
    _, shifting, edge = _CENTRE_ORDERS[kind]
    for c, step in ((old, -1), (new, +1)):
        was, now = star_orders(kind, before, c), star_orders(kind, after, c)
        edge_stars = {s for s in was.keys() | now.keys() if on_the_edge(s, i, j)}
        gone, come = was.keys() - now.keys(), now.keys() - was.keys()
        assert (gone, come) == ((edge_stars, set()) if step < 0 else (set(), edge_stars))
        kept = was.keys() & now.keys()
        shifted = {s for s in kept if now[s] != was[s]}
        assert all(now[s] - was[s] == step for s in shifted)
        assert shifted == {s for s in kept if shifts_by_the_rule(s, i, j, before, c)}
        # the kernels score exactly these stars: shifting ones before the flip,
        # edge stars where the edge is present
        assert sorted(shifting(masks_before[c], i, j)) == sorted(was[s] for s in shifted)
        if step < 0:
            assert sorted(edge(masks_before[c], i, j)) == sorted(was[s] for s in edge_stars)
        else:
            assert sorted(edge(masks_after[c], i, j)) == sorted(now[s] for s in edge_stars)
    top = stars.move(i, j, old, new)
    expected = recount(kind, after)
    assert stars.count == expected
    assert top == stars.top == max(o for o, k in enumerate(expected) if k)
    assert stars.masks == masks_after
    return after


def check_undo(kind: str, stars: StarHistogram, before: EdgeColouring) -> None:
    stars.undo()
    expected = recount(kind, before)
    assert stars.count == expected
    assert stars.top == max(o for o, k in enumerate(expected) if k)
    assert stars.masks == colour_masks(before.n, before.m, before.colours)


def fresh(kind: str, colouring: EdgeColouring) -> StarHistogram:
    stars = StarHistogram(kind, colour_masks(colouring.n, colouring.m, colouring.colours),
                          colouring.n, colouring.m)
    assert stars.count == recount(kind, colouring)
    return stars


def random_move(rnd: random.Random, colouring: EdgeColouring) -> tuple[int, int, int]:
    i, j = sorted(rnd.sample(range(colouring.n), 2))
    old = colouring.colour_of(i, j)
    return i, j, rnd.choice([c for c in range(1, colouring.m + 1) if c != old])


def starts(rnd: random.Random):
    """Small colourings, K_2 and K_3 among them; some leave the top colour empty."""
    for n in (2, 3, 4, 5, 7, 9):
        for r in (2, 3, 4):
            yield EdgeColouring(n, r, tuple(rnd.randint(1, r) for _ in range(edge_count(n))))
            # colour r unused, so the first moves into it start from an empty class
            yield EdgeColouring(n, r, tuple(rnd.randint(1, r - 1) for _ in range(edge_count(n))))


@pytest.mark.parametrize("kind", KINDS)
def test_each_move_shifts_stars_by_one_and_moves_the_edge_stars(kind):
    rnd = random.Random("shift-" + kind)
    into_empty = 0
    for colouring in starts(rnd):
        n, r = colouring.n, colouring.m
        stars = fresh(kind, colouring)
        for step in range(13):
            # the edge between the two extreme vertices first, then random edges
            if step == 0:
                i, j, new = 0, n - 1, r if colouring.colour_of(0, n - 1) != r else 1
            else:
                i, j, new = random_move(rnd, colouring)
            into_empty += r not in colouring.colours and new == r
            after = check_move(kind, stars, colouring, i, j, new)
            if rnd.random() < 0.5:
                colouring = after
            else:
                check_undo(kind, stars, colouring)
    assert into_empty  # some moves recoloured an edge into a colour with no edges


@pytest.mark.parametrize("kind", KINDS)
def test_a_long_chain_of_accepted_moves_keeps_the_exact_histogram(kind):
    rnd = random.Random("chain-" + kind)
    colouring = EdgeColouring(8, 3, tuple(rnd.randint(1, 3) for _ in range(edge_count(8))))
    stars = fresh(kind, colouring)
    for _ in range(220):
        colouring = check_move(kind, stars, colouring, *random_move(rnd, colouring))
    assert stars.count == fresh(kind, colouring).count


@st.composite
def colourings_and_moves(draw):
    n = draw(st.integers(2, 8))
    r = draw(st.integers(2, 4))
    colours = draw(st.lists(st.integers(1, r), min_size=edge_count(n), max_size=edge_count(n)))
    vertex = st.integers(0, n - 1)
    moves = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, r), st.booleans()),
                          max_size=12))
    return EdgeColouring(n, r, tuple(colours)), moves


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=colourings_and_moves())
def test_moves_agree_with_the_definition_on_any_colouring(kind, case):
    colouring, moves = case
    stars = fresh(kind, colouring)
    for i, j, new, keep in moves:
        if i == j or new == colouring.colour_of(i, j):
            continue
        after = check_move(kind, stars, colouring, i, j, new)
        if keep:
            colouring = after
        else:
            check_undo(kind, stars, colouring)
