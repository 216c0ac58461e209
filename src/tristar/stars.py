"""Exact maximum monochromatic stars, double stars and triple stars.

A double star is two stars whose centres x, y are joined by an edge of the
same colour; its vertex set is N_c(x) | N_c(y) (centres included, since each
centre is a neighbour of the other).  A triple star hangs a third star off a
two-edge path u - x - w, with vertex set N_c(u) | N_c(x) | N_c(w).

Orders count the neighbourhood union, not degree sums: in a complete-graph
colour class, common neighbours would be double-counted by d_c(x) + d_c(y).
The degree-sum shortcut is exact only in the bipartite setting and lives in
the bipartite module.

Each structure has one scan over every candidate, which keeps the first
maximum under a fixed tie-break; the witness finders and the order-only
kernels are thin wrappers over it, so results are deterministic and the two
always agree.
"""
from __future__ import annotations

from dataclasses import dataclass

from .colouring import EdgeColouring, iter_bits


@dataclass(frozen=True)
class DoubleStarWitness:
    colour: int
    centres: tuple[int, int]  # centre edge (x, y), x < y
    order: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class TripleStarWitness:
    colour: int
    centres: tuple[int, int, int]  # path (u, x, w): x in the middle, u < w
    order: int
    vertices: tuple[int, ...]


def double_star_order(colouring: EdgeColouring, c: int, x: int, y: int) -> int:
    """|N_c(x) | N_c(y)| for a monochromatic centre edge {x, y}."""
    if x == y:
        raise ValueError(f"centres must differ, got {x} twice")
    if colouring.colour_of(x, y) != c:
        raise ValueError(f"centre edge not in colour: {{{x},{y}}} is not colour {c}")
    masks = colouring.view.masks[c]
    return (masks[x] | masks[y]).bit_count()


def triple_star_order(colouring: EdgeColouring, c: int, u: int, x: int, w: int) -> int:
    """|N_c(u) | N_c(x) | N_c(w)| for a monochromatic two-edge path u - x - w."""
    if u == w:
        raise ValueError(f"outer centres must differ, got {u} twice")
    if colouring.colour_of(x, u) != c:
        raise ValueError(f"path edge not in colour: {{{x},{u}}} is not colour {c}")
    if colouring.colour_of(x, w) != c:
        raise ValueError(f"path edge not in colour: {{{x},{w}}} is not colour {c}")
    masks = colouring.view.masks[c]
    return (masks[u] | masks[x] | masks[w]).bit_count()


# A colouring without a monochromatic two-edge path has no triple star;
# wherever a triple-star value is still wanted, it is the single-edge value.
SINGLE_EDGE = 2


def _double_scan(masks: list[list[int]], n: int, m: int) -> tuple[int, int, int, int]:
    """(order, c, x, y) of the first maximum double star; order 0 without edges.

    Centre edges are scanned by colour, then lexicographically, which is the
    tie-break order, so only a strict improvement is recorded.
    """
    best = best_c = best_x = best_y = 0
    for c in range(1, m + 1):
        row = masks[c]
        for x in range(n - 1):
            mx = row[x]
            high = mx >> (x + 1)
            while high:
                low = high & -high
                y = x + low.bit_length()
                high ^= low
                order = (mx | row[y]).bit_count()
                if order > best:
                    best, best_c, best_x, best_y = order, c, x, y
    return best, best_c, best_x, best_y


def _triple_scan(masks: list[list[int]], n: int, m: int) -> tuple[int, int, int, int, int]:
    """(order, c, u, x, w) of the maximum triple star with the smallest (c, u, x, w).

    Order 0 when no colour admits a two-edge path.  Paths are scanned by
    colour, then middle x, then u < w.  Within one colour a later path that
    ties the best precedes it in key order exactly when its u is smaller.
    """
    best = best_c = best_u = best_x = best_w = 0
    for c in range(1, m + 1):
        row = masks[c]
        for x in range(n):
            nb = row[x]
            if nb.bit_count() < 2:
                continue
            hood = list(iter_bits(nb))
            for a in range(len(hood) - 1):
                u = hood[a]
                mu = row[u] | nb
                for w in hood[a + 1:]:
                    order = (mu | row[w]).bit_count()
                    if order >= best:
                        if order > best:
                            best, best_c, best_u, best_x, best_w = order, c, u, x, w
                        elif c == best_c and u < best_u:
                            best_u, best_x, best_w = u, x, w
    return best, best_c, best_u, best_x, best_w


def max_double_star(colouring: EdgeColouring) -> DoubleStarWitness:
    """Largest double star over all monochromatic centre edges.

    Ties break to the smallest colour, then lexicographically smallest (x, y).
    """
    masks = colouring.view.masks
    order, c, x, y = _double_scan(masks, colouring.n, colouring.m)
    if not order:
        raise ValueError("colouring has no edges")
    return DoubleStarWitness(c, (x, y), order, tuple(iter_bits(masks[c][x] | masks[c][y])))


def max_triple_star(colouring: EdgeColouring) -> TripleStarWitness | None:
    """Largest triple star over all monochromatic two-edge paths u - x - w.

    Returns None when no colour class contains a two-edge path (every class
    a matching); that is a legitimate outcome, not an error.  Ties break on
    the smallest (colour, u, x, w) with u < w.
    """
    order, c, u, x, w = _triple_scan(colouring.view.masks, colouring.n, colouring.m)
    if not order:
        return None
    row = colouring.view.masks[c]
    return TripleStarWitness(c, (u, x, w), order, tuple(iter_bits(row[u] | row[x] | row[w])))


def max_double_star_order(masks: list[list[int]], n: int, m: int) -> int:
    """Order-only double-star maximum straight from colour masks (hot path)."""
    return _double_scan(masks, n, m)[0]


def max_triple_star_order(masks: list[list[int]], n: int, m: int) -> int:
    """Order-only triple-star maximum straight from colour masks (hot path).

    Returns 0 when no colour admits a two-edge path, mirroring
    max_triple_star's None.
    """
    return _triple_scan(masks, n, m)[0]
