"""Exact maximum monochromatic stars, double stars and triple stars.

A double star is two stars whose centres x, y are joined by an edge of the
same colour; its vertex set is N_c(x) | N_c(y) (centres included, since each
centre is a neighbour of the other).  A triple star hangs a third star off a
two-edge path u - x - w, with vertex set N_c(u) | N_c(x) | N_c(w).

Orders count the neighbourhood union, not degree sums: in a complete-graph
colour class, common neighbours would be double-counted by d_c(x) + d_c(y).
The degree-sum shortcut is exact only in the bipartite setting and lives in
the bipartite module; here d_c(x) + d_c(y) is only an upper bound, which
the double scan uses to skip colours, centres and partners.

Each structure has one scan, which keeps the first maximum under a fixed
tie-break.  It skips only candidates that an exact upper bound shows can
neither exceed the best found so far nor tie it and win the tie-break, so
the result is the one a scan over every candidate gives.  The witness
finders and the order-only kernels are thin wrappers over it, so results
are deterministic and the two always agree.

A scan also takes a `stop` order.  Below it the result is exact; once the
best reaches it the scan returns at once, with the first candidate in scan
order whose order is >= stop, which may fall short of the maximum.  An
exhaustive check that only asks whether a colouring's maximum falls below
the running minimum passes that minimum.  The largest-component scan takes
the same `stop`.

No order exceeds n, so a scan that stops at n returns the maximum.  The
double-star witness does stop there: its scan records only strict
improvements, in tie-break order, so the first candidate of order n is the
first maximum.  The triple-star witness passes n + 1, which no order
reaches: a later path of equal order still wins its tie-break when its
outer centre u is smaller, so the first path of order n need not be the
witness.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .colouring import EdgeColouring, bit_tuple, component_masks, iter_bits


@dataclass(frozen=True)
class DoubleStarWitness:
    colour: int
    centres: tuple[int, int]  # centre edge (x, y), x < y
    order: int
    vertices: tuple[int, ...]

    def __init__(self, colour: int, centres: tuple[int, int], order: int,
                 vertices: tuple[int, ...]) -> None:
        # one dict update in place of a frozen setattr per field: every proof builds one
        self.__dict__.update(colour=colour, centres=centres, order=order, vertices=vertices)


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


# A bound costs popcounts of its own, so it is taken only where it can save
# more: the triple scan bounds a middle of colour degree d >= _BOUND_DEGREE
# (about 2d popcounts against C(d, 2) paths), and the double scan takes a
# colour's component and degree caps only once the best double star has more
# than _BOUND_DEGREE vertices.  Neither fires on a K_n with n <= _BOUND_DEGREE.
_BOUND_DEGREE = 6


def _largest_component(row: list[int]) -> int:
    """Order of the largest component of one colour class: no star in it is larger."""
    return max((comp.bit_count() for comp in component_masks(row)), default=0)


def _double_bounds(row: list[int], best: int) -> tuple[int, list[int], int, list[int], list[int]]:
    """(cap, deg, dmax, levels, at_least): what bounds the double stars of one colour.

    |N(x) | N(y)| <= d(x) + d(y), so no double star of the colour is larger
    than its two largest degrees summed, nor than its largest component.
    `cap` is the smaller of the two; the component is taken first, so a
    colour that it alone skips (every colour after the first of a plane
    colouring) reads no degrees.  `deg` holds every degree and `dmax` the
    largest.  `levels` lists, in ascending order, the degrees above
    best - dmax, below which no vertex is a partner that can beat the best;
    `at_least[i]` is the mask of vertices of degree >= levels[i], and a last
    0 closes the list.  When cap <= best the rest is left empty.
    """
    cap = _largest_component(row)
    if cap > best:
        deg = list(map(int.bit_count, row))
        dmax = max(deg)
        cap = min(cap, dmax + (dmax if deg.count(dmax) > 1 else sorted(deg)[-2]))
    if cap <= best:
        return cap, [], 0, [], [0]
    floor = best - dmax
    buckets: dict[int, int] = {}
    for v, d in enumerate(deg):
        if d > floor:
            buckets[d] = buckets.get(d, 0) | 1 << v
    levels = sorted(buckets)
    at_least = [0] * (len(levels) + 1)
    acc = 0
    for i in range(len(levels) - 1, -1, -1):
        acc |= buckets[levels[i]]
        at_least[i] = acc
    return cap, deg, dmax, levels, at_least


def _double_scan(masks: list[list[int]], n: int, m: int, stop: int) -> tuple[int, int, int, int]:
    """(order, c, x, y) of the first maximum double star; order 0 without edges.

    Returns early, with some order >= stop, once the best reaches `stop`.

    Centre edges are scanned by colour, then lexicographically, which is the
    tie-break order, so only a strict improvement is recorded, and a centre
    edge whose order cannot exceed the best is skipped without changing the
    result.  Each colour's bounds (`_double_bounds`) are taken on entry when
    the best is above _BOUND_DEGREE, or else at its first improvement above
    _BOUND_DEGREE.  Once taken, they skip the rest of the colour when its cap
    is no larger than the best, end it when the best reaches the cap, skip a
    centre x when d(x) + dmax <= best, and visit only the partners y with
    d(y) > best - d(x).
    """
    best = best_c = best_x = best_y = 0
    for c in range(1, m + 1):
        row = masks[c]
        cap = 0  # 0: bounds not taken yet
        if best > _BOUND_DEGREE:
            cap, deg, dmax, levels, at_least = _double_bounds(row, best)
            if cap <= best:
                continue
        for x in range(n - 1):
            mx = row[x]
            if cap:
                dx = deg[x]
                if dx + dmax <= best:
                    continue
                high = (mx & at_least[bisect_right(levels, best - dx)]) >> (x + 1)
            else:
                high = mx >> (x + 1)
            while high:
                low = high & -high
                y = x + low.bit_length()
                high ^= low
                order = (mx | row[y]).bit_count()
                if order > best:
                    best, best_c, best_x, best_y = order, c, x, y
                    if order >= stop:
                        return best, best_c, best_x, best_y
                    if order > _BOUND_DEGREE:
                        if not cap:
                            cap, deg, dmax, levels, at_least = _double_bounds(row, best)
                        if order == cap:
                            break
            else:
                continue
            break  # the best reached the cap
    return best, best_c, best_x, best_y


def _triple_scan(masks: list[list[int]], n: int, m: int,
                 stop: int) -> tuple[int, int, int, int, int]:
    """(order, c, u, x, w) of the maximum triple star with the smallest (c, u, x, w).

    Order 0 when no colour admits a two-edge path.  Returns early, with some
    order >= stop, once the best reaches `stop`.  Paths are scanned by
    colour, then middle x, then u < w.  Within one colour a later path that
    ties the best precedes it in key order exactly when its u is smaller.

    Paths that provably cannot beat the best, or tie it and win the
    tie-break, are skipped: a whole colour when its largest component is no
    larger; a middle x when its ball of radius 2 is not; and a first leaf u
    when |N(u) | N(x)| plus the largest |N(w) - N(x) - {x}| over the later
    leaves w is not.
    """
    best = best_c = best_u = best_x = best_w = 0
    for c in range(1, m + 1):
        row = masks[c]
        cap = 0  # not taken yet
        for x in range(n):
            nb = row[x]
            d = nb.bit_count()
            if d < 2:
                continue
            hood = list(iter_bits(nb))
            starts = range(d - 1)
            if d >= _BOUND_DEGREE:
                if not cap:
                    cap = _largest_component(row)
                    if cap < best or cap == best and c != best_c:
                        break
                ball = nb
                for v in hood:
                    ball |= row[v]
                reach = ball.bit_count()
                if reach < best or reach == best and (c != best_c or hood[0] >= best_u):
                    continue
                # rest[a]: the most that a leaf w = hood[b], b >= a, adds to
                # N(u) | N(x); x lies in N(w) - N(x), but N(u) holds it already
                rest = [(row[w] & ~nb).bit_count() - 1 for w in hood]
                for a in range(d - 2, 0, -1):
                    if rest[a] < rest[a + 1]:
                        rest[a] = rest[a + 1]
                # keep a first leaf only if it can still beat the best, or tie it
                # and win; one dropped here stays dominated while this middle's
                # scan raises the best or lowers best_u
                starts = []
                for a in range(d - 1):
                    reach = (row[hood[a]] | nb).bit_count() + rest[a + 1]
                    if reach > best or reach == best and c == best_c and hood[a] < best_u:
                        starts.append(a)
            for a in starts:
                u = hood[a]
                mu = row[u] | nb
                for w in hood[a + 1:]:
                    order = (mu | row[w]).bit_count()
                    if order >= best:
                        if order > best:
                            best, best_c, best_u, best_x, best_w = order, c, u, x, w
                            if order >= stop:
                                return best, best_c, best_u, best_x, best_w
                        elif c == best_c and u < best_u:
                            best_u, best_x, best_w = u, x, w
    return best, best_c, best_u, best_x, best_w


def _component_order(masks: list[list[int]], n: int, m: int, stop: int) -> int:
    """Order of the largest monochromatic component, or some order >= stop once one reaches it."""
    best = 0
    for c in range(1, m + 1):
        for comp in component_masks(masks[c]):
            size = comp.bit_count()
            if size > best:
                best = size
                if size >= stop:
                    return best
    return best


def max_double_star(colouring: EdgeColouring) -> DoubleStarWitness:
    """Largest double star over all monochromatic centre edges.

    Ties break to the smallest colour, then lexicographically smallest (x, y).
    """
    masks = colouring.view.masks
    order, c, x, y = _double_scan(masks, colouring.n, colouring.m, colouring.n)
    if not order:
        raise ValueError("colouring has no edges")
    return DoubleStarWitness(c, (x, y), order, bit_tuple(masks[c][x] | masks[c][y]))


def max_triple_star(colouring: EdgeColouring) -> TripleStarWitness | None:
    """Largest triple star over all monochromatic two-edge paths u - x - w.

    Returns None when no colour class contains a two-edge path (every class
    a matching); that is a legitimate outcome, not an error.  Ties break on
    the smallest (colour, u, x, w) with u < w.
    """
    order, c, u, x, w = _triple_scan(colouring.view.masks, colouring.n, colouring.m,
                                     colouring.n + 1)
    if not order:
        return None
    row = colouring.view.masks[c]
    return TripleStarWitness(c, (u, x, w), order, bit_tuple(row[u] | row[x] | row[w]))


def max_double_star_order(masks: list[list[int]], n: int, m: int) -> int:
    """Order-only double-star maximum straight from colour masks (hot path)."""
    return _double_scan(masks, n, m, n + 1)[0]


def max_triple_star_order(masks: list[list[int]], n: int, m: int) -> int:
    """Order-only triple-star maximum straight from colour masks (hot path).

    Returns 0 when no colour admits a two-edge path, mirroring
    max_triple_star's None.
    """
    return _triple_scan(masks, n, m, n + 1)[0]
