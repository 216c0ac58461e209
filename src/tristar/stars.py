"""Exact maximum monochromatic stars, double stars and triple stars.

A double star is two stars whose centres x, y are joined by an edge of the
same colour; its vertex set is N_c(x) | N_c(y) (centres included, since each
centre is a neighbour of the other).  A triple star hangs a third star off a
two-edge path u - x - w, with vertex set N_c(u) | N_c(x) | N_c(w).

Orders count the neighbourhood union, not degree sums: in a complete-graph
colour class, common neighbours would be double-counted by d_c(x) + d_c(y).
The degree-sum shortcut is exact only in the bipartite setting and lives in
the bipartite module.  Here sums are only upper bounds: d_c(x) + d_c(y) lets
the double scan skip colours, centres and partners, and d + 1 + g(u) + g(w)
ends the triple scan's pairs u, w of a middle x, with d = d_c(x) and the gain
g(v) = |N_c(v) - N_c(x)| - 1 of a leaf v (x is in N_c(v) but counts once).
As g(v) <= d_c(v) - 1, the triple scan also skips a middle whose
d + D1 + D2 - 1 cannot reach the best, with D1 >= D2 the colour's two
largest degrees, and ranks only the leaves v with d_c(v) >= best - d - D1 + 1.
Both scans read a colour's degrees, one popcount per row, only once its
largest component has not skipped it.

Each structure has one scan, which keeps the first maximum under a fixed
tie-break.  It skips only candidates that an exact upper bound shows can
neither exceed the best found so far nor tie it and win the tie-break, so
the result is the one a scan over every candidate gives.  The witness
finders and the order-only kernels are thin wrappers over it, so results
are deterministic and the two always agree.

A scan also takes a `stop` order.  Below it the result is exact; at the
first candidate whose order is >= stop the scan returns that candidate,
which may fall short of the maximum.  The double and component scans
return the first such candidate in scan order; the triple scan visits a
bounded middle's pairs by gain, so its path need not be the first.  An
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

The edge kernels after the scans feed the annealer's StarHistogram.  Per
objective, `_CENTRE_ORDERS` holds the orders of the stars one centre owns
(each star owned once), which fill the histogram, and of the stars that
recolouring an edge changes: those off it, shifted by one, and those on it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
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
# (about 2d popcounts and a sort of d gains against C(d, 2) paths; sorting
# smaller middles too made a K_6 walk twice as slow), and the double scan
# takes a colour's component and degree caps only once the best double star
# has more than _BOUND_DEGREE vertices.  The triple scan reads a colour's
# component and degrees at its first bounded middle, for the caps
# d + D1 + D2 - 1 on a middle and best - d - D1 + 1 on a leaf's degree.
# Neither scan bounds anything on a K_n with n <= _BOUND_DEGREE.
_BOUND_DEGREE = 6


def _largest_component(row: list[int]) -> int:
    """Order of the largest component of one colour class: no star in it is larger."""
    return max((comp.bit_count() for comp in component_masks(row)), default=0)


def _degree_levels(deg: list[int], floor: int) -> tuple[list[int], list[int]]:
    """(levels, at_least): the degrees above `floor` and the vertices that reach each.

    `levels` lists the degrees above floor in ascending order, and
    `at_least[i]` is the mask of vertices of degree >= levels[i]; a last 0
    closes the list, so for k > floor, at_least[bisect_left(levels, k)]
    holds the vertices of degree >= k.
    """
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
    return levels, at_least


def _double_bounds(row: list[int], best: int) -> tuple[int, list[int], int, list[int], list[int]]:
    """(cap, deg, dmax, levels, at_least): what bounds the double stars of one colour.

    |N(x) | N(y)| <= d(x) + d(y), so no double star of the colour is larger
    than its two largest degrees summed, nor than its largest component.
    `cap` is the smaller of the two; the component is taken first, so a
    colour that it alone skips (every colour after the first of a plane
    colouring) reads no degrees.  `deg` holds every degree and `dmax` the
    largest.  `levels` and `at_least` are `_degree_levels` of the degrees
    above best - dmax, below which no vertex is a partner that can beat the
    best.  When cap <= best the rest is left empty.
    """
    cap = _largest_component(row)
    if cap > best:
        deg = list(map(int.bit_count, row))
        dmax = max(deg)
        cap = min(cap, dmax + (dmax if deg.count(dmax) > 1 else sorted(deg)[-2]))
    if cap <= best:
        return cap, [], 0, [], [0]
    return cap, deg, dmax, *_degree_levels(deg, best - dmax)


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

    Order 0 when no colour admits a two-edge path.  Below `stop` the result
    is exact; the first path found whose order is >= stop is returned as it
    is.  Paths go by colour, then middle x.  `need` is the least order that
    can replace the best: best + 1 at a colour's start, as no tie in a
    later colour wins, and the best once the colour has improved it, when a
    tie wins with a smaller u, or with the best's u and x and a smaller w.

    A middle of colour degree d < _BOUND_DEGREE visits u < w, so a tie
    there wins only with a smaller u.  A larger one is bounded against
    need.  At the colour's first bounded middle its largest component is
    taken, and unless that ends the colour, its degrees d(v): one popcount
    per row, kept as the two largest, D1 >= D2, and as degree level masks.
    As g(v) <= d(v) - 1, no path through x is larger than d + D1 + D2 - 1,
    so a middle below need is skipped before its leaves are listed, and
    only the leaves with d(v) >= need - d - D1 + 1 are kept.
    The middle is skipped when fewer than two remain, or when the ball of
    radius 2 through them cannot beat the best, or tie it and win;
    otherwise its kept leaf pairs go by gain, largest first, and both loops
    break once d + 1 + g(u) + g(w) falls below need.  As need only rises,
    the leaves kept on entry hold every pair that can still replace the best.
    """
    best = best_c = best_u = best_x = best_w = 0
    full = (1 << n) - 1
    shift = n.bit_length()
    low = (1 << shift) - 1
    for c in range(1, m + 1):
        row = masks[c]
        cap = 0  # not taken yet
        need = best + 1  # no tie in a later colour wins
        for x in range(n):
            nb = row[x]
            d = nb.bit_count()
            if d < 2:
                continue
            if d < _BOUND_DEGREE:
                hood = bit_tuple(nb)
                for a in range(d - 1):
                    u = hood[a]
                    mu = row[u] | nb
                    for w in hood[a + 1:]:
                        order = (mu | row[w]).bit_count()
                        if order >= need:
                            if order > best:
                                if order >= stop:
                                    return order, c, u, x, w
                                best = need = order
                                best_c, best_u, best_x, best_w = c, u, x, w
                            elif u < best_u:
                                best_u, best_x, best_w = u, x, w
                continue
            if not cap:
                cap = _largest_component(row)
                if cap < need:
                    break
                deg = list(map(int.bit_count, row))
                d2, d1 = sorted(deg)[-2:]
                # need >= best and d <= D1 keep every leaf floor above best - 2 * D1
                levels, at_least = _degree_levels(deg, best - 2 * d1)
            if d + d1 + d2 - 1 < need:
                continue
            hood = list(iter_bits(nb & at_least[bisect_left(levels, need - d - d1 + 1)]))
            if len(hood) < 2:
                continue
            ball = nb
            for v in hood:
                ball |= row[v]
            reach = ball.bit_count()
            if reach < need or reach == best and hood[0] >= best_u:
                continue
            # -|N(v) - N(x)| << shift | v for each kept leaf v: by gain, largest first
            off = full ^ nb
            ranked = sorted([-(row[v] & off).bit_count() << shift | v for v in hood])
            leaves = [k & low for k in ranked]
            for i in range(len(leaves) - 1):
                # the leaves w after u with d + 1 + g(u) + g(w) >= need
                end = bisect_left(ranked, d - need - (ranked[i] >> shift) << shift, i + 1)
                if end == i + 1:
                    break
                a = leaves[i]
                ma = row[a] | nb
                for b in leaves[i + 1:end]:
                    order = (ma | row[b]).bit_count()
                    if order >= need:
                        u, w = (a, b) if a < b else (b, a)
                        if order > best:
                            if order >= stop:
                                return order, c, u, x, w
                            best = need = order
                            best_c, best_u, best_x, best_w = c, u, x, w
                        elif u < best_u or u == best_u and x == best_x and w < best_w:
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


def _double_orders(row: list[int], x: int, ends: int) -> list[int]:
    """Orders of the double stars on the centre edges x - y, y in ends."""
    mx = row[x]
    orders = []
    add = orders.append
    while ends:  # iter_bits inlined: this loop scores a double move
        low = ends & -ends
        add((mx | row[low.bit_length() - 1]).bit_count())
        ends ^= low
    return orders


def _double_at(row: list[int], x: int) -> list[int]:
    """Orders of the double stars on the centre edges from x to higher vertices."""
    return _double_orders(row, x, row[x] >> (x + 1) << (x + 1))


def _double_shifting(row: list[int], i: int, j: int) -> list[int]:
    """Orders of the double stars i - y and j - y off the edge {i, j} that its move shifts.

    A move toggles bit j of N(i).  A centre edge i - y with y in N(j) keeps
    its order, since N(y) already holds j; every other i - y gains or
    loses exactly that bit.  The same holds for j - y with i and j swapped.
    """
    ri, rj = row[i], row[j]
    pair = 1 << i | 1 << j
    return _double_orders(row, i, ri & ~rj & ~pair) + _double_orders(row, j, rj & ~ri & ~pair)


def _double_edge(row: list[int], i: int, j: int) -> list[int]:
    """The order of the double star on the centre edge i - j."""
    return [(row[i] | row[j]).bit_count()]


def _triple_orders(row: list[int], x: int, ends: int) -> list[int]:
    """Orders of the triple stars on the paths u - x - w, u < w both in ends."""
    nb = row[x]
    seen = []
    orders = []
    for w in iter_bits(ends):
        mw = row[w]
        orders += [(mw | m).bit_count() for m in seen]
        seen.append(mw | nb)
    return orders


def _triple_at(row: list[int], x: int) -> list[int]:
    """Orders of the triple stars on the paths with middle x."""
    return _triple_orders(row, x, row[x])


def _triple_orders_from(row: list[int], u: int, middles: int, ends: int) -> list[int]:
    """Orders of the triple stars on the paths u - x - w, x in middles, w in ends."""
    mu = row[u]
    orders = []
    add = orders.append
    for x in iter_bits(middles):
        nb = row[x]
        ux = mu | nb
        far = nb & ends
        while far:  # iter_bits inlined: this loop scores most of a triple move
            low = far & -far
            add((ux | row[low.bit_length() - 1]).bit_count())
            far ^= low
    return orders


def _triple_shifting(row: list[int], i: int, j: int) -> list[int]:
    """Orders of the triple stars off the edge {i, j} that its move shifts.

    A move toggles bit j of N(i).  A star through i whose other members
    include one in N(j) keeps its order, since that member's neighbourhood
    already holds j: i - x - j for x in N(i) and N(j), u - i - w with an
    end in N(j), i - x - w with x or w in N(j).  Every other star through i
    off the edge gains or loses exactly that bit: u - i - w with u, w
    outside N(j) and j, and i - x - w with x, w outside N(j).  The same
    holds with i and j swapped.
    """
    pair = 1 << i | 1 << j
    off_j = ~(row[j] | pair)
    off_i = ~(row[i] | pair)
    ends_i = row[i] & off_j
    ends_j = row[j] & off_i
    return (_triple_orders(row, i, ends_i) + _triple_orders_from(row, i, ends_i, off_j)
            + _triple_orders(row, j, ends_j) + _triple_orders_from(row, j, ends_j, off_i))


def _triple_edge(row: list[int], i: int, j: int) -> list[int]:
    """Orders of the triple stars on the paths j - i - w and i - j - w.

    Both have order |N(i) | N(j) | N(w)|; a vertex w in N(i) and N(j) is
    the end of one of each.
    """
    off = ~(1 << i | 1 << j)
    return _triple_orders_from(row, j, 1 << i, off) + _triple_orders_from(row, i, 1 << j, off)


_CENTRE_ORDERS = {
    "double": (_double_at, _double_shifting, _double_edge),
    "triple": (_triple_at, _triple_shifting, _triple_edge),
}


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
    """Order-only double-star maximum straight from colour masks."""
    return _double_scan(masks, n, m, n + 1)[0]


def max_triple_star_order(masks: list[list[int]], n: int, m: int) -> int:
    """Order-only triple-star maximum straight from colour masks.

    Returns 0 when no colour admits a two-edge path, mirroring
    max_triple_star's None.
    """
    return _triple_scan(masks, n, m, n + 1)[0]
