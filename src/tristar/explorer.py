"""Stochastic search for colourings with small monochromatic structures.

Probes the open question of how small the largest monochromatic double or
triple star can be made, relative to n/(r-1).  Simulated annealing over
single-edge recolourings; nothing here asserts anything about the open
problems, but a best value below a proven floor is escalated as a
TheoremViolation exactly like the prover would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .colouring import EdgeColouring, colour_masks, iter_bits, proven_floor
from .errors import TheoremViolation
from .generators import _MAX_N
from .oracle import _component_order
from .rng import SplitMix64
from .stars import SINGLE_EDGE, max_double_star_order, max_triple_star_order

Q = Fraction


def objective(colouring: EdgeColouring, kind: str) -> int:
    """The order being minimized: double or triple star, or largest component.

    A colouring without any monochromatic two-edge path scores the
    single-edge value 2 on the triple objective.
    """
    return _mask_objective(kind)(colouring.view.masks, colouring.n, colouring.m)


@dataclass(frozen=True)
class SearchConfig:
    n: int
    r: int
    objective: str = "triple"
    iterations: int = 100000
    restarts: int = 8
    t_start: Q = Q(2)
    cooling: Q = Q(995, 1000)
    seed: int = 1

    def check(self) -> None:
        if self.n < 2:
            raise ValueError("n >= 2 required")
        if self.n > _MAX_N:
            raise ValueError(f"n = {self.n} too large: the search keeps all "
                             f"{self.n * (self.n - 1) // 2} edges, at most n = {_MAX_N}")
        if self.r < 2:
            raise ValueError("r >= 2 required: with one colour there is no move to make")
        if self.objective not in ("double", "triple", "component"):
            raise ValueError(f"unknown objective kind: {self.objective!r}")
        if self.iterations < 1:
            raise ValueError("iterations >= 1 required")
        if self.restarts < 1:
            raise ValueError("restarts >= 1 required")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling factor must lie strictly between 0 and 1")
        if self.t_start <= 0:
            raise ValueError("starting temperature must be positive")


@dataclass(frozen=True)
class SearchEvent:
    restart: int
    iteration: int  # 0 marks a restart's initial state
    objective: int


@dataclass(frozen=True)
class SearchOutcome:
    config: SearchConfig
    best_colouring: EdgeColouring
    best_objective: int
    ratio: Q  # best * (r-1) / n, so 1 means the n/(r-1) level exactly
    floor: Q | None
    log: tuple[SearchEvent, ...]  # every improvement of the overall best
    evaluations: int


def anneal(config: SearchConfig) -> SearchOutcome:
    """Minimize the objective by single-edge recolouring with restarts.

    Deterministic for a given config: each restart derives its own
    generator state from the seed, restarts run in order, and ties keep the
    earliest restart.  Raises TheoremViolation immediately if the search
    ever dips below a proven floor.

    The double and triple objectives are kept in a StarHistogram, so a move
    rescores only the stars it touches; the component objective is
    recomputed after every move.
    """
    config.check()
    n, r = config.n, config.r
    floor = proven_floor(n, r, config.objective)
    threshold = math.ceil(floor) if floor is not None else None
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    length = len(pairs)
    t0 = float(config.t_start)
    cool = float(config.cooling)

    master = SplitMix64(config.seed)
    best_value = n + 1
    best_colours: tuple[int, ...] = ()
    log: list[SearchEvent] = []
    evaluations = 0

    def record(restart: int, iteration: int, value: int, colours: list[int]) -> None:
        nonlocal best_value, best_colours
        best_value = value
        best_colours = tuple(colours)
        log.append(SearchEvent(restart, iteration, value))
        if threshold is not None and value < threshold:
            raise TheoremViolation(
                f"search found {config.objective} objective {value}, below the proven {threshold}",
                EdgeColouring(n, r, best_colours))

    for restart in range(config.restarts):
        rng = SplitMix64(master.next64())
        colours = [rng.below(r) + 1 for _ in range(length)]
        masks = colour_masks(n, r, colours)
        if config.objective == "component":
            stars = None
            value = _component_order(masks, n, r, n + 1)
        else:
            stars = StarHistogram(config.objective, masks, n, r)
            value = stars.top
        evaluations += 1
        if value < best_value:
            record(restart, 0, value, colours)
        temperature = t0
        for it in range(1, config.iterations + 1):
            k = rng.below(length)
            old = colours[k]
            new = rng.below(r - 1) + 1
            if new >= old:
                new += 1
            i, j = pairs[k]
            if stars is None:
                _recolour(masks, i, j, old, new)
                candidate = _component_order(masks, n, r, n + 1)
            else:
                candidate = stars.move(i, j, old, new)
            evaluations += 1
            delta = candidate - value
            if delta <= 0 or math.exp(-delta / temperature) > rng.unit():
                colours[k] = new
                value = candidate
                if value < best_value:
                    record(restart, it, value, colours)
            elif stars is None:
                _recolour(masks, i, j, new, old)
            else:
                stars.undo()
            temperature *= cool
    ratio = Q(best_value * (r - 1), n)
    return SearchOutcome(config, EdgeColouring(n, r, best_colours), best_value,
                         ratio, floor, tuple(log), evaluations)


def _mask_objective(kind: str):
    """The order-only kernel of an objective kind, straight from colour masks."""
    if kind == "double":
        return max_double_star_order
    if kind == "component":
        return lambda masks, n, m: _component_order(masks, n, m, n + 1)
    if kind == "triple":
        def triple(masks, n, m):
            value = max_triple_star_order(masks, n, m)
            return value if value >= SINGLE_EDGE else SINGLE_EDGE
        return triple
    raise ValueError(f"unknown objective kind: {kind!r}")


def _recolour(masks: list[list[int]], i: int, j: int, old: int, new: int) -> None:
    """Move edge {i, j} from colour old to colour new in the masks."""
    masks[old][i] &= ~(1 << j)
    masks[old][j] &= ~(1 << i)
    masks[new][i] |= 1 << j
    masks[new][j] |= 1 << i


def _double_orders(row: list[int], x: int, ends: int) -> list[int]:
    """Orders of the double stars on the centre edges x - y, y in ends."""
    mx = row[x]
    return [(mx | row[y]).bit_count() for y in iter_bits(ends)]


def _double_at(row: list[int], x: int) -> list[int]:
    """Orders of the double stars on the centre edges from x to higher vertices."""
    return _double_orders(row, x, row[x] >> (x + 1) << (x + 1))


def _triple_orders(row: list[int], x: int) -> list[int]:
    """Orders of the triple stars on the paths u - x - w, u < w."""
    nb = row[x]
    seen = []
    orders = []
    for w in iter_bits(nb):
        mw = row[w]
        orders += [(mw | m).bit_count() for m in seen]
        seen.append(mw | nb)
    return orders


def _triple_orders_from(row: list[int], u: int, middles: int) -> list[int]:
    """Orders of the triple stars on the paths u - x - w, x in middles."""
    mu = row[u]
    away = ~(1 << u)
    orders = []
    for x in iter_bits(middles):
        nb = row[x]
        ux = mu | nb
        orders += [(ux | row[w]).bit_count() for w in iter_bits(nb & away)]
    return orders


def _double_touched(masks: list[list[int]], i: int, j: int, colours: tuple[int, int]) -> list[int]:
    """Orders of the double stars in the given colours that a move of {i, j} can change.

    A centre edge i - y with y in N(j) keeps its order: N(y) already holds
    j, the one bit that N(i) gains or loses.  Likewise j - y with y in N(i).
    """
    orders = []
    for c in colours:
        row = masks[c]
        orders += _double_orders(row, i, row[i] & ~row[j])
        orders += _double_orders(row, j, row[j] & ~row[i] & ~(1 << i))
    return orders


def _triple_touched(masks: list[list[int]], i: int, j: int, colours: tuple[int, int]) -> list[int]:
    """Orders of the triple stars in the given colours that a move of {i, j} can change.

    These are the paths with middle i or j, and the paths i - x - w and
    j - x - w whose middle x is a neighbour of only one of i and j.  When x
    is a neighbour of both, N(x) already holds i and j, the only bits the
    move toggles, so those paths keep their order.
    """
    pair = 1 << i | 1 << j
    orders = []
    for c in colours:
        row = masks[c]
        orders += _triple_orders(row, i)
        orders += _triple_orders(row, j)
        orders += _triple_orders_from(row, i, row[i] & ~row[j] & ~pair)
        orders += _triple_orders_from(row, j, row[j] & ~row[i] & ~pair)
    return orders


# Per objective: the orders of the structures one centre owns, each
# structure owned once; the orders of the structures a move can change.
_CENTRE_ORDERS = {
    "double": (_double_at, _double_touched),
    "triple": (_triple_orders, _triple_touched),
}


class StarHistogram:
    """count[order] over every double or triple star of a colouring's masks.

    Recolouring edge {i, j} from old to new changes only the masks old[i],
    old[j], new[i] and new[j], so move() rescores the stars of those two
    colours that can change, before and after the flip, and applies the
    difference.  The objective is the highest nonzero bin.  One permanent
    entry at SINGLE_EDGE stands for the single-edge value, so the top never
    falls below it.
    """

    def __init__(self, kind: str, masks: list[list[int]], n: int, m: int):
        at, self._touched = _CENTRE_ORDERS[kind]
        count = [0] * (n + 1)
        count[SINGLE_EDGE] = 1
        for c in range(1, m + 1):
            row = masks[c]
            for x in range(n):
                for order in at(row, x):
                    count[order] += 1
        self.masks = masks
        self.count = count
        top = n
        while not count[top]:
            top -= 1
        self.top = top
        self._undo: tuple = ()

    def move(self, i: int, j: int, old: int, new: int) -> int:
        """Recolour edge {i, j} from old to new; return the new top."""
        masks, count, colours = self.masks, self.count, (old, new)
        gone = self._touched(masks, i, j, colours)
        _recolour(masks, i, j, old, new)
        come = self._touched(masks, i, j, colours)
        for order in gone:
            count[order] -= 1
        for order in come:
            count[order] += 1
        self._undo = (i, j, old, new, gone, come, self.top)
        top = max(come, default=0)
        if top < self.top:
            top = self.top
        while not count[top]:
            top -= 1
        self.top = top
        return top

    def undo(self) -> None:
        """Take back the last move: its mask flip and its histogram delta."""
        i, j, old, new, gone, come, self.top = self._undo
        _recolour(self.masks, i, j, new, old)
        count = self.count
        for order in come:
            count[order] -= 1
        for order in gone:
            count[order] += 1
