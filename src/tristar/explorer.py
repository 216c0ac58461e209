"""Stochastic search for colourings with small monochromatic structures.

Probes the open question of how small the largest monochromatic double or
triple star can be made, relative to n/(r-1), by simulated annealing over
single-edge recolourings; every order it reads comes from `stars`.
Nothing here asserts anything about the open problems, but a best value
below a proven floor is escalated as a TheoremViolation like the prover's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .colouring import EdgeColouring, colour_masks, proven_floor
from .errors import TheoremViolation
from .generators import _MAX_N, _MAX_R
from .oracle import _value_fn
from .rng import SplitMix64
# The three-argument max_*_order kernels are not called here; they stay
# importable from this module because the benchmark's trace swaps them.
from .stars import (_CENTRE_ORDERS, SINGLE_EDGE, _component_order, max_double_star_order,
                    max_triple_star_order)

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
        if self.r > _MAX_R:
            raise ValueError(f"r = {self.r} too large: the search keeps a mask row per colour, "
                             f"at most r = {_MAX_R}")
        _mask_objective(self.objective)  # an unknown kind raises
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
    scores only the stars it changes, each once; the component objective
    is recomputed after every move.
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
    """The exact order-only value of an objective kind, straight from colour masks."""
    try:
        value_of = _value_fn(kind)
    except ValueError:
        raise ValueError(f"unknown objective kind: {kind!r}") from None
    return lambda masks, n, m: value_of(masks, n, m, n + 1)


def _recolour(masks: list[list[int]], i: int, j: int, old: int, new: int) -> None:
    """Move edge {i, j} from colour old to colour new in the masks."""
    masks[old][i] &= ~(1 << j)
    masks[old][j] &= ~(1 << i)
    masks[new][i] |= 1 << j
    masks[new][j] |= 1 << i


class StarHistogram:
    """count[order] over every double or triple star of a colouring's masks.

    Recolouring edge {i, j} from old to new toggles only bit j of N(i) and
    bit i of N(j), in those two colours.  The stars on the edge itself
    (j - i - w and i - j - w, or the centre edge i - j) disappear from old
    and appear in new.  Of the other stars with i or j as a member, one
    that holds the toggled bit through another member keeps its order, and
    every other one shifts by exactly 1: down in old, up in new.  So move()
    counts each changed star once, as `_CENTRE_ORDERS` lists it: the
    shifting stars of both colours and old's edge stars before the flip,
    new's edge stars after it, into a copy of count; undo() puts the saved
    count and top back and flips the edge back.  The objective is the
    highest nonzero bin.  One permanent entry at SINGLE_EDGE stands for the
    single-edge value, so the top never falls below it.
    """

    def __init__(self, kind: str, masks: list[list[int]], n: int, m: int):
        at, self._shifting, self._edge = _CENTRE_ORDERS[kind]
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
        masks, saved = self.masks, self.count
        shifting, edge = self._shifting, self._edge
        row = masks[old]
        down = shifting(row, i, j)
        gone = edge(row, i, j)
        row = masks[new]
        up = shifting(row, i, j)
        _recolour(masks, i, j, old, new)
        come = edge(row, i, j)
        self.count = count = saved[:]
        for order in down:
            count[order] -= 1
            count[order - 1] += 1
        for order in up:
            count[order] -= 1
            count[order + 1] += 1
        for order in gone:
            count[order] -= 1
        for order in come:
            count[order] += 1
        self._undo = (i, j, old, new, saved, self.top)
        top = max(self.top, max(come, default=0), max(up, default=-1) + 1)
        while not count[top]:
            top -= 1
        self.top = top
        return top

    def undo(self) -> None:
        """Take back the last move: its mask flip, and the count and top from before it."""
        i, j, old, new, self.count, self.top = self._undo
        _recolour(self.masks, i, j, new, old)
