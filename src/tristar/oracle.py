"""Ground truth at desk scale.

Definition-chasing brute-force star finders (no shared scanning code with
the fast module), canonical enumeration of colourings up to colour
relabelling, and the exhaustive small-n theorem checks.

Canonical enumeration uses restricted-growth strings over the edge list in
row-major order: the first edge gets colour 1 and colour j+1 may first
appear only after colour j, so each colour-relabelling class shows up
exactly once.  Every star or component order is invariant under
relabelling, which is what makes the quotient sound for these checks.

The exhaustive checks report only the minimum of the per-colouring maxima
and the colourings below the proven threshold, so each order-only scan
stops as soon as its best reaches max(running minimum, threshold): a value
below that stop is exact, and one at or above it changes nothing in the
report.  The cutoff changes how far a scan runs, never which colourings
are scanned, so the quotient stays sound.  The colour masks are kept live
along the walk: the next restricted-growth string differs from the last
only in the suffix from its last label other than 1, so only those edges
move.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import islice, product
from multiprocessing import Pool
from typing import Callable, Iterator

from .colouring import EdgeColouring, colour_masks, proven_floor
from .errors import BudgetExceededError, TheoremViolation
from .generators import _MAX_N
from .prover import prove_global, verify_certificate
# The three-argument max_*_order kernels are not called here; they stay
# importable from this module because the benchmark's trace swaps them.
from .stars import (SINGLE_EDGE, DoubleStarWitness, TripleStarWitness, _component_order,
                    _double_scan, _triple_scan, max_double_star_order, max_triple_star_order)

Q = Fraction

_VIOLATION_SAMPLE_CAP = 5


def brute_max_double_star(colouring: EdgeColouring) -> DoubleStarWitness:
    """Definition-based maximum double star: scan every centre edge, recount members.

    Same tie-break as the fast finder (smallest colour, then centres), so
    results are comparable witness-for-witness, but the scan works purely
    by re-reading edge colours.
    """
    n = colouring.n
    best = None
    for c in range(1, colouring.m + 1):
        for x in range(n - 1):
            for y in range(x + 1, n):
                if colouring.colour_of(x, y) != c:
                    continue
                members = [v for v in range(n)
                           if (v != x and colouring.colour_of(v, x) == c)
                           or (v != y and colouring.colour_of(v, y) == c)]
                if best is None or len(members) > best.order:
                    best = DoubleStarWitness(c, (x, y), len(members), tuple(members))
    if best is None:
        raise ValueError("colouring has no edges")
    return best


def brute_max_triple_star(colouring: EdgeColouring) -> TripleStarWitness | None:
    """Definition-based maximum triple star; None when no class has a 2-edge path."""
    n = colouring.n
    best = None
    best_key = (0, 0, 0, 0)
    for c in range(1, colouring.m + 1):
        for x in range(n):
            for u in range(n):
                if u == x or colouring.colour_of(x, u) != c:
                    continue
                for w in range(u + 1, n):
                    if w == x or colouring.colour_of(x, w) != c:
                        continue
                    members = [v for v in range(n)
                               if (v != u and colouring.colour_of(v, u) == c)
                               or (v != x and colouring.colour_of(v, x) == c)
                               or (v != w and colouring.colour_of(v, w) == c)]
                    key = (c, u, x, w)
                    if (best is None or len(members) > best.order
                            or (len(members) == best.order and key < best_key)):
                        best = TripleStarWitness(c, (u, x, w), len(members), tuple(members))
                        best_key = key
    return best


# --- enumeration -------------------------------------------------------------

@dataclass(frozen=True)
class EnumerationSpec:
    n: int
    r: int
    canonical: bool = True
    budget: int | None = None


def canonical_count(n: int, r: int) -> int:
    """Closed-form count of restricted-growth strings with at most r symbols.

    Sum over j of the Stirling partition numbers S(C(n,2), j), j = 1..r.
    """
    length = n * (n - 1) // 2
    if length < 1 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    row = [1] + [0] * r  # S(0, j)
    for _ in range(length):
        nxt = [0] * (r + 1)
        for j in range(1, r + 1):
            nxt[j] = row[j - 1] + j * row[j]
        row = nxt
    return sum(row[1:])


def _iter_rgs(length: int, r: int, prefix: tuple[int, ...] = ()) -> Iterator[list[int]]:
    """All restricted-growth strings of the given length extending `prefix`.

    Yields one reused buffer in lexicographic order; callers must copy
    anything they keep.
    """
    if length < 1 or r < 1:
        raise ValueError("need length >= 1 and r >= 1")
    if len(prefix) > length:
        raise ValueError("prefix longer than the string")
    a = list(prefix) + [1] * (length - len(prefix))
    top = [0] * (length + 1)  # top[i] = max of a[:i]
    for i, v in enumerate(prefix):
        if not 1 <= v <= min(r, top[i] + 1):
            raise ValueError(f"prefix not restricted-growth at position {i}: {v}")
        top[i + 1] = v if v > top[i] else top[i]
    for i in range(len(prefix), length):
        top[i + 1] = top[i] if top[i] >= 1 else 1
    start = len(prefix)
    while True:
        yield a
        i = length - 1
        while i >= start:
            cap = top[i] + 1
            if cap > r:
                cap = r
            if a[i] < cap:
                a[i] += 1
                top[i + 1] = a[i] if a[i] > top[i] else top[i]
                for j in range(i + 1, length):
                    a[j] = 1
                    top[j + 1] = top[j]
                break
            i -= 1
        else:
            return


def _walk_masks(n: int, r: int,
                prefix: tuple[int, ...]) -> Iterator[tuple[list[int], list[list[int]]]]:
    """(a, masks) for every restricted-growth string a extending `prefix`, as _iter_rgs yields it.

    masks are the colour masks of a over the row-major edges of K_n, with
    min(r, C(n,2)) colours.  Both are reused buffers: masks is one table
    built in full for the first string and then kept in step with a, by
    moving only the edges of the suffix that starts at a's last label other
    than 1, the only labels that differ from the string before.
    """
    ends = [(i, j, 1 << i, 1 << j) for i in range(n - 1) for j in range(i + 1, n)]
    last = len(ends) - 1
    strings = _iter_rgs(len(ends), r, prefix)
    a = next(strings)
    masks = colour_masks(n, min(r, len(ends)), a)
    seen = list(a)  # the labels the masks hold
    yield a, masks
    for a in strings:
        k = last
        while True:
            new = a[k]
            old = seen[k]
            if old != new:
                i, j, bi, bj = ends[k]
                row = masks[old]
                row[i] ^= bj
                row[j] ^= bi
                row = masks[new]
                row[i] |= bj
                row[j] |= bi
                seen[k] = new
            if new != 1:
                break
            k -= 1
        yield a, masks


def enumerate_colourings(spec: EnumerationSpec) -> Iterator[EdgeColouring]:
    """Stream every r-colouring of K_n; canonical mode quotients colour relabelling.

    Raises BudgetExceededError after yielding `budget` colourings if more
    remain, so consumers can trust a clean finish to mean a complete pass.
    """
    if spec.n < 2 or spec.r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    length = spec.n * (spec.n - 1) // 2
    stream = (_iter_rgs(length, spec.r) if spec.canonical
              else product(range(1, spec.r + 1), repeat=length))
    for values in _budgeted(stream, spec.budget):
        yield EdgeColouring(spec.n, spec.r, tuple(values))


def _budgeted(stream: Iterator, budget: int | None) -> Iterator:
    """`stream`, raising BudgetExceededError in place of its item budget + 1."""
    if budget is None:
        return stream

    def capped():
        yield from islice(stream, budget)
        for _ in stream:
            raise BudgetExceededError(budget)
    return capped()


# --- exhaustive theorem checks ----------------------------------------------

@dataclass(frozen=True)
class ExhaustReport:
    n: int
    r: int
    mode: str  # triple | double | component
    colourings_checked: int
    minimum: int
    witness: EdgeColouring  # first colouring attaining the minimum, canonical order
    floor: Q | None  # proven guarantee, None when nothing is asserted at this r
    threshold: int | None  # ceil(floor)
    violation_count: int
    violations: tuple[EdgeColouring, ...]  # at most a few samples, smallest first
    proved: int  # certificates produced and verified (0 unless prove was on)
    complete: bool

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def _value_fn(mode: str) -> Callable[[list[list[int]], int, int, int], int]:
    """The mode's order-only value, called as (masks, n, m, stop) -> order.

    The triple mode gives the single-edge value where no two-edge path exists.
    """
    if mode == "triple":
        def triple(masks, n, m, stop):
            value = _triple_scan(masks, n, m, stop)[0]
            return value if value >= SINGLE_EDGE else SINGLE_EDGE
        return triple
    if mode == "double":
        return lambda masks, n, m, stop: _double_scan(masks, n, m, stop)[0]
    if mode == "component":
        return _component_order
    raise ValueError(f"unknown mode: {mode!r}")


def exhaustive_theorem_check(n: int, r: int, mode: str = "triple", prove: bool = False,
                             threads: int = 1, budget: int | None = None,
                             progress: Callable[[int], None] | None = None,
                             progress_every: int = 200000) -> ExhaustReport:
    """Scan every canonical r-colouring of K_n and take the worst case.

    For each colouring the maximum order of the mode's structure is
    computed (triple stars fall back to the single-edge value 2 when no
    two-edge monochromatic path exists); the minimum over all colourings is
    reported with the first colouring attaining it.  When a proven floor
    applies, any colouring below its ceiling is recorded as a violation.
    With prove on, the proof engine runs on every colouring and each
    certificate is independently verified; failures count as violations.

    Each order-only scan stops once its best reaches max(minimum so far,
    threshold), or the minimum so far without a threshold: a value below
    that stop is exact, and a value at or above it can lower neither the
    minimum nor add a violation, so the report is the one full scans give.
    Colourings are still taken up to colour relabelling only, which every
    order is invariant under, so the quotient stays sound.
    """
    if n < 2 or r < 2:
        raise ValueError("need n >= 2 and r >= 2")
    if n > _MAX_N:
        raise ValueError(f"n = {n} too large: the scan walks all {n * (n - 1) // 2} edges, "
                         f"at most n = {_MAX_N}")
    if prove and r < 3:
        raise ValueError("prove mode needs r >= 3")
    _value_fn(mode)  # validate mode early
    floor = proven_floor(n, r, mode)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cores = os.cpu_count() or 1
    if threads > cores:
        raise ValueError(f"threads must be <= {cores}, the number of CPUs")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    if threads > 1 and budget is not None:
        raise ValueError("budget accounting is single-threaded; drop --threads or the budget")

    if threads == 1:
        parts = [_scan_chunk(n, r, mode, prove, floor, budget, progress, progress_every, ())]
    else:
        prefixes = _split_prefixes(n, r, threads)
        with Pool(processes=min(threads, len(prefixes))) as pool:
            parts = pool.map(partial(_scan_chunk, n, r, mode, prove, floor, None, None, 0),
                             prefixes)

    # the chunk holding the lexicographically smallest colouring that attains
    # the minimum, whatever the schedule, with every chunk's counts summed
    first = min(parts, key=lambda p: (p.minimum, p.witness.colours))
    samples = sorted({v.colours for p in parts for v in p.violations})[:_VIOLATION_SAMPLE_CAP]
    return replace(
        first, colourings_checked=sum(p.colourings_checked for p in parts),
        violation_count=sum(p.violation_count for p in parts),
        violations=tuple(EdgeColouring(n, r, s) for s in samples),
        proved=sum(p.proved for p in parts))


def _split_prefixes(n: int, r: int, threads: int) -> list[tuple[int, ...]]:
    """Short restricted-growth prefixes that partition the full enumeration."""
    length = n * (n - 1) // 2
    depth = 1
    while depth < min(length, 12):
        count = sum(1 for _ in _iter_rgs(depth, r))
        if count >= 4 * threads:
            break
        depth += 1
    return [tuple(p) for p in _iter_rgs(min(depth, length), r)]


def _scan_chunk(n: int, r: int, mode: str, prove: bool, floor: Q | None,
                budget: int | None, progress: Callable[[int], None] | None,
                progress_every: int, prefix: tuple[int, ...]) -> ExhaustReport:
    """The report on all canonical colourings extending `prefix`.

    Its witness is the lexicographically smallest colouring attaining the
    minimum, and its samples the smallest violations, so merging chunk
    reports stays deterministic whatever the schedule.  A budget that runs
    out raises BudgetExceededError carrying the report so far, incomplete.
    """
    value_of = _value_fn(mode)
    threshold = math.ceil(floor) if floor is not None else None
    top = min(r, n * (n - 1) // 2)  # no restricted-growth string of this length uses more
    processed = 0
    best = n + 1
    best_colours: tuple[int, ...] = ()
    samples: list[tuple[int, ...]] = []
    violation_count = 0
    proved = 0
    ran_out = None
    try:
        for a, masks in _budgeted(_walk_masks(n, r, prefix), budget):
            value = value_of(masks, n, top,
                             best if threshold is None or best > threshold else threshold)
            bad = threshold is not None and value < threshold
            if prove:
                colouring = EdgeColouring(n, r, tuple(a))
                try:
                    if verify_certificate(colouring, prove_global(colouring, r)).ok:
                        proved += 1
                    else:
                        bad = True
                except TheoremViolation:
                    bad = True
            if value < best:
                best = value
                best_colours = tuple(a)
            if bad:
                violation_count += 1
                if len(samples) < _VIOLATION_SAMPLE_CAP:
                    samples.append(tuple(a))
            processed += 1
            if progress is not None and processed % progress_every == 0:
                progress(processed)
    except BudgetExceededError as err:
        ran_out = err
    report = ExhaustReport(n, r, mode, processed, best, EdgeColouring(n, r, best_colours),
                           floor, threshold, violation_count,
                           tuple(EdgeColouring(n, r, s) for s in samples), proved, ran_out is None)
    if ran_out is not None:
        ran_out.partial = report
        raise ran_out
    return report
