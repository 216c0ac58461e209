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
and the colourings below the proven threshold, so nothing at or above
stop = max(running minimum, threshold) changes the report.  Each
order-only scan stops as soon as its best reaches that stop: a value below
it is exact.  The walk over the strings settles whole subtrees the same
way: adding an edge to a colour never lowers a star or component order, so
once a prefix's partial colouring reaches the stop, every completion does
too, and the subtree is counted in closed form.  Under --prove the walk
still enters it and proves and verifies each colouring in it, with no
value scan.  The cuts change how much of each colouring is looked at,
never which colourings are covered, so the quotient stays sound and every
report is the one a full scan of each colouring gives.  The colour masks
are kept live along the walk, which pushes and pops one edge's bits at a
time, and every proof reads them: no colouring's masks are built twice.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain, islice, product, repeat
from multiprocessing import Pool
from typing import Callable, Iterator

from .colouring import EdgeColouring, colour_masks, proven_floor
from .errors import BudgetExceededError, TheoremViolation
from .generators import _MAX_N, _MAX_R
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
    """Closed-form count of restricted-growth strings of length C(n,2) with at most r symbols.

    The number of completions of the empty prefix, which uses no label yet.
    """
    length = n * (n - 1) // 2
    if length < 1 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    return _completion_counts(min(r, length), None)(length, 0)


def _completion_counts(r: int, cap: int | None) -> Callable[[int, int], int]:
    """g(rem, t): the ways to extend a restricted-growth string that uses t of
    r labels by rem more, held at `cap` at most when one is given.

    g(0, t) = 1, g(rem, t) = t*g(rem-1, t) + g(rem-1, t+1) for t < r and
    r*g(rem-1, r) at t = r.  Rows are built as they are asked for, the
    first one too; g grows with t, so once a row's t = 0 entry reaches the
    cap every later row is the cap throughout and none is built, and no
    entry outgrows the cap.  A row holds r + 1 entries, so callers pass r
    no larger than the string length: no string uses more labels than it
    has entries, so above that r changes no count.
    """
    rows: list[list[int]] = []  # rows[rem][t]

    def count(rem: int, t: int) -> int:
        while len(rows) <= rem:
            if not rows:
                rows.append([1] * (r + 1))
                continue
            last = rows[-1]
            if cap is not None and last[0] >= cap:
                return cap
            row = [s * last[s] + last[s + 1] for s in range(r)] + [r * last[r]]
            rows.append(row if cap is None else [min(v, cap) for v in row])
        return rows[rem][t]
    return count


def _prefix_tops(length: int, r: int, prefix: tuple[int, ...]) -> list[int]:
    """tops[k], the number of labels the first k entries of `prefix` use, for
    k up to len(prefix); a prefix that no string of `length` extends is refused."""
    if length < 1 or r < 1:
        raise ValueError("need length >= 1 and r >= 1")
    if len(prefix) > length:
        raise ValueError("prefix longer than the string")
    tops = [0]
    for i, v in enumerate(prefix):
        if not 1 <= v <= min(r, tops[i] + 1):
            raise ValueError(f"prefix not restricted-growth at position {i}: {v}")
        tops.append(max(tops[i], v))
    return tops


def _first_string(length: int, prefix: tuple[int, ...],
                  tops: list[int]) -> tuple[list[int], list[int]]:
    """The first restricted-growth string extending `prefix`, 1 after it, and
    its tops, extending the prefix's own from `_prefix_tops`."""
    rest = length - len(prefix)
    return list(prefix) + [1] * rest, tops + [max(tops[-1], 1)] * rest


def _iter_rgs(length: int, r: int, prefix: tuple[int, ...] = ()) -> Iterator[list[int]]:
    """All restricted-growth strings of the given length extending `prefix`.

    Yields one reused buffer in lexicographic order; callers must copy
    anything they keep.
    """
    a, top = _first_string(length, prefix, _prefix_tops(length, r, prefix))
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


def _walk(n: int, r: int, prefix: tuple[int, ...],
          settled: Callable[[list[list[int]]], bool] | None
          ) -> Iterator[tuple[list[int], list[list[int]], int, int]]:
    """Depth-first walk of the restricted-growth strings over the row-major
    edges of K_n that extend `prefix`, settling whole subtrees where asked.

    Yields (a, masks, depth, used): a[:depth] uses `used` labels and masks
    holds its colour masks, with min(r, C(n,2)) colours.  depth = C(n,2)
    marks a full string; the full strings come in _iter_rgs order.  Every
    prefix longer than `prefix` that the walk enters after the first full
    string goes to `settled` (None settles none).  a is then the prefix and
    0 after it, so a.index(0) is the prefix's depth, and masks its colour
    masks.  When `settled` returns true, the prefix is yielded in place of
    its whole subtree, with a[depth:] still all 0, and the walk moves on to
    the next sibling; when false, the walk enters the subtree.  Both a and
    masks are reused buffers, moved one edge at a time: a label change
    swaps that edge's bits between two colours, a step back clears them.
    """
    length = n * (n - 1) // 2
    tops = _prefix_tops(length, r, prefix)
    # the masks come before the string: past the view cap they are refused
    # before the two C(n,2)-entry lists are built
    masks = colour_masks(n, min(r, length), chain(prefix, repeat(1, length - len(prefix))))
    a, tops = _first_string(length, prefix, tops)
    yield a, masks, length, tops[length]
    start = len(prefix)
    if start == length:
        return
    k = last = length - 1
    i, j = n - 2, n - 1  # the ends of edge k
    bi, bj = 1 << i, 1 << j
    while True:
        old = a[k]
        if old:
            row = masks[old]
            row[i] ^= bj
            row[j] ^= bi
        if old < r and old <= tops[k]:  # old + 1 is a legal label here
            new = a[k] = old + 1
            row = masks[new]
            row[i] |= bj
            row[j] |= bi
            tops[k + 1] = new if new > tops[k] else tops[k]
            if k == last:
                yield a, masks, length, tops[length]
            elif settled is not None and settled(masks):
                yield a, masks, k + 1, tops[k + 1]
            else:  # enter the subtree at edge k + 1, label 0 for now
                k += 1
                j += 1
                if j == n:
                    i += 1
                    j = i + 1
                    bi = 1 << i
                bj = 1 << j
        else:  # every label tried: step back to edge k - 1
            a[k] = 0
            if k == start:
                return
            k -= 1
            j -= 1
            if j == i:
                i -= 1
                j = n - 1
                bi = 1 << i
            bj = 1 << j


def _walk_masks(n: int, r: int,
                prefix: tuple[int, ...]) -> Iterator[tuple[list[int], list[list[int]]]]:
    """(a, masks) for every restricted-growth string a extending `prefix`, as _iter_rgs yields it.

    The walk with no cuts: masks are the colour masks of a over the
    row-major edges of K_n, with min(r, C(n,2)) colours, and both are reused
    buffers.
    """
    return ((a, masks) for a, masks, _, _ in _walk(n, r, prefix, None))


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
    for values in islice(stream, spec.budget):
        yield EdgeColouring(spec.n, spec.r, tuple(values))
    for _ in stream:
        raise BudgetExceededError(spec.budget)


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

    Nothing at or above max(minimum so far, threshold), or the minimum so
    far without a threshold, can lower the minimum or add a violation, so
    each order-only scan stops there, and a prefix whose partial colouring
    already reaches it settles its whole subtree (see _scan_chunk):
    colourings_checked counts every colouring covered, and the report is
    the one full scans of every colouring give.  Colourings are still taken
    up to colour relabelling only, which every order is invariant under, so
    the quotient stays sound.
    """
    if n < 2 or r < 2:
        raise ValueError("need n >= 2 and r >= 2")
    if n > _MAX_N:
        raise ValueError(f"n = {n} too large: the scan walks all {n * (n - 1) // 2} edges, "
                         f"at most n = {_MAX_N}")
    if prove and r < 3:
        raise ValueError("prove mode needs r >= 3")
    if prove and r > _MAX_R:  # every proved colouring's view keeps a row per colour
        raise ValueError(f"r = {r} too large: at most r = {_MAX_R} under prove")
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

    Once the first colouring has set stop = max(minimum so far, threshold),
    or the minimum so far without a threshold, the walk values every prefix
    it enters.  Adding an edge to a colour never lowers a star or component
    order, so when a prefix's partial colouring already reaches stop, every
    completion does too: none lowers the minimum, none ties it ahead of the
    witness, which the walk met earlier, and none falls below the threshold.
    The prefix's subtree is settled at once.  Without prove its colourings
    are counted in closed form.  With prove the same walk enters the
    subtree: `settled` marks its depth and returns false, each colouring in
    it is proved and verified with no value scan, and no prefix inside it
    is valued, since stop cannot move while no colouring is valued.  Each
    proof reads the walk's live masks through `EdgeColouring.on_masks`, so
    no colouring's masks are built again.  colourings_checked counts
    the colourings covered, settled subtrees included, and the budget falls
    on the count a walk over every colouring gives.  Progress ticks at most
    once per step of the walk, at the last multiple of progress_every that
    the step passes, so a leaf-by-leaf walk ticks at every multiple.

    Its witness is the lexicographically smallest colouring attaining the
    minimum, and its samples the smallest violations, so merging chunk
    reports stays deterministic whatever the schedule.  A budget that runs
    out raises BudgetExceededError carrying the report so far, incomplete.
    """
    value_of = _value_fn(mode)
    threshold = math.ceil(floor) if floor is not None else None
    length = n * (n - 1) // 2
    top = min(r, length)  # no restricted-growth string of this length uses more
    completions = _completion_counts(top, None if budget is None else budget + 1)
    processed = 0
    best, stop = n + 1, n  # no order exceeds n, so a scan that stops at n is exact
    best_colours: tuple[int, ...] = ()
    samples: list[tuple[int, ...]] = []
    violation_count = 0
    proved = 0
    ran_out = None
    inside = 0  # under prove: the depth of the settled prefix the walk is in, else 0

    def settled(masks: list[list[int]]) -> bool:
        return value_of(masks, n, top, stop) >= stop

    def settled_under_prove(masks: list[list[int]]) -> bool:
        """Mark a settled prefix and enter it all the same: each of its
        colourings is proved.  a is the walk's buffer, bound by then."""
        nonlocal inside
        depth = a.index(0)
        if not inside or depth <= inside:  # a prefix outside the marked subtree
            inside = depth if value_of(masks, n, top, stop) >= stop else 0
        return False

    def cover(size: int) -> None:
        """Count `size` more colourings, as far as the budget allows, with one
        progress tick at the last multiple of progress_every they pass."""
        nonlocal processed
        room = size if budget is None else min(size, budget - processed)
        done = processed + room
        if progress is not None and done // progress_every > processed // progress_every:
            progress(done - done % progress_every)
        processed = done
        if room < size:
            raise BudgetExceededError(budget)

    def record(colours: tuple[int, ...], masks: list[list[int]], bad: bool) -> None:
        """Prove and verify the colouring, whose masks the walk holds, when
        asked; count it if it is bad."""
        nonlocal proved, violation_count
        if prove:
            colouring = EdgeColouring.on_masks(n, r, colours, masks)
            try:
                if verify_certificate(colouring, prove_global(colouring, r)).ok:
                    proved += 1
                else:
                    bad = True
            except TheoremViolation:
                bad = True
        if bad:
            violation_count += 1
            if len(samples) < _VIOLATION_SAMPLE_CAP:
                samples.append(colours)

    try:
        for a, masks, depth, used in _walk(n, r, prefix,
                                           settled_under_prove if prove else settled):
            if depth < length:  # a settled prefix, without prove
                cover(completions(length - depth, used))
            elif inside:  # a colouring under a settled prefix, under prove
                cover(1)
                record(tuple(a), masks, False)
            else:
                cover(1)
                value = value_of(masks, n, top, stop)
                if value < best:
                    best = value
                    best_colours = tuple(a)
                    stop = best if threshold is None or best > threshold else threshold
                bad = threshold is not None and value < threshold
                if prove or bad:
                    record(tuple(a), masks, bad)
    except BudgetExceededError as err:
        ran_out = err
    report = ExhaustReport(n, r, mode, processed, best, EdgeColouring(n, r, best_colours),
                           floor, threshold, violation_count,
                           tuple(EdgeColouring(n, r, s) for s in samples), proved, ran_out is None)
    if ran_out is not None:
        ran_out.partial = report
        raise ran_out
    return report
