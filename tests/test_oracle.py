"""Brute-force ground truth, canonical enumeration, and exhaustive checks."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as Q
from itertools import islice, zip_longest

import pytest

import tristar.oracle as oracle_module
from tristar.colouring import (EdgeColouring, colour_masks, component_masks, edge_count,
                               edge_index)
from tristar.errors import BudgetExceededError
from tristar.generators import (affine_colouring, constant_colouring,
                                projective_local_colouring, random_colouring)
from tristar.oracle import (EnumerationSpec, brute_max_double_star,
                            brute_max_triple_star, canonical_count,
                            enumerate_colourings, exhaustive_theorem_check)
from tristar.oracle import _component_order, _iter_rgs, _split_prefixes, _walk_masks
from tristar.stars import _double_scan, _triple_scan
from tristar.stars import (max_double_star, max_double_star_order, max_triple_star,
                           max_triple_star_order)

K4_PROPER = EdgeColouring(4, 3, (1, 2, 3, 3, 2, 1))


# --- brute finders -----------------------------------------------------------

def test_brute_hand_cases():
    assert brute_max_double_star(constant_colouring(5, 2)).order == 5
    assert brute_max_triple_star(constant_colouring(6, 2)).order == 6
    assert brute_max_double_star(K4_PROPER).order == 2
    assert brute_max_triple_star(K4_PROPER) is None


def test_brute_agrees_with_fast_finders():
    rng = random.Random(606)
    for _ in range(60):
        n = rng.randint(2, 9)
        m = rng.randint(1, 4)
        c = EdgeColouring(n, m, tuple(rng.randint(1, m)
                                      for _ in range(edge_count(n))))
        slow = brute_max_double_star(c)
        fast = max_double_star(c)
        assert (slow.colour, slow.centres, slow.order) == (fast.colour, fast.centres, fast.order)
        assert sorted(slow.vertices) == list(fast.vertices)
        ts_slow = brute_max_triple_star(c)
        ts_fast = max_triple_star(c)
        if ts_slow is None:
            assert ts_fast is None
        else:
            assert (ts_slow.colour, ts_slow.centres, ts_slow.order) == \
                   (ts_fast.colour, ts_fast.centres, ts_fast.order)


def relabelled(colouring: EdgeColouring, rnd: random.Random) -> EdgeColouring:
    """The colouring with its vertices and its colours shuffled."""
    n, m = colouring.n, colouring.m
    perm = list(range(n))
    rnd.shuffle(perm)
    hue = list(range(1, m + 1))
    rnd.shuffle(hue)
    colours = [0] * edge_count(n)
    for i in range(n - 1):
        for j in range(i + 1, n):
            colours[edge_index(n, perm[i], perm[j])] = hue[colouring.colour_of(i, j) - 1]
    return EdgeColouring(n, m, tuple(colours))


def one_factorisation(n: int) -> EdgeColouring:
    """Round-robin proper (n-1)-colouring of K_n, n even: every class a perfect matching."""
    colours = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            colours.append((2 * i if j == n - 1 else i + j) % (n - 1) + 1)
    return EdgeColouring(n, n - 1, tuple(colours))


def assert_fast_finders_match_brute(c: EdgeColouring) -> None:
    """Witness for witness, and the order-only kernels order for order."""
    masks = c.view.masks
    slow, fast = brute_max_double_star(c), max_double_star(c)
    assert (slow.colour, slow.centres, slow.order, slow.vertices) == \
           (fast.colour, fast.centres, fast.order, fast.vertices)
    assert max_double_star_order(masks, c.n, c.m) == slow.order
    slow, fast = brute_max_triple_star(c), max_triple_star(c)
    if slow is None:
        assert fast is None
        assert max_triple_star_order(masks, c.n, c.m) == 0
    else:
        assert (slow.colour, slow.centres, slow.order, slow.vertices) == \
               (fast.colour, fast.centres, fast.order, fast.vertices)
        assert max_triple_star_order(masks, c.n, c.m) == slow.order


def test_brute_agrees_with_fast_finders_on_tie_heavy_colourings():
    # Plane colourings tie across many colours, middles and centre edges;
    # shuffled labels move the first maximum away from vertex 0 and colour 1.
    rnd = random.Random(31)
    planes = (affine_colouring(2, 3), affine_colouring(3, 1), projective_local_colouring(2, 2))
    cases = list(planes) + [relabelled(c, rnd) for c in planes for _ in range(3)]
    cases += [one_factorisation(n) for n in (4, 6, 8)]
    cases += [relabelled(one_factorisation(n), rnd) for n in (6, 10)]
    for c in cases:
        assert_fast_finders_match_brute(c)


def spanning_double_star(rng: random.Random, n: int, m: int) -> EdgeColouring:
    """A random colouring in which some centre edge {x, y} of colour 1 reaches
    every other vertex through x or y in colour 1."""
    colours = [rng.randint(1, m) for _ in range(edge_count(n))]
    x, y = sorted(rng.sample(range(n), 2))
    colours[edge_index(n, x, y)] = 1
    for v in range(n):
        if v != x and v != y:
            centre = rng.choice((x, y))
            colours[edge_index(n, min(v, centre), max(v, centre))] = 1
    return EdgeColouring(n, m, tuple(colours))


def test_double_witness_that_spans_every_vertex_is_the_first_maximum():
    # max_double_star returns the first centre edge whose double star has all
    # n vertices; no later one can beat it, so it is the full scan's witness
    cases = [c for r in (1, 2, 3, 4) for c in enumerate_colourings(EnumerationSpec(4, r))]
    cases += enumerate_colourings(EnumerationSpec(5, 3))
    rng = random.Random(1212)
    cases += [spanning_double_star(rng, rng.randint(2, 12), rng.randint(1, 5))
              for _ in range(300)]
    spanning = 0
    for c in cases:
        slow, fast = brute_max_double_star(c), max_double_star(c)
        assert (slow.colour, slow.centres, slow.order, slow.vertices) == \
               (fast.colour, fast.centres, fast.order, fast.vertices)
        spanning += fast.order == c.n
    assert spanning > len(cases) // 2


def test_triple_witness_on_constant_colourings_keeps_the_smallest_outer_centre():
    # every path of the one colour spans all n vertices; the first one the
    # scan meets, 1 - 0 - 2, loses the tie-break to the later 0 - 1 - 2, so a
    # triple scan stopped at order n would return the wrong witness
    for n in range(3, 11):
        witness = max_triple_star(constant_colouring(n, 3))
        assert (witness.colour, witness.centres, witness.order) == (1, (0, 1, 2), n)


def late_cap_tie() -> EdgeColouring:
    """Colour 1 is a tree A spanned by the path 2 - 0 - 3, every degree below 6,
    and a clique B of the same order 14 that holds vertex 1; every other
    colour is a matching.  The path through A is the best before the scan
    meets a middle of degree 6 (vertex 1) and first takes the colour's
    largest component, which equals that best; a later path 1 - 4 - 5 of B
    ties it with a smaller u and must win."""
    n = 28
    leaves = list(range(17, 28))
    tree = {0: [2, 3] + leaves[:3], 2: leaves[3:7], 3: leaves[7:11]}
    clique = [1] + list(range(4, 17))
    colours = [c + 1 for c in one_factorisation(n).colours]
    for x, ys in tree.items():
        for y in ys:
            colours[edge_index(n, min(x, y), max(x, y))] = 1
    for a, x in enumerate(clique):
        for y in clique[a + 1:]:
            colours[edge_index(n, x, y)] = 1
    return EdgeColouring(n, n, tuple(colours))


def bound_firing_cases() -> list[EdgeColouring]:
    """Colourings at n 12-40 where a colour degree of 6 or more switches on
    the upper bounds that let the scans skip colours, middles and first
    leaves; constant colourings and shuffled plane blow-ups are full of
    ties the bounds must not skip."""
    rnd = random.Random(47)
    planes = [affine_colouring(2, mult) for mult in (4, 6, 8)]
    planes += [affine_colouring(3, mult) for mult in (3, 4)]
    planes += [projective_local_colouring(2, mult) for mult in (3, 4, 5)]
    planes += [projective_local_colouring(3, mult) for mult in (2, 3)]
    cases = [constant_colouring(n, r) for n, r in ((12, 1), (23, 3), (28, 2))]
    cases += [random_colouring(n, r, seed)
              for seed, (n, r) in enumerate(((12, 2), (20, 2), (30, 2), (28, 3),
                                             (33, 4), (26, 5), (40, 5)))]
    cases += [relabelled(c, rnd) for c in planes]
    cases += [relabelled(c, rnd) for c in planes if c.n <= 28]
    cases.append(late_cap_tie())
    return cases


def test_bounded_scans_agree_with_brute_where_the_bounds_fire():
    for c in bound_firing_cases():
        assert max(v.bit_count() for row in c.view.masks for v in row) >= 6
        assert_fast_finders_match_brute(c)


def scan_order_records(masks, n: int, m: int):
    """The strict improvements of each order-only scan, visiting every candidate
    in its scan order: triple paths by colour, middle x, then u < w; centre
    edges by colour, then (x, y); components by colour, then as
    component_masks lists them.  Each record is (order, witness key)."""
    def improvements(candidates):
        best, records = 0, []
        for order, key in candidates:
            if order > best:
                best = order
                records.append((order, key))
        return records

    def bits(mask):
        return [v for v in range(n) if mask >> v & 1]

    triple = (((row[u] | row[x] | row[w]).bit_count(), (c, u, x, w))
              for c, row in enumerate(masks[1:m + 1], 1) for x in range(n)
              for a, u in enumerate(bits(row[x])) for w in bits(row[x])[a + 1:])
    double = (((row[x] | row[y]).bit_count(), (c, x, y))
              for c, row in enumerate(masks[1:m + 1], 1) for x in range(n)
              for y in bits(row[x]) if y > x)
    component = ((comp.bit_count(), ()) for c in range(1, m + 1)
                 for comp in component_masks(masks[c]))
    return improvements(triple), improvements(double), improvements(component)


def test_scans_stop_at_the_first_candidate_that_reaches_stop():
    # Below stop a scan's value is exact; at or above it the scan returns the
    # first candidate in its own order whose order reaches stop, which lies
    # in [stop, maximum].  Every stop from 0 to n + 1 is tried; n + 1 is the
    # full scan.
    def canonical(labels):
        hue = {}
        return tuple(hue.setdefault(v, len(hue) + 1) for v in labels)

    rnd = random.Random(71)
    cases = [EdgeColouring(4, 6, tuple(a)) for a in _iter_rgs(6, 6)]
    cases += [EdgeColouring(5, 4, tuple(a)) for a in islice(_iter_rgs(10, 4), 0, None, 97)]
    cases += [EdgeColouring(6, 3, canonical(rnd.randint(1, 3) for _ in range(15)))
              for _ in range(300)]
    cases += bound_firing_cases()
    for c in cases:
        n, m, masks = c.n, c.m, c.view.masks
        kernels = (lambda stop: _triple_scan(masks, n, m, stop),
                   lambda stop: _double_scan(masks, n, m, stop),
                   lambda stop: (_component_order(masks, n, m, stop),))
        for kernel, records in zip(kernels, scan_order_records(masks, n, m)):
            top = records[-1][0] if records else 0
            for stop in range(n + 2):
                value, *key = kernel(stop)
                assert value == top if top < stop else stop <= value <= top
                first = next((rec for rec in records if rec[0] >= stop), None)
                assert first is None or (value, tuple(key)) == first


def test_walk_masks_match_a_fresh_build_at_every_step():
    # The live table moves only the changed suffix of each string; it must
    # hold exactly the masks of the string yielded with it, from the empty
    # prefix and from every prefix the threaded scan starts at.
    prefixes = [()] + _split_prefixes(5, 4, 2)
    assert len(prefixes) > 2
    for prefix in prefixes:
        walked = 0
        for (a, masks), b in zip_longest(_walk_masks(5, 4, prefix), _iter_rgs(10, 4, prefix)):
            assert a == b
            assert masks == colour_masks(5, 4, a)
            walked += 1
        assert walked > 1
    # a string shorter than the palette sizes the table to the colours it can use
    for a, masks in _walk_masks(3, 1000, ()):
        assert masks == colour_masks(3, 3, a)


# --- enumeration -------------------------------------------------------------

def test_canonical_count_closed_form():
    assert canonical_count(3, 2) == 4
    assert canonical_count(4, 3) == 122
    assert canonical_count(5, 3) == 9842
    assert canonical_count(6, 3) == 2391485
    assert canonical_count(3, 1) == 1


def test_canonical_enumeration_k3_two_colours():
    spec = EnumerationSpec(3, 2)
    got = [c.colours for c in enumerate_colourings(spec)]
    assert got == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]


def test_canonical_enumeration_matches_count_and_growth_rule():
    spec = EnumerationSpec(4, 3)
    seen = set()
    for c in enumerate_colourings(spec):
        assert c.colours[0] == 1
        top = 0
        for v in c.colours:
            assert 1 <= v <= min(3, top + 1)
            top = max(top, v)
        seen.add(c.colours)
    assert len(seen) == canonical_count(4, 3)


def test_non_canonical_enumeration_is_the_full_product():
    spec = EnumerationSpec(4, 2, canonical=False)
    got = {c.colours for c in enumerate_colourings(spec)}
    assert len(got) == 2 ** 6


def test_enumeration_budget_raises_partial_error():
    spec = EnumerationSpec(5, 3, budget=10)
    seen = []
    with pytest.raises(BudgetExceededError) as err:
        for c in enumerate_colourings(spec):
            seen.append(c)
    assert len(seen) == 10
    assert err.value.processed == 10
    # a budget that covers the whole space does not trigger
    spec = EnumerationSpec(3, 2, budget=4)
    assert len(list(enumerate_colourings(spec))) == 4


def test_prefix_split_partitions_the_space():
    prefixes = _split_prefixes(4, 3, threads=3)
    assert len(prefixes) >= 3
    # stream each prefix chunk through the private iterator: the chunks must
    # partition the full length-6 enumeration with no overlap and no gap
    from tristar.oracle import _iter_rgs
    total = set()
    for p in prefixes:
        for a in _iter_rgs(6, 3, p):
            t = tuple(a)
            assert t not in total
            total.add(t)
    assert len(total) == canonical_count(4, 3)


# --- exhaustive checks -------------------------------------------------------

def test_exhaust_k4_three_colours_degenerate_floor():
    report = exhaustive_theorem_check(4, 3, mode="triple")
    assert report.ok and report.complete
    assert report.colourings_checked == 122
    assert report.minimum == 2
    assert report.threshold == 2
    # the witness is a proper 3-edge-colouring: every class a perfect matching
    w = report.witness
    for colour in range(1, 4):
        assert all(row.bit_count() == 1 for row in w.view.masks[colour])
    assert max_triple_star(w) is None


def test_exhaust_k5_three_colours():
    report = exhaustive_theorem_check(5, 3, mode="triple")
    assert report.ok
    assert report.colourings_checked == 9842
    assert report.minimum == 3
    assert report.floor == Q(5, 2)
    assert report.threshold == 3
    assert report.violation_count == 0


def test_exhaust_k5_four_colours():
    report = exhaustive_theorem_check(5, 4, mode="triple")
    assert report.ok
    assert report.floor == Q(5, 3)
    assert report.minimum >= report.threshold


def test_exhaust_component_mode():
    report = exhaustive_theorem_check(4, 3, mode="component")
    assert report.ok
    assert report.minimum == 2  # the proper colouring: all components single edges
    assert report.floor == Q(2)


def test_exhaust_double_mode():
    report = exhaustive_theorem_check(4, 3, mode="double")
    assert report.ok
    assert report.minimum == 2
    assert report.floor == Q(4 * 4 + 2, 9)


def test_exhaust_two_colours_reports_without_asserting():
    report = exhaustive_theorem_check(4, 2, mode="triple")
    assert report.floor is None and report.threshold is None
    assert report.violation_count == 0
    assert report.minimum >= 2


def test_exhaust_with_prove_verifies_every_colouring():
    report = exhaustive_theorem_check(4, 3, mode="triple", prove=True)
    assert report.ok
    assert report.proved == report.colourings_checked == 122


def test_exhaust_threads_match_single_thread():
    single = exhaustive_theorem_check(5, 3, mode="triple")
    threaded = exhaustive_theorem_check(5, 3, mode="triple", threads=2)
    assert threaded == single


def test_exhaust_starts_no_more_workers_than_prefixes(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(oracle_module, "Pool", InProcessPool)
    monkeypatch.setattr(oracle_module.os, "cpu_count", lambda: 8)
    for n, r, threads in ((2, 3, 2), (3, 2, 8)):
        prefixes = len(_split_prefixes(n, r, threads))
        assert prefixes < threads
        threaded = exhaustive_theorem_check(n, r, mode="triple", threads=threads)
        assert started[-1] == prefixes
        assert threaded == exhaustive_theorem_check(n, r, mode="triple")
    assert started == [1, 4]


def test_exhaust_budget_carries_partial_report():
    with pytest.raises(BudgetExceededError) as err:
        exhaustive_theorem_check(5, 3, mode="triple", budget=100)
    partial = err.value.partial
    assert err.value.processed == 100
    assert partial is not None and not partial.complete
    assert partial.colourings_checked == 100
    assert partial.minimum >= partial.threshold


def test_exhaust_progress_callback():
    ticks = []
    exhaustive_theorem_check(4, 3, mode="triple", progress=ticks.append,
                             progress_every=50)
    assert ticks == [50, 100]


def test_exhaust_input_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        exhaustive_theorem_check(4, 3, mode="stars")
    with pytest.raises(ValueError, match="n >= 2 and r >= 2"):
        exhaustive_theorem_check(4, 1)
    with pytest.raises(ValueError, match="prove mode needs r >= 3"):
        exhaustive_theorem_check(4, 2, prove=True)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        exhaustive_theorem_check(4, 3, threads=0)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        exhaustive_theorem_check(4, 3, budget=0)
    with pytest.raises(ValueError, match="single-threaded"):
        exhaustive_theorem_check(4, 3, threads=2, budget=10)


def test_exhaust_rejects_n_above_the_bound_before_allocating(monkeypatch):
    # The scan would build all C(n,2) edges before the budget is checked; a
    # huge n must be refused before anything is built or started.
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(oracle_module, "_scan_chunk", reached)
    monkeypatch.setattr(oracle_module, "Pool", reached)
    monkeypatch.setattr(oracle_module, "proven_floor", reached)
    for n in (2001, 100000, 10 ** 18):
        with pytest.raises(ValueError, match="too large"):
            exhaustive_theorem_check(n, 3, budget=5)
    with pytest.raises(Reached):
        exhaustive_theorem_check(2000, 3, budget=5)


def test_exhaust_rejects_r_above_the_bound_under_prove_before_scanning(monkeypatch):
    # every proved colouring builds a view with a row per colour, so a huge r
    # under prove must be refused before any colouring is scanned; without
    # prove the scan never needs such a row and r is left alone
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(oracle_module, "_scan_chunk", reached)
    monkeypatch.setattr(oracle_module, "Pool", reached)
    monkeypatch.setattr(oracle_module, "proven_floor", reached)
    for r in (2001, 10 ** 7, 10 ** 18):
        with pytest.raises(ValueError, match=f"r = {r} too large.*at most r = 2000"):
            exhaustive_theorem_check(3, r, prove=True)
    with pytest.raises(Reached):
        exhaustive_theorem_check(3, 2000, prove=True)
    with pytest.raises(Reached):
        exhaustive_theorem_check(3, 10 ** 7)


def test_the_walk_masks_are_refused_past_the_view_cap_before_they_are_built():
    # the walk keeps an n-entry row for each of min(r, C(n, 2)) colours and
    # row 0: 20001 rows of 1000 entries are past the 10^7-entry cap
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="20001 colours in use on 1000 vertices: "
                                             "the mask view would hold 20001000 entries"):
            exhaustive_theorem_check(1000, 20000, budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20  # the rows alone would take 160 MB


def test_completion_counts_stay_small_for_a_huge_palette():
    # no string of C(3, 2) = 3 edges uses more than three labels, so an r far
    # above that changes no count and must cost no row of r integers
    assert canonical_count(3, 99999999999) == canonical_count(3, 3) == 5
    report = exhaustive_theorem_check(3, 99999999999, mode="triple", budget=5)
    assert (report.colourings_checked, report.complete) == (5, True)


def test_an_over_cap_walk_is_refused_before_anything_is_allocated():
    # min(10^6, C(2000, 2)) colours and row 0 on 2000 vertices: the refusal
    # comes before the completion counts (a row of 10^6 + 1 entries) and the
    # first string and its tops (two lists of C(2000, 2) entries)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000001 colours in use on 2000 vertices: "
                                             "the mask view would hold 2000002000 entries"):
            exhaustive_theorem_check(2000, 10 ** 6, budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
