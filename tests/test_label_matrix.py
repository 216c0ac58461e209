"""The label matrix and the kernels it feeds, against per-edge reference loops.

Mask views, single-colour rows, locality and validation are each checked
against a plain per-edge loop kept here, over labels on both sides of
every byte boundary, on both mask paths (per-edge and label matrix) and
with every row forced to translate.
"""
from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tristar.colouring as colouring_module
from tristar.cli import build_analysis, main
from tristar.colouring import (EdgeColouring, _find_violations, edge_count, edge_index, locality,
                               validate)
from tristar.oracle import exhaustive_theorem_check
from tristar.prover import prove_global, prove_local, verify_certificate

PALETTES = (1, 3, 255, 256, 257, 65535, 65536)
EXAMPLES = settings(max_examples=120, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_masks(n: int, m: int, colours) -> dict[int, list[int]]:
    """Colour -> adjacency masks, one edge at a time, for the colours that occur."""
    masks: dict[int, list[int]] = {}
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            row = masks.setdefault(colours[k], [0] * n)
            row[i] |= 1 << j
            row[j] |= 1 << i
            k += 1
    return masks


def reference_incident(n: int, colours) -> tuple[frozenset[int], ...]:
    incident = [set() for _ in range(n)]
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            incident[i].add(colours[k])
            incident[j].add(colours[k])
            k += 1
    return tuple(map(frozenset, incident))


def reference_violations(n: int, m: int, colours) -> tuple[str, ...]:
    cap = colouring_module._MAX_M
    problems = []
    if n < 2:
        problems.append("n >= 2 required")
    if m < 1:
        problems.append("m >= 1 required")
    if m > cap:
        problems.append(f"m <= {cap} required")
    want = edge_count(n) if n >= 2 else 0
    if len(colours) != want:
        problems.append(f"missing or surplus edge colours: expected {want}, found {len(colours)}")
    for k, c in enumerate(colours[:want] if m <= cap else ()):  # no label is read above the cap
        if not isinstance(c, int) or not 1 <= c <= m:
            problems.append(f"label out of range at edge position {k}: {c!r}")
    return tuple(problems)


def boundary_labels(m: int) -> list[int]:
    """1, m and the labels on either side of each byte boundary up to m."""
    near = {1, 2, m - 1, m}
    for edge in (1 << 8, 1 << 16):
        near |= {edge - 2, edge - 1, edge, edge + 1}
    return sorted(c for c in near if 1 <= c <= m)


@st.composite
def colourings(draw, n_max: int = 60):
    n = draw(st.integers(2, n_max))
    m = draw(st.sampled_from(PALETTES))
    pool = draw(st.lists(st.one_of(st.sampled_from(boundary_labels(m)), st.integers(1, m)),
                         min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        colours = tuple(rng.choice(pool) for _ in range(edge_count(n)))
    else:  # rows of one label up to rows of every label in the pool
        colours = []
        for i in range(n - 1):
            few = pool[:1 + i * len(pool) // n]
            colours += [rng.choice(few) for _ in range(n - 1 - i)]
        colours = tuple(colours)
    return EdgeColouring(n, m, colours)


# Each mask path: the per-edge loop alone, the label matrix with the
# cheaper method for the colouring, and the label matrix forced to
# translate every row.
PATHS = {
    "per-edge": {},
    "matrix": {"_MATRIX_MIN_N": 2},
    "matrix-translate": {"_MATRIX_MIN_N": 2, "_EDGE_COST": 10 ** 9},
}


@pytest.fixture(params=sorted(PATHS))
def mask_path(request, monkeypatch):
    for name, value in PATHS[request.param].items():
        monkeypatch.setattr(colouring_module, name, value)
    return request.param


def fresh(c: EdgeColouring) -> EdgeColouring:
    return EdgeColouring(c.n, c.m, c.colours)


@EXAMPLES
@given(c=colourings())
def test_view_masks_match_the_per_edge_loop(mask_path, c):
    want = reference_masks(c.n, c.m, c.colours)
    masks = fresh(c).view.masks
    assert len(masks) == c.m + 1
    for colour, row in want.items():
        assert list(masks[colour]) == row
    # only colours that occur get rows of their own; the rest share one empty row
    others = {id(row): row for colour, row in enumerate(masks) if colour not in want}
    assert len(others) == 1 and not any(others.popitem()[1])


@EXAMPLES
@given(c=colourings())
def test_single_colour_rows_match_the_per_edge_loop(mask_path, c):
    want = reference_masks(c.n, c.m, c.colours)
    probe = fresh(c)
    for colour in sorted(want)[:4] + [c.m]:
        assert list(probe.colour_rows(colour)) == want.get(colour, [0] * c.n)
    assert "view" not in probe.__dict__ or mask_path == "per-edge"


@EXAMPLES
@given(c=colourings())
def test_locality_matches_the_per_edge_loop(mask_path, c):
    report = locality(fresh(c))
    incident = reference_incident(c.n, c.colours)
    assert report.incident == incident
    assert report.locality == max(map(len, incident))


class Index:
    """Not an int, but bytes() and array() would convert it to one."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Index({self.value})"


BAD_LABELS = (0, -1, True, 2.0, "3", 2 ** 70, "m+1", Index(1))


@EXAMPLES
@given(c=colourings(n_max=30), data=st.data())
def test_validation_matches_the_per_label_loop(c, data):
    colours = list(c.colours)
    for _ in range(data.draw(st.integers(0, 3))):
        bad = data.draw(st.sampled_from(BAD_LABELS))
        colours[data.draw(st.integers(0, len(colours) - 1))] = c.m + 1 if bad == "m+1" else bad
    cut = data.draw(st.sampled_from((0, 0, 0, -1, 1, 2)))
    if cut < 0:
        colours = colours[:cut]
    else:
        colours += [data.draw(st.sampled_from(BAD_LABELS[:1] + (1,)))] * cut
    probe = EdgeColouring(c.n, c.m, tuple(colours))
    assert _find_violations(probe).violations == reference_violations(c.n, c.m, tuple(colours))


def test_validation_edge_cases_word_each_violation():
    for n, m, colours in [(1, 1, ()), (3, 0, (0, 0, 0)), (3, -2, (1, 1, 1)), (3, 2 ** 70, (1, 2 ** 70, 3)),
                          (3, 2 ** 70, (1, 2 ** 70 + 1, 0)), (3, 257, (True, 257, 258)),
                          (3, 3, (1, 2)), (3, 3, (1, 2, 3, 4, "x")),
                          # bytes() and array() would read Index(2) as 2
                          (3, 3, (1, Index(2), 1)), (3, 300, (1, Index(2), 1)),
                          (3, 70000, (1, Index(2), 1)), (3, 2 ** 40, (Index(2), 1, 1))]:
        probe = EdgeColouring(n, m, colours)
        assert _find_violations(probe).violations == reference_violations(n, m, colours)


def test_a_row_meeting_every_colour_keeps_the_masks_exact():
    # vertex 0 meets every colour, every other edge has colour 1: one costly
    # row among cheap ones, which the colouring as a whole translates
    n, m = 80, 300
    colours = [c + 1 for c in range(n - 1)] + [1] * (edge_count(n) - (n - 1))
    c = EdgeColouring(n, m, tuple(colours))
    labels = c.labels
    assert len(labels.row_labels[0]) == n - 1 and len(labels.row_labels[2]) == 2
    want = reference_masks(n, m, c.colours)
    for colour, row in want.items():
        assert c.view.masks[colour] == row


def test_unused_colours_share_one_empty_row():
    c = EdgeColouring(3, 10 ** 6, (1, 2, 1))
    masks = c.view.masks
    assert len(masks) == 10 ** 6 + 1
    assert len({id(row) for row in masks}) == 3  # colours 1 and 2, and the shared row
    assert masks[5] == (0, 0, 0)
    with pytest.raises(TypeError):
        masks[5][0] = 1  # read-only


def test_exhaust_sizes_its_masks_to_the_colours_a_string_can_use():
    huge = exhaustive_theorem_check(3, 10 ** 6, mode="triple")
    assert huge.colourings_checked == 5  # partitions of three edges
    small = exhaustive_theorem_check(3, 3, mode="triple")
    assert (huge.minimum, huge.witness.colours) == (small.minimum, small.witness.colours)


def test_search_rejects_n_above_the_generator_limit(capsys):
    code = main(["search", "--n", "2001", "--r", "3", "--objective", "triple",
                 "--iters", "1", "--seed", "1"])
    assert code == 2
    assert "n = 2001 too large" in capsys.readouterr().err


def test_palettes_above_the_cap_are_refused_before_anything_is_built():
    cap = colouring_module._MAX_M
    assert validate(EdgeColouring(3, cap, (1, 2, cap))).ok
    for m in (cap + 1, 2 ** 70):
        assert validate(EdgeColouring(3, m, (1, 2, m))).violations == (f"m <= {cap} required",)
    cert = prove_global(EdgeColouring(4, 3, (1,) * 6), 3)
    for c in (EdgeColouring(4, 3 * 10 ** 8, (1,) * 6), EdgeColouring(4, 2 ** 70, (1, 2 ** 70) * 3)):
        tracemalloc.start()
        try:
            for call in (lambda: prove_global(c, c.m), lambda: prove_local(c, 3),
                         lambda: build_analysis(c)):
                with pytest.raises(ValueError, match=f"invalid colouring: m <= {cap} required"):
                    call()
            report = verify_certificate(c, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.failures == (f"invalid colouring: m <= {cap} required",)
        assert peak < 8 * 2 ** 20


def test_labels_at_either_end_of_a_row_are_found():
    # a label met only at column 0 or column n-1 of a row: the ends of each
    # row's window in the matrix, where a search off by one would miss it
    n, m = 70, 3
    colours = [1] * edge_count(n)
    colours[edge_index(n, 0, 5)] = 2
    colours[edge_index(n, 3, n - 1)] = 3
    c = EdgeColouring(n, m, tuple(colours))
    assert locality(c).incident == reference_incident(n, c.colours)
    want = reference_masks(n, m, c.colours)
    for colour, row in want.items():
        assert c.view.masks[colour] == row


def test_a_view_past_the_entry_cap_is_refused_before_it_is_built(mask_path, monkeypatch):
    n = 6
    used = edge_count(n)
    rainbow = EdgeColouring(n, used + 5, tuple(range(1, used + 1)))
    monkeypatch.setattr(colouring_module, "_MAX_VIEW_ENTRIES", used * n)
    masks = fresh(rainbow).view.masks
    assert len(masks) == used + 6 and masks[1][0] == 0b10
    monkeypatch.setattr(colouring_module, "_MAX_VIEW_ENTRIES", used * n - 1)
    probe = fresh(rainbow)
    with pytest.raises(ValueError, match=f"{used} colours in use on {n} vertices: "
                                         f"the mask view would hold {used * n} entries"):
        probe.view
    assert "view" not in probe.__dict__
    # only the colours in use count, not the header m
    assert fresh(EdgeColouring(n, 10**6, (1,) * used)).view.masks[1][0] == 0b111110
