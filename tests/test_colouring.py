"""Colouring model, text format, components, locality and the bound registry."""
from __future__ import annotations

import random
import re
from fractions import Fraction as Q

import pytest

import tristar.colouring as colouring_module
from tristar.colouring import (EdgeColouring, colour_components, colour_masks, component_bound,
                               double_star_bound, double_star_bound_local,
                               edge_count, edge_index, format_colouring,
                               iter_bits, known_bounds, local_component_bound,
                               locality, max_component, no_affine_component_bound,
                               parse_colouring, proven_floor, subgraph_diameter,
                               triple_star_bound, triple_star_bound_local,
                               validate)
from tristar.errors import ColouringFormatError

K4_PROPER = EdgeColouring(4, 3, (1, 2, 3, 3, 2, 1))  # three perfect matchings


def random_colours(rng: random.Random, n: int, m: int) -> EdgeColouring:
    return EdgeColouring(n, m, tuple(rng.randint(1, m) for _ in range(edge_count(n))))


# --- indexing ----------------------------------------------------------------

def test_edge_count_small():
    assert [edge_count(n) for n in (2, 3, 4, 5, 10)] == [1, 3, 6, 10, 45]


def test_edge_index_is_row_major():
    n = 7
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            assert edge_index(n, i, j) == k
            assert edge_index(n, j, i) == k  # order-insensitive
            k += 1
    assert k == edge_count(n)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]


def test_colour_of_matches_layout():
    c = EdgeColouring(4, 3, (1, 2, 3, 3, 2, 1))
    assert c.colour_of(0, 1) == 1
    assert c.colour_of(0, 2) == 2
    assert c.colour_of(0, 3) == 3
    assert c.colour_of(1, 2) == 3
    assert c.colour_of(1, 3) == 2
    assert c.colour_of(2, 3) == 1
    assert c.colour_of(3, 1) == 2  # symmetric


def test_view_masks_agree_with_colour_of():
    rng = random.Random(4021)
    for _ in range(30):
        n = rng.randint(2, 9)
        m = rng.randint(1, 4)
        c = random_colours(rng, n, m)
        masks = c.view.masks
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                col = c.colour_of(i, j)
                for cc in range(1, m + 1):
                    assert bool((masks[cc][i] >> j) & 1) == (cc == col)


def masks_from_colour_of(c: EdgeColouring) -> list[list[int]]:
    """Every colour's adjacency masks, read pair by pair through colour_of."""
    masks = [[0] * c.n for _ in range(c.m + 1)]
    for x in range(c.n):
        for v in range(c.n):
            if v != x:
                masks[c.colour_of(x, v)][x] |= 1 << v
    return masks


@pytest.mark.parametrize("n", [2, 5, 63, 64])
def test_mask_builds_agree_with_colour_of_across_the_matrix_gate(n):
    # below 64 vertices masks come from the per-n edge table; from 64 on,
    # from the label matrix or the per-edge loop
    assert colouring_module._MATRIX_MIN_N == 64
    rng = random.Random(n)
    for m in (1, 3, 7):
        c = random_colours(rng, n, m)
        want = masks_from_colour_of(c)
        assert [list(row) for row in c.view.masks] == want
        assert colour_masks(n, m, c.colours) == want


def test_colour_masks_rows_fall_under_the_view_cap(monkeypatch):
    # with no colours named, every colour and row 0 get an editable row of
    # their own, and all of them count against the one entry cap
    n, m = 6, 4
    c = random_colours(random.Random(6), n, m)
    monkeypatch.setattr(colouring_module, "_MAX_VIEW_ENTRIES", (m + 1) * n)
    masks = colour_masks(n, m, c.colours)
    assert masks == masks_from_colour_of(c) and masks[0] == [0] * n
    monkeypatch.setattr(colouring_module, "_MAX_VIEW_ENTRIES", (m + 1) * n - 1)
    with pytest.raises(ValueError, match=f"{m + 1} colours in use on {n} vertices: "
                                         f"the mask view would hold {(m + 1) * n} entries"):
        colour_masks(n, m, c.colours)
    # the colours named get rows, the rest share one read-only empty row
    masks = colour_masks(n, m, (1,) * edge_count(n), {1})
    assert masks[1] == masks_from_colour_of(EdgeColouring(n, m, (1,) * edge_count(n)))[1]
    assert masks[0] is masks[2] == (0,) * n


def test_the_edge_table_cache_holds_only_small_n():
    rng = random.Random(64)
    for n in (5, 63, 64, 65, 300):
        colour_masks(n, 3, random_colours(rng, n, 3).colours)
        random_colours(rng, n, 3).view
    assert {5, 63} <= set(colouring_module._EDGE_TABLES)
    assert max(colouring_module._EDGE_TABLES) < 64


def test_degree_sums_count_each_edge_twice():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 10)
        m = rng.randint(1, 4)
        c = random_colours(rng, n, m)
        per_colour = [0] * (m + 1)
        for col in c.colours:
            per_colour[col] += 1
        assert sum(per_colour) == edge_count(n)
        for cc in range(1, m + 1):
            deg_sum = sum(row.bit_count() for row in c.view.masks[cc])
            assert deg_sum == 2 * per_colour[cc]


# --- validation --------------------------------------------------------------

def test_validate_accepts_good_colouring():
    assert validate(K4_PROPER).ok


def test_validate_rejects_small_n_and_m():
    assert "n >= 2 required" in validate(EdgeColouring(1, 1, ())).violations
    assert "m >= 1 required" in validate(EdgeColouring(3, 0, (0, 0, 0))).violations


def test_validate_rejects_wrong_count_and_range():
    report = validate(EdgeColouring(4, 2, (1, 2, 1)))
    assert any("expected 6, found 3" in v for v in report.violations)
    report = validate(EdgeColouring(3, 2, (1, 3, 0)))
    bad = [v for v in report.violations if "label out of range" in v]
    assert len(bad) == 2


# --- text format -------------------------------------------------------------

def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 9)
        m = rng.randint(1, 5)
        c = random_colours(rng, n, m)
        assert parse_colouring(format_colouring(c)) == c


def test_format_includes_comments():
    text = format_colouring(K4_PROPER, ("hello", ""))
    assert text.startswith("# hello\n#\n4 3\n")
    assert parse_colouring(text) == K4_PROPER


def test_parse_ignores_comments_blanks_and_line_breaks():
    text = "# anything\n\n  4 3\n1 2 3\n\n# mid\n3 2\n1\n"
    assert parse_colouring(text) == K4_PROPER


def test_parse_accepts_all_values_on_one_line():
    assert parse_colouring("4 3\n1 2 3 3 2 1") == K4_PROPER


def test_parse_caps_the_header_colour_count():
    cap = colouring_module._MAX_M
    assert cap >= edge_count(2000)
    assert parse_colouring(f"3 {cap}\n1 2 {cap}\n").m == cap
    with pytest.raises(ColouringFormatError, match="too large") as err:
        parse_colouring(f"# big\n3 {cap + 1}\n1 2 3\n")
    assert (err.value.line, err.value.column) == (2, 3)


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ColouringFormatError) as err:
        parse_colouring("4 3 9\n1 2 3 3 2 1")
    assert "header" in str(err.value)
    assert err.value.line == 1
    with pytest.raises(ColouringFormatError) as err:
        parse_colouring("4 x\n")
    assert "not an integer" in str(err.value)
    with pytest.raises(ColouringFormatError) as err:
        parse_colouring("4 3\n1 2 3\n3 zap\n1")
    assert err.value.line == 3
    assert err.value.column == 3
    with pytest.raises(ColouringFormatError) as err:
        parse_colouring("4 3\n1 2 3 3 2 1 5\n")
    assert "surplus" in str(err.value)
    with pytest.raises(ColouringFormatError) as err:
        parse_colouring("4 3\n1 2 3\n")
    assert "expected 6 edge colours, found 3" in str(err.value)
    with pytest.raises(ColouringFormatError) as err:
        parse_colouring("# only comments\n")
    assert "missing 'n m' header" in str(err.value)


def reference_parse(text: str):
    """The body format token by token, as specified; assumes a valid header line.

    Returns (n, m, colours) or the ColouringFormatError the parser must raise.
    """
    lines = text.splitlines()
    data = [(no, line) for no, line in enumerate(lines, start=1)
            if line.strip() and not line.lstrip().startswith("#")]
    n, m = (int(word) for word in data[0][1].split())
    need, values = edge_count(n), []
    for no, line in data[1:]:
        for tok in re.finditer(r"\S+", line):
            if len(values) == need:
                return ColouringFormatError(f"surplus token {tok.group()!r}: expected only "
                                            f"{need} edge colours", no, tok.start() + 1)
            try:
                values.append(int(tok.group()))
            except ValueError:
                return ColouringFormatError(f"edge colour {tok.group()!r} is not an integer",
                                            no, tok.start() + 1)
    if len(values) != need:
        return ColouringFormatError(f"expected {need} edge colours, found {len(values)}",
                                    len(lines), 1)
    return n, m, tuple(values)


def parse_outcome(text: str):
    try:
        c = parse_colouring(text)
    except ColouringFormatError as exc:
        return str(exc), exc.line, exc.column
    return c.n, c.m, c.colours


def reference_outcome(text: str):
    got = reference_parse(text)
    if isinstance(got, ColouringFormatError):
        return str(got), got.line, got.column
    return got


def untidy_texts():
    """K_5 with m = 3 under odd separators, line breaks, tokens and line layouts."""
    body = ["1", "2", "3", "1", "2", "3", "1", "2", "3", "1", "7", "2"]  # 10, 11 are surplus
    layouts = [  # lines of body positions; None is a comment line
        [[0, 1, 2, 3], [4, 5, 6], [7, 8], [9]],
        [list(range(10))],
        [[0, 1], None, [2, 3], [], [4, 5, 6], None, [7, 8, 9]],  # the first row split
        [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10, 11]],  # surplus in the middle of a line
        [list(range(9)), [9], [10], [11]],
        [[0, 1, 2], [3, 4, 5]],  # too few
    ]
    odd = ["+3", "03", "1_0", "\u0663", "0", "4", "256", "99999", "x", "1.0", "-1",
           "3x", "1" * 5000]
    for sep in (" ", "\t", "\xa0", "\u2003", " \t\x1f"):
        for brk in ("\n", "\r\n", "\r", "\x0b", "\u2028"):
            for layout in layouts:
                for where, token in [(None, None)] + [(k, t) for k in (0, 5, 9) for t in odd]:
                    words = list(body)
                    if where is not None:
                        words[where] = token
                    lines = ["# head", f"5{sep}3", "# after the header"]
                    for row in layout:
                        lines.append(f"{sep}# comment" if row is None
                                     else sep.join(words[k] for k in row))
                    yield brk.join(lines) + brk


def test_parse_matches_the_reference_tokenizer():
    texts = list(untidy_texts())
    assert len(texts) > 1000
    for text in texts:
        assert parse_outcome(text) == reference_outcome(text), repr(text[:80])


def test_format_parse_round_trip_at_larger_sizes():
    rng = random.Random(11)
    for _ in range(25):
        c = random_colours(rng, rng.randint(2, 60), rng.randint(1, 300))
        text = format_colouring(c, ("round trip",))
        assert parse_colouring(text) == c
        assert reference_parse(text) == (c.n, c.m, c.colours)


# --- locality ----------------------------------------------------------------

def test_locality_constant_is_one():
    c = EdgeColouring(5, 3, (1,) * 10)
    report = locality(c)
    assert report.locality == 1
    assert report.is_local(1) and report.is_local(3)


def test_locality_proper_k4_is_three():
    report = locality(K4_PROPER)
    assert report.locality == 3
    assert report.worst_vertex() == 0
    assert all(seen == frozenset({1, 2, 3}) for seen in report.incident)


def test_locality_matches_definition_on_randoms():
    rng = random.Random(31337)
    for _ in range(25):
        n = rng.randint(2, 9)
        m = rng.randint(1, 5)
        c = random_colours(rng, n, m)
        report = locality(c)
        for v in range(n):
            seen = {c.colour_of(v, u) for u in range(n) if u != v}
            assert report.incident[v] == frozenset(seen)
        assert report.locality == max(len(s) for s in report.incident)


# --- components --------------------------------------------------------------

def test_components_proper_k4_are_the_matchings():
    for c in (1, 2, 3):
        comps = colour_components(K4_PROPER, c)
        assert sorted(len(x) for x in comps) == [2, 2]
    assert colour_components(K4_PROPER, 1) == [[0, 1], [2, 3]]


def test_components_skip_isolated_vertices():
    # colour 2 appears only on edge {0,1}; vertex 2 is isolated there
    c = EdgeColouring(3, 2, (2, 1, 1))
    assert colour_components(c, 2) == [[0, 1]]
    assert colour_components(c, 1) == [[0, 1, 2]]


def test_components_colour_out_of_range():
    with pytest.raises(ValueError, match="colour out of range"):
        colour_components(K4_PROPER, 4)


def test_max_component_tie_breaks_to_smallest_colour():
    witness = max_component(K4_PROPER)
    assert (witness.colour, witness.size, witness.vertices) == (1, 2, (0, 1))


def test_components_partition_on_randoms():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(2, 10)
        m = rng.randint(1, 4)
        c = random_colours(rng, n, m)
        for cc in range(1, m + 1):
            comps = colour_components(c, cc)
            seen: set[int] = set()
            for comp in comps:
                assert comp == sorted(comp)
                assert not seen & set(comp)
                seen |= set(comp)
                # every member has an edge of this colour inside its component
                for v in comp:
                    assert any(u != v and c.colour_of(u, v) == cc for u in comp)
        assert max_component(c).size == max(
            len(comp) for cc in range(1, m + 1)
            for comp in (colour_components(c, cc) or [[0]]))


# --- diameter ----------------------------------------------------------------

def test_diameter_of_path():
    # colour 1 forms the path 0-1-2-3
    c = EdgeColouring(4, 2, (1, 2, 2, 1, 2, 1))
    assert subgraph_diameter(c, 1, [0, 1, 2, 3]) == 3
    assert subgraph_diameter(c, 1, [0, 1]) == 1
    assert subgraph_diameter(c, 1, [0]) == 0


def test_diameter_disconnected_is_none():
    assert subgraph_diameter(K4_PROPER, 1, [0, 1, 2, 3]) is None


def test_diameter_input_checks():
    with pytest.raises(ValueError, match="nonempty"):
        subgraph_diameter(K4_PROPER, 1, [])
    with pytest.raises(ValueError, match="vertex out of range"):
        subgraph_diameter(K4_PROPER, 1, [0, 4])
    with pytest.raises(ValueError, match="colour out of range"):
        subgraph_diameter(K4_PROPER, 9, [0, 1])


# --- bound registry ----------------------------------------------------------

def test_bound_values_are_exact_rationals():
    assert component_bound(8, 3) == Q(4)
    assert triple_star_bound(8, 3) == Q(4)
    assert double_star_bound(8, 3) == Q(34, 9)
    assert no_affine_component_bound(9, 4) == Q(27, 8)
    assert triple_star_bound_local(7, 3) == Q(3)
    assert local_component_bound(7, 3) == Q(3)
    assert double_star_bound_local(7, 3) == Q(3)
    assert local_component_bound(10, 2) == Q(20, 3)


def test_bounds_reject_too_small_r():
    for fn, least in ((component_bound, 2), (no_affine_component_bound, 3),
                      (triple_star_bound, 3), (double_star_bound, 3),
                      (triple_star_bound_local, 3), (double_star_bound_local, 2),
                      (local_component_bound, 2)):
        with pytest.raises(ValueError):
            fn(6, least - 1)
        fn(6, least)  # boundary value accepted


def test_known_bounds_global_entries():
    names = {e.name: e for e in known_bounds(8, 3)}
    assert set(names) == {"component", "component-no-affine", "double-star", "triple-star"}
    assert names["component"].value == Q(4)
    assert names["component-no-affine"].conditional
    assert not names["component"].conditional


def test_known_bounds_two_colour_values():
    names = {e.name: e.value for e in known_bounds(4, 2)}
    assert names == {"component": Q(4), "double-star": Q(3), "triple-star": Q(7, 2)}


def test_known_bounds_single_colour():
    entries = known_bounds(6, 1)
    assert len(entries) == 1
    assert entries[0].value == Q(6)


def test_known_bounds_local_entries():
    names = {e.name: e.value for e in known_bounds(7, 3, local=True)}
    assert names == {"component-local": Q(3), "double-star-local": Q(3),
                     "triple-star-local": Q(3)}
    two = {e.name for e in known_bounds(9, 2, local=True)}
    assert "double-star-local-two" in two and "triple-star-local" not in two


def test_proven_floor():
    assert proven_floor(8, 3, "triple") == Q(4)
    assert proven_floor(8, 3, "double") == Q(34, 9)
    assert proven_floor(8, 3, "component") == Q(4)
    assert proven_floor(8, 2, "component") == Q(8)
    assert proven_floor(8, 2, "triple") is None
    assert proven_floor(8, 2, "double") is None
    with pytest.raises(ValueError, match="unknown objective kind"):
        proven_floor(8, 3, "quadruple")
