"""Refused input, pinned to its exact wording and to what it leaves behind.

Each floor in the registry refuses an r below its own least value, after
the n >= 2 and r >= 1 checks every floor shares; the messages are pinned
word for word.  A parsed colouring with a label outside 1..m is refused by
validation, which reads the record's labels as for any record: the parser
hands its flat label array over only with a valid record.
"""
from __future__ import annotations

import pytest

import tristar.colouring as colouring_module
from tristar.bipartite import BipartiteColouredGraph, max_mono_double_star_bipartite
from tristar.cli import main
from tristar.colouring import (EdgeColouring, _find_violations, component_bound,
                               double_star_bound, double_star_bound_local, edge_count,
                               format_colouring, known_bounds, local_component_bound,
                               edge_index, no_affine_component_bound, parse_colouring,
                               proven_floor, triple_star_bound, triple_star_bound_local, validate)
from tristar.errors import ColouringFormatError
from tristar.generators import constant_colouring, line_through, random_colouring
from tristar.oracle import EnumerationSpec, _iter_rgs, _walk, canonical_count, enumerate_colourings
from tristar.stars import triple_star_order

# each floor with the least r it accepts and its refusal of r = least - 1
FLOORS = [
    (component_bound, 2, "component floor needs r >= 2, got r=1"),
    (no_affine_component_bound, 3, "this floor needs r >= 3, got r=2"),
    (triple_star_bound, 3, "triple-star floor needs r >= 3, got r=2"),
    (triple_star_bound_local, 3, "local triple-star floor needs r >= 3, got r=2"),
    (double_star_bound, 3, "double-star floor needs r >= 3, got r=2"),
    (double_star_bound_local, 2, "local double-star floor needs r >= 2, got r=1"),
    (local_component_bound, 2, "local component floor needs r >= 2, got r=1"),
]


@pytest.mark.parametrize("floor, least, message", FLOORS)
def test_each_floor_refuses_the_r_below_its_least_in_its_own_words(floor, least, message):
    with pytest.raises(ValueError) as exc:
        floor(5, least - 1)
    assert str(exc.value) == message
    # n is checked first, then r >= 1, then the floor's own least r
    for n, r, first in ((1, least - 1, "n >= 2 required, got n=1"),
                        (1, 0, "n >= 2 required, got n=1"),
                        (5, 0, "r >= 1 required, got r=0")):
        with pytest.raises(ValueError) as exc:
            floor(n, r)
        assert str(exc.value) == first


@pytest.mark.parametrize("ask", [
    lambda n, r: known_bounds(n, r),
    lambda n, r: known_bounds(n, r, local=True),
    lambda n, r: proven_floor(n, r, "triple"),
    lambda n, r: proven_floor(n, r, "component"),
])
def test_the_registry_refuses_n_below_2_and_r_below_1_in_the_shared_words(ask):
    for n, r, message in ((1, 3, "n >= 2 required, got n=1"),
                          (5, 0, "r >= 1 required, got r=0"),
                          (1, 0, "n >= 2 required, got n=1")):
        with pytest.raises(ValueError) as exc:
            ask(n, r)
        assert str(exc.value) == message


def test_the_generators_refuse_n_below_2_and_r_below_1_in_the_registrys_words(capsys):
    for n, r, message in ((1, 3, "n >= 2 required, got n=1"),
                          (5, 0, "r >= 1 required, got r=0")):
        for make in (lambda: random_colouring(n, r, seed=0), lambda: constant_colouring(n, r)):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == message
        for kind in (["random", "--seed", "0"], ["constant"]):
            assert main(["gen", *kind, "--n", str(n), "--r", str(r)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")


def body_with(n: int, m: int, k: int, label: int) -> str:
    """A valid random colouring's file with edge position k relabelled."""
    colours = list(random_colouring(n, m, 5).colours)
    colours[k] = label
    return format_colouring(EdgeColouring(n, m, tuple(colours)))


# (n, m, the bad label, whether the digit path reads the file)
REFUSED = [
    (12, 3, 0, True),
    (12, 8, 9, True),
    (20, 12, 13, False),
    (20, 12, -2, False),
    (20, 300, 2 ** 40, False),
    (20, 12, 2 ** 40, False),
]


@pytest.mark.parametrize("n, m, label, digits", REFUSED)
def test_a_refused_parsed_colouring_carries_no_array(n, m, label, digits, monkeypatch):
    taken = []
    digit_labels = colouring_module._digit_labels
    monkeypatch.setattr(colouring_module, "_digit_labels",
                        lambda body, need: taken.append(digit_labels(body, need)) or taken[-1])
    c = parse_colouring(body_with(n, m, 7, label))
    assert any(flat is not None for flat in taken) == digits
    assert "_flat" not in c.__dict__ and "validation" not in c.__dict__
    report = validate(c)
    assert report == _find_violations(EdgeColouring(c.n, c.m, c.colours))
    assert report.violations == (f"label out of range at edge position 7: {label}",)


@pytest.mark.parametrize("n, m, label, digits", REFUSED)
def test_prove_and_verify_refuse_the_file_converting_each_load_at_most_once(
        n, m, label, digits, monkeypatch, tmp_path, capsys):
    path, cert = tmp_path / "in.txt", tmp_path / "cert.json"
    path.write_text(body_with(n, m, edge_count(n) - 1, label))
    cert.write_text("{}")
    calls = []
    flat_labels = colouring_module._flat_labels
    monkeypatch.setattr(colouring_module, "_flat_labels",
                        lambda m, colours: calls.append(m) or flat_labels(m, colours))
    codes = [main(["prove", str(path), "--cert", str(cert)]),
             main(["verify", "--cert", str(cert), str(path)])]
    captured = capsys.readouterr()
    assert codes == [2, 2] and captured.out == ""
    line = f"error: invalid colouring: label out of range at edge position {edge_count(n) - 1}: {label}\n"
    assert captured.err == line * 2
    assert len(calls) <= 2


# --- outside input refused nowhere else in the suite ---------------------------

def test_a_negative_header_value_is_refused_by_parse_and_analyze(tmp_path, capsys):
    message = "header values must be nonnegative (line 1, column 1)"
    with pytest.raises(ColouringFormatError) as exc:
        parse_colouring("-2 3\n")
    assert str(exc.value) == message
    path = tmp_path / "negative.txt"
    path.write_text("-2 3\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_header_n_above_the_cap_is_refused_before_any_label_is_read(tmp_path, capsys):
    message = "header n = 2001 too large: at most 2000 vertices (line 1, column 1)"
    with pytest.raises(ColouringFormatError) as exc:
        parse_colouring("2001 2\nnot a label\n")
    assert str(exc.value) == message
    assert parse_colouring("2000 2\n" + "1 " * edge_count(2000)).n == 2000
    path = tmp_path / "big.txt"
    path.write_text("2001 2\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_prove_local_refuses_r_below_3(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(format_colouring(EdgeColouring(4, 3, (1, 2, 3, 3, 2, 1))))
    assert main(["prove", str(path), "--local", "--r", "2", "--cert", "-"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: theorem requires r >= 3\n")


@pytest.mark.parametrize("ask", [lambda: canonical_count(1, 3),
                                 lambda: next(enumerate_colourings(EnumerationSpec(1, 3)))],
                         ids=["canonical_count", "enumerate_colourings"])
def test_counting_and_enumeration_refuse_a_graph_without_edges(ask):
    with pytest.raises(ValueError) as exc:
        ask()
    assert str(exc.value) == "need n >= 2 and r >= 1"


def test_the_monochromatic_bipartite_scan_refuses_its_limits_in_its_own_words():
    g = BipartiteColouredGraph.from_coloured_edges(2, 1, 2, [(0, 0, 1), (1, 0, 2)])
    for r, t in ((0, 2), (2, 0)):
        with pytest.raises(ValueError) as exc:
            max_mono_double_star_bipartite(g, r, t)
        assert str(exc.value) == "colour limits must be >= 1"
    with pytest.raises(ValueError) as exc:
        max_mono_double_star_bipartite(g, 1, 1)
    assert str(exc.value) == "colour limit exceeded at B-vertex 0: meets 2 colours, limit 1"
    assert max_mono_double_star_bipartite(g, 1, 2).value == 2


def test_edge_index_refuses_a_loop():
    with pytest.raises(ValueError) as exc:
        edge_index(4, 1, 1)
    assert str(exc.value) == "not an edge of K_4: (1, 1)"


@pytest.mark.parametrize("ask, message", [
    (lambda: list(_iter_rgs(0, 3)), "need length >= 1 and r >= 1"),
    (lambda: list(_iter_rgs(3, 2, (1, 1, 1, 1))), "prefix longer than the string"),
    (lambda: list(_iter_rgs(3, 2, (2,))), "prefix not restricted-growth at position 0: 2"),
    (lambda: list(_walk(3, 2, (1, 3), lambda masks: False)),
     "prefix not restricted-growth at position 1: 3"),
], ids=["empty-string", "long-prefix", "first-label", "walk-prefix"])
def test_the_enumerators_refuse_a_bad_string_or_prefix_in_their_own_words(ask, message):
    with pytest.raises(ValueError) as exc:
        ask()
    assert str(exc.value) == message


def test_a_line_needs_two_directions():
    with pytest.raises(ValueError) as exc:
        line_through((0, 0, 1), (0, 0, 1), 3)
    assert str(exc.value) == "zero vector has no direction"


def test_a_triple_star_order_refuses_a_path_off_its_colour():
    with pytest.raises(ValueError) as exc:
        triple_star_order(EdgeColouring(4, 2, (1, 1, 2, 2, 2, 2)), 1, 1, 0, 3)
    assert str(exc.value) == "path edge not in colour: {0,3} is not colour 1"
