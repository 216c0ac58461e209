"""Both ways a colouring file is read, and the one label conversion per load.

`parse_colouring` reads a body of single digits (m <= 9) with two
translates and any other body token by token.  The digit path must give
the token loop's colouring, or leave the text to the token loop, which
raises every ColouringFormatError.  A parsed colouring's labels are
converted to their flat array once, in the parser; validation and the
label matrix read that array.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tristar.cli as cli_module
import tristar.colouring as colouring_module
from tristar.cli import main
from tristar.colouring import (EdgeColouring, _find_violations, edge_count, format_colouring,
                               parse_colouring, validate)
from tristar.errors import ColouringFormatError
from tristar.generators import random_colouring

DIGITS = [str(d) for d in range(10)]
TOKENS = DIGITS + ["10", "11", "12", "+3", "1_0", "٣", "x"]
# "" joins two tokens into one; "\r\n" and "\x0b" also end a line
SEPARATORS = [" ", "\t", "\r\n", "\x0b", "\xa0", "\x1f", ""]


@st.composite
def texts(draw):
    """A header with n in 0..8 and m in 0..12, then a body near C(n, 2) tokens."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    count = max(0, edge_count(n) + draw(st.sampled_from((0, 0, 0, -2, -1, 1, 2))))
    if draw(st.booleans()):  # a body the digit path can take, when the count fits
        tokens = st.sampled_from(DIGITS[1:max(2, min(m, 9) + 1)])
        separators = st.sampled_from([" ", "\t", "\n", "\n\n", "\r\n"])
    else:
        tokens = st.sampled_from(TOKENS)
        separators = st.sampled_from(SEPARATORS + ["\n", "\n\n", "\n# note\n", "\n  #\t\n"])
    parts = [draw(st.sampled_from(["", "# made by hand\n", "\n  \n"])), f"{n} {m}",
             draw(st.sampled_from(["\n", "\r\n", "\n# after the header\n", "\n\n"]))]
    for _ in range(count):
        parts += [draw(tokens), draw(separators)]
    return "".join(parts)


def outcome(text: str, digits: bool):
    """(n, m, colours) or the error's (message, line, column), with the digit path on or off."""
    with pytest.MonkeyPatch.context() as patch:
        if not digits:
            patch.setattr(colouring_module, "_digit_labels", lambda body, need: None)
        try:
            c = parse_colouring(text)
        except ColouringFormatError as exc:
            return str(exc), exc.line, exc.column
    fresh = EdgeColouring(c.n, c.m, c.colours)
    assert validate(c) == _find_violations(fresh)
    return c.n, c.m, c.colours


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(text=texts())
def test_the_digit_path_reads_what_the_token_loop_reads(text):
    assert outcome(text, digits=True) == outcome(text, digits=False)


@pytest.mark.parametrize("text, taken", [
    ("3 2\n1 2\n1\n", True),
    ("# c\n\n3 9\r\n9\t0 \n\n  4\n", True),  # label 0 parses; validation refuses it
    ("3 2\n1 2\n# note\n1\n", False),  # a comment line after the header
    ("3 2\n12 1\n", False),  # two digits in one token
    ("3 2\n1 2 1 1\n", False),  # surplus
    ("3 2\n1\xa02 1\n", False),  # a separator other than space or tab
    ("3 10\n1 2 1\n", False),  # m above 9
])
def test_the_digit_path_takes_only_plain_single_digit_bodies(text, taken, monkeypatch):
    seen = []
    digit_labels = colouring_module._digit_labels
    monkeypatch.setattr(colouring_module, "_digit_labels",
                        lambda body, need: seen.append(digit_labels(body, need)) or seen[-1])
    try:
        parse_colouring(text)
    except ColouringFormatError:
        pass
    assert any(labels is not None for labels in seen) == taken


def test_a_parsed_colouring_is_valid_from_the_start_only_when_it_is_valid():
    for text in ("3 2\n1 2\n1\n", "3 20\n1 2 20\n"):
        assert parse_colouring(text).__dict__["validation"].ok
    for text in ("3 2\n1 3\n1\n", "3 2\n0 1 1\n", "3 20\n1 -2 21\n", "3 0\n1 1 1\n", "1 3\n"):
        c = parse_colouring(text)
        assert "validation" not in c.__dict__
        assert validate(c) == _find_violations(EdgeColouring(c.n, c.m, c.colours))
        assert not validate(c).ok


@pytest.mark.parametrize("m", [3, 12, 300])
def test_the_label_matrix_takes_the_parsers_array(m):
    c = parse_colouring(format_colouring(random_colouring(70, m, 4)))
    assert "_flat" in c.__dict__
    planes = c.labels.planes
    assert "_flat" not in c.__dict__  # dropped once the matrix holds the labels
    assert planes == EdgeColouring(c.n, c.m, c.colours).labels.planes


def load_and_count(monkeypatch, tmp_path, text: str, argvs) -> tuple[list[int], int]:
    """Exit codes of the commands, run in one process on `text`, and the `_flat_labels` calls."""
    path = tmp_path / "in.txt"
    path.write_text(text)
    calls = []
    flat_labels = colouring_module._flat_labels
    monkeypatch.setattr(colouring_module, "_flat_labels",
                        lambda m, colours: calls.append(m) or flat_labels(m, colours))
    codes = [main([a.format(path=path, cert=tmp_path / "cert.json") for a in argv]) for argv in argvs]
    return codes, len(calls)


PROVE_VERIFY = (["prove", "{path}", "--cert", "{cert}"], ["verify", "--cert", "{cert}", "{path}"])


@pytest.mark.parametrize("m", [3, 12])
def test_prove_then_verify_converts_each_loaded_colouring_once(m, monkeypatch, tmp_path, capsys):
    text = format_colouring(random_colouring(100, m, 7))
    codes, calls = load_and_count(monkeypatch, tmp_path, text, PROVE_VERIFY)
    out = capsys.readouterr().out
    assert codes == [0, 0] and out.endswith("certificate accepted\n")
    assert calls <= 2  # two loads; the digit path converts none


@pytest.mark.parametrize("m", [3, 12])
def test_an_out_of_range_label_is_converted_once_and_refused_with_the_same_bytes(
        m, monkeypatch, tmp_path, capsys):
    colours = list(random_colouring(100, m, 7).colours)
    colours[1234] = m + 1
    text = format_colouring(EdgeColouring(100, m, tuple(colours)))
    (tmp_path / "cert.json").write_text("{}")
    codes, calls = load_and_count(monkeypatch, tmp_path, text, PROVE_VERIFY)
    captured = capsys.readouterr()
    assert codes == [2, 2] and captured.out == ""
    line = f"error: invalid colouring: label out of range at edge position 1234: {m + 1}\n"
    assert captured.err == line * 2
    assert calls <= 2


# --- the CLI parser, built once per process ------------------------------------

COMMANDS = [
    ["exhaust", "--n", "4"],  # a usage error: --r and --mode missing
    ["--help"],
    ["gen", "random", "--n", "7", "--r", "3", "--seed", "2"],
    ["analyze", "{path}"],
    ["exhaust", "--n", "4", "--r", "3", "--mode", "triple"],
    ["verify", "--help"],
    ["gen", "affine", "--q", "4", "--mult", "1"],  # exit 2 from the command itself
]


def run_all(capsys, path) -> list[tuple[int, str, str]]:
    results = []
    for argv in COMMANDS:
        code = main([a.format(path=path) for a in argv])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_the_cached_parser_answers_as_a_freshly_built_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k7.txt"
    path.write_text(format_colouring(random_colouring(7, 3, 2)))
    cached = run_all(capsys, path) + run_all(capsys, path)
    assert cli_module._build_parser() is cli_module._build_parser()
    monkeypatch.setattr(cli_module, "_build_parser", cli_module._build_parser.__wrapped__)
    fresh = run_all(capsys, path)
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0, 0, 2]
    assert cached == fresh + fresh
