"""End-to-end command tests driving main() in process."""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tristar
import tristar.oracle as oracle_module
from tristar.cli import main
from tristar.colouring import _MAX_M, EdgeColouring, edge_index, format_colouring, parse_colouring
from tristar.errors import BudgetExceededError
from tristar.explorer import objective
from tristar.generators import (affine_colouring, constant_colouring, projective_local_colouring,
                                random_colouring)
from tristar.prover import certificate_to_json, prove_global


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen ---------------------------------------------------------------------

def test_gen_affine_to_stdout(capsys):
    code, out, err = run(capsys, ["gen", "affine", "--q", "2", "--mult", "2"])
    assert code == 0 and err == ""
    assert out.startswith("# affine q=2 mult=2\n")
    assert parse_colouring(out) == affine_colouring(2, 2)


def test_gen_kinds_to_files(tmp_path, capsys):
    cases = [
        (["gen", "projective", "--q", "2", "--mult", "1"], "# projective q=2 mult=1"),
        (["gen", "random", "--n", "6", "--r", "3", "--seed", "9"], "# random n=6 r=3 seed=9"),
        (["gen", "constant", "--n", "5", "--r", "2"], "# constant n=5 r=2"),
    ]
    for argv, header in cases:
        path = tmp_path / "c.txt"
        code, out, err = run(capsys, argv + ["--out", str(path)])
        assert code == 0 and out == "" and err == ""
        text = path.read_text()
        assert text.splitlines()[0] == header
        parse_colouring(text)  # must round-trip


# each gen kind's flags in the order its --help lists them, with valid values
GEN_ARGS = {
    "affine": ["--q", "2", "--mult", "2"],
    "projective": ["--q", "2", "--mult", "1"],
    "random": ["--n", "6", "--r", "3", "--seed", "9"],
    "constant": ["--n", "5", "--r", "2"],
}


@pytest.mark.parametrize("kind", list(GEN_ARGS))
def test_gen_without_any_one_flag_exits_2(capsys, kind):
    argv = GEN_ARGS[kind]
    assert run(capsys, ["gen", kind, *argv])[0] == 0
    for k in range(0, len(argv), 2):
        code, out, err = run(capsys, ["gen", kind, *argv[:k], *argv[k + 2:]])
        assert code == 2 and out == ""
        assert err.endswith(f"error: the following arguments are required: {argv[k]}\n")


@pytest.mark.parametrize("kind", list(GEN_ARGS))
def test_gen_help_lists_exactly_its_flags(capsys, kind):
    code, out, _ = run(capsys, ["gen", kind, "--help"])
    assert code == 0
    usage, options = out.split("\n\n")[:2]
    flags = GEN_ARGS[kind][::2] + ["--out"]
    assert re.findall(r"--\w+", usage) == flags
    assert re.findall(r"--\w+", options) == ["--help"] + flags


def test_gen_rejects_composite_order(capsys):
    code, out, err = run(capsys, ["gen", "affine", "--q", "4", "--mult", "1"])
    assert code == 2
    assert "must be prime" in err


@pytest.mark.parametrize("argv", [["random", "--n", "3", "--seed", "1"], ["constant", "--n", "3"]])
def test_gen_refuses_more_colours_than_a_file_may_declare(tmp_path, capsys, argv):
    # a header above the parser's cap would be refused by every other command
    path = tmp_path / "c.txt"
    code, out, err = run(capsys, ["gen", *argv, "--r", str(_MAX_M + 1), "--out", str(path)])
    assert (code, out) == (2, "") and err.startswith("error:") and "too large" in err
    assert not path.exists()
    assert parse_colouring(format_colouring(constant_colouring(3, _MAX_M))).m == _MAX_M


def _module_env() -> dict[str, str]:
    """The environment for `python -m tristar` run on this checkout's sources."""
    src = str(Path(tristar.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("kind", ["affine", "projective"])
def test_gen_refuses_a_huge_prime_order_without_factoring_it(kind):
    # 2^61 - 1 is prime: trial division up to its square root takes minutes
    done = subprocess.run([sys.executable, "-m", "tristar", "gen", kind,
                           "--q", str(2 ** 61 - 1), "--mult", "1"],
                          capture_output=True, text=True, env=_module_env(), timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert "too large" in done.stderr and "Traceback" not in done.stderr


# --- analyze -----------------------------------------------------------------

def test_gen_analyze_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, ["gen", "affine", "--q", "2", "--mult", "2"])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, err = run(capsys, ["analyze", "-"])
    assert code == 0 and err == ""
    assert "n 8" in out
    assert "max component: colour 1, size 4, smallest vertex 0" in out
    assert "max triple star: colour 1, centres 0 1 4 (middle 1), order 4" in out
    assert "triple-star >= 4: observed 4, met" in out
    assert "holds only when no affine plane" in out  # conditional rows stay informational


def test_analyze_json_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "c.txt"
    run(capsys, ["gen", "affine", "--q", "2", "--mult", "2", "--out", str(path)])
    capsys.readouterr()
    code, first, _ = run(capsys, ["analyze", str(path), "--json"])
    assert code == 0
    code, second, _ = run(capsys, ["analyze", str(path), "--json"])
    assert first == second and first.endswith("\n")
    obj = json.loads(first)
    assert obj["n"] == 8
    assert obj["max_triple_star"]["order"] == 4
    assert obj["bounds"]["global"]["r"] == 3
    triple_row = next(e for e in obj["bounds"]["global"]["entries"]
                      if e["name"] == "triple-star")
    assert triple_row["value"] == {"num": 4, "den": 1}
    assert triple_row["status"] == "met"


def vertex_shuffled(colouring: EdgeColouring, seed: int) -> EdgeColouring:
    n = colouring.n
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    colours = [0] * len(colouring.colours)
    k = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            colours[edge_index(n, perm[i], perm[j])] = colouring.colours[k]
            k += 1
    return EdgeColouring(n, colouring.m, tuple(colours))


def colour_shuffled(colouring: EdgeColouring, seed: int) -> EdgeColouring:
    hue = list(range(1, colouring.m + 1))
    random.Random(seed).shuffle(hue)
    return EdgeColouring(colouring.n, colouring.m, tuple(hue[c - 1] for c in colouring.colours))


# sha256 of `analyze --json` output: any drift in a witness, an order or a row
# shows here.  The last five, recorded before the star scans took their upper
# bounds, are large enough for every bound to fire.
GOLDEN_ANALYSES = [
    (lambda: vertex_shuffled(affine_colouring(5, 2), 5),
     "95405d8f2e4d41aafafb5878f3341cf4a79ccbae6de8e5582982ea6229fc313a"),
    (lambda: projective_local_colouring(3, 1),
     "8fea475835f5d8e1ee40b7440f69c0cede19ec69e83e4119ac1e4fac6fe13610"),
    (lambda: random_colouring(60, 3, 7),
     "27eed1bf48948ccd89bead79672086f774dd74d0c7829c8c6b9a27e2d9a62b7d"),
    (lambda: vertex_shuffled(affine_colouring(7, 3), 7),
     "61c978cc0e6d670f53517544a87709a4f9cb647a321b0f6c166ee84335582e60"),
    (lambda: colour_shuffled(vertex_shuffled(affine_colouring(7, 3), 7), 7),
     "b1a1a490d506e3fb33e5348d0aafe315766d20e9c5a1e6f4832a9b255d0cf778"),
    (lambda: projective_local_colouring(5, 5),
     "718ea5769aca81177aba5f5d18d867502efdbb651e1234791a05bb4c84ba6aaa"),
    (lambda: random_colouring(150, 5, 7),
     "25e317ef661f01010d91a1c281ac4a70669b52f332451f687a9d9c6d0d637a16"),
    (lambda: random_colouring(120, 3, 7),
     "950a913fb5508af9c83d0f029bfbe11f1ff678a054d34e180af318e8dfa1abd6"),
    # recorded before the label matrix: 307 labels, two byte planes
    (lambda: vertex_shuffled(projective_local_colouring(17, 1), 17),
     "a558b188d40e46728daffed2dbd83f008a3dc98bad0c1a699b995fd956613354"),
]


@pytest.mark.parametrize("make, digest", GOLDEN_ANALYSES,
                         ids=["affine-q5-mult2-shuffled", "projective-q3", "random-n60-r3",
                              "affine-q7-mult3-shuffled", "affine-q7-mult3-shuffled-hues",
                              "projective-q5-mult5", "random-n150-r5", "random-n120-r3",
                              "projective-q17-shuffled"])
def test_analyze_json_golden_output(tmp_path, capsys, make, digest):
    path = tmp_path / "c.txt"
    path.write_text(format_colouring(make()))
    code, out, err = run(capsys, ["analyze", "--json", str(path)])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_malformed_text_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4 3\nx 1 2\n2 1\n3\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert "not an integer" in err and "line 2" in err


def test_analyze_out_of_range_colour_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4 3\n9 1 2\n2 1\n3\n")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "invalid colouring" in err


@pytest.mark.parametrize("argv", [["analyze", "{bad}"], ["analyze", "--json", "{bad}"],
                                  ["prove", "{bad}", "--cert", "-"],
                                  ["prove", "--local", "--r", "3", "{bad}", "--cert", "-"],
                                  ["verify", "--cert", "{cert}", "{bad}"]],
                         ids=["analyze", "analyze-json", "prove", "prove-local", "verify"])
def test_every_command_refuses_an_invalid_colouring_with_the_same_bytes(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 3\n9 1 2\n7 1\n3\n")
    cert = tmp_path / "cert.json"
    cert.write_text(certificate_to_json(prove_global(affine_colouring(2, 1), 3)))
    code, out, err = run(capsys, [a.format(bad=bad, cert=cert) for a in argv])
    assert (code, out) == (2, "")
    assert err == ("error: invalid colouring: label out of range at edge position 0: 9; "
                   "label out of range at edge position 3: 7\n")


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "absent.txt")])
    assert code == 2 and "error:" in err


# --- prove / verify ----------------------------------------------------------

def test_prove_verify_roundtrip(tmp_path, capsys):
    colouring = tmp_path / "c.txt"
    cert = tmp_path / "cert.json"
    run(capsys, ["gen", "affine", "--q", "2", "--mult", "2", "--out", str(colouring)])
    capsys.readouterr()
    code, out, err = run(capsys, ["prove", str(colouring), "--cert", str(cert)])
    assert code == 0 and err == ""
    assert out == "proved: global r=3 colour 1, centres 1 0 4, order 4 >= 4\n"
    code, out, _ = run(capsys, ["verify", "--cert", str(cert), str(colouring)])
    assert code == 0
    assert out == "certificate accepted\n"


def untidy_text(colouring: EdgeColouring) -> str:
    """A legal but untidy layout: comments, blank lines, tabs, several rows
    on one line and the first row split across two lines."""
    n = colouring.n
    rows = []
    k = 0
    for i in range(n - 1):
        rows.append([str(c) for c in colouring.colours[k:k + n - 1 - i]])
        k += n - 1 - i
    half = len(rows[0]) // 2
    lines = ["# untidy layout", "", f"  {n}\t{colouring.m}  ", "\t# rows follow",
             " ".join(rows[0][:half]), "\t".join(rows[0][half:]) + "\t"]
    for start in range(1, len(rows), 3):
        lines.append("  ".join("\t".join(row) for row in rows[start:start + 3]))
        if start % 7 == 1:
            lines.append("")
        if start % 11 == 1:
            lines.append("# between rows")
    return "\n".join(lines) + "\n"


# sha256 of prove stdout + certificate bytes + verify stdout, recorded before
# the colouring parser took its fast path (the affine blow-up: before the
# double-star scan took its bounds): any drift in a certificate shows here
GOLDEN_CERTIFICATES = [
    (lambda: random_colouring(200, 5, 11), [],
     "db9be238008f41f5b6988948522fc691a867245313ec0373581ab95ec66cf2b2"),
    (lambda: projective_local_colouring(5, 1), ["--local", "--r", "6"],
     "175c621c9bb67a23795076335e1e50b34a8656793db6daa856a5d54528d375f3"),
    (lambda: affine_colouring(5, 8), [],
     "2fc6b61bef8e572f086a5688ca167b2073b4e2aa739af4c71837272c58397cb7"),
    # recorded before the label matrix: 307 labels, two byte planes
    (lambda: vertex_shuffled(projective_local_colouring(17, 1), 17), ["--local", "--r", "18"],
     "9243ec221305412d7776b5398c3bccbabdbcb25771b8dc7d9a84c9b4b37aa86e"),
]


@pytest.mark.parametrize("make, flags, digest", GOLDEN_CERTIFICATES,
                         ids=["random-n200-r5", "projective-q5-local", "affine-q5-mult8",
                              "projective-q17-shuffled-local"])
def test_prove_verify_golden_output(tmp_path, capsys, make, flags, digest):
    path = tmp_path / "c.txt"
    path.write_text(untidy_text(make()))
    cert = tmp_path / "cert.json"
    code, proved, err = run(capsys, ["prove", str(path), "--cert", str(cert), *flags])
    assert code == 0 and err == ""
    code, verified, err = run(capsys, ["verify", "--cert", str(cert), str(path)])
    assert code == 0 and err == "" and verified == "certificate accepted\n"
    blob = proved.encode() + cert.read_bytes() + verified.encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_prove_cert_to_stdout_is_bare_json(tmp_path, capsys):
    colouring = tmp_path / "c.txt"
    run(capsys, ["gen", "affine", "--q", "2", "--mult", "1", "--out", str(colouring)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["prove", str(colouring), "--cert", "-"])
    assert code == 0
    assert "proved:" not in out
    blob = json.loads(out)
    # the proper 3-colouring of K_4 has no two-edge monochromatic path, so
    # the certificate is the degenerate single-edge star meeting bound 2
    assert blob["order"] == 2 and blob["degenerate"] is True


def test_prove_degenerate_certificate_to_a_file_prints_both_centres(tmp_path, capsys):
    colouring = tmp_path / "k4.txt"
    cert = tmp_path / "cert.json"
    run(capsys, ["gen", "affine", "--q", "2", "--mult", "1", "--out", str(colouring)])
    capsys.readouterr()
    code, out, err = run(capsys, ["prove", str(colouring), "--cert", str(cert)])
    assert code == 0 and err == ""
    assert out == "proved: global r=3 colour 1, centres 0 2, order 2 >= 2 (degenerate)\n"
    assert json.loads(cert.read_text())["centres"] == [0, 2]
    code, out, _ = run(capsys, ["verify", "--cert", str(cert), str(colouring)])
    assert code == 0 and out == "certificate accepted\n"


def test_verify_tampered_certificate_exits_1(tmp_path, capsys):
    colouring = tmp_path / "c.txt"
    cert = tmp_path / "cert.json"
    run(capsys, ["gen", "affine", "--q", "2", "--mult", "2", "--out", str(colouring)])
    run(capsys, ["prove", str(colouring), "--cert", str(cert)])
    capsys.readouterr()
    blob = json.loads(cert.read_text())
    blob["order"] += 1
    cert.write_text(json.dumps(blob))
    code, out, _ = run(capsys, ["verify", "--cert", str(cert), str(colouring)])
    assert code == 1
    assert out.startswith("certificate rejected:\n")


def test_verify_corrupt_certificate_exits_2(tmp_path, capsys):
    colouring = tmp_path / "c.txt"
    cert = tmp_path / "cert.json"
    run(capsys, ["gen", "affine", "--q", "2", "--mult", "1", "--out", str(colouring)])
    capsys.readouterr()
    cert.write_text("{not json")
    code, _, err = run(capsys, ["verify", "--cert", str(cert), str(colouring)])
    assert code == 2 and "error:" in err


def test_prove_local_flag_pairing(tmp_path, capsys):
    colouring = tmp_path / "c.txt"
    run(capsys, ["gen", "projective", "--q", "2", "--mult", "1", "--out", str(colouring)])
    capsys.readouterr()
    code, _, err = run(capsys, ["prove", str(colouring), "--local", "--cert", "-"])
    assert code == 2 and "--local requires --r" in err
    code, _, err = run(capsys, ["prove", str(colouring), "--r", "3", "--cert", "-"])
    assert code == 2 and "only meaningful together with --local" in err
    code, out, _ = run(capsys, ["prove", str(colouring), "--local", "--r", "3",
                                "--cert", "-"])
    assert code == 0 and json.loads(out)["mode"] == "local"


def test_prove_two_colours_exits_2(tmp_path, capsys):
    colouring = tmp_path / "c.txt"
    run(capsys, ["gen", "random", "--n", "5", "--r", "2", "--seed", "1",
                 "--out", str(colouring)])
    capsys.readouterr()
    code, _, err = run(capsys, ["prove", str(colouring), "--cert", "-"])
    assert code == 2 and "r >= 3" in err


# --- exhaust / search --------------------------------------------------------

def test_exhaust_small_space(capsys):
    code, out, err = run(capsys, ["exhaust", "--n", "4", "--r", "3",
                                  "--mode", "triple"])
    assert code == 0 and err == ""
    assert "complete yes" in out
    assert "colourings_checked 122" in out
    assert "minimum 2" in out
    assert "violations 0" in out
    witness = out.split("witness:\n", 1)[1]
    assert parse_colouring(witness).n == 4


def test_exhaust_budget_partial_exits_1(capsys):
    code, out, err = run(capsys, ["exhaust", "--n", "5", "--r", "3",
                                  "--mode", "triple", "--budget", "50"])
    assert code == 1
    assert "budget exhausted after 50 colourings" in err
    assert "complete no" in out
    assert "colourings_checked 50" in out


def test_a_budgeted_exhaust_writes_the_exceptions_one_sentence(capsys):
    sentence = "budget exhausted after 7 colourings; report is partial"
    assert str(BudgetExceededError(7)) == sentence
    code, out, err = run(capsys, ["exhaust", "--n", "5", "--r", "3",
                                  "--mode", "triple", "--budget", "7"])
    assert code == 1 and err == sentence + "\n"
    assert "complete no\ncolourings_checked 7\n" in out


# sha256 of `exhaust` stdout, recorded before the scans stopped at the running
# minimum and the masks were kept live along the walk: the minimum, the
# witness, the certificate count and the partial budget report must not move
GOLDEN_EXHAUSTS = [
    (["--n", "5", "--r", "4", "--mode", "triple", "--prove"], 0,
     "b7faaddf8982cf50525f00406c7613a24944fad0b72d13bc59238095a8511139"),
    (["--n", "5", "--r", "4", "--mode", "double"], 0,
     "c186939bce5c11975a9fa73c818a9cff2b671e0349e40b3111701be530df9edd"),
    (["--n", "5", "--r", "4", "--mode", "component"], 0,
     "244dbaf0e960ef15d7003c2a7285d09208577fbbb0141dfd0e0b298a0f3ec1cc"),
    (["--n", "6", "--r", "2", "--mode", "triple"], 0,
     "dc9d4f457052bcca4e3ab6ddea2c687c45addb58b149118af33196aca580e45a"),
    (["--n", "5", "--r", "4", "--mode", "triple", "--threads", "2"], 0,
     "df334971dacf2869008779358f67b1c8e4e613d8dd530b079a2f7856d2f0ed1c"),
    (["--n", "6", "--r", "3", "--mode", "triple", "--budget", "200000"], 1,
     "6c2ecb90c262ffe6d86642928c543914eb7007da0599193a810dd3a5001f6792"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN_EXHAUSTS,
                         ids=["k5-r4-triple-prove", "k5-r4-double", "k5-r4-component",
                              "k6-r2-triple", "k5-r4-triple-threads", "k6-r3-budget"])
def test_exhaust_golden_output(capsys, argv, code, digest):
    got, out, _ = run(capsys, ["exhaust", *argv])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exhaust_n_above_the_bound_exits_2(capsys):
    code, out, err = run(capsys, ["exhaust", "--n", "2001", "--r", "3",
                                  "--mode", "triple", "--budget", "5"])
    assert code == 2 and out == ""
    assert "too large" in err and "Traceback" not in err


def test_exhaust_r_above_the_bound_exits_2(capsys):
    # under --prove every colouring's view keeps a row per colour, so r is
    # capped as the search caps it
    code, out, err = run(capsys, ["exhaust", "--n", "3", "--r", "2001", "--mode", "triple"])
    assert (code, out) == (2, "")
    assert "r = 2001 too large" in err
    code, out, _ = run(capsys, ["exhaust", "--n", "3", "--r", "2000", "--mode", "triple", "--prove"])
    assert code == 0 and "certificates_verified 5\n" in out


def test_exhaust_at_both_size_caps_still_runs(capsys):
    # the walk's masks hold 2001 rows of 2000 entries, under the 10^7-entry cap
    code, out, err = run(capsys, ["exhaust", "--n", "2000", "--r", "2000",
                                  "--mode", "component", "--budget", "1"])
    assert code == 1
    assert "budget exhausted after 1 colourings; report is partial" in err
    assert out.startswith("exhaust report\nn 2000\nr 2000\nmode component\n"
                          "complete no\ncolourings_checked 1\n")


def test_search_reports_a_parseable_best(capsys):
    code, out, err = run(capsys, ["search", "--n", "4", "--r", "3",
                                  "--objective", "triple", "--iters", "120",
                                  "--seed", "3", "--restarts", "2"])
    assert code == 0 and err == ""
    assert out.startswith("search report\n")
    best = int(next(line for line in out.splitlines()
                    if line.startswith("best ")).split()[1])
    colouring = parse_colouring(out.split("best colouring:\n", 1)[1])
    assert objective(colouring, "triple") == best >= 2


# sha256 of `search` stdout where the start misses a colour (three edges, four
# colours), recorded before views shared one row among unused colours; anneal
# keeps a row of its own for every colour, since a move may bring one in
GOLDEN_SEARCHES = [
    (["--n", "3", "--r", "4", "--objective", "triple", "--iters", "30", "--seed", "5", "--restarts", "3"],
     "78f88b70e204de28c5c10a5d3bf9fdd715a03c0a670e5764c75873201f79a062"),
    (["--n", "3", "--r", "4", "--objective", "double", "--iters", "30", "--seed", "5", "--restarts", "3"],
     "147b06113c007d514c55c243820457b5f43023dd4e1ced47af6a3940bc66fc64"),
    (["--n", "3", "--r", "4", "--objective", "component", "--iters", "30", "--seed", "5", "--restarts", "3"],
     "acf4644d1b2ed1b4d7fdc31fe4d5edd01d18dab8af461f710712728a00a65a9c"),
    (["--n", "4", "--r", "9", "--objective", "triple", "--iters", "40", "--seed", "2", "--restarts", "2"],
     "76260de5915e8e94f1908c9d92e2d6c17e8513bc9f0784b18fffe665a45aec21"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_SEARCHES,
                         ids=["n3-r4-triple", "n3-r4-double", "n3-r4-component", "n4-r9-triple"])
def test_search_golden_output_with_unused_colours(capsys, argv, digest):
    code, out, err = run(capsys, ["search", *argv])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_component_golden_output(capsys):
    # sha256 of `search` stdout on the component objective, which a move
    # scores by a full recompute and a rejection takes back
    code, out, err = run(capsys, ["search", "--n", "12", "--r", "6", "--objective", "component",
                                  "--iters", "400", "--seed", "5", "--restarts", "2"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "94d9614f7c9b4d3974432cfa301750585118c6a10dafa91031529b0fd65ff94e")


# --- parser edges ------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, ["gen", "affine", "--q", "2"])[0] == 2  # missing --mult
    assert run(capsys, ["exhaust", "--n", "4", "--r", "3", "--mode", "star"])[0] == 2


def test_python_dash_m_runs_the_cli(capsys):
    code, expected, _ = run(capsys, ["gen", "constant", "--n", "4", "--r", "2"])
    assert code == 0
    src = str(Path(tristar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "tristar", "gen", "constant", "--n", "4",
                           "--r", "2"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    done = subprocess.run([sys.executable, "-m", "tristar", "frobnicate"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "{gen,analyze,prove,verify,exhaust,search}" in out


def test_exhaust_threads_above_the_cpu_count_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(oracle_module.os, "cpu_count", lambda: 2)
    # a pool would only start after the check, so no process is forked here
    monkeypatch.setattr(oracle_module, "Pool", None)
    code, out, err = run(capsys, ["exhaust", "--n", "4", "--r", "3",
                                  "--mode", "triple", "--threads", "3"])
    assert code == 2 and out == ""
    assert "threads must be <= 2" in err


def test_search_with_a_huge_palette_exits_2_at_once(capsys):
    # each draw over more than 2**64 colours used to be rejected forever
    code, out, err = run(capsys, ["search", "--n", "4", "--r", str(10**20), "--objective",
                                  "triple", "--iters", "10", "--seed", "1"])
    assert code == 2 and out == ""
    assert "too large" in err


def test_analyze_refuses_a_view_past_the_entry_cap(tmp_path):
    # a rainbow K_272 is valid, but its view would hold 36856 * 272 > 10^7 entries
    n = 272
    path = tmp_path / "rainbow.txt"
    path.write_text(f"{n} {n * (n - 1) // 2}\n"
                    + " ".join(map(str, range(1, n * (n - 1) // 2 + 1))) + "\n")
    src = str(Path(tristar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "tristar", "analyze", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: 36856 colours in use on 272 vertices")
    assert "Traceback" not in done.stderr


# --- malformed input ends in an exit code, never a traceback ----------------

def _verify_cert_text(text: str):
    def argv(tmp_path: Path) -> list[str]:
        colouring = tmp_path / "c.txt"
        colouring.write_text(format_colouring(affine_colouring(2, 2)))
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        return ["verify", "--cert", str(cert), str(colouring)]
    return argv


def _analyze_text(text: str):
    def argv(tmp_path: Path) -> list[str]:
        colouring = tmp_path / "c.txt"
        colouring.write_text(text)
        return ["analyze", str(colouring)]
    return argv


GOOD_CERT = certificate_to_json(prove_global(affine_colouring(2, 2), 3))
MALFORMED_INPUTS = [
    _verify_cert_text("[" * 100000),
    _verify_cert_text(GOOD_CERT.replace('"n":8', '"n":' + "9" * 5000)),
    lambda tmp_path: ["search", "--n", "4", "--r", str(10**20), "--objective", "triple",
                      "--iters", "10", "--seed", "1"],
    lambda tmp_path: ["gen", "random", "--n", "4", "--r", str(10**20), "--seed", "1"],
    _analyze_text("4\n1 2 3 1 2 3\n"),
    _analyze_text("4 x\n1 2 3 1 2 3\n"),
    _analyze_text("3 1180591620717411303424\n1 1 1\n"),
    lambda tmp_path: ["exhaust", "--n", "3", "--r", "99999999999", "--mode", "triple"],
]


@pytest.mark.parametrize("make_argv", MALFORMED_INPUTS,
                         ids=["nested-certificate", "5000-digit-certificate-integer",
                              "huge-search-r", "huge-gen-random-r", "one-value-header",
                              "non-integer-header", "huge-header-m", "huge-exhaust-r"])
def test_malformed_input_exits_without_a_traceback(tmp_path, make_argv):
    src = str(Path(tristar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "tristar", *make_argv(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode in (1, 2)
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
