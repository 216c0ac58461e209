"""Proof engine round trips, the extension step, and the independent verifier."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

import tristar.colouring as colouring_module
import tristar.prover as prover_module
from tristar.colouring import EdgeColouring, edge_count, edge_index, validate
from tristar.errors import CertificateFormatError, TheoremViolation
from tristar.generators import (affine_colouring, constant_colouring,
                                projective_local_colouring, random_colouring)
from tristar.oracle import EnumerationSpec, enumerate_colourings
from tristar.prover import (ProofTrace, TripleStarCertificate,
                            certificate_from_json, certificate_to_json,
                            prove_global, prove_local, verify_certificate)
from tristar.stars import DoubleStarWitness, max_triple_star


# --- global round trips ------------------------------------------------------

def test_global_on_affine_extremal():
    c = affine_colouring(2, 2)
    cert = prove_global(c, 3)
    assert cert.mode == "global"
    assert cert.bound == Q(4)
    assert cert.order == 4  # tight: no slack at all
    assert not cert.degenerate
    assert verify_certificate(c, cert).ok


def test_global_on_randoms_round_trip():
    rng = random.Random(5150)
    for _ in range(40):
        n = rng.randint(4, 11)
        r = rng.randint(3, 4)
        c = random_colouring(n, r, seed=rng.randint(0, 10**6))
        cert = prove_global(c, r)
        report = verify_certificate(c, cert)
        assert report.ok, report.failures
        assert Q(cert.order) >= cert.bound
        ts = max_triple_star(c)
        if ts is not None:
            assert cert.order <= ts.order  # the proof never beats the exact finder


def test_global_constant_spans_everything():
    c = constant_colouring(6, 3)
    cert = prove_global(c, 3)
    assert cert.order == 6
    assert verify_certificate(c, cert).ok


def test_global_k4_degenerate():
    c = affine_colouring(2, 1)
    cert = prove_global(c, 3)
    assert cert.degenerate
    assert cert.order == 2
    assert cert.bound == Q(2)
    assert len(cert.centres) == 2
    assert cert.trace.leaf_u is None
    assert verify_certificate(c, cert).ok


def test_global_rejects_small_r_and_mismatched_m():
    c = affine_colouring(2, 2)
    with pytest.raises(ValueError, match="theorem requires r >= 3"):
        prove_global(c, 2)
    with pytest.raises(ValueError, match="declares 3 colours, but r=4"):
        prove_global(c, 4)


def test_global_rejects_invalid_colouring():
    bad = EdgeColouring(4, 3, (1, 2, 3, 3, 2, 9))
    with pytest.raises(ValueError, match="invalid colouring"):
        prove_global(bad, 3)


# --- local round trips -------------------------------------------------------

def test_local_on_fano_blowups_is_tight():
    for mult in (1, 2, 3):
        c = projective_local_colouring(2, mult)
        cert = prove_local(c, 3)
        assert cert.mode == "local"
        assert cert.bound == Q(3 * 7 * mult, 7)  # rn/(r^2-r+1) with r=3
        assert cert.order == 3 * mult
        assert verify_certificate(c, cert).ok


def test_local_accepts_locality_below_r():
    c = constant_colouring(7, 3)  # locality 1 <= 3
    cert = prove_local(c, 3)
    assert cert.order == 7
    assert verify_certificate(c, cert).ok


def test_local_rejects_broken_locality():
    c = projective_local_colouring(3, 1)  # locality 4
    with pytest.raises(ValueError, match="locality violated: vertex 0 meets 4 colours"):
        prove_local(c, 3)


# --- the extension step, exercised white-box ---------------------------------

def extension_fixture() -> tuple[EdgeColouring, DoubleStarWitness]:
    """A 4-colouring of K12 plus a deliberately non-maximal double star.

    Colour 1 holds exactly the path 0-1-2-3, so U = N(0) | N(1) = {0,1,2}
    for centre edge {0,1} is a genuine double star of order 3, below the
    target ceil(12/3) = 4, and leaf 2 has one outward colour-1 edge.
    The rest of the graph is filled with colours 2..4.
    """
    n = 12
    colours = [0] * edge_count(n)
    fill = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            colours[edge_index(n, i, j)] = 2 + (fill % 3)
            fill += 1
    for i, j in ((0, 1), (1, 2), (2, 3)):
        colours[edge_index(n, i, j)] = 1
    colouring = EdgeColouring(n, 4, tuple(colours))
    star = DoubleStarWitness(1, (0, 1), 3, (0, 1, 2))
    return colouring, star


def test_extension_step_attaches_the_outward_star(monkeypatch):
    colouring, star = extension_fixture()
    monkeypatch.setattr(prover_module, "max_double_star", lambda c: star)
    cert = prove_global(colouring, 4)
    assert cert.trace.order_U == 3
    assert cert.trace.leaf_u == 2
    assert cert.trace.delta == 1
    assert cert.slack == Q(1)
    assert cert.order == 4  # exactly |U| + delta(u)
    assert cert.centres == (0, 1, 2)  # path 0 - 1 - 2, middle 1
    assert cert.vertices == (0, 1, 2, 3)
    report = verify_certificate(colouring, cert)
    assert report.ok, report.failures


def test_extension_step_picks_the_best_leaf(monkeypatch):
    colouring, star = extension_fixture()
    # give leaf 2 a second outward colour-1 edge; delta rises to 2
    colours = list(colouring.colours)
    colours[edge_index(12, 2, 4)] = 1
    colouring = EdgeColouring(12, 4, tuple(colours))
    monkeypatch.setattr(prover_module, "max_double_star", lambda c: star)
    cert = prove_global(colouring, 4)
    assert cert.trace.delta == 2
    assert cert.order == 5
    assert verify_certificate(colouring, cert).ok


def test_starved_double_star_raises_theorem_violation(monkeypatch):
    rng = random.Random(1)
    n = 9
    colours = [rng.randint(2, 3) for _ in range(edge_count(n))]
    colours[edge_index(n, 0, 1)] = 1  # colour 1 = one bare edge
    colouring = EdgeColouring(n, 3, tuple(colours))
    bare = DoubleStarWitness(1, (0, 1), 2, (0, 1))
    monkeypatch.setattr(prover_module, "max_double_star", lambda c: bare)
    with pytest.raises(TheoremViolation, match="no leaf to extend") as err:
        prove_global(colouring, 3)
    assert err.value.colouring == colouring


def test_witness_missing_a_centre_neighbour_raises_theorem_violation(monkeypatch):
    colouring, _ = extension_fixture()
    # centre 1 also reaches vertex 2, which the witness leaves out
    short = DoubleStarWitness(1, (0, 1), 2, (0, 1))
    monkeypatch.setattr(prover_module, "max_double_star", lambda c: short)
    with pytest.raises(TheoremViolation, match="reaches outside its own double star") as err:
        prove_global(colouring, 4)
    assert err.value.colouring == colouring


def test_guard_rejects_orders_below_target():
    c = affine_colouring(2, 1)
    cert = prove_global(c, 3)
    with pytest.raises(TheoremViolation, match="below the guaranteed 3"):
        prover_module._guard(cert, c, 3)


# --- the verifier rejects tampering ------------------------------------------

def fixture_cert() -> tuple[EdgeColouring, TripleStarCertificate]:
    c = affine_colouring(2, 2)
    return c, prove_global(c, 3)


def reasons(colouring, cert) -> str:
    return "; ".join(verify_certificate(colouring, cert).failures)


def test_verify_rejects_unknown_mode():
    c, cert = fixture_cert()
    assert "unknown mode" in reasons(c, dataclasses.replace(cert, mode="sideways"))


def test_verify_rejects_wrong_n_and_r():
    c, cert = fixture_cert()
    assert "vertex count mismatch" in reasons(c, dataclasses.replace(cert, n=9))
    out = reasons(c, dataclasses.replace(cert, r=2, bound=Q(8)))
    assert "r below 3" in out
    out = reasons(c, dataclasses.replace(cert, r=4, bound=Q(8, 3)))
    assert "colour count mismatch" in out


def test_verify_rejects_bound_tampering():
    c, cert = fixture_cert()
    assert "bound formula mismatch" in reasons(c, dataclasses.replace(cert, bound=Q(1)))


def test_verify_rejects_bad_colour_and_centres():
    c, cert = fixture_cert()
    assert "colour out of range" in reasons(c, dataclasses.replace(cert, colour=9))
    assert "centres invalid" in reasons(
        c, dataclasses.replace(cert, centres=(0, 0, 1)))
    assert "centres invalid" in reasons(
        c, dataclasses.replace(cert, centres=(0, 1)))  # 3 expected when not degenerate


def test_verify_rejects_wrong_path_colour():
    c, cert = fixture_cert()
    u, x, w = cert.centres
    # find a vertex whose edge to x is NOT the certified colour
    other = next(v for v in range(c.n)
                 if v not in (u, x, w) and c.colour_of(x, v) != cert.colour)
    mutated = dataclasses.replace(cert, centres=(min(other, w), x, max(other, w)))
    assert "edge colour mismatch" in reasons(c, mutated)


def test_verify_rejects_vertex_list_tampering():
    c, cert = fixture_cert()
    assert "vertex list invalid" in reasons(
        c, dataclasses.replace(cert, vertices=cert.vertices[::-1]))
    dropped = dataclasses.replace(cert, vertices=cert.vertices[:-1],
                                  order=cert.order - 1)
    out = reasons(c, dropped)
    assert "star vertex" in out and "missing from witness" in out
    assert "order below bound" in out  # 3 < 4 crosses the ceiling
    padded_list = cert.vertices + tuple(
        v for v in range(c.n) if v not in cert.vertices)[:1]
    padded = dataclasses.replace(cert, vertices=tuple(sorted(padded_list)),
                                 order=cert.order + 1)
    assert "not attached to any centre" in reasons(c, padded)


def test_verify_rejects_order_mismatch():
    c, cert = fixture_cert()
    assert "order mismatch" in reasons(c, dataclasses.replace(cert, order=cert.order + 1))


def test_verify_rejects_centre_dropped_from_vertices():
    c, cert = fixture_cert()
    kept = tuple(v for v in cert.vertices if v != cert.centres[0])
    out = reasons(c, dataclasses.replace(cert, vertices=kept, order=len(kept)))
    assert f"centre {cert.centres[0]} missing from vertex set" in out


def test_verify_degenerate_rules():
    c = affine_colouring(2, 1)
    cert = prove_global(c, 3)
    assert cert.degenerate
    padded = dataclasses.replace(cert, vertices=(0, 1, 2), order=3)
    out = reasons(c, padded)
    assert "degenerate witness must consist of exactly its centre edge" in out
    # degenerate witnesses only pass while the ceiling stays at their order
    k5 = EdgeColouring(5, 3, (1, 2, 3, 3, 2, 2, 3, 1, 1, 1))
    fake = TripleStarCertificate("global", 5, 3, Q(5, 2), 1, (0, 1), (0, 1), 2,
                                 True, ProofTrace((0, 1), 2, None, 0))
    assert "order below bound" in reasons(k5, fake)


def test_verify_local_checks_locality():
    c = projective_local_colouring(2, 1)
    cert = prove_local(c, 3)
    loose = projective_local_colouring(3, 1)  # locality 4
    fake = dataclasses.replace(cert, n=13, bound=Q(3 * 13, 7))
    assert "locality violated" in reasons(loose, fake)


def test_verify_rejects_a_short_colouring_without_indexing():
    c = random_colouring(8, 3, 1)
    cert = prove_global(c, 3)
    short = EdgeColouring(8, 3, c.colours[:-3])
    assert reasons(short, cert) == ("invalid colouring: missing or surplus edge colours: "
                                    "expected 28, found 25")


def test_verify_rejects_a_label_above_m_without_indexing():
    c = random_colouring(8, 3, 1)
    cert = prove_global(c, 3)
    relabelled = EdgeColouring(8, 3, (4,) + c.colours[1:])
    assert reasons(relabelled, cert) == \
        "invalid colouring: label out of range at edge position 0: 4"


def test_prove_then_verify_checks_the_colouring_once(monkeypatch):
    checked = []
    find = colouring_module._find_violations
    monkeypatch.setattr(colouring_module, "_find_violations",
                        lambda colouring: checked.append(colouring) or find(colouring))
    c = random_colouring(30, 4, 5)
    assert verify_certificate(c, prove_global(c, 4)).ok
    assert checked == [c]


def test_an_invalid_colouring_keeps_its_violations():
    c = EdgeColouring(4, 3, (1, 4, 0, 2, 1))
    expected = ("missing or surplus edge colours: expected 6, found 5",
                "label out of range at edge position 1: 4",
                "label out of range at edge position 2: 0")
    assert validate(c).violations == expected
    assert validate(c).violations == expected
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid colouring: missing or surplus"):
            prove_global(c, 3)
        assert verify_certificate(c, fixture_cert()[1]).failures == \
            tuple(f"invalid colouring: {v}" for v in expected)


# A 3-colouring of K5: colour 1 is the isolated edge {0,1} plus the triangle
# {2,3,4}, and every vertex meets all three colours.  Its colour-1 stars
# sit exactly at the ceiling 3 of both bounds (5/2 global, 15/7 local) and
# one below it, so the verifier's bound checks are pinned at their edges.
K5_EDGE = EdgeColouring(5, 3, (1, 2, 3, 3, 2, 2, 3, 1, 1, 1))
BOUNDS = {"global": Q(5, 2), "local": Q(15, 7)}


def edge_cert(mode: str, order: int, bound: Q | None = None) -> TripleStarCertificate:
    """The triangle's star 3-2-4 (order 3) or the bare edge {0,1} (order 2)."""
    bound = BOUNDS[mode] if bound is None else bound
    if order == 3:
        return TripleStarCertificate(mode, 5, 3, bound, 1, (3, 2, 4), (2, 3, 4), 3, False,
                                     ProofTrace((2, 3), 3, None, 0))
    return TripleStarCertificate(mode, 5, 3, bound, 1, (0, 1), (0, 1), 2, True,
                                 ProofTrace((0, 1), 2, None, 0))


@pytest.mark.parametrize("mode", ["global", "local"])
def test_verify_pins_the_failure_text_at_the_bound_edges(mode):
    bound = BOUNDS[mode]
    assert verify_certificate(K5_EDGE, edge_cert(mode, 3)).failures == ()
    assert verify_certificate(K5_EDGE, edge_cert(mode, 2)).failures == \
        (f"order below bound: 2 < {bound}",)
    assert verify_certificate(K5_EDGE, edge_cert(mode, 3, Q(2))).failures == \
        (f"bound formula mismatch: expected {bound}, certificate carries 2",)
    assert verify_certificate(K5_EDGE, edge_cert(mode, 3, Q(7, 2))).failures == \
        (f"bound formula mismatch: expected {bound}, certificate carries 7/2",
         "order below bound: 3 < 7/2")
    assert verify_certificate(K5_EDGE, edge_cert(mode, 3, Q(3))).failures == \
        (f"bound formula mismatch: expected {bound}, certificate carries 3",)
    assert verify_certificate(K5_EDGE, edge_cert(mode, 3, Q(-1, 2))).failures == \
        (f"bound formula mismatch: expected {bound}, certificate carries -1/2",)
    same_top = Q(bound.numerator, bound.denominator + 1)  # 5/3 or 15/8
    assert verify_certificate(K5_EDGE, edge_cert(mode, 3, same_top)).failures == \
        (f"bound formula mismatch: expected {bound}, certificate carries {same_top}",)


def test_verify_pins_the_failure_text_of_the_expected_bound_guard():
    # r = 1 has no global formula (n/(r-1) divides by zero): no bound failure, no crash
    cert = dataclasses.replace(edge_cert("global", 3), r=1)
    assert verify_certificate(K5_EDGE, cert).failures == (
        "r below 3: the theorems need r >= 3, certificate says r=1",
        "colour count mismatch: certificate says r=1, colouring declares m=3")


# sha256 of the concatenated `certificate_to_json` of every canonical
# 3-colouring of K5, in enumeration order, recorded before the prover's and
# the verifier's per-call overheads were cut: certificates stay byte-identical
K5_R3_CERTIFICATES_SHA256 = "78060ee2bb0de5ebcc59a6f2dece138c28b8fe829a9d4b8b854f06b7124dc7a9"


def test_every_k5_r3_certificate_is_pinned_and_verifies():
    digest = hashlib.sha256()
    count = 0
    for colouring in enumerate_colourings(EnumerationSpec(5, 3)):
        cert = prove_global(colouring, 3)
        assert verify_certificate(colouring, cert).ok, colouring.colours
        digest.update(certificate_to_json(cert).encode())
        count += 1
    assert count == 9842
    assert digest.hexdigest() == K5_R3_CERTIFICATES_SHA256


# The goldens below were recorded before the widen, extend and degenerate
# branches of the prover shared one certificate build; each pins one branch.

def proof_branch(cert: TripleStarCertificate) -> str:
    if cert.degenerate:
        return "degenerate"
    return "widen" if cert.trace.leaf_u is None else "extend"


# sha256 of the concatenated `certificate_to_json` of every canonical
# 3-colouring of K4, in enumeration order: 121 widen and 1 degenerate
K4_R3_CERTIFICATES_SHA256 = "cab1d9b9f2c197dc7f658f6a77edb64c940adf4d6f252c7129029bc960acade1"


def test_every_k4_r3_certificate_is_pinned_beside_the_degenerate_one():
    digest = hashlib.sha256()
    branches = {"widen": 0, "extend": 0, "degenerate": 0}
    for colouring in enumerate_colourings(EnumerationSpec(4, 3)):
        cert = prove_global(colouring, 3)
        assert verify_certificate(colouring, cert).ok, colouring.colours
        branches[proof_branch(cert)] += 1
        digest.update(certificate_to_json(cert).encode())
    assert branches == {"widen": 121, "extend": 0, "degenerate": 1}
    assert digest.hexdigest() == K4_R3_CERTIFICATES_SHA256


def shuffled_vertices(colouring: EdgeColouring, seed: int) -> EdgeColouring:
    """The same colouring with its vertices renamed by a seeded permutation."""
    n = colouring.n
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    colours = [0] * edge_count(n)
    for i in range(n - 1):
        for j in range(i + 1, n):
            a, b = sorted((perm[i], perm[j]))
            colours[edge_index(n, a, b)] = colouring.colour_of(i, j)
    return EdgeColouring(n, colouring.m, tuple(colours))


LOCAL_WIDEN_CERTIFICATES = {
    2: '{"format_version":1,"mode":"local","n":14,"r":3,"bound":{"num":6,"den":1},'
       '"colour":1,"centres":[4,1,6],"vertices":[1,4,6,8,11,12],"order":6,'
       '"degenerate":false,"trace":{"centres_U":[1,4],"order_U":6,"leaf_u":null,"delta":0}}\n',
    3: '{"format_version":1,"mode":"local","n":26,"r":4,"bound":{"num":8,"den":1},'
       '"colour":1,"centres":[11,9,13],"vertices":[9,11,13,14,19,20,22,23],"order":8,'
       '"degenerate":false,"trace":{"centres_U":[9,11],"order_U":8,"leaf_u":null,"delta":0}}\n',
}


@pytest.mark.parametrize("q", [2, 3])
def test_local_widen_certificate_on_a_shuffled_blowup_is_pinned(q):
    colouring = shuffled_vertices(projective_local_colouring(q, 2), q)
    cert = prove_local(colouring, q + 1)
    assert proof_branch(cert) == "widen"
    assert certificate_to_json(cert) == LOCAL_WIDEN_CERTIFICATES[q]
    assert verify_certificate(colouring, cert).ok


EXTEND_CERTIFICATES = {
    1: '{"format_version":1,"mode":"global","n":12,"r":4,"bound":{"num":4,"den":1},'
       '"colour":1,"centres":[0,1,2],"vertices":[0,1,2,3],"order":4,"degenerate":false,'
       '"trace":{"centres_U":[0,1],"order_U":3,"leaf_u":2,"delta":1}}\n',
    2: '{"format_version":1,"mode":"global","n":12,"r":4,"bound":{"num":4,"den":1},'
       '"colour":1,"centres":[0,1,2],"vertices":[0,1,2,3,4],"order":5,"degenerate":false,'
       '"trace":{"centres_U":[0,1],"order_U":3,"leaf_u":2,"delta":2}}\n',
}


@pytest.mark.parametrize("delta", [1, 2])
def test_extension_certificates_are_pinned(monkeypatch, delta):
    colouring, star = extension_fixture()
    if delta == 2:  # as in test_extension_step_picks_the_best_leaf
        colours = list(colouring.colours)
        colours[edge_index(12, 2, 4)] = 1
        colouring = EdgeColouring(12, 4, tuple(colours))
    monkeypatch.setattr(prover_module, "max_double_star", lambda c: star)
    cert = prove_global(colouring, 4)
    assert proof_branch(cert) == "extend"
    assert certificate_to_json(cert) == EXTEND_CERTIFICATES[delta]


# (seed of random_colouring(12, 4, seed), vertices dropped, vertices added,
# the full failure tuple): each forgery of the vertex list either passes the
# one-BFS radius check or falls back to the full diameter with its message
FORGED_VERTEX_LISTS = [
    (4, (), (6,), ("vertex 6 not attached to any centre in colour 3",
                   "diameter exceeds 4: found 5")),
    (2, (), (9,), ("vertex 9 not attached to any centre in colour 2",
                   "witness disconnected in its colour")),
    (4, (2,), (), ("star vertex 2 missing from witness",)),
    (4, (0,), (), ("centre 0 missing from vertex set", "star vertex 0 missing from witness",
                   "witness disconnected in its colour")),
    (16, (8,), (9,), ("vertex 9 not attached to any centre in colour 2",
                      "star vertex 8 missing from witness", "diameter exceeds 4: found 5")),
]


@pytest.mark.parametrize("seed, dropped, added, failures", FORGED_VERTEX_LISTS,
                         ids=["outside-vertex-far", "outside-vertex-cut-off", "leaf-dropped",
                              "middle-dropped", "middle-leaf-swapped"])
def test_verify_pins_the_failures_of_a_forged_vertex_list(seed, dropped, added, failures):
    c = random_colouring(12, 4, seed)
    cert = prove_global(c, 4)
    assert set(dropped) <= set(cert.vertices) and not set(added) & set(cert.vertices)
    verts = tuple(sorted(set(cert.vertices) - set(dropped) | set(added)))
    forged = dataclasses.replace(cert, vertices=verts, order=len(verts))
    assert verify_certificate(c, forged).failures == failures


# --- certificate files -------------------------------------------------------

def test_certificate_json_round_trip():
    for colouring, r, local in ((affine_colouring(2, 2), 3, False),
                                (projective_local_colouring(2, 2), 3, True),
                                (affine_colouring(2, 1), 3, False)):
        cert = prove_local(colouring, r) if local else prove_global(colouring, r)
        again = certificate_from_json(certificate_to_json(cert))
        assert again == cert
        assert verify_certificate(colouring, again).ok


def test_certificate_json_is_byte_stable():
    c = affine_colouring(2, 2)
    text = certificate_to_json(prove_global(c, 3))
    assert text == certificate_to_json(prove_global(c, 3))
    assert text.endswith("\n")
    assert text.startswith('{"format_version":1,"mode":"global",')


def test_certificate_parse_rejects_malformed_input():
    good = certificate_to_json(prove_global(affine_colouring(2, 2), 3))
    cases = [
        ("not json at all", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        (good.replace('"mode"', '"modus"'), "bad field set"),
        (good.replace('"format_version":1', '"format_version":2'), "format_version"),
        (good.replace('"mode":"global"', '"mode":7'), "mode must be a string"),
        (good.replace('"n":8', '"n":true'), "n must be an integer"),
        (good.replace('"num":4,"den":1', '"num":4,"den":0'), "den >= 1"),
        (good.replace('"centres":[1,0,4]', '"centres":"105"'), "list of integers"),
        (good.replace('"degenerate":false', '"degenerate":0'), "must be a boolean"),
        (good.replace('"leaf_u":null', '"leaf_u":"x"'), "integer or null"),
        (good.replace('"centres_U":[0,1]', '"centres_U":[0,1,2]'), "two centres"),
        (good.replace('"delta":0', '"gamma":0'), "trace must carry"),
    ]
    for text, needle in cases:
        assert text != good, needle  # the mutation must actually apply
        with pytest.raises(CertificateFormatError, match=needle):
            certificate_from_json(text)


def test_certificate_parse_names_the_trace_fields_in_declaration_order():
    good = certificate_to_json(prove_global(affine_colouring(2, 2), 3))
    names = [f.name for f in dataclasses.fields(ProofTrace)]
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(good.replace('"delta":0', '"gamma":0'))
    assert str(info.value) == "trace must carry exactly " + ", ".join(names)


def test_certificate_parse_maps_deep_nesting_and_huge_integers_to_format_errors():
    with pytest.raises(CertificateFormatError, match="nested too deeply"):
        certificate_from_json("[" * 100000)
    good = certificate_to_json(prove_global(affine_colouring(2, 2), 3))
    with pytest.raises(CertificateFormatError, match="not valid JSON"):
        certificate_from_json(good.replace('"n":8', '"n":' + "9" * 5000))


def test_certificate_parse_accepts_only_the_integer_format_version_one():
    good = certificate_to_json(prove_global(affine_colouring(2, 2), 3))
    certificate_from_json(good)
    for version in ("true", "1.0", '"1"'):
        text = good.replace('"format_version":1', '"format_version":' + version)
        assert text != good
        with pytest.raises(CertificateFormatError,
                           match=r"unsupported format_version: (True|1\.0|'1')$"):
            certificate_from_json(text)


def test_certificate_keys_follow_the_record_declaration_order():
    text = certificate_to_json(prove_global(affine_colouring(2, 2), 3))
    obj = json.loads(text)
    assert list(obj) == ["format_version"] + [f.name for f in dataclasses.fields(TripleStarCertificate)]
    assert list(obj["trace"]) == [f.name for f in dataclasses.fields(ProofTrace)]
