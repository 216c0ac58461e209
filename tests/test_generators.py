"""Extremal plane constructions and the random/constant baselines."""
from __future__ import annotations

import hashlib

import pytest

from tristar.colouring import (colour_components, locality, max_component,
                               validate)
from tristar.generators import (affine_colouring, constant_colouring,
                                line_through, projective_local_colouring,
                                projective_points, random_colouring)
from tristar.generators import _blow_up
from tristar.stars import max_double_star, max_triple_star


# --- affine ------------------------------------------------------------------

def test_affine_q2_mult1_is_the_proper_k4():
    c = affine_colouring(2, 1)
    assert (c.n, c.m) == (4, 3)
    assert validate(c).ok
    assert max_double_star(c).order == 2
    assert max_triple_star(c) is None


def test_affine_q2_mult2_components():
    c = affine_colouring(2, 2)
    assert (c.n, c.m) == (8, 3)
    for colour in range(1, 4):
        sizes = [len(comp) for comp in colour_components(c, colour)]
        assert sizes == [4, 4]  # q components of mult*q vertices each
    assert max_component(c).size == 4
    assert max_triple_star(c).order == 4


def test_affine_q3_mult1_is_disjoint_triangles():
    c = affine_colouring(3, 1)
    assert (c.n, c.m) == (9, 4)
    for colour in range(1, 5):
        comps = colour_components(c, colour)
        assert [len(comp) for comp in comps] == [3, 3, 3]
        for comp in comps:  # three mutually joined vertices: a triangle
            a, b, d = comp
            assert c.colour_of(a, b) == c.colour_of(a, d) == c.colour_of(b, d) == colour
    assert max_component(c).size == 3
    assert max_triple_star(c).order == 3


def test_affine_components_scale_with_mult():
    for q, mult in ((2, 3), (3, 2), (5, 1)):
        c = affine_colouring(q, mult)
        assert (c.n, c.m) == (mult * q * q, q + 1)
        for colour in range(1, q + 2):
            sizes = [len(comp) for comp in colour_components(c, colour)]
            assert sizes == [mult * q] * q


def test_affine_rejects_bad_parameters():
    with pytest.raises(ValueError, match="must be prime, got 4 = 2 \\* 2"):
        affine_colouring(4, 1)
    with pytest.raises(ValueError, match="prime >= 2"):
        affine_colouring(1, 1)
    with pytest.raises(ValueError, match="mult must be >= 1"):
        affine_colouring(2, 0)
    with pytest.raises(ValueError, match="refusing to materialise"):
        affine_colouring(47, 1)  # 47^2 = 2209 vertices, over the dense-model cap


def test_a_plane_past_the_size_cap_is_refused_before_its_order_is_factored():
    # q = 45 is the first order whose plane has more than 2000 points in both
    # families; below it every message stays the one the order earns
    for build in (affine_colouring, projective_local_colouring):
        with pytest.raises(ValueError, match="refusing to materialise"):
            build(45, 1)
        with pytest.raises(ValueError, match="refusing to materialise"):
            build(45, 0)
        with pytest.raises(ValueError, match="must be prime, got 44 = 2 \\* 22"):
            build(44, 1)
        with pytest.raises(ValueError, match="mult must be >= 1"):
            build(43, 0)
        with pytest.raises(ValueError, match="refusing to materialise"):
            build(43, 2)


# --- projective --------------------------------------------------------------

def test_projective_points_are_distinct_normalised():
    for q in (2, 3, 5):
        pts = projective_points(q)
        assert len(pts) == q * q + q + 1
        assert len(set(pts)) == len(pts)
        for p in pts:
            first = next(x for x in p if x)
            assert first == 1


def test_line_through_contains_both_points():
    q = 3
    pts = projective_points(q)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            line = line_through(pts[i], pts[j], q)
            for p in (pts[i], pts[j]):
                assert sum(a * b for a, b in zip(line, p)) % q == 0


def test_fano_colouring_shape():
    c = projective_local_colouring(2, 1)
    assert (c.n, c.m) == (7, 7)
    report = locality(c)
    assert report.locality == 3
    assert all(len(seen) == 3 for seen in report.incident)  # exactly q+1 everywhere
    for colour in range(1, 8):
        comps = colour_components(c, colour)
        assert [len(comp) for comp in comps] == [3]
    assert max_component(c).size == 3
    assert max_triple_star(c).order == 3


def test_fano_blowups_scale_components():
    for mult in (2, 3):
        c = projective_local_colouring(2, mult)
        assert c.n == 7 * mult
        assert locality(c).locality == 3
        for colour in range(1, 8):
            assert [len(x) for x in colour_components(c, colour)] == [3 * mult]
        assert max_component(c).size == 3 * mult


def test_projective_q3_components():
    c = projective_local_colouring(3, 1)
    assert (c.n, c.m) == (13, 13)
    assert locality(c).locality == 4
    for colour in range(1, 14):
        assert [len(x) for x in colour_components(c, colour)] == [4]
    assert max_component(c).size == 4


def test_projective_rejects_non_prime():
    with pytest.raises(ValueError, match="must be prime"):
        projective_local_colouring(6, 1)


# --- both planes: one blow-up ------------------------------------------------

def _reference_affine(q, mult):
    """Per pair: the slope of the line through two points, or its verticality."""
    colours = []
    n = mult * q * q
    for i in range(n - 1):
        xi, yi = divmod(i // mult, q)
        for j in range(i + 1, n):
            xj, yj = divmod(j // mult, q)
            if xi == xj:
                colours.append(1 if yi == yj else q + 1)
            else:
                colours.append((yj - yi) * pow(xj - xi, -1, q) % q + 1)
    return colours


def _reference_projective(q, mult):
    """Per pair: the line through two points, or the smallest line through one."""
    pts = projective_points(q)
    index = {p: k for k, p in enumerate(pts)}
    colours = []
    n = mult * len(pts)
    for i in range(n - 1):
        p = pts[i // mult]
        for j in range(i + 1, n):
            r = pts[j // mult]
            if p == r:
                colours.append(1 + min(k for k, line in enumerate(pts)
                                       if sum(a * b for a, b in zip(line, p)) % q == 0))
            else:
                colours.append(1 + index[line_through(p, r, q)])
    return colours


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("mult", [1, 2, 3])
def test_planes_agree_with_the_per_pair_reference(q, mult):
    affine = affine_colouring(q, mult)
    assert (affine.n, affine.m) == (mult * q * q, q + 1)
    assert list(affine.colours) == _reference_affine(q, mult)
    projective = projective_local_colouring(q, mult)
    points = q * q + q + 1
    assert (projective.n, projective.m) == (mult * points, points)
    assert list(projective.colours) == _reference_projective(q, mult)


# sha256 of the comma-joined colours of every plane that the benchmark's
# analyze-mid and certify-1k plans generate
_PLANE_DIGESTS = {
    ("affine", 5, 5): "c80ec2125faeb062f014e6718e758718527b1d580c4e2f936d1e3a716a627a8c",
    ("affine", 5, 8): "ab5e3468bc6b7da085835003b03b069a751f0bfc3f55668b26f33ccee43a5616",
    ("affine", 7, 3): "3454ad467a11982528c9462d9f833119e404c801919dab368f3d50253ed88af9",
    ("affine", 7, 5): "c1fbf42f3c54bf7fe255be6566f1e2f00879c5be407a5f47c10860eeca4551ba",
    ("affine", 11, 1): "1ae9c8b7f1815cbf2c22c26c4665621565efb93357e83ee95dcff96a0e0790a1",
    ("affine", 11, 2): "3ee570e7e33f769d440c81c07d68a0d60900eaa50ae5f37141a35812f9139ce0",
    ("affine", 13, 1): "d7f6ebe38b33a7b9593b2d9cd9e5d6ece18bff5008057509ee9e726979ab59e3",
    ("projective", 13, 1): "0a0d3e046d874436a52fc687ef779f8e665c79a3ed254448463413709b9b7fcd",
    ("projective", 11, 1): "ed8cc6c5ba1a4c62cd84a2c8d514c53da26e94f792fbd0a2faa4b526d9ba0640",
    ("projective", 7, 3): "d619dd99b2e9188e07df29912fde497cb033d0d3262dcc9db57ba08e124192f9",
    ("projective", 5, 5): "281b6fdfdd1552759f5eb7222f0c4cfda16eec507e73795780473057a2486668",
    ("projective", 5, 8): "7ee8aca448d9e4f3167adfd689c97630cf945d479b7528552ce7a0f7c4c7a2f6",
    ("projective", 3, 13): "ed4f2b1ddb8b7db430bb9791af1f685025530f443b71c790c84d095a7be3ed7a",
    ("projective", 2, 25): "5b6f2267c73cb1d73120bdd2c1c1da28803d6ac502d0a28abd9b6e40e202c660",
    ("affine", 31, 1): "ace3684f988e680afcf21fcef86a6f834f072a30ea29f7eb379210eb281236ab",
    ("affine", 2, 250): "ca5ac9bfcb063477ac8c921a6695c65852aab5b433387ee4f93bc4d658425c98",
    ("affine", 3, 111): "9e610e60fa15110fd49ac5caee28252cc54c06748dd7d8b7320d5a1e4627b4a0",
    ("affine", 5, 40): "a9822e45b8840d6b7881b991f3b7824a5ef8dc2c45b416bf94a9ac7492f67c5f",
    ("projective", 31, 1): "6963dfa96ee349d039d29e763a7d4a50e77dca4baa809fc8c095283f2ea54809",
    ("projective", 2, 143): "9fca7cc7a60ea9e8bc831ed99dc907edd556b2aebaff8a4aad713e0bbaf0827b",
    ("projective", 3, 77): "a52548cd30a909aa96ec39a5f1453923edb10fb91bee5e819d3a7b7fda28a3ce",
}


@pytest.mark.parametrize("family, q, mult", sorted(_PLANE_DIGESTS))
def test_plane_colourings_match_their_digests(family, q, mult):
    build = affine_colouring if family == "affine" else projective_local_colouring
    colours = build(q, mult).colours
    digest = hashlib.sha256(",".join(map(str, colours)).encode()).hexdigest()
    assert digest == _PLANE_DIGESTS[family, q, mult]


def test_blow_up_rejects_a_pair_on_two_lines():
    with pytest.raises(AssertionError, match="points 0 and 1 lie on two lines"):
        _blow_up(3, [(1, [0, 1, 2]), (2, [0, 1])], [1, 1, 1], 2, 2)


def test_blow_up_rejects_a_pair_on_no_line():
    with pytest.raises(AssertionError, match="lies on no line"):
        _blow_up(3, [(1, [0, 1]), (2, [1, 2])], [1, 1, 1], 2, 2)


# --- random and constant -----------------------------------------------------

def test_random_colouring_deterministic_per_seed():
    a = random_colouring(5, 3, seed=1)
    b = random_colouring(5, 3, seed=1)
    assert a == b
    assert random_colouring(5, 3, seed=2) != a
    assert validate(a).ok


def test_random_colouring_single_edge():
    c = random_colouring(2, 1, seed=9)
    assert c.colours == (1,)


def test_random_colouring_uses_whole_range():
    c = random_colouring(30, 4, seed=3)
    assert set(c.colours) == {1, 2, 3, 4}


def test_random_colouring_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n >= 2"):
        random_colouring(1, 2, seed=0)
    with pytest.raises(ValueError, match="r >= 1"):
        random_colouring(4, 0, seed=0)
    with pytest.raises(ValueError, match="refusing to materialise"):
        random_colouring(2001, 2, seed=0)


def test_constant_colouring():
    c = constant_colouring(5, 3)
    assert (c.n, c.m) == (5, 3)
    assert set(c.colours) == {1}
    assert max_component(c).size == 5
    assert validate(c).ok
    assert constant_colouring(2, 1).colours == (1,)
