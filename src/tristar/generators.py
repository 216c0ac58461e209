"""Colouring generators: extremal plane constructions plus random baselines.

Each plane is its list of lines, one colour per line, and `_blow_up` turns
that list into the edges of K_n once: vertex v is a copy of point v // mult,
an edge between copies of two points takes the colour of the one line
through both, and an edge inside one point's copies takes that point's own
colour.

The affine plane of prime order q colours each line by its parallel class,
giving r = q + 1 colours whose components all have exactly n/(r - 1)
vertices; the triple-star floor n/(r - 1) is met with no slack.

The projective plane colours each line by itself.  It uses q^2 + q + 1
colours overall but only r = q + 1 at any one vertex, and meets the local
floor r n/(r^2 - r + 1) exactly.
"""
from __future__ import annotations

from itertools import chain

from .colouring import EdgeColouring
from .rng import SplitMix64


def _require_plane(q: int, mult: int, points: int) -> None:
    """q >= 2, then `points` within the size cap (so q >= 45 is never
    factored), then a prime q, mult >= 1 and mult * points within the cap."""
    if q < 2:
        raise ValueError(f"plane order must be a prime >= 2, got {q}")
    _require_size(points)
    d = 2
    while d * d <= q:
        if q % d == 0:
            raise ValueError(f"plane order must be prime, got {q} = {d} * {q // d}")
        d += 1
    if mult < 1:
        raise ValueError(f"mult must be >= 1, got {mult}")
    _require_size(mult * points)


_MAX_N = 2000  # C(n,2) colour entries; beyond this the dense model stops being sensible
# A search keeps a mask row per colour, and so does every colouring that an
# exhaustive proof builds, so r is held to the same scale as n.
_MAX_R = 2000


def _require_size(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n = {n} too large: refusing to materialise {n * (n - 1) // 2} edges")


def _require_counts(n: int, r: int) -> None:
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    if r < 1:
        raise ValueError(f"r >= 1 required, got {r}")
    _require_size(n)


def _blow_up(points: int, lines: list[tuple[int, list[int]]], own: list[int],
             mult: int, m: int) -> EdgeColouring:
    """K_(mult * points) coloured by a plane given as (colour, ascending points) lines.

    A point table holds own[p] at (p, p) and each line's colour at (a, b)
    for every a < b on it; edge {i, j}, i < j, reads (i // mult, j // mult),
    which never falls below the diagonal.  AssertionError unless every pair
    of distinct points lies on exactly one line.
    """
    table = [[0] * points for _ in range(points)]
    for p in range(points):
        table[p][p] = own[p]
    for colour, members in lines:
        for k, a in enumerate(members):
            row = table[a]
            for b in members[k + 1:]:
                if row[b]:
                    raise AssertionError(f"points {a} and {b} lie on two lines")
                row[b] = colour
    colours: list[int] = []
    for a, row in enumerate(table):
        # the colours seen from the copies of point a, each point's entry mult times
        wide = list(chain.from_iterable(zip(*[row[a:]] * mult)))
        for v in range(1, mult + 1):
            colours.extend(wide[v:])
    if 0 in colours:
        raise AssertionError("a pair of points lies on no line")
    return EdgeColouring(mult * points, m, tuple(colours))


def affine_colouring(q: int, mult: int = 1) -> EdgeColouring:
    """Blown-up affine plane of prime order q: n = mult q^2, q + 1 colours.

    Point (x, y) of Z_q^2 is x q + y and owns vertices mult*(x q + y) ..
    +mult-1.  The line y = s x + b gets colour s + 1 and the vertical line
    at x colour q + 1, so an edge between distinct points takes the
    parallel class of the line through them.  Edges inside one point's
    copies take colour 1, keeping them within the slope-0 component of the
    point.  Every colour class then splits into q components of exactly
    mult q vertices, which is n/(r - 1) on the nose.
    """
    _require_plane(q, mult, q * q)
    lines = [(s + 1, [x * q + (s * x + b) % q for x in range(q)])
             for s in range(q) for b in range(q)]
    lines += [(q + 1, list(range(x * q, x * q + q))) for x in range(q)]
    return _blow_up(q * q, lines, [1] * (q * q), mult, q + 1)


def projective_points(q: int) -> list[tuple[int, int, int]]:
    """Homogeneous coordinates over GF(q), first nonzero entry 1, fixed order."""
    pts = [(0, 0, 1)]
    pts.extend((0, 1, c) for c in range(q))
    pts.extend((1, b, c) for b in range(q) for c in range(q))
    return pts


def _normalise(t: tuple[int, int, int], q: int) -> tuple[int, int, int]:
    for k in range(3):
        if t[k] % q:
            f = pow(t[k], -1, q)
            return tuple((x * f) % q for x in t)  # type: ignore[return-value]
    raise ValueError("zero vector has no direction")


def line_through(p: tuple[int, int, int], r: tuple[int, int, int], q: int) -> tuple[int, int, int]:
    """The unique projective line containing both points, as a normalised triple."""
    cross = (p[1] * r[2] - p[2] * r[1],
             p[2] * r[0] - p[0] * r[2],
             p[0] * r[1] - p[1] * r[0])
    return _normalise(cross, q)


def projective_local_colouring(q: int, mult: int = 1) -> EdgeColouring:
    """Blown-up projective plane of prime order q: n = mult (q^2 + q + 1).

    Lines share the point enumeration: line k is projective_points(q)[k]
    read as dual coordinates, holds the points p with k . p = 0 (mod q)
    and gets colour k + 1, so colours run 1 .. q^2 + q + 1.  Edges between
    copies of distinct points take the line through the two points; edges
    inside one point's copies take the smallest-index line through that
    point.  Each vertex meets exactly q + 1 colours, and every colour class
    is a single component of mult (q + 1) vertices, matching the local
    floor exactly.
    """
    _require_plane(q, mult, q * q + q + 1)
    pts = projective_points(q)
    lines = [(k + 1, [p for p, (x, y, z) in enumerate(pts) if (a * x + b * y + c * z) % q == 0])
             for k, (a, b, c) in enumerate(pts)]
    own = [0] * len(pts)
    for colour, members in reversed(lines):  # the smallest colour through p is written last
        for p in members:
            own[p] = colour
    return _blow_up(len(pts), lines, own, mult, len(pts))


def random_colouring(n: int, r: int, seed: int) -> EdgeColouring:
    """Each edge colour uniform i.i.d. over 1..r from the pinned seeded generator.

    Same seed gives the same colouring on every platform; the generator
    algorithm is documented in the rng module.
    """
    _require_counts(n, r)
    rng = SplitMix64(seed)
    total = n * (n - 1) // 2
    return EdgeColouring(n, r, tuple(rng.below(r) + 1 for _ in range(total)))


def constant_colouring(n: int, r: int) -> EdgeColouring:
    """Every edge colour 1 with r labels declared; the trivial fixture."""
    _require_counts(n, r)
    return EdgeColouring(n, r, (1,) * (n * (n - 1) // 2))
