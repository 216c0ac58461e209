"""Colouring generators: extremal plane constructions plus random baselines.

The affine construction colours the edges of a blown-up affine plane of
prime order q by parallel class, giving r = q + 1 colours whose components
all have exactly n/(r - 1) vertices; the triple-star floor n/(r - 1) is met
with no slack.

The projective construction colours each edge by the unique line through
its endpoints' points.  It uses q^2 + q + 1 colours overall but only
r = q + 1 at any one vertex, and meets the local floor r n/(r^2 - r + 1)
exactly.
"""
from __future__ import annotations

from .colouring import EdgeColouring
from .rng import SplitMix64


def _require_prime(q: int) -> None:
    if q < 2:
        raise ValueError(f"plane order must be a prime >= 2, got {q}")
    d = 2
    while d * d <= q:
        if q % d == 0:
            raise ValueError(f"plane order must be prime, got {q} = {d} * {q // d}")
        d += 1


def _require_mult(mult: int) -> None:
    if mult < 1:
        raise ValueError(f"mult must be >= 1, got {mult}")


_MAX_N = 2000  # C(n,2) colour entries; beyond this the dense model stops being sensible
# A search keeps a mask row per colour, and so does every colouring that an
# exhaustive proof builds, so r is held to the same scale as n.
_MAX_R = 2000


def _require_size(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n = {n} too large: refusing to materialise {n * (n - 1) // 2} edges")


def affine_colouring(q: int, mult: int = 1) -> EdgeColouring:
    """Blown-up affine plane of prime order q: n = mult q^2, q + 1 colours.

    Point (x, y) of Z_q^2 owns vertices mult*(x q + y) .. +mult-1.  An edge
    between distinct points takes the parallel class of the line through
    them: slope s lines get colour s + 1, vertical lines colour q + 1.
    Edges inside one point's copies take colour 1, keeping them within the
    slope-0 component of the point.  Every colour class then splits into q
    components of exactly mult q vertices, which is n/(r - 1) on the nose.
    """
    _require_prime(q)
    _require_mult(mult)
    n = mult * q * q
    _require_size(n)
    inv = [0] * q
    for a in range(1, q):
        inv[a] = pow(a, -1, q)
    px = [(v // mult) // q for v in range(n)]
    py = [(v // mult) % q for v in range(n)]
    colours = []
    for i in range(n - 1):
        xi, yi = px[i], py[i]
        for j in range(i + 1, n):
            xj, yj = px[j], py[j]
            if xi == xj:
                if yi == yj:
                    colours.append(1)
                else:
                    colours.append(q + 1)
            else:
                s = ((yj - yi) * inv[(xj - xi) % q]) % q
                # well-definedness: both points must lie on y = s x + b
                if (yj - s * xj) % q != (yi - s * xi) % q:
                    raise AssertionError("line through two points is not unique")
                colours.append(s + 1)
    return EdgeColouring(n, q + 1, tuple(colours))


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

    Edges between copies of distinct points take the line through the two
    points as their colour (lines share the point enumeration, so colours
    run 1 .. q^2 + q + 1).  Edges inside one point's copies take the
    smallest-index line through that point.  Each vertex meets exactly
    q + 1 colours, and every colour class is a single component of
    mult (q + 1) vertices, matching the local floor exactly.
    """
    _require_prime(q)
    _require_mult(mult)
    _require_size(mult * (q * q + q + 1))
    pts = projective_points(q)
    index = {p: k for k, p in enumerate(pts)}
    count = len(pts)
    own = []
    for p in pts:
        for k, line in enumerate(pts):
            if (line[0] * p[0] + line[1] * p[1] + line[2] * p[2]) % q == 0:
                own.append(k)
                break
    n = mult * count
    point = [v // mult for v in range(n)]
    cache: dict[tuple[int, int], int] = {}
    colours = []
    for i in range(n - 1):
        pi = point[i]
        for j in range(i + 1, n):
            pj = point[j]
            if pi == pj:
                colours.append(own[pi] + 1)
                continue
            got = cache.get((pi, pj))
            if got is None:
                got = index[line_through(pts[pi], pts[pj], q)]
                cache[(pi, pj)] = got
            colours.append(got + 1)
    return EdgeColouring(n, count, tuple(colours))


def random_colouring(n: int, r: int, seed: int) -> EdgeColouring:
    """Each edge colour uniform i.i.d. over 1..r from the pinned seeded generator.

    Same seed gives the same colouring on every platform; the generator
    algorithm is documented in the rng module.
    """
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    if r < 1:
        raise ValueError(f"r >= 1 required, got {r}")
    _require_size(n)
    rng = SplitMix64(seed)
    total = n * (n - 1) // 2
    return EdgeColouring(n, r, tuple(rng.below(r) + 1 for _ in range(total)))


def constant_colouring(n: int, r: int) -> EdgeColouring:
    """Every edge colour 1 with r labels declared; the trivial fixture."""
    if n < 2:
        raise ValueError(f"n >= 2 required, got {n}")
    if r < 1:
        raise ValueError(f"r >= 1 required, got {r}")
    _require_size(n)
    return EdgeColouring(n, r, (1,) * (n * (n - 1) // 2))
