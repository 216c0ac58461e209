"""Double stars in bipartite graphs: averaging floors and the scans meeting them.

Plain route: any bipartite graph with sides A, B contains a double star on at
least (1/|A| + 1/|B|)|E| vertices; averaging d(a) + d(b) over edges and
applying Cauchy-Schwarz per side shows the best edge reaches the floor.  In
a bipartite graph d(a) + d(b) is the exact double-star order (the two
neighbourhoods live on opposite sides and cannot overlap).

Coloured route: if each A-vertex meets at most r colours and each B-vertex
at most t, some colour holds a double star on at least
(1/(|A| r) + 1/(|B| t))|E| vertices, by the same averaging with degrees
split per colour.

The module also builds the cross graph of a double star U in a coloured
complete graph: bipartition (U, complement), keeping every cross edge not in
U's own colour.  That construction powers the counting step behind the
triple-star floors and is exercised by the property suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .colouring import EdgeColouring, _palette, iter_bits
from .rng import SplitMix64
from .stars import DoubleStarWitness

Q = Fraction


@dataclass(frozen=True)
class BipartiteColouredGraph:
    """Sides A = 0..a_size-1, B = 0..b_size-1; each edge optionally coloured.

    layers[c][a] is the bit mask over B of colour-c edges at a; layer 0
    holds uncoloured edges.  A pair carries at most one edge overall.
    """

    a_size: int
    b_size: int
    m: int
    layers: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_plain_edges(a_size: int, b_size: int, pairs) -> "BipartiteColouredGraph":
        return BipartiteColouredGraph.from_coloured_edges(
            a_size, b_size, 0, ((a, b, 0) for a, b in pairs))

    @staticmethod
    def from_coloured_edges(a_size: int, b_size: int, m: int, triples) -> "BipartiteColouredGraph":
        if a_size < 1 or b_size < 1:
            raise ValueError("both sides must be nonempty")
        layers = _palette(a_size, m, None)  # refused past the mask entry cap before any row
        taken = [0] * a_size
        for a, b, c in triples:
            if not (0 <= a < a_size and 0 <= b < b_size):
                raise ValueError(f"edge ({a}, {b}) outside sides {a_size} x {b_size}")
            if not 0 <= c <= m:
                raise ValueError(f"colour out of range: {c}")
            if taken[a] & (1 << b):
                raise ValueError(f"pair ({a}, {b}) carries two edges")
            taken[a] |= 1 << b
            layers[c][a] |= 1 << b
        return BipartiteColouredGraph(a_size, b_size, m,
                                      tuple(tuple(row) for row in layers))

    def edge_total(self) -> int:
        return sum(row.bit_count() for layer in self.layers for row in layer)

    def has_uncoloured(self) -> bool:
        return any(self.layers[0])

    def degree_a(self, a: int) -> int:
        return sum(layer[a].bit_count() for layer in self.layers)

    def degree_b(self, b: int) -> int:
        bit = 1 << b
        return sum(1 for layer in self.layers for row in layer if row & bit)

    def colour_degree_a(self, c: int, a: int) -> int:
        return self.layers[c][a].bit_count()

    def colour_degree_b(self, c: int, b: int) -> int:
        bit = 1 << b
        return sum(1 for row in self.layers[c] if row & bit)

    def colours_at_a(self, a: int) -> frozenset[int]:
        return frozenset(c for c in range(1, self.m + 1) if self.layers[c][a])

    def colours_at_b(self, b: int) -> frozenset[int]:
        bit = 1 << b
        return frozenset(c for c in range(1, self.m + 1)
                         if any(row & bit for row in self.layers[c]))


def lemma1_bound(size_a: int, size_b: int, edges: int) -> Q:
    """(1/|A| + 1/|B|) |E|, the plain double-star floor."""
    return lemma2_bound(size_a, size_b, 1, 1, edges)


def lemma2_bound(size_a: int, size_b: int, r: int, t: int, edges: int) -> Q:
    """(1/(|A| r) + 1/(|B| t)) |E|, the per-side colour-limited floor.

    With r = t = 1 this degenerates to lemma1_bound.
    """
    if size_a < 1 or size_b < 1:
        raise ValueError("side sizes must be >= 1")
    if r < 1 or t < 1:
        raise ValueError("colour limits must be >= 1")
    if edges < 0:
        raise ValueError("edge count must be >= 0")
    return (Q(1, size_a * r) + Q(1, size_b * t)) * edges


@dataclass(frozen=True)
class CentreEdge:
    a: int
    b: int
    value: int  # d(a) + d(b) = the double star's order


@dataclass(frozen=True)
class MonoCentreEdge:
    a: int
    b: int
    colour: int
    value: int  # d_c(a) + d_c(b)


def max_double_star_bipartite(graph: BipartiteColouredGraph) -> CentreEdge:
    """Best centre edge by total degrees d(a) + d(b); ties to smallest (a, b).

    The value always meets lemma1_bound for this graph.  Colours play no
    role here (the monochromatic finder is max_mono_double_star_bipartite).
    """
    joined = [0] * graph.a_size
    for layer in graph.layers:  # a pair carries one edge, so these are the total degrees
        joined = list(map(int.__or__, joined, layer))
    value, a, b = _best_centre_edge(joined, graph.b_size)
    if value < 0:
        raise ValueError("graph has no edges")
    return CentreEdge(a, b, value)


def max_mono_double_star_bipartite(graph: BipartiteColouredGraph,
                                   r: int, t: int) -> MonoCentreEdge:
    """Best monochromatic centre edge by colour degrees d_c(a) + d_c(b).

    The stated per-side colour limits are verified first (every A-vertex at
    most r colours, every B-vertex at most t), since the lemma2_bound
    guarantee is unsound without them.  Ties break to smallest (c, a, b).
    """
    if r < 1 or t < 1:
        raise ValueError("colour limits must be >= 1")
    if graph.has_uncoloured():
        raise ValueError("graph has uncoloured edges; the monochromatic scan needs full colours")
    for a in range(graph.a_size):
        seen = len(graph.colours_at_a(a))
        if seen > r:
            raise ValueError(f"colour limit exceeded at A-vertex {a}: meets {seen} colours, limit {r}")
    for b in range(graph.b_size):
        seen = len(graph.colours_at_b(b))
        if seen > t:
            raise ValueError(f"colour limit exceeded at B-vertex {b}: meets {seen} colours, limit {t}")
    # max keeps the first of equal values, so ties go to the smallest c
    value, a, b, c = max((_best_centre_edge(graph.layers[c], graph.b_size) + (c,)
                          for c in range(1, graph.m + 1)),
                         key=lambda best: best[0], default=(-1, 0, 0, 0))
    if value < 0:
        raise ValueError("graph has no edges")
    return MonoCentreEdge(a, b, c, value)


def _best_centre_edge(layer, b_size: int) -> tuple[int, int, int]:
    """(d(a) + d(b), a, b) for the first edge of one layer in (a, b) order with the largest sum.

    The value is -1 when the layer has no edges.
    """
    b_deg = [0] * b_size
    for row in layer:
        for b in iter_bits(row):
            b_deg[b] += 1
    best = (-1, 0, 0)
    for a, row in enumerate(layer):
        da = row.bit_count()
        for b in iter_bits(row):
            value = da + b_deg[b]
            if value > best[0]:
                best = (value, a, b)
    return best


@dataclass(frozen=True)
class G2Construction:
    """Cross graph of a double star U: side A = U, side B = the complement.

    a_labels/b_labels map side indices back to original vertices;
    outward_excluded[i] is |N_c(a_labels[i]) minus U| for U's own colour c,
    the quantity the counting argument bounds.
    """

    graph: BipartiteColouredGraph
    a_labels: tuple[int, ...]
    b_labels: tuple[int, ...]
    excluded_colour: int
    outward_excluded: tuple[int, ...]


def build_G2(colouring: EdgeColouring, star: DoubleStarWitness) -> G2Construction:
    """All U-to-complement edges not carrying U's own colour, colours kept.

    Checks that the witness really is a double star of this colouring (its
    vertex set must be the full neighbourhood union of its centre edge) and
    that the complement is nonempty.
    """
    n, c = colouring.n, star.colour
    x, y = star.centres
    if colouring.colour_of(x, y) != c:
        raise ValueError(f"centre edge {{{x},{y}}} is not colour {c}")
    masks = colouring.view.masks[c]
    union = masks[x] | masks[y]
    if tuple(iter_bits(union)) != star.vertices:
        raise ValueError("witness vertex set is not the neighbourhood union of its centres")
    if star.order >= n:
        raise ValueError("empty complement: the double star spans every vertex")
    a_labels = star.vertices
    b_labels = tuple(v for v in range(n) if not (union >> v) & 1)
    b_index = {v: i for i, v in enumerate(b_labels)}
    triples = []
    outward = []
    for i, u in enumerate(a_labels):
        outward.append((masks[u] & ~union).bit_count())
        for v in b_labels:
            cv = colouring.colour_of(u, v)
            if cv != c:
                triples.append((i, b_index[v], cv))
    graph = BipartiteColouredGraph.from_coloured_edges(
        len(a_labels), len(b_labels), colouring.m, triples)
    return G2Construction(graph, a_labels, b_labels, c, tuple(outward))


def random_bipartite(a_size: int, b_size: int, num: int, den: int,
                     seed: int) -> BipartiteColouredGraph:
    """Uncoloured random bipartite graph: each pair joined with probability num/den."""
    rng = SplitMix64(seed)
    pairs = [(a, b) for a in range(a_size) for b in range(b_size)
             if rng.chance(num, den)]
    return BipartiteColouredGraph.from_plain_edges(a_size, b_size, pairs)


def random_local_bipartite(a_size: int, b_size: int, m: int, r: int, t: int,
                           num: int, den: int, seed: int) -> BipartiteColouredGraph:
    """Random coloured bipartite graph honouring per-side colour limits r and t.

    Each A-vertex draws a palette of r colours and each B-vertex a palette
    of t colours from 1..m; a pair is joined with probability num/den when
    the palettes intersect, coloured from the intersection.
    """
    if not 1 <= r <= m or not 1 <= t <= m:
        raise ValueError("palette sizes must lie in 1..m")
    rng = SplitMix64(seed)
    a_pal = [[c + 1 for c in rng.sample(m, r)] for _ in range(a_size)]
    b_pal = [frozenset(c + 1 for c in rng.sample(m, t)) for _ in range(b_size)]
    triples = []
    for a in range(a_size):
        for b in range(b_size):
            shared = [c for c in a_pal[a] if c in b_pal[b]]
            if shared and rng.chance(num, den):
                triples.append((a, b, shared[rng.below(len(shared))]))
    return BipartiteColouredGraph.from_coloured_edges(a_size, b_size, m, triples)
