"""Edge colourings of complete graphs and their per-colour structure.

Vertices are 0-indexed, colours 1-indexed (0 stays free as a sentinel).
Edge colours are stored in row-major upper-triangular order:
{0,1}, {0,2}, ..., {0,n-1}, {1,2}, ..., {n-2,n-1}.

Per-colour neighbourhoods are Python ints used as bit vectors, so unions
and order counts are word-parallel (`|` and `int.bit_count`).

Large colourings are also held as a label matrix: the symmetric n x n
matrix of edge labels, 0 on the diagonal, in base-256 byte planes, each
holding one digit of every cell, least significant first (one plane when
m < 256).  A plane is filled with two slice assignments per row and read
at C speed: a row's distinct labels are one `set` (or one memchr per
label in use).  With one-byte labels a row's colour-c mask is one
`bytes.translate`, mapping c to '1' and every other byte to '0', read by
`int(..., 2)`; wider labels get their view from the per-edge loop, and
only a single colour's rows translate each plane and AND them.

Labels become one flat array (`_flat_labels`) once: bytes below 256
colours, native unsigned ints ('I', at least 32 bits) up to the cap _MAX_M.
`parse_colouring` makes that array as it reads the text and hands it, with
a valid record, to the label matrix.  Validation checks the label types,
converts the labels and checks their range, all in C.

The module also houses the registry of known guaranteed orders for
monochromatic structures; every bound is a fractions.Fraction so
comparisons never suffer float noise.
"""
from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import ColouringFormatError

Q = Fraction


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(n: int, i: int, j: int) -> int:
    """Position of edge {i,j} in row-major upper-triangular order."""
    if i > j:
        i, j = j, i
    if i == j or i < 0 or j >= n:
        raise ValueError(f"not an edge of K_{n}: ({i}, {j})")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# _SMALL_BITS[mask]: the set bits of a mask below 256, ascending
_SMALL_BITS = tuple(tuple(iter_bits(mask)) for mask in range(256))


def bit_tuple(mask: int) -> tuple[int, ...]:
    """tuple(iter_bits(mask)), read from a table when the mask is below 256."""
    return _SMALL_BITS[mask] if mask < 256 else tuple(iter_bits(mask))


@dataclass(frozen=True)
class EdgeColouring:
    """A colour for every edge of K_n, with colour labels 1..m.

    Instances are plain immutable records: the constructor accepts malformed
    data so that `validate` can report problems instead of crashing.  All
    other operations assume a colouring that `validate` accepts.
    """

    n: int
    m: int
    colours: tuple[int, ...]

    def __init__(self, n: int, m: int, colours: tuple[int, ...]) -> None:
        # one dict update in place of a frozen setattr per field: exhaustive
        # checks build a record per colouring
        self.__dict__.update(n=n, m=m, colours=colours)

    def colour_of(self, i: int, j: int) -> int:
        return self.colours[edge_index(self.n, i, j)]

    @classmethod
    def on_masks(cls, n: int, m: int, colours: tuple[int, ...], masks: list) -> "EdgeColouring":
        """The colouring whose view reads `masks`, the colours' masks as
        `colour_masks` builds them, for colours 0..k with k <= m; the rows
        above k read as one shared empty row.

        The view and the validation are set at construction, so no first
        read of either runs later.  The view shares the caller's rows: it
        holds only while they still hold these colours.
        """
        colouring = cls(n, m, colours)
        colouring.__dict__.update(view=_MaskView(n, m, masks),
                                  validation=_find_violations(colouring))
        return colouring

    @cached_property
    def view(self) -> "ColourClassView":
        return ColourClassView(self)

    @cached_property
    def validation(self) -> "ValidationReport":
        """What `validate` returns; checked once, since the record never changes."""
        return _find_violations(self)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Component bit masks of each colour class, index c (index 0 empty).

        One BFS per colour serves `colour_components` and `max_component`.
        """
        masks = self.view.masks
        return ((),) + tuple(tuple(component_masks(masks[c])) for c in range(1, self.m + 1))

    @cached_property
    def labels(self) -> "LabelMatrix":
        """The label matrix: locality, and mask rows at C speed on large colourings."""
        return LabelMatrix(self)

    def colour_rows(self, c: int) -> list[int]:
        """Colour c's adjacency masks: bit v of [x] is set iff {x, v} has colour c.

        The view's row once the view is built; otherwise this colour's rows
        alone, from one translate per plane over the label matrix.
        """
        if "view" in self.__dict__ or self.n < _MATRIX_MIN_N:
            return self.view.masks[c]
        return self.labels.colour_rows(c)


def _flat_labels(m: int, colours):
    """The labels as bytes below 256 colours, else as an array of 'I' items.

    A C unsigned int holds at least 32 bits on every CPython platform, so
    'I' holds every label up to _MAX_M.  Raises TypeError, ValueError or
    OverflowError when some label is no integer or does not fit.
    """
    return bytes(colours) if m < 256 else array("I", colours)


# Below this many vertices masks come from the per-edge loop alone: the
# label matrix costs more than it saves (measured crossover n = 48-96).
_MATRIX_MIN_N = 64


def _digit_offsets(size: int) -> range:
    """Byte offset of each base-256 digit inside a native unsigned item, least significant first."""
    return range(size) if sys.byteorder == "little" else range(size - 1, -1, -1)


def _digit_planes(flat, width: int) -> tuple[bytes, ...]:
    """The first `width` base-256 digit planes of the labels, least significant first."""
    if isinstance(flat, bytes):
        return (flat,)
    raw, size = flat.tobytes(), flat.itemsize
    return tuple(raw[at::size] for at in _digit_offsets(size)[:width])


_ZEROS = b"0" * 256
# _ONE[d]: a translate table mapping byte d to '1' and every other byte to '0'
_ONE = tuple(_ZEROS[:d] + b"1" + _ZEROS[d + 1:] for d in range(256))


class LabelMatrix:
    """The symmetric n x n matrix of a colouring's labels, 0 on the diagonal.

    planes[p] holds base-256 digit p of every cell (least significant
    first), one byte per cell, back to front: row i is the slice at
    (n-1-i)*n with column v at offset n-1-v, so a row translated to
    '0'/'1' reads as a binary numeral with bit v for column v.

    The planes come from the flat label array that `parse_colouring` left
    on the record, which the matrix removes from it, or else from one
    `_flat_labels` conversion of the colours.
    """

    def __init__(self, colouring: EdgeColouring):
        n = self.n = colouring.n
        self.m = colouring.m
        self.planes = []
        flat = colouring.__dict__.pop("_flat", None)  # the parser's array, needed only here
        if flat is None:
            flat = _flat_labels(self.m, colouring.colours)
        for digits in _digit_planes(flat, (self.m.bit_length() + 7) // 8 or 1):
            cells = bytearray(n * n)
            k = 0
            for i in range(n - 1):
                seg = digits[k:k + n - 1 - i]
                k += n - 1 - i
                cells[i * n + i + 1:(i + 1) * n] = seg  # row i, right of the diagonal
                cells[(i + 1) * n + i::n] = seg  # column i, below it
            cells.reverse()
            self.planes.append(cells)

    @cached_property
    def row_labels(self) -> list[tuple[int, ...]]:
        """The distinct labels of each row, the diagonal's 0 left out.

        With one-byte labels and few of them in use, a search for each label
        in the row (memchr) is cheaper than a set of the row's n cells.
        """
        n, planes = self.n, self.planes
        if len(planes) == 1:
            cells = planes[0]
            used = [c for c in range(1, self.m + 1) if c in cells]
            if len(used) * 16 < n:
                return [tuple(c for c in used if cells.find(c, lo, lo + n) >= 0)
                        for lo in range(n * n - n, -1, -n)]
        size = array("I").itemsize
        result = []
        for lo in range(n * n - n, -1, -n):
            if len(planes) == 1:
                labels = set(planes[0][lo:lo + n])
            else:  # the row's digits interleaved into native 'I' items, read back as labels
                cells = bytearray(n * size)
                for at, plane in zip(_digit_offsets(size), planes):
                    cells[at::size] = plane[lo:lo + n]
                labels = set(memoryview(cells).cast("I"))
            labels.discard(0)
            result.append(tuple(labels))
        return result

    def colour_rows(self, c: int) -> list[int]:
        """Colour c's masks, one translate per plane over the whole matrix."""
        n = self.n
        rows = None
        for p, plane in enumerate(self.planes):
            bits = plane.translate(_ONE[c >> 8 * p & 255])
            part = [int(bits[lo:lo + n], 2) for lo in range(n * n - n, -1, -n)]
            rows = part if rows is None else list(map(int.__and__, rows, part))
        return rows


def colour_masks(n: int, m: int, colours, used=None) -> list:
    """masks[c][x] has bit v set iff edge {x, v} has colour c: the one per-edge loop.

    Rows come from `_palette`: with `used` None every colour, row 0 included,
    gets one the walk and the annealer may edit.  `colours` is any iterable
    of labels in edge order; a prefix of the edges leaves the rest unset.
    The rows are read last to first, so each mask has its highest bit once
    its own row is read: built up from their low bits, the masks of the
    projective q = 31 plane (993 colours) left the allocator's pools part
    empty, and a certify pass peaked at 48 MiB in place of 44.
    """
    masks = _palette(n, m, used)
    labels = tuple(colours)
    end = edge_count(n)
    for i in range(n - 2, -1, -1):
        start = end - (n - 1 - i)
        one = 1 << i
        for j, c in zip(range(i + 1, n), labels[start:end]):
            row = masks[c]
            row[i] |= 1 << j
            row[j] |= one
        end = start
    return masks


# Masks keep an n-entry row per colour given one: a rainbow K_n, a valid file
# with C(n, 2) colours, would need about n^3 / 2 entries.  Past this many the
# masks are refused before any row is made (rainbow K_271 fits, K_272 not).
_MAX_VIEW_ENTRIES = 10 ** 7


def _palette(n: int, m: int, used) -> list:
    """The one row allocation: a row for each colour in `used` (None: every
    colour and row 0); the others share one read-only empty row."""
    if used is None:
        used = range(m + 1)
    if len(used) * n > _MAX_VIEW_ENTRIES:
        raise ValueError(f"{len(used)} colours in use on {n} vertices: the mask view would "
                         f"hold {len(used) * n} entries, at most {_MAX_VIEW_ENTRIES}")
    empty = (0,) * n
    masks = [empty] * (m + 1)
    for c in used:
        masks[c] = [0] * n
    return masks


# A row's mask for one colour costs one translate and one int() of the
# row, about _ROW_COST + n units; the per-edge loop costs about
# _EDGE_COST units per cell, and sets both bits of an edge at one visit.
# A colouring of one-byte labels takes whichever is cheaper summed over
# all its rows; labels of more than one byte take the per-edge loop.
_ROW_COST = 120
_EDGE_COST = 46


def _matrix_masks(colouring: EdgeColouring) -> list:
    labels = colouring.labels
    n, row_labels = labels.n, labels.row_labels
    used = set().union(*row_labels)
    if len(labels.planes) > 1 or sum(map(len, row_labels)) * (_ROW_COST + n) >= _EDGE_COST * n * n:
        return colour_masks(n, colouring.m, colouring.colours, used)
    masks = _palette(n, colouring.m, used)
    cells = labels.planes[0]
    for i, lo in enumerate(range(n * n - n, -1, -n)):
        row = cells[lo:lo + n]
        for c in row_labels[i]:
            masks[c][i] = int(row.translate(_ONE[c]), 2)
    return masks


class ColourClassView:
    """Per-colour adjacency bit masks: bit v of masks[c][x] is set iff {x,v} has colour c.

    Only colours that occur get rows of their own; the others share one
    read-only empty row.  Below _MATRIX_MIN_N `colour_masks` builds them,
    above it the label matrix's one-byte rows, unless the labels need more
    than one byte or `colour_masks` costs less.
    """

    def __init__(self, colouring: EdgeColouring):
        self.n = n = colouring.n
        self.m = m = colouring.m
        self.masks = (_matrix_masks(colouring) if n >= _MATRIX_MIN_N
                      else colour_masks(n, m, colouring.colours, set(colouring.colours)))


class _MaskView(ColourClassView):
    """A view on masks built elsewhere: `EdgeColouring.on_masks` makes one."""

    def __init__(self, n: int, m: int, masks: list):
        self.n, self.m = n, m
        self.masks = masks if len(masks) > m else masks + [(0,) * n] * (m + 1 - len(masks))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @staticmethod
    def refusal(violation: str) -> str:
        return f"invalid colouring: {violation}"

    def require(self) -> None:
        """Raise the one refusal of an invalid colouring, naming every violation."""
        if self.violations:
            raise ValueError(self.refusal("; ".join(self.violations)))


def validate(colouring: EdgeColouring) -> ValidationReport:
    """Collect every invariant violation; an empty report means the colouring is usable.

    The check runs once per instance; later calls return the same report.
    """
    return colouring.validation


def _find_violations(colouring: EdgeColouring) -> ValidationReport:
    n, m, colours = colouring.n, colouring.m, colouring.colours
    want = edge_count(n) if n >= 2 else 0
    have = len(colours)
    count = min(have, want)
    # no array is asked to hold labels of a palette above the cap
    in_range = 1 <= m <= _MAX_M and _labels_in_range(m, colours[:count])
    if n >= 2 and have == want and in_range:
        return _VALID
    problems = []
    if n < 2:
        problems.append("n >= 2 required")
    if m < 1:
        problems.append("m >= 1 required")
    if m > _MAX_M:
        problems.append(f"m <= {_MAX_M} required")
    if have != want:
        problems.append(f"missing or surplus edge colours: expected {want}, found {have}")
    if not in_range and m <= _MAX_M:
        # word each violation; only reached when some label is out of range
        for k, c in enumerate(colours[:count]):
            if not isinstance(c, int) or not 1 <= c <= m:
                problems.append(f"label out of range at edge position {k}: {c!r}")
    return ValidationReport(tuple(problems))


def _labels_in_range(m: int, labels) -> bool:
    """Whether the labels are all ints in 1..m, for 1 <= m <= _MAX_M, checked in C.

    False when it cannot tell: a label of another type (the array
    conversion would take anything with __index__) or one that does not fit
    the array type of m.
    """
    if not set(map(type, labels)) <= _INT_TYPES:
        return False
    try:
        flat = _flat_labels(m, labels)
    except (TypeError, ValueError, OverflowError):
        return False
    if isinstance(flat, bytes):
        return not flat.translate(None, _BYTES[1:m + 1])
    return not flat or 1 <= min(flat) and max(flat) <= m


_VALID = ValidationReport(())
_INT_TYPES = {int, bool}
_BYTES = bytes(range(256))


@dataclass(frozen=True)
class LocalityReport:
    """Colours incident to each vertex, and the maximum count over vertices."""

    incident: tuple[frozenset[int], ...]
    locality: int

    def is_local(self, r: int) -> bool:
        return self.locality <= r

    def worst_vertex(self) -> int:
        """Smallest vertex attaining the maximum number of incident colours."""
        for v, seen in enumerate(self.incident):
            if len(seen) == self.locality:
                return v
        raise ValueError("empty report")


def locality(colouring: EdgeColouring) -> LocalityReport:
    incident = tuple(map(frozenset, colouring.labels.row_labels))
    return LocalityReport(incident, max(map(len, incident)))


def component_masks(row: list[int]):
    """Bit masks of the components of one colour class, given its adjacency masks.

    Isolated vertices are skipped; components come by smallest member.
    """
    unseen = 0
    for mask in row:  # the adjacency is symmetric: this is every non-isolated vertex
        unseen |= mask
    while unseen:
        frontier = unseen & -unseen
        comp = 0
        while frontier:
            comp |= frontier
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= row[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & ~comp
        yield comp
        unseen &= ~comp


def colour_components(colouring: EdgeColouring, c: int) -> list[list[int]]:
    """Connected components of the colour-c subgraph, isolated vertices excluded.

    Components are listed by smallest member, each sorted ascending.
    """
    if not 1 <= c <= colouring.m:
        raise ValueError(f"colour out of range: {c}")
    return [list(iter_bits(comp)) for comp in colouring.components[c]]


@dataclass(frozen=True)
class ComponentWitness:
    colour: int
    size: int
    vertices: tuple[int, ...]


def max_component(colouring: EdgeColouring) -> ComponentWitness:
    """Largest monochromatic component over all colours.

    Ties break to the smallest colour, then the smallest minimum vertex:
    the order in which `components` lists them, so the first largest wins.
    """
    best_c = best = 0
    for c in range(1, colouring.m + 1):
        for comp in colouring.components[c]:
            if comp.bit_count() > best.bit_count():
                best_c, best = c, comp
    if not best:
        raise ValueError("colouring has no edges")
    return ComponentWitness(best_c, best.bit_count(), tuple(iter_bits(best)))


def subgraph_diameter(colouring: EdgeColouring, c: int, vertices) -> int | None:
    """Diameter of the colour-c subgraph induced on `vertices`; None when disconnected."""
    if not 1 <= c <= colouring.m:
        raise ValueError(f"colour out of range: {c}")
    verts = sorted(set(vertices))
    if not verts:
        raise ValueError("vertex set must be nonempty")
    if verts[0] < 0 or verts[-1] >= colouring.n:
        raise ValueError("vertex out of range")
    masks = colouring.colour_rows(c)
    inside = 0
    for v in verts:
        inside |= 1 << v
    diameter = 0
    for v in verts:
        seen = 1 << v
        frontier = seen
        dist = 0
        while True:
            grow = 0
            for u in iter_bits(frontier):
                grow |= masks[u]
            frontier = grow & inside & ~seen
            if not frontier:
                break
            seen |= frontier
            dist += 1
        if seen != inside:
            return None
        if dist > diameter:
            diameter = dist
    return diameter


_TOKEN = re.compile(r"\S+")

# A view keeps a row pointer per declared colour; the cap stays above C(2000, 2),
# the most colours a colouring at the n cap _MAX_N can use.  The parser
# refuses a header above it, `validate` a record, and the generators an r.
_MAX_M = 2_000_000
# C(n,2) colour entries; beyond this the dense model stops being sensible.  The
# parser refuses a header n above it, and so do the generators, search and exhaust.
_MAX_N = 2000
# A search keeps a mask row per colour, and so does every colouring that an
# exhaustive proof builds, so r is held to the same scale as n.
_MAX_R = 2000


class _Labels(dict):
    """Memo of int(token) per distinct token string; grows only with the input."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def parse_colouring(text: str) -> EdgeColouring:
    """Parse the colouring text format.

    Lines starting with '#' (and blank lines) are ignored.  The first data
    line must be "n m"; the following tokens are the C(n,2) edge colours in
    row-major upper-triangular order, split across lines however convenient.
    A header n above _MAX_N or m above _MAX_M is refused before anything
    is built.  Raises ColouringFormatError with 1-based line/column
    positions.

    The labels are read once into the flat array `_flat_labels` would make
    of them: with m <= 9 a body of single digits is read by two translates,
    any other body by the token loop.  Every label is an int made here, so
    when all lie in 1..m the record is valid from the start and carries
    that array until its label matrix takes it; otherwise it carries no
    array and `validate` words each violation as for any record.
    """
    lines = text.splitlines()
    n, m, start = _parse_header(lines)
    need = edge_count(n)
    # a valid file needs two-digit labels only from m = 10 on, so only
    # below that is the digit path worth its checks
    flat = _digit_labels("\n".join(lines[start:]), need) if m <= 9 else None
    if flat is not None:
        colouring = EdgeColouring(n, m, tuple(flat))
        in_range = not flat.translate(None, _BYTES[1:m + 1])
    else:
        values, labels = _parse_tokens(lines, start, need)
        colouring = EdgeColouring(n, m, tuple(values))
        in_range = all(1 <= c <= m for c in labels.values())  # each distinct label once
        flat = _flat_labels(m, values) if in_range else None  # 1..m always fits the array
    if in_range and n >= 2:  # n < 2 has no labels to check, yet is invalid
        colouring.__dict__.update(_flat=flat, validation=_VALID)
    return colouring


def _parse_header(lines: list[str]) -> tuple[int, int, int]:
    """n, m and the number of the header's line: the lines read up to the header."""
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = list(_TOKEN.finditer(line))
        if len(tokens) != 2:
            raise ColouringFormatError("header must be exactly 'n m'", lineno, tokens[0].start() + 1)
        pair = []
        for tok in tokens:
            try:
                value = int(tok.group())
            except ValueError:
                raise ColouringFormatError(f"header value {tok.group()!r} is not an integer",
                                           lineno, tok.start() + 1) from None
            if value < 0:
                raise ColouringFormatError("header values must be nonnegative", lineno, tok.start() + 1)
            pair.append(value)
        if pair[0] > _MAX_N:
            raise ColouringFormatError(f"header n = {pair[0]} too large: at most {_MAX_N} vertices",
                                       lineno, tokens[0].start() + 1)
        if pair[1] > _MAX_M:
            raise ColouringFormatError(f"header m = {pair[1]} too large: at most {_MAX_M} colours",
                                       lineno, tokens[1].start() + 1)
        return pair[0], pair[1], lineno
    raise ColouringFormatError("empty input: missing 'n m' header", max(lineno, 1), 1)


# _DIGITS maps a digit to '1' and every other byte to '0'
_DIGITS = bytes(49 if 48 <= b <= 57 else 48 for b in range(256))
# _DIGIT_VALUE maps the digits '0'-'9' to the bytes 0-9
_DIGIT_VALUE = bytes(b - 48 if 48 <= b <= 57 else b for b in range(256))


def _digit_labels(body: str, need: int) -> bytes | None:
    """The labels of a body of `need` single-digit tokens, one byte each, or None.

    Only a body of ASCII digits, spaces, tabs and line feeds, no two digits
    adjacent, with exactly `need` digits, qualifies: every token is then one
    digit, and the token loop would read the same labels and raise nothing.
    """
    raw = body.encode("ascii", "replace")  # anything else becomes '?'
    digits = raw.translate(_DIGITS)
    if b"11" in digits or digits.count(b"1") != need:
        return None
    flat = raw.translate(_DIGIT_VALUE, b" \t\n")
    return flat if len(flat) == need else None  # longer: some other byte stayed


def _parse_tokens(lines: list[str], start: int, need: int) -> tuple[list[int], _Labels]:
    """The labels after line `start`, token by token, with the memo that converted each."""
    values: list[int] = []
    labels = _Labels()
    for lineno, line in enumerate(lines[start:], start=start + 1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        # str.split and \S+ cut at the same characters, so a line that fits
        # and converts is read exactly as `_parse_line` would read it
        words = line.split()
        mark = len(values)
        if mark + len(words) <= need:
            try:
                values += map(labels.__getitem__, words)
                continue
            except ValueError:
                del values[mark:]
        _parse_line(line, lineno, values, need, labels)
    if len(values) != need:
        raise ColouringFormatError(f"expected {need} edge colours, found {len(values)}", len(lines), 1)
    return values, labels


def _parse_line(line: str, lineno: int, values: list[int], need: int, labels: _Labels) -> None:
    """Token by token, so the first bad token raises with its exact column."""
    for tok in _TOKEN.finditer(line):
        if len(values) >= need:
            raise ColouringFormatError(f"surplus token {tok.group()!r}: expected only {need} edge colours",
                                       lineno, tok.start() + 1)
        try:
            values.append(labels[tok.group()])
        except ValueError:
            raise ColouringFormatError(f"edge colour {tok.group()!r} is not an integer",
                                       lineno, tok.start() + 1) from None


def format_colouring(colouring: EdgeColouring, comments: tuple[str, ...] = ()) -> str:
    """Canonical writer: header line then one line per row of the upper triangle."""
    lines = [f"# {c}" if c else "#" for c in comments]
    lines.append(f"{colouring.n} {colouring.m}")
    k = 0
    for i in range(colouring.n - 1):
        width = colouring.n - 1 - i
        lines.append(" ".join(str(c) for c in colouring.colours[k:k + width]))
        k += width
    return "\n".join(lines) + "\n"


# --- known guaranteed orders -------------------------------------------------

def component_bound(n: int, r: int) -> Q:
    """Monochromatic component floor n/(r-1) for r-colourings, r >= 2."""
    _check_nr(n, r, 2, "component floor")
    return Q(n, r - 1)


def no_affine_component_bound(n: int, r: int) -> Q:
    """Improved component floor n/(r-1-1/(r-1)), r >= 3.

    Applies only when no affine plane of order r-1 exists; the registry
    carries that proviso in the entry note.
    """
    _check_nr(n, r, 3, "this floor")
    return Q(n) / (Q(r - 1) - Q(1, r - 1))


# The triple-star floors are asked for once per proof, with few distinct
# (n, r); each Fraction is built once and shared, as Fractions never change.
@lru_cache(maxsize=256)
def triple_star_bound(n: int, r: int) -> Q:
    """Guaranteed triple-star order n/(r-1) in any r-colouring, r >= 3.

    False for r = 2, where the guaranteed value is 7n/8 instead.
    """
    _check_nr(n, r, 3, "triple-star floor")
    return Q(n, r - 1)


@lru_cache(maxsize=256)
def triple_star_bound_local(n: int, r: int) -> Q:
    """Triple-star floor rn/(r^2-r+1) under a local r-colouring, r >= 3."""
    _check_nr(n, r, 3, "local triple-star floor")
    return Q(r * n, r * r - r + 1)


def double_star_bound(n: int, r: int) -> Q:
    """Best known double-star floor (n(r+1)+r-1)/r^2 for r >= 3.

    Whether n/(r-1) itself is attainable by a double star is open.
    """
    _check_nr(n, r, 3, "double-star floor")
    return Q(n * (r + 1) + r - 1, r * r)


def double_star_bound_local(n: int, r: int) -> Q:
    """Double-star floor ((r+1)n+r-1)/(r^2+1) under a local r-colouring, r >= 2."""
    _check_nr(n, r, 2, "local double-star floor")
    return Q((r + 1) * n + r - 1, r * r + 1)


def local_component_bound(n: int, r: int) -> Q:
    """Component floor rn/(r^2-r+1) under a local r-colouring, r >= 2."""
    _check_nr(n, r, 2, "local component floor")
    return Q(r * n, r * r - r + 1)


@dataclass(frozen=True)
class BoundEntry:
    name: str
    observable: str  # which analysis figure it constrains: component | double | triple
    value: Q
    note: str
    conditional: bool = False  # True: holds only under the side condition in the note


def known_bounds(n: int, r: int, local: bool = False) -> list[BoundEntry]:
    """Registry of known floors for (n, r), global or local colourings.

    Purely informational: analysis reports compare observed maxima against
    these, exact rationals throughout.  Conditional entries hold only under
    the side condition stated in their note and are never asserted.
    """
    _check_nr(n, r)
    if r == 1:
        rows = [("component", "component", Q(n), "one colour covers every edge")]
    elif not local:
        rows = [("component", "component", component_bound(n, r),
                 "largest monochromatic component, any r-colouring")]
        if r >= 3:
            rows += [("component-no-affine", "component", no_affine_component_bound(n, r),
                      "holds only when no affine plane of order r-1 exists", True),
                     ("double-star", "double", double_star_bound(n, r),
                      "best known double-star floor for r >= 3"),
                     ("triple-star", "triple", triple_star_bound(n, r),
                      "triple star matching the component floor")]
        else:
            rows += [("double-star", "double", Q(3 * n, 4), "two-colour double star"),
                     ("triple-star", "triple", Q(7 * n, 8), "two-colour triple star")]
    else:
        rows = [("component-local", "component", local_component_bound(n, r),
                 "largest component when each vertex meets at most r colours"),
                ("double-star-local", "double", double_star_bound_local(n, r),
                 "double star under the same locality limit")]
        if r == 2:
            rows.append(("double-star-local-two", "double", Q(2 * n, 3),
                         "sharper two-colour local double star"))
        if r >= 3:
            rows.append(("triple-star-local", "triple", triple_star_bound_local(n, r),
                         "triple star matching the local component floor"))
    return [BoundEntry(*row) for row in rows]


def proven_floor(n: int, r: int, kind: str) -> Q | None:
    """The floor that exhaustive checks and searches may hard-assert, or None.

    Two-colour double/triple values are deliberately excluded: the cited
    formulas carry no small-n qualification, so small-scale runs report them
    without asserting.
    """
    _check_nr(n, r)
    if kind == "component":
        return component_bound(n, r) if r >= 2 else None
    if kind == "triple":
        return triple_star_bound(n, r) if r >= 3 else None
    if kind == "double":
        return double_star_bound(n, r) if r >= 3 else None
    raise ValueError(f"unknown objective kind: {kind!r}")


def _check_nr(n: int, r: int, least: int = 1, floor: str = "") -> None:
    """Refuse n < 2, then r < 1, then an r below the floor's own least."""
    if n < 2:
        raise ValueError(f"n >= 2 required, got n={n}")
    if r < 1:
        raise ValueError(f"r >= 1 required, got r={r}")
    if r < least:
        raise ValueError(f"{floor} needs r >= {least}, got r={r}")
