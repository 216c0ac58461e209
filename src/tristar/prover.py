"""Proof engine for the triple-star floors, with independently checkable output.

The procedure mirrors the counting argument it implements: take U, the
vertex set of a maximum double star, against the target bound (n/(r-1)
globally, rn/(r^2-r+1) with locality r).  If |U| already meets the ceiling
of the bound, reinterpret U as a triple star by promoting one leaf to a
third centre (single-edge degenerate form when |U| = 2, which forces the
ceiling to be at most 2).  Otherwise, write |U| = bound - a with a > 0;
maximality of U forces some leaf u to have at least a same-colour edges
leaving U, and attaching u's outward star yields |U| + delta(u) >= bound.
A run that ends below the ceiling raises TheoremViolation with the
offending colouring attached, since that would refute a theorem.

Certificates record the witness plus an execution trace; the verifier
re-checks every claim from the colouring alone and never trusts the trace.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .colouring import (EdgeColouring, bit_tuple, iter_bits, locality, subgraph_diameter,
                        triple_star_bound, triple_star_bound_local, validate)
from .errors import CertificateFormatError, TheoremViolation
from .stars import max_double_star

Q = Fraction


@dataclass(frozen=True)
class ProofTrace:
    """What the run actually did; informative only, never trusted by verify."""

    centres_U: tuple[int, int]
    order_U: int
    leaf_u: int | None  # None when U already met the bound
    delta: int

    def __init__(self, centres_U: tuple[int, int], order_U: int, leaf_u: int | None,
                 delta: int) -> None:
        # one dict update in place of a frozen setattr per field: every proof builds one
        self.__dict__.update(centres_U=centres_U, order_U=order_U, leaf_u=leaf_u, delta=delta)


@dataclass(frozen=True)
class TripleStarCertificate:
    mode: str  # "global" | "local"
    n: int
    r: int
    bound: Q
    colour: int
    centres: tuple[int, ...]  # (u, x, w) with x the middle; (x, y) when degenerate
    vertices: tuple[int, ...]
    order: int
    degenerate: bool
    trace: ProofTrace

    def __init__(self, mode: str, n: int, r: int, bound: Q, colour: int,
                 centres: tuple[int, ...], vertices: tuple[int, ...], order: int,
                 degenerate: bool, trace: ProofTrace) -> None:
        # one dict update in place of a frozen setattr per field: every proof builds one
        self.__dict__.update(mode=mode, n=n, r=r, bound=bound, colour=colour, centres=centres,
                             vertices=vertices, order=order, degenerate=degenerate, trace=trace)

    @property
    def slack(self) -> Q:
        """a = bound - |U|: positive exactly when the extension step ran."""
        return self.bound - self.trace.order_U


def prove_global(colouring: EdgeColouring, r: int) -> TripleStarCertificate:
    """Certified monochromatic triple star of order >= n/(r-1), r >= 3."""
    if r < 3:
        raise ValueError("theorem requires r >= 3")
    if colouring.m != r:
        raise ValueError(f"colouring declares {colouring.m} colours, but r={r} was claimed")
    validate(colouring).require()
    return _run(colouring, "global", r, triple_star_bound(colouring.n, r))


def prove_local(colouring: EdgeColouring, r: int) -> TripleStarCertificate:
    """Certified monochromatic triple star of order >= rn/(r^2-r+1) under locality r."""
    if r < 3:
        raise ValueError("theorem requires r >= 3")
    validate(colouring).require()
    report = locality(colouring)
    if report.locality > r:
        v = report.worst_vertex()
        raise ValueError(f"locality violated: vertex {v} meets {report.locality} colours, above r={r}")
    return _run(colouring, "local", r, triple_star_bound_local(colouring.n, r))


def _run(colouring: EdgeColouring, mode: str, r: int, bound: Q) -> TripleStarCertificate:
    ds = max_double_star(colouring)
    c = ds.colour
    x, y = trace_centres = ds.centres
    masks = colouring.view.masks[c]
    union = masks[x] | masks[y]
    target = -(-bound.numerator // bound.denominator)  # ceil(bound)

    if ds.order < target:
        # |U| = bound - a with a > 0: maximality must hand us a leaf with
        # outward same-colour degree >= a.
        if union & ~sum(1 << v for v in set(ds.vertices)):
            raise TheoremViolation(
                f"a centre reaches outside its own double star on {x}-{y}",
                colouring)
        u = delta = -1
        for v in ds.vertices:
            if v == x or v == y:
                continue
            outward = (masks[v] & ~union).bit_count()
            if outward > delta:
                u, delta = v, outward
        if u < 0:
            raise TheoremViolation(
                f"double star of order {ds.order} has no leaf to extend, "
                f"yet the bound demands {target}", colouring)
        leaf = u
    elif ds.order == 2:
        # bare centre edge; only reachable when the ceiling is <= 2, so the
        # order meets it
        return TripleStarCertificate(mode, colouring.n, r, bound, c, trace_centres,
                                     ds.vertices, 2, True,
                                     ProofTrace(trace_centres, 2, None, 0))
    else:
        # U meets the bound: promote its smallest leaf to a third centre,
        # which keeps every vertex of U
        pool = masks[x] & ~(1 << y) or masks[y] & ~(1 << x)
        u = (pool & -pool).bit_length() - 1
        leaf, delta = None, 0
    middle, far = (x, y) if (masks[x] >> u) & 1 else (y, x)
    verts = masks[u] | union
    cert = TripleStarCertificate(mode, colouring.n, r, bound, c,
                                 (min(u, far), middle, max(u, far)),
                                 bit_tuple(verts), verts.bit_count(), False,
                                 ProofTrace(trace_centres, ds.order, leaf, delta))
    return _guard(cert, colouring, target)


def _guard(cert: TripleStarCertificate, colouring: EdgeColouring,
           target: int) -> TripleStarCertificate:
    if cert.order < target:
        raise TheoremViolation(
            f"produced witness of order {cert.order}, below the guaranteed {target}; "
            "either this implementation is wrong or the colouring refutes the theorem",
            colouring)
    return cert


# --- independent verification ------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_certificate(colouring: EdgeColouring, cert: TripleStarCertificate) -> VerificationReport:
    """Re-check every certified claim from the colouring alone.

    Distinct failed checks yield distinct reasons; the trace is ignored.
    A colouring that `validate` rejects fails with its violations alone.
    Dependent checks are skipped once their prerequisites fail, so the
    report never indexes out of range.
    """
    valid = validate(colouring)
    if not valid.ok:
        return VerificationReport(tuple(map(valid.refusal, valid.violations)))
    failures: list[str] = []
    mode, n, r, colour = cert.mode, cert.n, cert.r, cert.colour
    if mode not in ("global", "local"):
        failures.append(f"unknown mode: {mode!r}")
        return VerificationReport(tuple(failures))
    if n != colouring.n:
        failures.append(f"vertex count mismatch: certificate says n={n}, colouring has n={colouring.n}")
    if r < 3:
        failures.append(f"r below 3: the theorems need r >= 3, certificate says r={r}")
    if mode == "global":
        if r != colouring.m:
            failures.append(f"colour count mismatch: certificate says r={r}, "
                            f"colouring declares m={colouring.m}")
    else:
        report = locality(colouring)
        if report.locality > r:
            failures.append(f"locality violated: vertex {report.worst_vertex()} meets "
                            f"{report.locality} colours, above r={r}")
    bound = cert.bound
    num, den = bound.numerator, bound.denominator  # den >= 1
    expected = _expected_bound(mode, n, r)
    if expected is not None and (num != expected.numerator or den != expected.denominator):
        failures.append(f"bound formula mismatch: expected {expected}, certificate carries {bound}")
    if failures and n != colouring.n:
        return VerificationReport(tuple(failures))

    if not 1 <= colour <= colouring.m:
        failures.append(f"colour out of range: {colour} not in 1..{colouring.m}")
        return VerificationReport(tuple(failures))
    centres, degenerate = cert.centres, cert.degenerate
    want = 2 if degenerate else 3
    if not (len(centres) == want and len(set(centres)) == want
            and min(centres) >= 0 and max(centres) < n):
        failures.append(f"centres invalid: expected {want} distinct vertices in range, got {centres}")
        return VerificationReport(tuple(failures))
    masks = colouring.colour_rows(colour)  # the only colour read below
    if degenerate:
        edges = [(centres[0], centres[1])]
    else:
        edges = [(centres[1], centres[0]), (centres[1], centres[2])]
    for p, qv in edges:
        if not masks[p] >> qv & 1:
            failures.append(f"edge colour mismatch: {{{p},{qv}}} does not carry colour {colour}")

    verts = cert.vertices
    if not verts or list(verts) != sorted(set(verts)) or verts[0] < 0 or verts[-1] >= n:
        failures.append("vertex list invalid: must be nonempty, strictly increasing, in range")
        return VerificationReport(tuple(failures))
    for v in centres:
        if v not in verts:
            failures.append(f"centre {v} missing from vertex set")
    order = cert.order
    if order != len(verts):
        failures.append(f"order mismatch: field says {order}, vertex list has {len(verts)}")

    claimed = 0
    for v in verts:
        claimed |= 1 << v
    if degenerate:
        if tuple(sorted(centres)) != verts:
            failures.append("degenerate witness must consist of exactly its centre edge")
    else:
        union = masks[centres[0]] | masks[centres[1]] | masks[centres[2]]
        if claimed != union:
            for v in iter_bits(claimed & ~union):
                failures.append(f"vertex {v} not attached to any centre in colour {colour}")
            for v in iter_bits(union & ~claimed):
                failures.append(f"star vertex {v} missing from witness")
    if order * den < num:  # order < bound
        failures.append(f"order below bound: {order} < {bound}")

    if not _within_two(masks, centres[0] if degenerate else centres[1], claimed):
        dia = subgraph_diameter(colouring, colour, verts)
        if dia is None:
            failures.append("witness disconnected in its colour")
        elif dia > 4:
            failures.append(f"diameter exceeds 4: found {dia}")
    return VerificationReport(tuple(failures)) if failures else _ACCEPTED


_ACCEPTED = VerificationReport(())


@lru_cache(maxsize=256)
def _expected_bound(mode: str, n: int, r: int) -> Q | None:
    """The bound a certificate of this mode must carry, from the paper's formulas.

    None for a global r below 2, where n/(r-1) has no value; built once per
    (mode, n, r), as the exhaustive checks verify thousands of certificates
    with the same n and r.
    """
    if mode == "global":
        return Q(n, r - 1) if r >= 2 else None
    return Q(r * n, r * r - r + 1)


def _within_two(masks: list[int], root: int, inside: int) -> bool:
    """Whether every vertex of the bit mask `inside` lies within distance 2 of `root` inside it.

    If so, the subgraph is connected with diameter at most 4 (triangle
    inequality through `root`), which settles the diameter check with one
    BFS; otherwise the caller measures the diameter itself.
    """
    if not (inside >> root) & 1:
        return False
    near = masks[root] & inside
    ball = near | (1 << root)
    while near:
        low = near & -near
        ball |= masks[low.bit_length() - 1]
        near ^= low
    return ball & inside == inside


# --- certificate files -------------------------------------------------------

def certificate_to_json(cert: TripleStarCertificate) -> str:
    """Canonical single-line JSON; field order fixed, so output is byte-stable."""
    obj = {
        "format_version": 1,
        "mode": cert.mode,
        "n": cert.n,
        "r": cert.r,
        "bound": {"num": cert.bound.numerator, "den": cert.bound.denominator},
        "colour": cert.colour,
        "centres": list(cert.centres),
        "vertices": list(cert.vertices),
        "order": cert.order,
        "degenerate": cert.degenerate,
        "trace": {
            "centres_U": list(cert.trace.centres_U),
            "order_U": cert.trace.order_U,
            "leaf_u": cert.trace.leaf_u,
            "delta": cert.trace.delta,
        },
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


_TOP_KEYS = {"format_version", "mode", "n", "r", "bound", "colour", "centres",
             "vertices", "order", "degenerate", "trace"}
_TRACE_KEYS = {"centres_U", "order_U", "leaf_u", "delta"}


def certificate_from_json(text: str) -> TripleStarCertificate:
    """Strict structural parse; content checks stay with verify_certificate."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise CertificateFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CertificateFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if set(obj) != _TOP_KEYS:
        missing = _TOP_KEYS - set(obj)
        extra = set(obj) - _TOP_KEYS
        parts = []
        if missing:
            parts.append("missing " + ", ".join(sorted(missing)))
        if extra:
            parts.append("unknown " + ", ".join(sorted(extra)))
        raise CertificateFormatError("bad field set: " + "; ".join(parts))
    if obj["format_version"] != 1:
        raise CertificateFormatError(f"unsupported format_version: {obj['format_version']!r}")
    mode = obj["mode"]
    if not isinstance(mode, str):
        raise CertificateFormatError("mode must be a string")
    n = _int_field(obj, "n")
    r = _int_field(obj, "r")
    colour = _int_field(obj, "colour")
    order = _int_field(obj, "order")
    bound = obj["bound"]
    if (not isinstance(bound, dict) or set(bound) != {"num", "den"}
            or not isinstance(bound["num"], int) or isinstance(bound["num"], bool)
            or not isinstance(bound["den"], int) or isinstance(bound["den"], bool)
            or bound["den"] < 1):
        raise CertificateFormatError("bound must be {num, den} with integers and den >= 1")
    centres = _int_list(obj, "centres")
    vertices = _int_list(obj, "vertices")
    degenerate = obj["degenerate"]
    if not isinstance(degenerate, bool):
        raise CertificateFormatError("degenerate must be a boolean")
    trace = obj["trace"]
    if not isinstance(trace, dict) or set(trace) != _TRACE_KEYS:
        raise CertificateFormatError("trace must carry exactly centres_U, order_U, leaf_u, delta")
    centres_u = _int_list(trace, "centres_U")
    if len(centres_u) != 2:
        raise CertificateFormatError("trace.centres_U must list two centres")
    order_u = _int_field(trace, "order_U")
    delta = _int_field(trace, "delta")
    leaf = trace["leaf_u"]
    if leaf is not None and (not isinstance(leaf, int) or isinstance(leaf, bool)):
        raise CertificateFormatError("trace.leaf_u must be an integer or null")
    return TripleStarCertificate(mode, n, r, Q(bound["num"], bound["den"]), colour,
                                 centres, vertices, order, degenerate,
                                 ProofTrace((centres_u[0], centres_u[1]), order_u, leaf, delta))


def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateFormatError(f"{key} must be an integer")
    return value


def _int_list(obj: dict, key: str) -> tuple[int, ...]:
    value = obj[key]
    if (not isinstance(value, list)
            or any(not isinstance(v, int) or isinstance(v, bool) for v in value)):
        raise CertificateFormatError(f"{key} must be a list of integers")
    return tuple(value)
