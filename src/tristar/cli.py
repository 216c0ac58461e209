"""Command-line entry point: generate, analyze, prove, verify, exhaust, search.

Exit codes: 0 success; 1 verification failure, theorem violation, or
exhaust violation; 2 usage or parse error.  Every PATH accepts '-' for
standard input or output.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .colouring import (BoundEntry, ComponentWitness, EdgeColouring,
                        colour_components, format_colouring, known_bounds,
                        locality, max_component, parse_colouring, validate)
from .errors import BudgetExceededError, ColouringFormatError, TheoremViolation
from .explorer import SearchConfig, SearchOutcome, anneal
from .generators import (_MAX_R, affine_colouring, constant_colouring,
                         projective_local_colouring, random_colouring)
from .oracle import ExhaustReport, exhaustive_theorem_check
from .prover import (certificate_from_json, certificate_to_json, prove_global,
                     prove_local, verify_certificate)
from .stars import (SINGLE_EDGE, DoubleStarWitness, TripleStarWitness,
                    max_double_star, max_triple_star)

Q = Fraction


# --- analysis report ---------------------------------------------------------

@dataclass(frozen=True)
class BoundComparison:
    name: str
    observable: str  # component | double | triple
    value: Q
    observed: int | None
    status: str  # met | below | info | skipped
    note: str
    conditional: bool


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    m: int
    locality: int
    components: tuple[tuple[int, tuple[int, ...]], ...]  # (colour, sizes)
    max_component: ComponentWitness
    max_double: DoubleStarWitness
    max_triple: TripleStarWitness | None
    triple_skipped: bool
    bounds_global: tuple[BoundComparison, ...]
    bounds_local: tuple[BoundComparison, ...]

    def double_ratio(self) -> Q:
        """Largest double-star order as a fraction of n."""
        return Q(self.max_double.order, self.n)

    def to_text(self) -> str:
        lines = [f"n {self.n}", f"m {self.m}", f"locality {self.locality}",
                 "components:"]
        for colour, sizes in self.components:
            body = " ".join(str(s) for s in sizes) if sizes else "(no edges)"
            lines.append(f"  colour {colour}: {body}")
        w = self.max_component
        lines.append(f"max component: colour {w.colour}, size {w.size}, "
                     f"smallest vertex {w.vertices[0]}")
        d = self.max_double
        lines.append(f"max double star: colour {d.colour}, "
                     f"centres {d.centres[0]} {d.centres[1]}, order {d.order}")
        if self.triple_skipped:
            lines.append("max triple star: skipped")
        elif self.max_triple is None:
            lines.append("max triple star: none")
        else:
            t = self.max_triple
            u, x, v = t.centres
            lines.append(f"max triple star: colour {t.colour}, "
                         f"centres {u} {x} {v} (middle {x}), order {t.order}")
        for title, rows in ((f"bounds (global, r = {self.m}):", self.bounds_global),
                            (f"bounds (local, r = {self.locality}):", self.bounds_local)):
            lines.append(title)
            for row in rows:
                observed = "-" if row.observed is None else str(row.observed)
                tail = f" ({row.note})" if row.status == "info" else ""
                lines.append(f"  {row.name} >= {row.value}: observed {observed}, "
                             f"{row.status}{tail}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Byte-stable single-line JSON: sorted keys, exact rationals as num/den."""
        def rows(entries: tuple[BoundComparison, ...]) -> list[dict]:
            return [{"name": e.name, "observable": e.observable,
                     "value": _q_dict(e.value), "observed": e.observed,
                     "status": e.status, "note": e.note,
                     "conditional": e.conditional} for e in entries]
        if self.triple_skipped:
            triple = "skipped"
        elif self.max_triple is None:
            triple = None
        else:
            triple = {"colour": self.max_triple.colour,
                      "centres": list(self.max_triple.centres),
                      "order": self.max_triple.order}
        obj = {
            "n": self.n,
            "m": self.m,
            "locality": self.locality,
            "components": [{"colour": c, "sizes": list(sizes)}
                           for c, sizes in self.components],
            "max_component": {"colour": self.max_component.colour,
                              "size": self.max_component.size,
                              "min_vertex": self.max_component.vertices[0]},
            "max_double_star": {"colour": self.max_double.colour,
                                "centres": list(self.max_double.centres),
                                "order": self.max_double.order},
            "max_triple_star": triple,
            "bounds": {"global": {"r": self.m, "entries": rows(self.bounds_global)},
                       "local": {"r": self.locality, "entries": rows(self.bounds_local)}},
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _q_dict(value: Q) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def build_analysis(colouring: EdgeColouring, include_triple: bool = True) -> AnalysisReport:
    """Measure a colouring and compare the maxima against the known floors.

    include_triple=False skips the triple-star scan, the costliest step (up
    to C(d, 2) paths per middle of colour degree d, fewer where its bounds
    skip them); triple rows then carry status "skipped".
    """
    validate(colouring).require()
    components = tuple(
        (c, tuple(len(comp) for comp in colour_components(colouring, c)))
        for c in range(1, colouring.m + 1))
    biggest = max_component(colouring)
    double = max_double_star(colouring)
    triple = max_triple_star(colouring) if include_triple else None
    local = locality(colouring)
    observed = {"component": biggest.size, "double": double.order}
    if include_triple:
        observed["triple"] = SINGLE_EDGE if triple is None else triple.order
    def compare(entries: list[BoundEntry]) -> tuple[BoundComparison, ...]:
        rows = []
        for e in entries:
            seen = observed.get(e.observable)
            if e.conditional:
                status = "info"
            elif seen is None:
                status = "skipped"
            else:
                status = "met" if Q(seen) >= e.value else "below"
            rows.append(BoundComparison(e.name, e.observable, e.value, seen,
                                        status, e.note, e.conditional))
        return tuple(rows)
    return AnalysisReport(colouring.n, colouring.m, local.locality, components,
                          biggest, double, triple, not include_triple,
                          compare(known_bounds(colouring.n, colouring.m)),
                          compare(known_bounds(colouring.n, local.locality, local=True)))


# --- plumbing ----------------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")

def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")

def _load_colouring(path: str) -> EdgeColouring:
    """Parse and validate, so every command sees a usable colouring or exits 2."""
    colouring = parse_colouring(_read_text(path))
    validate(colouring).require()
    return colouring


# --- subcommands -------------------------------------------------------------

# Per gen kind: its generator, the integer flags it takes in order, its help.
_GEN_KINDS = {
    "affine": (affine_colouring, ("q", "mult"), "affine-plane colouring (q prime)"),
    "projective": (projective_local_colouring, ("q", "mult"),
                   "projective-plane local colouring (q prime)"),
    "random": (random_colouring, ("n", "r", "seed"), "uniform random colouring"),
    "constant": (constant_colouring, ("n", "r"), "all edges colour 1"),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    make, flags, _ = _GEN_KINDS[args.kind]
    values = [getattr(args, flag) for flag in flags]
    comment = " ".join([args.kind] + [f"{flag}={value}" for flag, value in zip(flags, values)])
    _write_text(args.out, format_colouring(make(*values), (comment,)))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    colouring = _load_colouring(args.path)
    report = build_analysis(colouring)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    if args.local and args.r is None:
        raise ColouringFormatError("--local requires --r (the declared locality)")
    if args.r is not None and not args.local:
        raise ColouringFormatError("--r is only meaningful together with --local")
    colouring = _load_colouring(args.path)
    if args.local:
        cert = prove_local(colouring, args.r)
    else:
        cert = prove_global(colouring, colouring.m)
    _write_text(args.cert, certificate_to_json(cert))
    if args.cert != "-":
        centres = " ".join(map(str, cert.centres))  # two when degenerate
        note = " (degenerate)" if cert.degenerate else ""
        print(f"proved: {cert.mode} r={cert.r} colour {cert.colour}, "
              f"centres {centres}, order {cert.order} >= {cert.bound}{note}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    colouring = _load_colouring(args.path)
    cert = certificate_from_json(_read_text(args.cert))
    report = verify_certificate(colouring, cert)
    if report.ok:
        print("certificate accepted")
        return 0
    print("certificate rejected:")
    for reason in report.failures:
        print(f"  {reason}")
    return 1


def _format_exhaust(report: ExhaustReport) -> str:
    lines = ["exhaust report",
             f"n {report.n}",
             f"r {report.r}",
             f"mode {report.mode}",
             f"complete {'yes' if report.complete else 'no'}",
             f"colourings_checked {report.colourings_checked}",
             f"minimum {report.minimum}",
             f"floor {report.floor if report.floor is not None else 'none'}",
             f"threshold {report.threshold if report.threshold is not None else 'none'}",
             f"certificates_verified {report.proved}",
             f"violations {report.violation_count}",
             "witness:"]
    text = "\n".join(lines) + "\n" + format_colouring(report.witness)
    for sample in report.violations:
        text += "violation sample:\n" + format_colouring(sample)
    return text


def _cmd_exhaust(args: argparse.Namespace) -> int:
    def progress(done: int) -> None:
        print(f"checked {done} colourings", file=sys.stderr)
    if args.r > _MAX_R:  # under --prove every colouring's view keeps a row per colour
        raise ValueError(f"r = {args.r} too large: at most r = {_MAX_R}")
    try:
        report = exhaustive_theorem_check(
            args.n, args.r, mode=args.mode, prove=args.prove,
            threads=args.threads, budget=args.budget,
            progress=progress if args.threads == 1 else None)
    except BudgetExceededError as exc:
        print(f"budget exhausted after {exc.processed} colourings; report is partial",
              file=sys.stderr)
        sys.stdout.write(_format_exhaust(exc.partial))
        return 1
    sys.stdout.write(_format_exhaust(report))
    return 0 if report.ok else 1


def _format_search(outcome: SearchOutcome) -> str:
    cfg = outcome.config
    lines = ["search report",
             f"objective {cfg.objective}",
             f"n {cfg.n}",
             f"r {cfg.r}",
             f"iterations {cfg.iterations}",
             f"restarts {cfg.restarts}",
             f"seed {cfg.seed}",
             f"evaluations {outcome.evaluations}",
             f"best {outcome.best_objective}",
             f"ratio {outcome.ratio}",
             f"floor {outcome.floor if outcome.floor is not None else 'none'}",
             f"improvements {len(outcome.log)}",
             "best colouring:"]
    return "\n".join(lines) + "\n" + format_colouring(outcome.best_colouring)


def _cmd_search(args: argparse.Namespace) -> int:
    config = SearchConfig(n=args.n, r=args.r, objective=args.objective,
                          iterations=args.iters, restarts=args.restarts,
                          seed=args.seed)
    outcome = anneal(config)
    sys.stdout.write(_format_search(outcome))
    return 0


# --- parser ------------------------------------------------------------------

# Built once per process: parse_args keeps no state between calls, and the
# tree costs a few ms to build, a large share of a small command.
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tristar",
        description="Monochromatic double/triple stars in edge-coloured "
                    "complete graphs: generate, analyze, prove, verify, "
                    "exhaust, search.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a colouring in the text format")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind, (_, flags, text) in _GEN_KINDS.items():
        p = gen_sub.add_parser(kind, help=text)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
    gen.set_defaults(func=_cmd_gen)

    analyze = sub.add_parser("analyze", help="report maxima and bound comparisons")
    analyze.add_argument("path", help="colouring file, '-' for stdin")
    analyze.add_argument("--json", action="store_true",
                         help="byte-stable JSON instead of text")
    analyze.set_defaults(func=_cmd_analyze)

    prove = sub.add_parser("prove", help="produce a certified triple star")
    prove.add_argument("path", help="colouring file, '-' for stdin")
    prove.add_argument("--local", action="store_true",
                       help="local mode (requires --r, validated first)")
    prove.add_argument("--r", type=int, default=None,
                       help="declared locality for --local")
    prove.add_argument("--cert", required=True,
                       help="certificate output path, '-' for stdout")
    prove.set_defaults(func=_cmd_prove)

    verify = sub.add_parser("verify", help="check a certificate against a colouring")
    verify.add_argument("--cert", required=True,
                        help="certificate file, '-' for stdin")
    verify.add_argument("path", help="colouring file")
    verify.set_defaults(func=_cmd_verify)

    exhaust = sub.add_parser("exhaust",
                             help="scan every canonical colouring of K_n")
    exhaust.add_argument("--n", type=int, required=True)
    exhaust.add_argument("--r", type=int, required=True)
    exhaust.add_argument("--mode", required=True,
                         choices=("triple", "double", "component"))
    exhaust.add_argument("--prove", action="store_true",
                         help="also prove and verify a certificate per colouring")
    exhaust.add_argument("--threads", type=int, default=1)
    exhaust.add_argument("--budget", type=int, default=None,
                         help="stop after this many colourings (partial result, exit 1)")
    exhaust.set_defaults(func=_cmd_exhaust)

    search = sub.add_parser("search",
                            help="anneal towards colourings with small structures")
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--r", type=int, required=True)
    search.add_argument("--objective", required=True,
                        choices=("double", "triple", "component"))
    search.add_argument("--iters", type=int, required=True)
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--restarts", type=int, default=8)
    search.set_defaults(func=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        if exc.colouring is not None:
            sys.stdout.write(format_colouring(exc.colouring))
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
