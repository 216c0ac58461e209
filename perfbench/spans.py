"""Traced run: the per-layer figures of a workload.

After each op of the timed phase, the command runs once more through
tristar.cli.main(argv) with the names that each layer looks up swapped for
timing wrappers, from outside the package: tristar.cli's calls into
colouring, stars, prover, oracle and explorer; tristar.prover's calls into
colouring and stars; tristar.explorer's and tristar.oracle's order
kernels, prove and verify calls and enumeration stream; and
tristar.colouring's ColourClassView, which every mask view is built by.
The swaps last for the traced run only, and the package source is not
changed.  The layers are therefore timed in the order the command calls
them, by construction.

Spans live in memory: name, start, end, parent and op id for the coarse
calls, and a count plus a total per (name, parent) for calls made inside
tight per-colouring loops.  A span's self time is its duration minus the
time its child spans cover.  Benchmark work done inside the traced run
(counting rows and paths) is left out of every span's duration.

The traced run must print the same bytes as the untraced command it
follows; otherwise measure.trace_op raises TracedRunMismatch.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from itertools import islice

import tristar.cli
import tristar.colouring
import tristar.explorer
import tristar.oracle
import tristar.prover
from tristar.explorer import SearchConfig, anneal
from tristar.generators import random_colouring
from tristar.oracle import EnumerationSpec, canonical_count, enumerate_colourings
from tristar.stars import max_double_star, max_triple_star, max_triple_star_order
from workloads import derive

clock = time.perf_counter_ns


class TracedRunMismatch(RuntimeError):
    """The traced run did not print what the untraced command printed."""


class Counts:
    """Work counts gathered during the traced run."""

    def __init__(self) -> None:
        self.triple_paths = 0
        self.rows_used = 0
        self.rows_allocated = 0
        self.branch = {"widen": 0, "extend": 0, "degenerate": 0}
        self.checked = 0
        self.canonical = 0
        self.evaluations = 0
        self.improvements = 0


class Tracer:
    """Spans in memory: full records for coarse calls, aggregates for tight loops.

    Calls inside tight loops are summed per name and accounted to the
    innermost record when a record opens or closes.
    """

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.aggregates: dict[tuple[str, int], list[int]] = {}  # (name, parent) -> [count, total_ns]
        self.totals: dict[str, list[int]] = {}  # name -> [count, total_ns, self_ns]
        self.pending: dict[str, list[int]] = {}  # name -> [count, total_ns, self_ns] not yet flushed
        self.stack: list[list] = []  # [name, start_ns, child_ns, record or -1, bench_ns]
        self.swaps: list[tuple] | None = None  # built on first use, then reused
        self.op = -1
        self.op_ns = 0  # total duration of the op root spans
        self.counts = Counts()

    def _parent_record(self) -> int:
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def _flush(self) -> None:
        """Account the aggregated calls made since the last record opened or closed."""
        parent = self._parent_record()
        for name, acc in self.pending.items():
            if acc[0]:
                entry = self.aggregates.setdefault((name, parent), [0, 0])
                entry[0] += acc[0]
                entry[1] += acc[1]
                self._total(name, *acc)
                acc[0] = acc[1] = acc[2] = 0

    def _total(self, name: str, count: int, total: int, self_ns: int) -> None:
        entry = self.totals.setdefault(name, [0, 0, 0])
        entry[0] += count
        entry[1] += total
        entry[2] += self_ns

    def _acc(self, name: str) -> list[int]:
        return self.pending.setdefault(name, [0, 0, 0])

    def begin(self, name: str, aggregate: bool = False) -> None:
        index = -1
        if not aggregate:
            self._flush()
            index = len(self.records)
            self.records.append([name, 0, 0, self._parent_record(), self.op])
        self.stack.append([name, clock(), 0, index, 0])

    def end(self) -> None:
        """Close the innermost span; its duration leaves out the benchmark work inside it."""
        if self.stack[-1][3] >= 0:
            self._flush()
        name, start, child, index, bench = self.stack.pop()
        now = clock()
        duration = now - start - bench
        if index >= 0:
            self.records[index][1] = start
            self.records[index][2] = now
            self._total(name, 1, duration, duration - child)
        else:
            acc = self._acc(name)
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.op_ns += duration

    def bench(self, fn, *args) -> None:
        """Run benchmark work, leaving its time out of every open span."""
        start = clock()
        fn(*args)
        took = clock() - start
        for frame in self.stack:
            frame[4] += took

    def wrap(self, name: str, fn, aggregate: bool = False, after=None):
        """A span around each call of fn; after(value, *args) is benchmark work."""
        def timed(*args, **kwargs):
            self.begin(name, aggregate)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                self.bench(after, value, *args)
            return value
        return timed

    def leaf(self, name: str, fn, after=None):
        """A lean aggregated span for a call that makes no traced calls itself."""
        acc = self._acc(name)
        stack = self.stack

        def timed(*args):
            start = clock()
            value = fn(*args)
            took = clock() - start
            acc[0] += 1
            acc[1] += took
            acc[2] += took
            stack[-1][2] += took
            if after is not None:
                self.bench(after, value, *args)
            return value
        return timed

    def stream(self, name: str, generator_fn):
        """Time each step of the iterators generator_fn returns, as leaf calls."""
        acc = self._acc(name)
        stack = self.stack

        def timed(*args):
            items = generator_fn(*args)
            while True:
                start = clock()
                item = next(items, None)
                took = clock() - start
                acc[0] += 1
                acc[1] += took
                acc[2] += took
                stack[-1][2] += took
                if item is None:
                    return
                yield item
        return timed

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / 1e9

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[1] / 1e9

    def count(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def dump(self) -> dict:
        return {"records": self.records,
                "aggregates": [[name, parent, count, total]
                               for (name, parent), (count, total) in self.aggregates.items()]}


# --- work counts, run as benchmark work after the call they describe --------

def _paths(masks, n: int, m: int) -> int:
    total = 0
    for c in range(1, m + 1):
        for mask in masks[c][:n]:
            d = mask.bit_count()
            total += d * (d - 1) // 2
    return total


def _swaps(tr: Tracer) -> list[tuple]:
    """(module, name, timing wrapper) for every name the traced run swaps."""
    counts = tr.counts

    def order_paths(value, masks, n, m):
        counts.triple_paths += _paths(masks, n, m)

    def colouring_paths(value, colouring):
        counts.triple_paths += _paths(colouring.view.masks, colouring.n, colouring.m)

    def rows(view, colouring):
        counts.rows_used += sum(1 for row in view.masks for mask in row if mask)
        counts.rows_allocated += len(view.masks) * view.n

    def branch(cert, *args):
        if cert.degenerate:
            counts.branch["degenerate"] += 1
        elif cert.trace.leaf_u is None:
            counts.branch["widen"] += 1
        else:
            counts.branch["extend"] += 1

    def exhausted(report, *args):
        counts.checked += report.colourings_checked
        counts.canonical += canonical_count(report.n, report.r)

    def annealed(outcome, *args):
        counts.evaluations += outcome.evaluations
        counts.improvements += len(outcome.log)

    cli, prover, explorer, oracle = (tristar.cli, tristar.prover, tristar.explorer,
                                     tristar.oracle)
    record, aggregate, leaf = "record", "aggregate", "leaf"
    plan = [
        (cli, "parse_colouring", record, "colouring.parse", None),
        (cli, "validate", record, "colouring.validate", None),
        (cli, "colour_components", aggregate, "colouring.components", None),
        (cli, "max_component", record, "colouring.components", None),
        (cli, "locality", record, "colouring.locality", None),
        (cli, "max_double_star", record, "stars.max_double", None),
        (cli, "max_triple_star", record, "stars.max_triple", colouring_paths),
        (cli, "prove_global", record, "prover.prove", branch),
        (cli, "prove_local", record, "prover.prove", branch),
        (cli, "verify_certificate", record, "prover.verify", None),
        (cli, "certificate_to_json", record, "prover.cert_io", None),
        (cli, "certificate_from_json", record, "prover.cert_io", None),
        (cli, "exhaustive_theorem_check", record, "oracle.exhaust", exhausted),
        (cli, "anneal", record, "explorer.anneal", annealed),
        (prover, "validate", aggregate, "colouring.validate", None),
        (prover, "locality", aggregate, "colouring.locality", None),
        (prover, "subgraph_diameter", aggregate, "colouring.diameter", None),
        (prover, "max_double_star", aggregate, "stars.max_double", None),
        (explorer, "max_triple_star_order", leaf, "stars.triple_order", order_paths),
        (explorer, "max_double_star_order", leaf, "stars.double_order", None),
        (explorer, "_component_order", leaf, "oracle.component_order", None),
        (oracle, "max_triple_star_order", leaf, "stars.triple_order", order_paths),
        (oracle, "max_double_star_order", leaf, "stars.double_order", None),
        (oracle, "_component_order", leaf, "oracle.component_order", None),
        (oracle, "prove_global", aggregate, "prover.prove", branch),
        (oracle, "verify_certificate", aggregate, "prover.verify", None),
        (tristar.colouring, "ColourClassView", leaf, "colouring.view", rows),
    ]
    def make(kind, span, fn, after):
        if kind == leaf:
            return tr.leaf(span, fn, after)
        return tr.wrap(span, fn, kind == aggregate, after)

    swaps = [(module, attr, make(kind, span, getattr(module, attr), after))
             for module, attr, kind, span, after in plan]
    swaps.append((oracle, "_iter_rgs", tr.stream("oracle.enumerate", oracle._iter_rgs)))
    return swaps


@contextlib.contextmanager
def cross_layer_spans(tr: Tracer):
    """Swap in the timing wrappers for the length of one traced run."""
    if tr.swaps is None:
        tr.swaps = _swaps(tr)
    saved = []
    try:
        for module, attr, wrapper in tr.swaps:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# --- ROADMAP baseline probes -------------------------------------------------

_PROBE_SIZES = {
    # (double n, triple n, K6 r=3 prefix length, anneal iterations)
    "full": (1000, 300, 20000, 150),
    "smoke": (60, 30, 200, 10),
}


def _median_time(repeats: int, fn, *args) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(seed: int, size: str) -> dict:
    """The ROADMAP north-star figures, measured on fixed-size inputs."""
    double_n, triple_n, prefix, iterations = _PROBE_SIZES[size]
    out = {}
    colouring = random_colouring(double_n, 4, derive(seed, "probe", "double"))
    colouring.view  # build the masks before the kernel is timed
    out["probe.max_double_n1000_s"] = _median_time(3, max_double_star, colouring)
    del colouring
    colouring = random_colouring(triple_n, 3, derive(seed, "probe", "triple"))
    colouring.view  # build the masks before the kernel is timed
    out["probe.max_triple_n300_r3_s"] = _median_time(3, max_triple_star, colouring)
    del colouring

    kernel_ns = 0
    start = clock()
    for colouring in islice(enumerate_colourings(EnumerationSpec(6, 3)), prefix):
        masks = colouring.view.masks
        before = clock()
        max_triple_star_order(masks, 6, 3)
        kernel_ns += clock() - before
    out["probe.k6r3_triple_order_per_s"] = prefix / (kernel_ns / 1e9)
    out["probe.k6r3_scan_per_s"] = prefix / ((clock() - start) / 1e9)

    config = SearchConfig(n=40, r=3, objective="triple", iterations=iterations,
                          restarts=1, seed=derive(seed, "probe", "anneal"))
    start = time.perf_counter()
    outcome = anneal(config)
    out["probe.anneal_n40_evals_per_s"] = outcome.evaluations / (time.perf_counter() - start)
    return out


# --- per-layer figures -------------------------------------------------------

SELF_TIMES = ("colouring.parse", "colouring.validate", "colouring.view",
              "colouring.components", "colouring.locality", "colouring.diameter",
              "stars.max_triple", "stars.max_double", "stars.triple_order",
              "stars.double_order", "prover.prove", "prover.verify", "prover.cert_io",
              "oracle.enumerate", "oracle.component_order")
LAYERS = ("colouring", "stars", "prover", "oracle", "explorer")


def per_layer(tr: Tracer, untraced: float, generator_s: dict, passes: int) -> dict:
    """Figures per pass of the workload's ops, from `passes` traced passes.

    `untraced` is the command's own op time per pass; generator times come
    from the last set-up.
    """
    counts = tr.counts
    per_pass = {f"{name}_s": tr.self_s(name) for name in SELF_TIMES}
    per_pass.update({
        "stars.triple_paths": counts.triple_paths,
        "oracle.exhaust_s": tr.total_s("oracle.exhaust"),
        "oracle.scan_s": tr.self_s("oracle.exhaust"),
        "explorer.anneal_s": tr.total_s("explorer.anneal"),
        "explorer.step_overhead_s": tr.self_s("explorer.anneal"),
        "explorer.evaluations": counts.evaluations,
        "explorer.improvements": counts.improvements,
        "trace.traced_op_s": tr.op_ns / 1e9,
    })
    per_pass.update({f"prover.branch.{branch}": count for branch, count in counts.branch.items()})
    # Layer self times plus glue make up the traced op time.
    for layer in LAYERS:
        per_pass[f"layer.{layer}_s"] = sum(self_ns for name, (_, _, self_ns) in tr.totals.items()
                                           if name.startswith(layer + ".")) / 1e9
    per_pass["cli.glue_s"] = tr.self_s("cli.main")
    metrics = {name: value / passes for name, value in per_pass.items()}

    for name in ("stars.triple_order", "stars.double_order"):
        calls = tr.count(name)
        metrics[f"{name}_call_us"] = tr.total_s(name) / calls * 1e6 if calls else 0.0
    metrics["colouring.view_rows_used_ratio"] = (
        counts.rows_used / counts.rows_allocated if counts.rows_allocated else 0.0)
    enumerate_s = tr.self_s("oracle.enumerate")
    metrics["oracle.enumerate_per_s"] = (tr.count("oracle.enumerate") / enumerate_s
                                         if enumerate_s else 0.0)
    metrics["oracle.evaluated_ratio"] = (counts.checked / counts.canonical
                                         if counts.canonical else 0.0)
    for family in ("affine", "projective", "random"):
        metrics[f"generators.{family}_s"] = generator_s.get(family, 0.0)
    metrics["generators.gen_s"] = sum(generator_s.values())
    traced = metrics["trace.traced_op_s"]
    metrics["trace.untraced_op_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced if untraced else 0.0
    return metrics


def traced_figures(tr: Tracer, manifest: dict, work: str, untraced_s: float,
                   passes: int) -> dict:
    """The per-layer figures per pass, then the probes; spans go to spans.json in work."""
    metrics = per_layer(tr, untraced_s / passes, manifest["generator_seconds"], passes)
    metrics.update(probes(manifest["seed"], manifest["size"]))
    with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    return metrics
