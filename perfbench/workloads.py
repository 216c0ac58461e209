"""Benchmark workloads: which inputs each one generates and which CLI ops it runs.

Run as a script, this module is the set-up step: it generates one workload's
inputs from the seed in a fresh process and writes them, with a manifest of
the ops to run, into a work directory.  Generating outside the measured
process keeps the generators' memory out of the measured peak RSS.

    python3 perfbench/workloads.py --workload analyze-mid --seed 1 --size full --out DIR

The seed picks the inputs; the family mix and sizes stay fixed, so the work
per pass hardly depends on the seed:
- analyze-mid and certify-1k permute the colour labels of every plane
  colouring (analyze-mid also permutes its vertices) and seed the random
  colourings;
- exhaust-small has fixed cases and takes its pass order from the seed;
- search-anneal takes every annealing seed from the workload seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import time

WORKLOADS = ("analyze-mid", "certify-1k", "exhaust-small", "search-anneal")
SIZES = ("full", "smoke")

# What one unit of throughput_per_s is on each workload.
UNITS = {
    "analyze-mid": "colourings analysed",
    "certify-1k": "colourings certified",
    "exhaust-small": "canonical colourings covered",
    "search-anneal": "objective evaluations",
}

# Input plans.  A file entry is (family, a, b, local_r): affine (q, mult),
# projective (q, mult) or random (n, r); local_r is the --r of prove --local.
_ANALYZE = {
    "full": [("affine", 5, 5, None), ("affine", 5, 8, None), ("affine", 7, 3, None),
             ("affine", 7, 5, None), ("affine", 11, 1, None), ("affine", 11, 2, None),
             ("affine", 13, 1, None),
             ("projective", 13, 1, None), ("projective", 11, 1, None),
             ("projective", 7, 3, None), ("projective", 5, 5, None),
             ("projective", 5, 8, None), ("projective", 3, 13, None),
             ("projective", 2, 25, None),
             ("random", 120, 3, None), ("random", 250, 3, None), ("random", 180, 5, None),
             ("random", 250, 8, None), ("random", 200, 12, None), ("random", 150, 40, None)],
    "smoke": [("affine", 2, 2, None), ("projective", 2, 2, None), ("random", 12, 3, None)],
}
_CERTIFY = {
    "full": [("affine", 31, 1, None), ("affine", 2, 250, None), ("affine", 3, 111, None),
             ("affine", 5, 40, None),
             ("projective", 31, 1, 32), ("projective", 2, 143, 3), ("projective", 3, 77, 4),
             ("random", 1000, 3, None), ("random", 1000, 7, None), ("random", 1000, 12, None)],
    "smoke": [("affine", 2, 3, None), ("projective", 2, 2, 3), ("random", 15, 3, None)],
}
# (n, r, mode, prove)
_EXHAUST = {
    "full": [(5, 3, "triple", True), (5, 4, "triple", True), (5, 5, "triple", False),
             (5, 4, "double", False), (5, 4, "component", False),
             (6, 2, "triple", False), (6, 2, "double", False), (6, 2, "component", False)],
    "smoke": [(4, 3, "triple", True), (4, 2, "double", False)],
}
# (n, r, objective, iterations, restarts, how many ops of this shape per pass)
_SEARCH = {
    "full": [(40, 3, "triple", 60, 2, 4), (80, 4, "double", 120, 2, 4)],
    "smoke": [(10, 3, "triple", 20, 1, 1), (12, 3, "double", 20, 1, 1)],
}
# Small ops run before timing, so that lazy imports and the interpreter's
# specialisation settle without touching the timed inputs.
_WARMUP = {
    "analyze-mid": [("analyze", ("random", 16, 3, None))],
    "certify-1k": [("certify", ("random", 16, 3, None))],
    "exhaust-small": [("exhaust", (4, 3, "triple", True))],
    "search-anneal": [("search", (10, 3, "triple", 10, 1, 1))],
}


def derive(seed: int, *labels) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and the input's label."""
    text = ":".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _file_label(family: str, a: int, b: int) -> str:
    if family == "random":
        return f"random-n{a}-r{b}"
    return f"{family}-q{a}-x{b}"


def _generate_colouring(family: str, a: int, b: int, seed: int, permute_vertices: bool):
    from tristar.generators import (affine_colouring, projective_local_colouring,
                                    random_colouring)
    from tristar.rng import SplitMix64
    if family == "random":
        return random_colouring(a, b, seed)
    colouring = (affine_colouring if family == "affine" else projective_local_colouring)(a, b)
    rng = SplitMix64(seed)
    colour_map = list(range(1, colouring.m + 1))
    rng.shuffle(colour_map)
    vertex_map = list(range(colouring.n)) if permute_vertices else None
    if vertex_map is not None:
        rng.shuffle(vertex_map)
    return relabel(colouring, colour_map, vertex_map)


def relabel(colouring, colour_map: list[int], vertex_map: list[int] | None):
    """The same colouring with colour c renamed colour_map[c-1] and vertex v moved to vertex_map[v]."""
    from tristar.colouring import EdgeColouring
    n = colouring.n
    old = colouring.colours
    if vertex_map is None:
        return EdgeColouring(n, colouring.m, tuple(colour_map[c - 1] for c in old))
    # position of edge {i, j}, i < j, in row-major upper-triangular order
    row_start = [i * (2 * n - i - 1) // 2 - i - 1 for i in range(n)]
    colours = []
    for i in range(n - 1):
        vi = vertex_map[i]
        for j in range(i + 1, n):
            vj = vertex_map[j]
            k = row_start[vi] + vj if vi < vj else row_start[vj] + vi
            colours.append(colour_map[old[k] - 1])
    return EdgeColouring(n, colouring.m, tuple(colours))


def _write_colouring(out_dir: str, name: str, colouring, comment: str) -> str:
    from tristar.colouring import format_colouring
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(format_colouring(colouring, (comment,)))
    return name


def _file_ops(workload: str, seed: int, plan, out_dir: str, kind: str,
              family_seconds: dict, prefix: str = "") -> list[dict]:
    ops = []
    for family, a, b, local_r in plan:
        label = prefix + _file_label(family, a, b)
        start = time.perf_counter()
        colouring = _generate_colouring(family, a, b, derive(seed, workload, label),
                                        permute_vertices=(workload == "analyze-mid"))
        name = _write_colouring(out_dir, f"{label}.txt", colouring,
                                f"{workload} seed={seed} {label}")
        family_seconds[family] = family_seconds.get(family, 0.0) + time.perf_counter() - start
        op = {"label": label, "kind": kind, "path": name}
        if kind == "certify":
            op["cert"] = f"{label}.cert.json"
            op["local_r"] = local_r
        ops.append(op)
        del colouring
    return ops


def _fixed_ops(workload: str, seed: int, size: str) -> list[dict]:
    if workload == "exhaust-small":
        cases = list(_EXHAUST[size])
        from tristar.oracle import canonical_count
        from tristar.rng import SplitMix64
        SplitMix64(derive(seed, workload, "order")).shuffle(cases)
        return [{"label": f"K{n}-r{r}-{mode}" + ("-prove" if prove else ""),
                 "kind": "exhaust", "n": n, "r": r, "mode": mode, "prove": prove,
                 "canonical": canonical_count(n, r)}
                for n, r, mode, prove in cases]
    ops = []
    for n, r, objective, iterations, restarts, copies in _SEARCH[size]:
        for copy in range(copies):
            label = f"{objective}-n{n}-r{r}-{copy}"
            ops.append({"label": label, "kind": "search", "n": n, "r": r,
                        "objective": objective, "iters": iterations,
                        "restarts": restarts, "seed": derive(seed, workload, label)})
    return ops


def _warmup_ops(workload: str, out_dir: str) -> list[dict]:
    ops = []
    for kind, params in _WARMUP[workload]:
        label = "warmup-" + kind
        if kind in ("analyze", "certify"):
            ops += _file_ops("warmup", 0, [params], out_dir, kind, {}, prefix="warmup-")
        elif kind == "exhaust":
            n, r, mode, prove = params
            ops.append({"label": label, "kind": kind, "n": n, "r": r, "mode": mode,
                        "prove": prove})
        else:
            n, r, objective, iterations, restarts, _ = params
            ops.append({"label": label, "kind": kind, "n": n, "r": r,
                        "objective": objective, "iters": iterations,
                        "restarts": restarts, "seed": 0})
    return ops


def generate(workload: str, seed: int, size: str, out_dir: str) -> dict:
    """Write the workload's inputs and manifest.json into out_dir; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(out_dir, exist_ok=True)
    family_seconds: dict[str, float] = {}
    if workload == "analyze-mid":
        ops = _file_ops(workload, seed, _ANALYZE[size], out_dir, "analyze", family_seconds)
    elif workload == "certify-1k":
        ops = _file_ops(workload, seed, _CERTIFY[size], out_dir, "certify", family_seconds)
    else:
        ops = _fixed_ops(workload, seed, size)
    manifest = {"workload": workload, "seed": seed, "size": size,
                "unit": UNITS[workload], "ops": ops,
                "warmup": _warmup_ops(workload, out_dir),
                "generator_seconds": family_seconds}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate one workload's inputs and manifest.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
