"""The package names that the benchmark's `--trace 1` run swaps must keep resolving.

perfbench/spans.py times each layer by swapping module-level names of the
package for timing wrappers.  A rename or a removed import would break the
traced run only when the benchmark runs, so the swap plan is built here.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import tristar.oracle as oracle_module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_trace_swaps_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports its sibling `workloads`
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    swaps = spans._swaps(spans.Tracer())
    assert swaps
    for module, attr, wrapper in swaps:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
        assert callable(wrapper)


def test_the_component_mode_reads_the_oracle_binding_the_trace_swaps(monkeypatch):
    # the trace books oracle.component_order_s by swapping oracle's own name
    calls = []
    monkeypatch.setattr(oracle_module, "_component_order", lambda *args: calls.append(args) or 7)
    masks = [[0, 0], [2, 1]]
    assert oracle_module._value_fn("component")(masks, 2, 1, 3) == 7
    assert calls == [(masks, 2, 1, 3)]
