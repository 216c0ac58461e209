"""The package root: importing a module loads only what that module imports."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import tristar

SRC = Path(__file__).resolve().parent.parent / "src"

# A child that imports one module and prints every module then loaded.
LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def loaded_after(module: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LOADED, module], capture_output=True, text=True,
                          env=env, check=True)
    return set(json.loads(proc.stdout))


def test_the_package_root_loads_no_module():
    loaded = loaded_after("tristar")
    assert "tristar" in loaded
    assert not {name for name in loaded if name.startswith("tristar.")}
    assert tristar.__version__ == "0.1.0"
    assert not hasattr(tristar, "__all__")


def test_the_generators_load_no_scan_search_or_pool_code():
    loaded = loaded_after("tristar.generators")
    assert "tristar.generators" in loaded
    assert not loaded & {"tristar.cli", "tristar.oracle", "tristar.explorer", "tristar.bipartite",
                         "multiprocessing"}


def test_the_exhaust_and_search_modules_load_no_generator_code():
    loaded = loaded_after("tristar.oracle")
    assert "tristar.oracle" in loaded
    assert not loaded & {"tristar.generators", "tristar.rng"}
    loaded = loaded_after("tristar.explorer")
    assert "tristar.explorer" in loaded
    assert "tristar.generators" not in loaded
