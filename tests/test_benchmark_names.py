"""BENCHMARK.json's per-layer names against the code they trace.

The benchmark's tracer wraps each function in a module's __all__ and reports
a per-layer metric <module>.<function>.<metric> from that function's spans;
a name whose function is gone raises KeyError on a traced run.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

MODULES = ("cli", "params", "surface", "lattice", "lines", "counting")
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# counting.solve.<outcome> names the solve outcome counts, not a function
NAMES = [m["name"] for m in SPEC["per_layer"]
         if m["name"].count(".") >= 2 and m["name"].split(".")[0] in MODULES
         and m["name"].split(".")[1] != "solve"]


def test_every_module_function_name_is_checked():
    assert len(NAMES) >= 30 and "lines.line_on_surface.calls" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_each_per_layer_name_is_a_public_function_of_its_module(name):
    module, function, _ = name.split(".", 2)
    mod = importlib.import_module(f"cubicdyn.{module}")
    assert function in mod.__all__, name
    obj = getattr(mod, function)
    assert isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__, name
