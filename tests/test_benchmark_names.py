"""BENCHMARK.json's per-layer names against the code they trace.

The benchmark's tracer wraps each function in a module's __all__ and reports
a per-layer metric <module>.<function>.<metric> from that function's spans;
a name whose function is gone raises KeyError on a traced run.  The
benchmark also builds each workload's inputs through counting and params.
"""

import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

MODULES = ("cli", "params", "surface", "lattice", "lines", "counting")
ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
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


@pytest.mark.parametrize("workload", ["solve-n3", "solve-n4", "exact"])
def test_the_benchmark_builds_each_workloads_inputs(workload):
    # perfbench/inputs.py, loaded from its file under a name of its own
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    data = inputs.build(workload, 7, 20)
    assert data["workload"] == workload and data["kappas"]
    if workload == "exact":
        assert len(data["kappas"]) == inputs.LINES_KAPPAS
        assert len(data["identity_points"]) == inputs.IDENTITY_POINTS
    else:
        # the reference kappa is random_offwall_kappa(default_rng(7))
        assert data["N"] == int(workload[-1]) and data["reference"]["kappa"] == "47/38,25/14,37/24,8/17"
