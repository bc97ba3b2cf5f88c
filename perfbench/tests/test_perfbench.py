"""Tests of the benchmark itself: output checks, tracing, determinism.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import check
import inputs
import run
from run import _call

KAPPA = "47/38,25/14,37/24,8/17"  # random_offwall_kappa(default_rng(7))


@pytest.fixture(scope="module")
def solve_n2():
    call = _call(["--output", "json", "solve", "--kappa", KAPPA, "--N", "2", "--rng", "0",
                  "--seeds", "3000"])
    assert call["exit"] == 0, call["stderr"]
    return json.loads(call["out"])


def test_moebius_expectations():
    assert check.expected_by_period(2) == {1: 0, 2: 22}
    assert check.expected_by_period(3) == {1: 0, 3: 72}
    assert check.expected_by_period(4) == {1: 0, 2: 22, 4: 304}
    assert [check.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_check_accepts_a_complete_solve(solve_n2):
    res = check.check_solve(json.dumps(solve_n2), KAPPA, 2)
    assert res["errors"] == []
    assert res["checked_found"] == res["closed"] == 22
    assert res["short"] == {1: 0, 2: 0}


def test_check_rejects_a_perturbed_root(solve_n2):
    bad = copy.deepcopy(solve_n2)
    bad["points"][5]["x"][1][0] += 1e-7
    errors = check.check_solve(json.dumps(bad), KAPPA, 2)["errors"]
    assert any("root 5: map residual" in e for e in errors)
    assert any("complete, but" in e for e in errors)


def test_check_rejects_a_duplicated_root(solve_n2):
    bad = copy.deepcopy(solve_n2)
    bad["points"][3] = copy.deepcopy(bad["points"][4])
    errors = check.check_solve(json.dumps(bad), KAPPA, 2)["errors"]
    assert "roots 3 and 4 coincide at dedup_radius" in errors


def test_check_rejects_a_wrong_zeta_coefficient():
    call = _call(["--output", "json", "zeta", "--order", "60"])
    assert check.check_zeta(call["out"], 60)["errors"] == []
    data = json.loads(call["out"])
    data["coefficients"][37] += 1
    assert check.check_zeta(json.dumps(data), 60)["errors"] == ["zeta product has coefficient 1 at z^37"]


def test_check_rejects_a_wrong_verify_row_and_charpoly():
    call = _call(["--output", "json", "verify", "--nmax", "20"])
    assert check.check_verify(call["out"], 20)["errors"] == []
    data = json.loads(call["out"])
    data["rows"][9]["per_affine"] += 2
    assert check.check_verify(json.dumps(data), 20)["errors"]
    call = _call(["--output", "json", "lattice"])
    data = json.loads(call["out"])
    data["charpoly_coeffs_low_to_high"][2] += 1
    assert check.check_lattice(json.dumps(data))["errors"]


def _bindings():
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == "cubicdyn" or name.startswith("cubicdyn.")
        for attr, val in vars(mod).items()
    }


def test_traced_run_restores_every_binding_and_agrees_with_untraced():
    import tracing

    tracing.Tracer()._targets()  # imports all six modules before the snapshot
    before = _bindings()
    kw = dict(seed=3, seconds=1, seeds=1000, setup=False)
    traced = run.run_workload("solve-n3", trace=True, **kw)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert traced["tracer"].bindings == []
    counts = run.solve_counts(run.run_workload("solve-n3", trace=False, **kw)["ops"])
    assert counts == {k: traced["per_layer"][k] for k in counts}
    assert counts["counting.solve.closed"] == 72 * (inputs.REFERENCE_REPEATS + 1)
    again = run.solve_counts(run.run_workload("solve-n3", trace=False, **kw)["ops"])
    assert again == counts


def test_tracer_wraps_every_binding_of_a_public_function():
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {(m, a) for m, a, _ in tracer.bindings}
        from cubicdyn import counting, surface

        assert counting.cubic_eval is surface.cubic_eval
        assert hasattr(counting.cubic_eval, "__wrapped__")
        with tracer.paused():
            surface.coxeter_apply((0.1, 0.2, 0.3), (1, 2, 3, 4))
        assert tracer.spans == []
        surface.coxeter_apply((0.1, 0.2, 0.3), (1, 2, 3, 4))
    finally:
        tracer.uninstall()
    for binding in [("cubicdyn.counting", "cubic_eval"), ("cubicdyn.counting", "wall_membership"),
                    ("cubicdyn.counting", "coxeter_star"), ("cubicdyn.lines", "sigma_apply"),
                    ("cubicdyn.lines", "discriminant"), ("cubicdyn", "coxeter_apply"),
                    ("cubicdyn.cli", "dispatch")]:
        assert binding in wrapped
    summary = tracer.summary()
    assert summary["surface.coxeter_apply"]["calls"] == 1
    assert summary["surface.sigma_apply"]["calls"] == 3
    span = summary["surface.coxeter_apply"]
    assert 0 <= span["self_s"] <= span["s"]
    assert not hasattr(surface.coxeter_apply, "__wrapped__")


def test_exact_counts_boundary_operations_as_failed():
    res = run.run_workload("exact", seed=5, seconds=1, trace=False, setup=False)
    failed = {op["op"]: op for op in res["ops"] if op["failed"]}
    (identities,) = [op for op in res["ops"] if op["op"] == "identities"]
    assert identities["points"] == inputs.IDENTITY_POINTS
    assert set(failed) == {"verify_boundary", "zeta_boundary"}
    assert failed["verify_boundary"]["exception"].startswith("OverflowError")
    assert "4300 digits" in failed["zeta_boundary"]["stderr"]
    assert not any(op["timed"] for op in failed.values())
    assert res["correct"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_perturbed_identity_fails_the_identities_operation():
    points = [((Fraction(1, 2), Fraction(-2, 3), Fraction(3)),
               (Fraction(1), Fraction(-1, 2), Fraction(5, 3), Fraction(2)))]
    call, results = run._identities(points)
    runner = run.Runner({})
    assert not runner._record("identities", call, lambda: check.check_identities(results))["failed"]
    x, t = results[0]["keystone"]
    results[0]["keystone"] = ((x[0] + 1, *x[1:]), t)
    rec = runner._record("identities", call, lambda: check.check_identities(results))
    assert rec["failed"]
    assert rec["errors"] == ["point 0: keystone word != c^2"]


def test_op_rel_divides_each_unit_by_the_calibrations_around_it():
    ops = [{"op": "reference_solve", "s": s, "timed": True, "failed": False} for s in (10.0, 30.0)]
    e2e = run.end_to_end("solve-n3", ops, [1.0, 3.0, 1.0], 0.2, 60.0)
    assert e2e["op_s"]["value"] == 20.0
    assert e2e["op_rel"]["value"] == 10.0  # median of 10 / 2 and 30 / 2
