"""Benchmark of cubicdyn: solver time-to-complete at N = 3 and 4, and the exact half.

    python3 perfbench/run.py --workload solve-n3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (definitions and the reason for each are in ``inputs.WORKLOADS``):

- ``solve-n3``: ``cubicdyn solve --kappa k --N 3 --rng r --seeds 20000
  --output json``, twice on a fixed reference kappa (timed as
  ``op_rel``), then on seed-drawn off-wall kappa with ``--rng seed``.
- ``solve-n4``: the same commands at N = 4.
- ``exact``: ``verify --nmax 300``, ``zeta --order 2000``, ``lattice`` and
  ``lines --kappa k --verify`` through the CLI, plus a batch of exact
  ``Fraction`` identities through ``surface``'s public maps; then the two
  boundary operations ``verify --nmax 500`` and ``zeta --order 3500``,
  which fail today and are counted as failed, never timed.

One process, one closed-loop client: each operation is issued after the
previous one returns, calling ``cli.dispatch`` in process.  Every output is
checked (``check.py``) in traced and untraced runs alike.  With ``--trace 0``
the end-to-end metrics are measured; ``--trace 1`` wraps the public
functions of the six modules (``tracing.py``) and reports per-layer metrics.
``--workload all`` runs every workload in a child process (untraced, and
traced too with ``--trace 1``), prints every metric and the tracing overhead.

End-to-end metrics (tracing off; BENCHMARK.json gates the first three):

- ``setup_s``: the fastest of SETUP_REPEATS fresh interpreters that
  ``import cubicdyn`` and build the inputs through ``params``
  (``inputs.py``).  Set-up is deterministic work that the host can only
  slow down, and on a shared host the minimum of many 0.2 s set-ups repeats
  far better across runs than their median (IQR/median 0.10 against 0.24
  over eight sets of 21).
- ``op_rel``: the median, over the timed units of the run (the reference
  solve on solve-n3/solve-n4, one pass over the exact operations on exact),
  of the unit's wall time over the mean wall time of the calibration kernel
  (``calibrate``) timed just before and just after it.  ``op_s``, the
  median wall seconds of the unit, is printed and stored but not gated,
  because the host's speed drifts between runs (see ``calibrate``).
- ``peak_rss_mb``: peak resident set of the workload process.
- ``fail_frac``: failed / attempted operations; a failure is a non-zero
  exit, an exception escaping ``cli.dispatch``, a solve status other than
  complete, or output that fails its check.
- solve workloads, over the seed-drawn solves: ``solve_s`` (every solve),
  ``time_to_complete_s`` (complete solves that pass the check) and
  ``roots_found_frac`` (checked roots found / closed-form count).
- exact: ``verify_s``, ``zeta_s``, ``lines_s`` (per kappa) and
  ``identities_s`` (per batch), each a mean over the run.

Each run writes ``perfbench/results/<workload>-seed<n>-trace<t>.json`` with
the machine, the inputs, every operation and every metric.  The last line of
standard output is one JSON object with the metrics that ``BENCHMARK.json``
names.  BLAS and OpenMP are pinned to one thread through the environment of
this process and its children; the package itself sets nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 170

# kernel probes: points per column probe and scalar points per Jacobian probe
PROBE_COMPLEX_POINTS = 64
PROBE_FRACTION_POINTS = 16
PROBE_REPEATS = 15

# calibration kernel: numpy steps on complex columns, then Fraction and
# big-integer steps; about 0.3-0.4 s each part on a 2-core Xeon
CAL_COLUMN = 4096
CAL_NUMPY_STEPS = 6000
CAL_FRACTION_STEPS = 75000
CAL_INT_STEPS = 20000

EXACT_VERIFY_NMAX = 300
EXACT_ZETA_ORDER = 2000
BOUNDARY_OPS = (
    ("verify_boundary", ["--output", "json", "verify", "--nmax", "500"]),
    ("zeta_boundary", ["--output", "json", "zeta", "--order", "3500"]),
)


def _mean(values):
    return statistics.fmean(values) if values else None


def _call(argv: list) -> dict:
    """One CLI call through ``cli.dispatch`` in this process."""
    from cubicdyn import cli

    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    try:
        with redirect_stderr(err):
            code = cli.dispatch(argv, out)
    except Exception as e:  # escaping dispatch is a failure to record, not a crash
        code, exc = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    return {"argv": argv, "exit": code, "exception": exc, "stderr": err.getvalue()[-500:],
            "s": seconds, "out": out.getvalue()}


def calibrate() -> float:
    """Wall seconds of one fixed kernel of the benchmark's own: complex numpy
    columns, the kind of work of the solver's Newton loop, then Fraction and
    big-integer arithmetic, the kind of work of the exact half.

    On a shared 2-vCPU host the same reference solve takes from 7 to 15 s in
    runs minutes apart, while repeats within one run agree to 5-15%.  The
    kernel, timed between the timed operations of a run, sees the same host
    speed as they do, so their ratio (``op_rel``) repeats across runs where
    their seconds do not: over 48 reference solves at N = 3 in ten minutes,
    IQR/median was 0.25 for the seconds and 0.095 for the solve over the
    mean of the kernel before and after it.  No change to cubicdyn can move
    the kernel.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, CAL_COLUMN) + 1j * rng.uniform(-1, 1, CAL_COLUMN)
    y = rng.uniform(-1, 1, CAL_COLUMN) + 1j * rng.uniform(-1, 1, CAL_COLUMN)
    start = time.perf_counter()
    for _ in range(CAL_NUMPY_STEPS):
        z = x * y + 0.5 * x - y * y
        x = np.where(np.abs(z) < 4, z, x) * 0.3
        y = 0.99 * y + x
    total = Fraction(0)
    for i in range(1, CAL_FRACTION_STEPS):
        total += Fraction(i % 7 - 3, i % 11 + 1)
    a, b = 1, 1
    for i in range(1, CAL_INT_STEPS):
        a, b = b, 18 * b - a + i
    return time.perf_counter() - start


class Runner:
    """Runs one workload's operations and checks each output."""

    def __init__(self, inputs: dict, tracer=None):
        self.inputs = inputs
        self.tracer = tracer
        self.ops: list = []
        self.output_bytes = 0
        self.cal_s: list = []  # calibrate() before the first timed unit and after each

    def _quiet(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def _record(self, name, call, check=None, timed=True, must_complete=False, group=None):
        rec = {k: v for k, v in call.items() if k != "out"}
        rec.update(op=name, timed=timed, errors=[], group=group)
        self.output_bytes += len(call.get("out", ""))
        if check is not None and call["exception"] is None:
            with self._quiet():
                try:
                    rec.update(check())
                except Exception as e:  # unparsable output fails the check
                    rec["errors"] = [f"check raised {type(e).__name__}: {e}"]
        rec["failed"] = bool(
            call["exception"] is not None
            or call["exit"] != 0
            or rec["errors"]
            or (must_complete and rec.get("status") != "complete")
        )
        self.ops.append(rec)
        return rec

    def run_solve(self) -> None:
        import check

        inp = self.inputs
        ref = inp["reference"]
        runs = [("reference_solve", ref["kappa"], ref["rng"])] * ref["repeats"]
        runs += [("solve", k["kappa"], inp["seed"]) for k in inp["kappas"]]
        self.cal_s.append(calibrate())
        for name, kappa, rng in runs:
            argv = ["--output", "json", "solve", "--kappa", kappa, "--N", str(inp["N"]),
                    "--rng", str(rng), "--seeds", str(inp["seeds"])]
            call = _call(argv)
            self._record(name, call, lambda: check.check_solve(call["out"], kappa, inp["N"]),
                         must_complete=True)
            if name == "reference_solve":
                self.cal_s.append(calibrate())

    def run_exact(self) -> None:
        import check

        inp = self.inputs
        points = [
            (tuple(Fraction(v) for v in p["x"]), tuple(Fraction(v) for v in p["theta"]))
            for p in inp["identity_points"]
        ]
        self.cal_s.append(calibrate())
        for p in range(inp["ops"]):
            call = _call(["--output", "json", "verify", "--nmax", str(EXACT_VERIFY_NMAX)])
            self._record("verify", call, lambda: check.check_verify(call["out"], EXACT_VERIFY_NMAX),
                         group=p)
            call = _call(["--output", "json", "zeta", "--order", str(EXACT_ZETA_ORDER)])
            self._record("zeta", call, lambda: check.check_zeta(call["out"], EXACT_ZETA_ORDER), group=p)
            call = _call(["--output", "json", "lattice"])
            self._record("lattice", call, lambda: check.check_lattice(call["out"]), group=p)
            for k in inp["kappas"]:
                call = _call(["--output", "json", "lines", "--kappa", k["kappa"], "--verify"])
                self._record("lines", call, lambda: check.check_lines(call["out"], k["kappa"]), group=p)
            call, results = _identities(points)
            self._record("identities", call, lambda: check.check_identities(results), group=p)
            self.cal_s.append(calibrate())
        for name, argv in BOUNDARY_OPS:
            self._record(name, _call(argv), timed=False)


def _identities(points) -> tuple:
    """One batch of exact identity computations through surface's public maps."""
    from inputs import IDENTITY_JACOBIAN_N
    from cubicdyn import surface

    inf = float("inf")
    results = []
    exc = None
    start = time.perf_counter()
    try:
        braid_l = surface.parse_word("g1 g2 g1")
        braid_r = surface.parse_word("g2 g1 g2")
        keystone = surface.parse_word("g1^2 g2^-2 g1^-2 g2^2")
        for x, t in points:
            images = [surface.sigma_apply(i, x, t) for i in (1, 2, 3)]
            bl = surface.word_apply(braid_l, x, t, escape_radius=inf)
            br = surface.word_apply(braid_r, x, t, escape_radius=inf)
            ks = surface.word_apply(keystone, x, t, escape_radius=inf)
            results.append({
                "x": x,
                "theta": t,
                "sigma_twice": [surface.sigma_apply(i, y, t) for i, y in zip((1, 2, 3), images)],
                "f": surface.cubic_eval(x, t),
                "f_after_sigma": [surface.cubic_eval(y, t) for y in images],
                "braid_left": (bl.point.as_tuple(), bl.theta.as_tuple()),
                "braid_right": (br.point.as_tuple(), br.theta.as_tuple()),
                "keystone": (ks.point.as_tuple(), ks.theta.as_tuple()),
                "c2": surface.coxeter_apply(surface.coxeter_apply(x, t), t),
                "N": IDENTITY_JACOBIAN_N,
                "jacobian": surface.coxeter_jacobian(x, t, IDENTITY_JACOBIAN_N, escape_radius=inf),
            })
    except Exception as e:  # a map raising is a failed operation
        exc = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    return {"argv": ["identities", len(points)], "exit": 0 if exc is None else None,
            "exception": exc, "stderr": "", "s": seconds, "out": ""}, results


def _per_point(fn, points: int, repeats: int) -> float:
    """Median seconds of fn() over repeats, divided by points."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / points


def kernel_probes(inputs: dict, seed: int) -> dict:
    """Per-point cost of surface's public maps on the workload's shapes.

    Columns sized to the solver's seed count, c composed N times (N = 2 on
    exact); ``coxeter_jacobian`` on complex scalars at N and on Fraction
    scalars at N = 2.
    """
    import numpy as np

    from inputs import IDENTITY_JACOBIAN_N, SOLVE_SEEDS
    from cubicdyn import surface

    n = inputs.get("N", IDENTITY_JACOBIAN_N)
    theta = tuple(complex(re, im) for re, im in inputs["kappas"][0]["theta"])
    rng = np.random.default_rng(seed)
    m = SOLVE_SEEDS
    cols = tuple(rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m) for _ in range(3))

    def compose():
        y = cols
        for _ in range(n):
            y = surface.coxeter_apply(y, theta)

    scalars = [tuple(complex(*v) for v in rng.uniform(-1, 1, (3, 2))) for _ in range(PROBE_COMPLEX_POINTS)]
    fractions = [
        tuple(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(3))
        for _ in range(PROBE_FRACTION_POINTS)
    ]
    ftheta = tuple(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(4))
    inf = float("inf")
    with np.errstate(all="ignore"):
        return {
            "surface.coxeter_apply.ns_per_point": 1e9 * _per_point(compose, m * n, PROBE_REPEATS),
            "surface.cubic_eval.ns_per_point":
                1e9 * _per_point(lambda: surface.cubic_eval(cols, theta), m, PROBE_REPEATS),
            "surface.cubic_gradient.ns_per_point":
                1e9 * _per_point(lambda: surface.cubic_gradient(cols, theta), m, PROBE_REPEATS),
            "surface.coxeter_jacobian.us_per_point": 1e6 * _per_point(
                lambda: [surface.coxeter_jacobian(x, theta, n, escape_radius=inf) for x in scalars],
                len(scalars), 3),
            "surface.coxeter_jacobian.fraction_us_per_point": 1e6 * _per_point(
                lambda: [surface.coxeter_jacobian(x, ftheta, IDENTITY_JACOBIAN_N, escape_radius=inf)
                         for x in fractions],
                len(fractions), 3),
        }


def measure_setup(workload: str, seed: int, seconds: float) -> tuple:
    """Fastest wall time of fresh interpreters that import cubicdyn and
    build the inputs, and the inputs they printed (all must agree)."""
    times, outputs = [], set()
    env = {**os.environ, **BLAS_PIN}
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(seconds)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"input build failed: {proc.stderr.strip()[-500:]}")
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        raise RuntimeError("input builds of one seed disagree")
    return min(times), json.loads(outputs.pop())


def machine(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubicdyn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(workload: str, ops: list, cal_s: list, setup_s, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of the workload, as {name: {value, unit, n}}."""
    attempted, failed = len(ops), sum(op["failed"] for op in ops)
    timed = [op for op in ops if op["timed"]]
    m = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
        "fail_frac": (failed / attempted, "ratio", attempted),
        "cal_s": (statistics.median(cal_s), "s", len(cal_s)),
    }
    if workload == "exact":
        passes = {}
        for op in timed:
            passes[op["group"]] = passes.get(op["group"], 0.0) + op["s"]
        units = [passes[g] for g in sorted(passes)]
        for name in ("verify", "zeta", "lines", "identities"):
            times = [op["s"] for op in timed if op["op"] == name]
            m[f"{name}_s"] = (_mean(times), "s", len(times))
    else:
        units = [op["s"] for op in timed if op["op"] == "reference_solve"]
        solves = [op for op in timed if op["op"] == "solve"]
        times = [op["s"] for op in solves]
        m["solve_s"] = (_mean(times), "s", len(times))
        complete = [op["s"] for op in solves if not op["failed"]]
        m["time_to_complete_s"] = (_mean(complete), "s", len(complete))
        found = sum(op.get("checked_found", 0) for op in solves)
        closed = sum(op.get("closed", 0) for op in solves)
        m["roots_found_frac"] = (found / closed if closed else None, "ratio", len(solves))
        m["roots_found"] = (found, "count", len(solves))
        m["roots_closed"] = (closed, "count", len(solves))
    m["op_s"] = (statistics.median(units), "s", len(units))
    rel = [u / ((before + after) / 2) for u, before, after in zip(units, cal_s, cal_s[1:])]
    m["op_rel"] = (statistics.median(rel), "ratio", len(rel))
    m["attempted"] = (attempted, "count", 1)
    m["failed"] = (failed, "count", 1)
    return {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in m.items()}


def solve_counts(ops: list) -> dict:
    """The ``counting.solve.*`` counts, summed over the run's solves (zero
    on exact); ``short.p<d>`` is the Moebius expectation minus the checked
    roots of minimal period d, for d = 1..4."""
    solves = [op for op in ops if op["op"] in ("solve", "reference_solve")]
    out = {f"counting.solve.{key}": sum(op.get(key, 0) for op in solves)
           for key in ("found", "closed", "orbits", "multiple_flagged")}
    for d in range(1, 5):
        out[f"counting.solve.short.p{d}"] = sum(op.get("short", {}).get(d, 0) for op in solves)
    out["counting.solve.max_map_residual"] = max(
        (op.get("max_map_residual", 0.0) for op in solves), default=0.0)
    return out


def per_layer(tracer, runner: Runner, probes: dict, op_s) -> dict:
    """Per-layer metrics of a traced run, as {name: value}."""
    from tracing import MODULES

    out = {}
    summary = tracer.summary()
    for name, row in summary.items():
        for key, val in row.items():
            out[f"{name}.{key}"] = val
    for mod in MODULES:
        rows = [row for name, row in summary.items() if name.startswith(mod + ".")]
        out[f"{mod}.calls"] = sum(r["calls"] for r in rows)
        out[f"{mod}.self_s"] = sum(r["self_s"] for r in rows)
    out["cli.output_bytes"] = runner.output_bytes
    out.update(solve_counts(runner.ops))
    out.update(probes)
    out["trace.spans"] = len(tracer.spans)
    out["trace.op_s"] = op_s
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 seeds: int | None = None, setup: bool = True) -> dict:
    """Run one workload in this process and return its full result.

    Untraced runs take the inputs that the fresh interpreters of
    ``measure_setup`` built; traced runs build them here, so that the
    ``params`` calls are traced.  ``seeds`` shrinks the solves and
    ``setup=False`` skips the set-up timing (both for tests).
    """
    import inputs
    import tracing

    setup_s, inp = None, None
    if setup and not trace:
        setup_s, inp = measure_setup(workload, seed, seconds)

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        if inp is None:
            inp = inputs.build(workload, seed, seconds)
        if seeds is not None:
            inp["seeds"] = seeds
        runner = Runner(inp, tracer)
        if workload == "exact":
            runner.run_exact()
        else:
            runner.run_solve()
    finally:
        if tracer:
            tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(workload, runner.ops, runner.cal_s, setup_s, peak_rss_mb)
    result = {
        "workload": workload,
        "why": inputs.WORKLOADS[workload]["why"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": {k: v for k, v in inp.items() if k != "identity_points"},
        "ops": runner.ops,
        "calibration_s": runner.cal_s,
        "correct": not any(op["errors"] for op in runner.ops),
        "attempted": len(runner.ops),
        "failed": sum(op["failed"] for op in runner.ops),
        "end_to_end": e2e,
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, runner, kernel_probes(inp, seed), e2e["op_s"]["value"])
        result["tracer"] = tracer
    return result


def contract_line(result: dict, spec: dict) -> dict:
    """The last output line: the metrics BENCHMARK.json names, nothing else."""
    if result["trace"]:
        names = spec["per_layer"]
        values = {m["name"]: result["per_layer"][m["name"]] for m in names}
    else:
        names = spec["end_to_end"]
        values = {m["name"]: result["end_to_end"][m["name"]]["value"] for m in names}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: {result['why']}")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']:<6} n={m['n']}")
    for op in result["ops"]:
        if op["failed"]:
            err = op["stderr"].strip().splitlines()
            why = op["exception"] or (err[-1] if err else op.get("status"))
            print(f"  failed: {op['op']} {' '.join(map(str, op['argv']))}: {why}")
    for name, value in sorted(result.get("per_layer", {}).items()):
        print(f"  {name:<48} {_fmt(value):>14}")


def save(result: dict, machine_info: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    data = {k: v for k, v in result.items() if k != "tracer"}
    data["machine"] = machine_info
    if "tracer" in result:
        result["tracer"].write(RESULTS / f"{stem}.spans.jsonl.gz")
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(data, indent=1, default=str))
    return path


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints all metrics and overheads."""
    from inputs import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        results = {}
        for t in ([0, 1] if trace else [0]):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", str(t)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            stem = f"{workload}-seed{seed}-trace{t}"
            results[t] = json.loads((RESULTS / f"{stem}.json").read_text())
            print(proc.stdout.rsplit("\n", 2)[0])
        base = results[0]
        summary["correct"] &= base["correct"]
        summary["attempted"] += base["attempted"]
        summary["failed"] += base["failed"]
        for name, m in base["end_to_end"].items():
            summary["metrics"][f"{workload}.{name}"] = {"value": m["value"], "unit": m["unit"]}
        if trace:
            overhead = results[1]["per_layer"]["trace.op_s"] - base["end_to_end"]["op_s"]["value"]
            print(f"  tracing overhead: {overhead:+.4g} s per operation "
                  f"({overhead / base['end_to_end']['op_s']['value']:+.1%})")
            summary["metrics"][f"{workload}.tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubicdyn" / "__init__.py").is_file():
        print(f"error: no cubicdyn source under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    os.environ.update(BLAS_PIN)  # before numpy loads, here and in every child
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = save(result, machine(args.seed))
    print_table(result)
    print(f"# results: {path.relative_to(ROOT)}")
    print(json.dumps(contract_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
