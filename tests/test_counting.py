"""Tests for the exact counts, zeta function, and the numeric solver."""

import dataclasses
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest
import sympy

from cubicdyn.counting import (
    CountReport,
    SolverConfig,
    lefschetz_number,
    per_count_closed,
    per_kappa_closed,
    random_offwall_kappa,
    solve_for_kappa,
    solve_periodic,
    verify_counts,
    zeta_coefficients,
)
from cubicdyn.lattice import coxeter_star, trace_power
from cubicdyn.params import KappaPoint, discriminant, kappa_to_eigen, rh_params, wall_membership
from cubicdyn.surface import (
    AffinePoint,
    _coerce_theta,
    coxeter_apply,
    coxeter_jacobian,
    cubic_eval,
    cubic_gradient,
    surface_residual_bound,
)


def _theta_array(theta):
    """theta's four entries as a complex numpy array, which the maps and the
    seeds take as they take four Python complex."""
    return np.array([complex(v) for v in _coerce_theta(theta)])


def test_lefschetz_small_values():
    assert lefschetz_number(1)[0] == 2
    assert lefschetz_number(2)[0] == 24
    assert lefschetz_number(3)[0] == 74
    with pytest.raises(ValueError):
        lefschetz_number(0)


def test_lefschetz_exact_matches_closed_float():
    for n in range(1, 25):
        exact, closed = lefschetz_number(n)
        assert abs(exact - closed) < 1e-6 * max(1, abs(closed))


def test_per_count_values_and_offset():
    assert [per_count_closed(n) for n in (1, 2, 3, 4)] == [0, 22, 72, 326]
    for n in range(1, 31):
        assert per_count_closed(n, "projective") == per_count_closed(n) + 1
        assert lefschetz_number(n)[0] == per_count_closed(n, "projective") + 1
    with pytest.raises(ValueError):
        per_count_closed(2, "euclidean")


def test_per_kappa_values_and_doubling():
    assert per_kappa_closed(1) == 22
    assert per_kappa_closed(2) == 326
    with pytest.raises(ValueError, match="N must be >= 1"):
        per_kappa_closed(0)
    for n in range(1, 31):
        assert per_kappa_closed(n) == per_count_closed(2 * n, "affine")


def test_per_kappa_against_float_closed_form():
    for n in range(1, 15):
        closed = (9 + 4 * np.sqrt(5)) ** n + (9 - 4 * np.sqrt(5)) ** n + 4
        assert abs(per_kappa_closed(n) - closed) < 1e-5 * closed


def test_zeta_small_coefficients():
    assert zeta_coefficients(2) == [1, 22, 405]
    with pytest.raises(ValueError, match="order must be >= 1"):
        zeta_coefficients(0)


def _zeta_by_the_denominator(order):
    """z_0 = 1 and z_n = -(d_1 z_{n-1} + ... + d_6 z_{n-6}) over the
    coefficients d of (1-z)^4 (1-18z+z^2), expanded: the reference that
    zeta_coefficients' running sums must equal."""
    d = (1, -22, 79, -116, 79, -22, 1)
    z = [0] * 6 + [1]
    for _ in range(order):
        z.append(-sum(d[k] * z[-k] for k in range(1, 7)))
    return z[6:]


@pytest.mark.parametrize("orders", [range(1, 61), [3500]])
def test_zeta_running_sums_equal_the_six_term_recurrence(orders):
    for order in orders:
        assert zeta_coefficients(order) == _zeta_by_the_denominator(order)


def test_zeta_against_sympy_series():
    z = sympy.symbols("z")
    expr = 1 / ((1 - z) ** 4 * (1 - 18 * z + z**2))
    series = sympy.series(expr, z, 0, 13).removeO()
    expected = [int(series.coeff(z, n)) for n in range(13)]
    assert zeta_coefficients(12) == expected


def test_zeta_exponential_identity():
    # Z(z) = exp(sum Per_N z^N / N): check by taking d/dz log Z
    order = 10
    coeffs = zeta_coefficients(order)
    for n in range(1, order + 1):
        lhs = n * Fraction(coeffs[n])
        rhs = sum(per_kappa_closed(k) * coeffs[n - k] for k in range(1, n + 1))
        assert lhs == rhs


def test_zeta_recurrence_matches_the_convolution():
    # the binomial series of (1-z)^-4 convolved with U_n = 18 U_{n-1} - U_{n-2}
    order = 400
    binom = [(n + 1) * (n + 2) * (n + 3) // 6 for n in range(order + 1)]
    u = [1, 18]
    while len(u) <= order:
        u.append(18 * u[-1] - u[-2])
    expected = [sum(binom[k] * u[n - k] for k in range(n + 1)) for n in range(order + 1)]
    assert zeta_coefficients(order) == expected


def test_zeta_times_its_denominator_is_one():
    z = sympy.symbols("z")
    d = [int(v) for v in reversed(sympy.Poly((1 - z) ** 4 * (1 - 18 * z + z**2), z).all_coeffs())]
    order = 2000
    coeffs = zeta_coefficients(order)
    product = [sum(d[k] * coeffs[n - k] for k in range(min(n, 6) + 1)) for n in range(order + 1)]
    assert product == [1] + [0] * order


def test_verify_counts():
    report = verify_counts(30)
    assert report["ok"]
    assert report["rows"][0]["per_kappa"] == 22
    with pytest.raises(ValueError):
        verify_counts(0)


def test_verify_counts_rows_match_the_closed_forms():
    rows = verify_counts(60)["rows"]
    assert [row["N"] for row in rows] == list(range(1, 61))
    for row in rows:
        N = row["N"]
        assert row["lefschetz"] == lefschetz_number(N)[0]
        assert row["per_affine"] == per_count_closed(N)
        assert row["per_kappa"] == per_kappa_closed(N)


def test_verify_counts_raises_on_a_wrong_c_sequence_or_zeta(monkeypatch):
    from cubicdyn import counting

    # C_N is the recurrence whose term 1 is 18; only its term 3 is made wrong
    recurrence, zeta = counting._recurrence, counting.zeta_coefficients
    monkeypatch.setattr(counting, "_recurrence", lambda a0, a1, p, q: (
        v + (a1 == 18 and i == 3) for i, v in enumerate(recurrence(a0, a1, p, q))))
    with pytest.raises(AssertionError, match="per_kappa vs per_6 mismatch at N=3"):
        verify_counts(5)
    monkeypatch.setattr(counting, "_recurrence", recurrence)
    monkeypatch.setattr(counting, "zeta_coefficients", lambda n: [v + (i == 4) for i, v in enumerate(zeta(n))])
    with pytest.raises(AssertionError, match="zeta coefficient mismatch at order 4"):
        verify_counts(5)
    # the zeta coefficients from exp(sum Per_N z^N / N) must be integers:
    # Per_2 made one larger adds 1/2 to z_2
    monkeypatch.setattr(counting, "zeta_coefficients", zeta)
    monkeypatch.setattr(counting, "per_kappa_closed", lambda n: per_kappa_closed(n) + (n == 2))
    with pytest.raises(AssertionError, match="zeta coefficients must be integers"):
        verify_counts(5)


def test_the_counts_by_doubling_equal_the_recurrences_terms():
    # per_count_closed and per_kappa_closed double, verify and zeta walk
    # _recurrence: the two must agree term for term
    from cubicdyn import counting

    wanted = {*range(1, 301), 5000, 20000}
    terms = zip(counting._recurrence(2, 4, 4, 1), counting._recurrence(2, 18, 18, -1))
    for N, (s, c) in enumerate(islice(terms, max(wanted) + 1)):
        if N in wanted:
            assert per_count_closed(N) == s + 4 * (-1) ** N, N
            assert per_count_closed(N, "projective") == s + 4 * (-1) ** N + 1, N
            assert per_kappa_closed(N) == c + 4, N


@pytest.mark.parametrize("count", [per_count_closed, per_kappa_closed, lefschetz_number])
def test_an_exact_count_at_large_n_holds_no_earlier_terms(count):
    # the answer at N = 20000 has about 12500 digits (5 KB); a list of all
    # the earlier terms would take tens of MiB
    tracemalloc.start()
    try:
        count(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_random_offwall_kappa_certified():
    rng = np.random.default_rng(0)
    for _ in range(5):
        kappa = random_offwall_kappa(rng)
        assert kappa.is_rational()
        assert not wall_membership(kappa).on_wall

    class OnAWall:
        # every k_i is 1/2, and (1/2, 1/2, 1/2, 1/2) lies on a wall
        def integers(self, low, high):
            return low

    with pytest.raises(RuntimeError, match="failed to sample an off-wall kappa"):
        random_offwall_kappa(OnAWall())


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(seeds=0)
    with pytest.raises(ValueError):
        SolverConfig(rng_seed=-1)
    cfg = SolverConfig()
    assert cfg.newton_tol == 1e-10 and cfg.dedup_radius == 1e-6 and cfg.surface_tol == 1e-9
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["seeds", "rng_seed"]


def test_solve_rejects_singular_discriminant():
    rng = np.random.default_rng(1)
    kappa = random_offwall_kappa(rng)
    theta = rh_params(kappa)
    from cubicdyn.params import KappaPoint

    wall = KappaPoint.from_tail(1, Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    with pytest.raises(ValueError):
        solve_for_kappa(wall, 2)
    with pytest.raises(ValueError, match="N must be >= 1"):
        solve_periodic(theta, 0)


def test_the_wall_test_alone_decides_genericity():
    # off every wall in exact arithmetic, with each factor of the
    # discriminant at least 1.8e-2, yet their product is below 1e-12
    kappa = random_offwall_kappa(np.random.default_rng(85))
    assert [str(v) for v in kappa.tail()] == ["3/29", "18/19", "19/21", "25/26"]
    assert abs(discriminant(kappa_to_eigen(kappa))) < 1e-12
    report = solve_for_kappa(kappa, 3, SolverConfig(seeds=20000, rng_seed=85))
    assert report.status == "complete" and report.found == 72


def test_solver_finds_no_fixed_points(monkeypatch):
    rng = np.random.default_rng(2)
    kappa = random_offwall_kappa(rng)
    monkeypatch.setattr(SolverConfig, "newton_max_iter", 40)
    report = solve_for_kappa(kappa, 1, SolverConfig(seeds=2000, rng_seed=1))
    assert report.found == 0
    assert report.closed_form == 0
    assert report.status == "complete"


def test_solver_period_two_count_and_cycles():
    rng = np.random.default_rng(3)
    kappa = random_offwall_kappa(rng)
    cfg = SolverConfig(seeds=6000, rng_seed=2)
    report = solve_for_kappa(kappa, 2, cfg)
    assert report.found == 22
    assert report.status == "complete"
    assert report.minimal_periods == [2] * 22
    assert sorted(len(o) for o in report.orbits) == [2] * 11
    # every reported point really solves the system on the surface
    theta = rh_params(kappa)
    for p, r in zip(report.points.tolist(), report.residuals):
        assert r < cfg.newton_tol
        assert AffinePoint(*p).residual(theta) <= surface_residual_bound(p)


def test_solver_determinism():
    rng = np.random.default_rng(4)
    kappa = random_offwall_kappa(rng)
    cfg = SolverConfig(seeds=3000, rng_seed=7)
    r1 = solve_for_kappa(kappa, 2, cfg)
    r2 = solve_for_kappa(kappa, 2, cfg)
    def key(pt):
        return tuple(v for z in pt for v in (z.real, z.imag))

    x1 = sorted(r1.points.tolist(), key=key)
    x2 = sorted(r2.points.tolist(), key=key)
    assert len(x1) == len(x2)
    for a, b in zip(x1, x2):
        assert max(abs(u - v) for u, v in zip(a, b)) < 1e-8


def test_count_report_json():
    report = CountReport(N=2, closed_form=22)
    data = report.to_json()
    assert data["N"] == 2 and data["status"] == "partial"
    assert data["points"] == [] and data["orbits"] == []
    data = _hand_built_report().to_json()
    assert data["points"][0]["residual"] == 1e-12
    assert data["points"][0]["x"] == [[1.0, 0.0], [0.0, 2.0], [-3.0, 0.5]]
    assert data["clusters"] == [{"multiplicity_det": 0.25}]
    assert data["minimal_periods"] == [2] and data["orbits"] == [[0]]
    # a root without its residual is an error, not a root left out
    with pytest.raises(ValueError):
        CountReport(N=2, closed_form=22, points=[(1, 2, 3)]).to_json()


def _per_point_json(report: CountReport) -> dict:
    """report.to_json() with every "x" written by AffinePoint.to_json, one
    point at a time."""
    return {**report.to_json(),
            "points": [{**AffinePoint(*p).to_json(), "residual": float(r)}
                       for p, r in zip(report.points, report.residuals)],
            "clusters": [{"multiplicity_det": float(m)} for m in report.multiplicities]}


def _hand_built_report() -> CountReport:
    return CountReport(N=2, closed_form=22, points=[(1, 2j, -3 + 0.5j)], residuals=[1e-12],
                       multiplicities=[0.25], minimal_periods=[2], orbits=[[0]])


_REPORTS = {
    "kappa_ref_n3": lambda: _reference_solve(7, 0, 3)[0],
    "complex_theta": lambda: solve_periodic(_COMPLEX_THETA, 2, SolverConfig(seeds=200, rng_seed=5)),
    "empty_n1": lambda: solve_periodic(_COMPLEX_THETA, 1),
    "hand_built": _hand_built_report,
}


@pytest.mark.parametrize("case", list(_REPORTS))
def test_the_report_json_equals_the_per_point_text(case):
    import json

    # the report builds every "x" from one complex array; its text is the
    # one the per-point AffinePoint.to_json gives, byte for byte, signed
    # zeros and the int coordinate of the hand-built report included
    report = _REPORTS[case]()
    assert report.found == {"kappa_ref_n3": 72, "complex_theta": 22, "empty_n1": 0, "hand_built": 1}[case]
    data = report.to_json()
    assert json.dumps(data) == json.dumps(_per_point_json(report))
    # points, clusters and minimal_periods align by index, one entry per root
    assert len(data["points"]) == len(data["clusters"]) == len(data["minimal_periods"]) == data["found"]


@pytest.mark.parametrize("case", ["kappa_ref_n3", "hand_built"])
def test_the_report_json_writes_each_root_once(case):
    import json

    # each root's "x" is written in points alone; a cluster holds only its
    # multiplicity estimate
    data = _REPORTS[case]().to_json()
    text = json.dumps(data)
    assert data["points"] and all(text.count(json.dumps(p["x"])) == 1 for p in data["points"])
    assert all(list(c) == ["multiplicity_det"] for c in data["clusters"])


def test_solve_periodic_takes_theta_with_four_entries_only():
    with pytest.raises(ValueError, match="theta must have four entries"):
        solve_periodic([1, 2, 3], 2)


def test_lefschetz_check_raises_on_wrong_trace(monkeypatch):
    from cubicdyn import counting, lattice

    monkeypatch.setattr(counting, "trace_power", lambda m, n: 0)
    with pytest.raises(AssertionError, match="N=3"):
        lefschetz_number(3)
    # one more in the off-diagonal entry (0, 1) of c* keeps tr(c*) but
    # moves tr((c*)^2) by 2 c*[1][0] = -6, so N = 2 is the first wrong trace
    entries = [list(row) for row in lattice.coxeter_star().entries]
    entries[0][1] += 1
    monkeypatch.setattr(counting, "coxeter_star", lambda: lattice.LatticeEndo(entries))
    with pytest.raises(AssertionError, match="differs from the closed form .* at N=2$"):
        verify_counts(5)


def test_verify_traces_agree_with_binary_powering():
    # verify_counts multiplies by c* up to N = 7 and then takes each trace
    # from the seven before it by c*'s characteristic polynomial;
    # trace_power squares
    rows = verify_counts(500)["rows"]
    for N in (1, 2, 7, 8, 9, 64, 300, 500):
        assert rows[N - 1]["lefschetz"] == 2 + trace_power(coxeter_star(), N)


def test_verify_counts_checks_the_traces_from_the_charpoly(monkeypatch):
    from cubicdyn import counting, lattice

    # c*'s charpoly is x^7 - 11 x^5 - 24 x^4 - 21 x^3 - 8 x^2 - x; with the
    # x^5 coefficient made -10, N = 8, the first trace it gives, is wrong
    coeffs = lattice.charpoly(lattice.coxeter_star())
    assert coeffs == [0, -1, -8, -21, -24, -11, 0, 1]
    monkeypatch.setattr(counting, "charpoly", lambda m: coeffs[:5] + [-10] + coeffs[6:])
    with pytest.raises(AssertionError, match="differs from the closed form .* at N=8$"):
        verify_counts(20)
    verify_counts(7)  # the first seven traces are matrix products


def _plain_recurrence(a0, a1, p, q, terms):
    out = []
    for _ in range(terms):
        out.append(a0)
        a0, a1 = a1, p * a1 + q * a0
    return out


def test_recurrence_adds_or_subtracts_as_a_product_by_q_would():
    import decimal
    from itertools import islice

    from cubicdyn import cli, counting

    for a0, a1, p, q in ((2, 4, 4, 1), (2, 18, 18, -1), (1, 18, 18, -1)):
        want = _plain_recurrence(a0, a1, p, q, 400)
        assert list(islice(counting._recurrence(a0, a1, p, q), 400)) == want
        with decimal.localcontext(cli._EXACT):
            one = decimal.Decimal(1)
            got = list(islice(counting._recurrence(a0 * one, a1 * one, p, q), 400))
            assert got == _plain_recurrence(a0 * one, a1 * one, p, q, 400)
        assert all(type(v) is decimal.Decimal for v in got) and got == want


@pytest.mark.parametrize("q", [0, 2, -2, 1.5])
def test_recurrence_refuses_q_other_than_one_or_minus_one(q):
    from cubicdyn import counting

    with pytest.raises(ValueError, match="q must be 1 or -1"):
        next(counting._recurrence(2, 4, 4, q))


def test_lefschetz_check_survives_optimized_mode():
    # python -O strips assert statements; the check must still raise
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from cubicdyn import counting\n"
        "counting.trace_power = lambda m, n: 0\n"
        "try:\n"
        "    counting.lefschetz_number(3)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert done.returncode == 0


def _fraction_columns(rng, m):
    def frac():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))

    pts = [tuple(frac() for _ in range(3)) for _ in range(m)]
    theta = tuple(frac() for _ in range(4))
    cols = tuple(np.array([p[i] for p in pts], dtype=object) for i in range(3))
    return pts, theta, cols


def test_column_kernels_exact_on_fraction_columns():
    # the solver's kernels are surface's maps on columns: on object columns
    # of Fraction they give the scalar results exactly
    pts, theta, cols = _fraction_columns(np.random.default_rng(5), 3)
    for N in (1, 2, 3, 4):
        images = coxeter_apply(cols, theta, N)
        jac = coxeter_jacobian(cols, theta, N, escape_radius=np.inf)
        for p, x in enumerate(pts):
            y = x
            for _ in range(N):
                y = coxeter_apply(y, theta)
            assert tuple(c[p] for c in images) == y
            want = coxeter_jacobian(x, theta, N, escape_radius=float("inf"))
            assert [[jac[r][c][p] for c in range(3)] for r in range(3)] == want
    grad = cubic_gradient(cols, theta)
    f = cubic_eval(cols, theta)
    for p, x in enumerate(pts):
        assert tuple(g[p] for g in grad) == cubic_gradient(x, theta)
        assert f[p] == cubic_eval(x, theta)


def test_cubic_cols_rounds_a_point_the_same_alone_and_in_a_batch():
    from cubicdyn import counting

    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(1))))
    x = counting._make_tuples(2000, 1, t, np.random.default_rng(0))
    for kernel in (lambda x: cubic_eval(x, t), lambda x: np.array(coxeter_apply(x, t, 3))):
        batch = kernel(x)
        alone = np.concatenate([kernel(x[:, p:p + 1]) for p in range(x.shape[1])], axis=-1)
        assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))


def test_no_bad_point_reaches_the_line_search(monkeypatch):
    from cubicdyn import counting

    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(1))))
    seeds = counting._make_tuples(50, 2, t, np.random.default_rng(0))
    seeds[:, 7] = np.nan
    searched = []
    search = counting._line_search

    def record(x, dx, rnorm, t, n):
        searched.append((x, dx))
        return search(x, dx, rnorm, t, n)

    monkeypatch.setattr(counting, "_line_search", record)
    monkeypatch.setattr(SolverConfig, "newton_max_iter", 20)
    list(counting._newton_batch(seeds, t, 2, SolverConfig(), []))
    assert searched
    for x, dx in searched:
        assert np.isfinite(x).all()
        assert (dx != 0).any(axis=0).all()


_COMPLEX_THETA = (1.3 + 0.4j, -0.7 + 0.2j, 2.1 - 0.3j, 0.5 + 0.1j)


_KAPPA_REF = random_offwall_kappa(np.random.default_rng(7))
# max |theta_i| is 17.3, against 2.35 at _KAPPA_REF, and its roots reach
# max |x_i| = 3.47, past _KAPPA_REF's seed radius of 2.77
_KAPPA_FAR = KappaPoint.from_tail(Fraction(45, 23), Fraction(1, 9), Fraction(3, 10), Fraction(15, 16))


def _record_seed_chunks(monkeypatch, answer=None):
    """Record, for each _newton_batch call, whether it received a seed chunk
    drawn by _make_tuples; answer, if given, stands in for the batch as its
    one yield."""
    from cubicdyn import counting

    drawn, seed_chunk = [], []
    make, newton = counting._make_tuples, counting._newton_batch

    def make_tuples(count, n, t, rng):
        drawn.append(make(count, n, t, rng))
        return drawn[-1]

    def newton_batch(x, t, n, cfg, joining):
        seed_chunk.append(any(x is d for d in drawn))
        return newton(x, t, n, cfg, joining) if answer is None else iter([answer])

    monkeypatch.setattr(counting, "_make_tuples", make_tuples)
    monkeypatch.setattr(counting, "_newton_batch", newton_batch)
    return seed_chunk


def _two_cycles(theta, cfg):
    """The roots (22, 3) of a complete N = 2 solve, and its 2-cycles."""
    report = solve_periodic(theta, 2, cfg)
    assert report.status == "complete" and len(report.orbits) == 11
    return report.points, report.orbits


def test_a_later_tuple_of_an_orbit_that_is_not_whole_completes_it(monkeypatch):
    from cubicdyn import counting

    # theta is complex, so no conjugate tuple stands in.  The batch first
    # yields the 2-cycles, one of them with x_1 off by 1e-3, so only its x_0
    # is admitted; the true tuple of that cycle, yielded later, has its x_0
    # on the cycle and still supplies x_1
    cfg = SolverConfig(seeds=200, rng_seed=5)
    x, orbits = _two_cycles(_COMPLEX_THETA, cfg)
    tuples = np.array([x[o].ravel() for o in orbits])
    lagging = tuples.copy()
    lagging[0, 3:] += 1e-3
    calls = _record_newton_batch(monkeypatch, lambda *_: iter([lagging, tuples[:1]]))
    report = solve_periodic(_COMPLEX_THETA, 2, cfg)
    assert report.status == "complete" and report.found == 22
    points = report.points
    assert np.abs(points - x[orbits[0][1]]).max(axis=1).min() == 0
    # one batch, as wide as _KAPPA_REF's first at N = 2
    assert calls == [(2, _first_width(2))]


@pytest.mark.parametrize("one_per_conjugate_pair", [False, True, "repeated"])
def test_whole_tuples_complete_a_solve_from_one_tuple_per_cycle(monkeypatch, one_per_conjugate_pair):
    from cubicdyn import counting

    # every seed chunk is answered by one converged tuple per 2-cycle, or
    # per pair of conjugate 2-cycles, or ("repeated") by every 2-cycle
    # twice and once reversed, all in one yield: the whole tuples and
    # their conjugates give all 22 roots in 11 orbits, each admitted once,
    # and no Newton batch runs but on seed chunks
    kappa = random_offwall_kappa(np.random.default_rng(5))
    cfg = SolverConfig(seeds=200, rng_seed=5)
    x, orbits = _two_cycles(rh_params(kappa), cfg)
    chosen = orbits
    if one_per_conjugate_pair == "repeated":
        chosen = orbits + orbits + [o[::-1] for o in orbits]
    elif one_per_conjugate_pair:
        orbit_of = {i: k for k, o in enumerate(orbits) for i in o}
        partner = counting._cluster_index(x, x.conj(), cfg.dedup_radius)
        chosen = []
        for o in orbits:
            if orbits[orbit_of[partner[o[0]]]] not in chosen:
                chosen.append(o)
        assert len(chosen) < len(orbits)
    seed_chunk = _record_seed_chunks(monkeypatch, np.array([x[o].ravel() for o in chosen]))
    report = solve_for_kappa(kappa, 2, cfg)
    assert report.status == "complete" and report.found == 22 and len(report.orbits) == 11
    assert seed_chunk and all(seed_chunk)


def test_an_unconverged_point_of_a_tuple_is_not_reported(monkeypatch):
    # theta is complex, so no conjugate tuple stands in: x_1 of the first
    # answered tuple is off by 1e-3, and no other tuple holds its cycle
    cfg = SolverConfig(seeds=200, rng_seed=5)
    x, orbits = _two_cycles(_COMPLEX_THETA, cfg)
    tuples = np.array([x[o].ravel() for o in orbits])
    tuples[0, 3:] += 1e-3
    _record_seed_chunks(monkeypatch, tuples)
    report = solve_periodic(_COMPLEX_THETA, 2, cfg)
    points = report.points
    assert report.found == 21 and report.status != "complete"
    assert np.abs(points - tuples[0, 3:]).max(axis=1).min() > 1e-9
    assert np.abs(points - x[orbits[0][1]]).max(axis=1).min() > 1e-6
    assert np.abs(points - x[orbits[0][0]]).max(axis=1).min() == 0
    # the lone x_0 is an orbit record of its own, still of period 2
    lone = np.flatnonzero(np.abs(points - x[orbits[0][0]]).max(axis=1) == 0).tolist()
    assert len(report.orbits) == 11 and lone in report.orbits
    assert report.minimal_periods == [2] * 21


def test_a_partial_orbit_is_one_record(monkeypatch):
    from cubicdyn import counting

    # theta is complex, so no conjugate tuple stands in: every batch yields
    # one 3-cycle (x_0, x_1, x_2) with x_1 off by 1e-3.  x_0 and x_2 are
    # admitted, and c^2(x_0) = x_2 ties them into one orbit of period 3
    radius = SolverConfig.dedup_radius
    report = solve_periodic(_COMPLEX_THETA, 3, SolverConfig(seeds=20000))
    x = report.points
    t = _theta_array(_COMPLEX_THETA)
    image = counting._cluster_index(x, np.array(coxeter_apply(x.T, t)).T, radius)
    cycle = [0, image[0], image[image[0]]]
    lagging = x[cycle].ravel()[None]
    lagging[0, 3:6] += 1e-3
    _record_newton_batch(monkeypatch, lambda *_: iter([lagging]))
    partial = solve_periodic(_COMPLEX_THETA, 3, SolverConfig(seeds=1))
    points = partial.points
    assert partial.found == 2 and partial.status == "saturated"
    assert np.array_equal(points, x[[cycle[0], cycle[2]]])
    assert partial.orbits == [[0, 1]] and partial.minimal_periods == [3, 3]


@pytest.mark.parametrize("lead", [1, 4, None])
def test_line_search_takes_the_first_improving_halving(monkeypatch, lead):
    from cubicdyn import counting

    # residual |x1| against rnorm 1: point 0 improves at once, point 1 at
    # scale 2^-2 (|1 - 6/4| = 1/2) but not at 2^-1 (|1 - 3| = 2), and point 2
    # never does and is reported stalled.  Each trial runs on the points
    # still failing, so the `lead` points put ahead of them (none for None),
    # which improve at once like point 0, join no later trial
    calls = []

    def residual(x, t, n):
        calls.append(x.shape[1])
        return np.abs(x[0])

    monkeypatch.setattr(counting, "_system_residual", residual)
    k = lead or 0
    x = np.array([[1.0] * k + [1.0, 1.0, 1.0], [0.0] * (k + 3), [2.0] * k + [5.0, 6.0, 7.0]], dtype=complex)
    dx = np.array([[-1.0] * k + [-1.0, -6.0, 1.0], [1.0] * (k + 3), [0.0] * (k + 3)], dtype=complex)
    xnew, improved = counting._line_search(x, dx, np.ones(k + 3), None, 1)
    assert improved.tolist() == [True] * k + [True, True, False]
    assert list(xnew[1, k:k + 2]) == [1.0, 2.0**-2]
    assert list(xnew[0]) == [0.0] * (k + 1) + [-0.5, 2.0]
    assert list(xnew[2, k:k + 2]) == [5.0, 6.0]
    assert calls == [k + 3, 2, 2]


def test_line_search_gives_each_point_the_same_bits_alone_as_in_its_batch():
    from cubicdyn import counting

    kappa = random_offwall_kappa(np.random.default_rng(7))
    t = _theta_array(rh_params(kappa))
    steps = []
    search = counting._line_search

    def record(x, dx, rnorm, t, n):
        steps.append((x, dx, rnorm))
        return search(x, dx, rnorm, t, n)

    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    seeds = counting._make_tuples(384, 3, t, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_line_search", record)
        mp.setattr(SolverConfig, "newton_max_iter", 10)
        list(counting._newton_batch(seeds, t, 3, SolverConfig(), []))
    assert len(steps) == 10
    with np.errstate(over="ignore", invalid="ignore"):
        for x, dx, rnorm in steps:
            batch, batch_improved = search(x, dx, rnorm, t, 3)
            alone = [search(x[:, p:p + 1], dx[:, p:p + 1], rnorm[p:p + 1], t, 3) for p in range(x.shape[1])]
            bits = [np.ascontiguousarray(v).view(np.uint64) for v in (batch, np.concatenate([a for a, _ in alone], axis=1))]
            assert np.array_equal(*bits)
            assert np.array_equal(batch_improved, np.concatenate([i for _, i in alone]))


def test_line_search_reports_a_point_no_halving_improves_as_stalled(monkeypatch):
    from cubicdyn import counting

    # residual |x1| against rnorm 1: point 0 stays at 1 under every trial,
    # point 1 grows along its step and point 2 would improve at 2^-3 only.
    # A residual equal to rnorm is no improvement, and all three trials are
    # made
    calls = []

    def residual(x, t, n):
        calls.append(x.shape[1])
        return np.abs(x[0])

    monkeypatch.setattr(counting, "_system_residual", residual)
    x = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    dx = np.array([[0.0, 1.0, -12.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], dtype=complex)
    xnew, improved = counting._line_search(x, dx, np.ones(3), None, 1)
    assert improved.tolist() == [False, False, False]
    assert xnew[0, 2] == -11.0 and xnew[2, 2] == 1.0
    assert calls == [3] * 3


def test_newton_batch_drops_stalled_tuples(monkeypatch):
    from cubicdyn import counting

    # a full chunk from the solver's stream at kappa_ref, N = 3: 115 tuples
    # stall, none of the line search's trials lowering their merit, so once
    # they leave the batch it ends long before newton_max_iter (100), after
    # 52 steps
    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(7))))
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    seeds = counting._make_tuples(counting._SEED_CHUNK, 3, t, rng)
    normal = counting._normal_equations
    calls = []

    def record(x, t, n):
        calls.append(x.shape[1])
        return normal(x, t, n)

    monkeypatch.setattr(counting, "_normal_equations", record)
    out = np.concatenate(list(counting._newton_batch(seeds, t, 3, SolverConfig(), [])))
    assert out.shape == (1933, 9)
    assert len(calls) <= 60


def test_newton_batch_orders_by_iteration_then_seed():
    from cubicdyn import counting

    kappa = random_offwall_kappa(np.random.default_rng(3))
    t = _theta_array(rh_params(kappa))
    cfg = SolverConfig(seeds=1500)
    found = np.concatenate(list(counting._newton_batch(
        counting._make_tuples(1500, 2, t, np.random.default_rng(0)), t, 2, cfg, [])))[:, :3]
    roots = []
    for x in found:
        if all(np.abs(x - r).max() > 1e-3 for r in roots):
            roots.append(x)
    assert len(roots) >= 4
    r0, r1, r2, r3 = roots[:4]
    # r1 and r3 converge at the first iteration, r2 + 1e-8 before r0 + 1e-4;
    # each tuple's x_1 is the image of the unperturbed root
    x0 = np.stack([r0 + 1e-4, r1, r2 + 1e-8, r3], axis=1)
    x1 = np.array(coxeter_apply(np.stack([r0, r1, r2, r3], axis=1), t))
    out = np.concatenate(list(counting._newton_batch(np.concatenate([x0, x1]), t, 2, cfg, [])))
    assert out.shape == (4, 6)
    out = out[:, :3]
    assert np.array_equal(out[0], r1) and np.array_equal(out[1], r3)
    assert np.abs(out[2] - r2).max() < 1e-7 and np.abs(out[3] - r0).max() < 1e-7


# The reference solves, each complete at per_count_closed(N):
# (kappa, rng_seed, N) -> (Newton batches, Newton steps, tuple-steps).  An
# integer kappa k is random_offwall_kappa(default_rng(k)), 7 is _KAPPA_REF
# and "far" _KAPPA_FAR; rng_seed None runs the default config, the rest
# seeds=20000.  A batch is (period, seed tuples, tuples joining it at its
# start); the steps, divisor solves included, are at most as measured, and
# the tuple-steps (tuples times steps) at most 4 % more.
REFERENCE_SOLVES = {
    (7, 0, 2): ([(2, 176, 0)], 11, 1460),
    (7, 0, 3): ([(3, 192, 0)], 8, 1550),
    # 652 seeds, 8 for every 4 roots, take one step more than 1304 of 16 per
    # orbit did, and 42 % fewer tuple-steps
    (7, 0, 4): ([(2, 176, 0), (4, 652, 6)], 21, 7500),
    (7, None, 4): ([(2, 176, 0), (4, 652, 6)], 21, 7500),
    # the period-2 roots that lag at period 4 are refined in the first
    # chunk, not left to be found again from period-4 seeds, which would
    # take more chunks; that chunk finds every other root
    (7, 7, 4): ([(2, 176, 0), (4, 652, 4)], 20, 7550),
    # roots past _KAPPA_REF's seed radius, in the theta-scaled box
    ("far", 6, 4): ([(2, 176, 0), (4, 652, 4)], 20, 8040),
    # the whole tuples of the first chunk and their conjugates hold every
    # root, so no later chunk has to converge to a root again
    (7, 0, 5): ([(5, 2048, 0)], 12, 21100),
    (1, 1, 5): ([(5, 2048, 0)], 12, 21600),
    (2, 2, 5): ([(5, 2048, 0)], 11, 20450),
    # still complete, but each takes a batch more than the rest: a second
    # period-4 batch, and a second period-2 batch
    (6, 6, 4): ([(2, 176, 0), (4, 652, 6), (4, 1304, 0)], 32, 17290),
    (10, 10, 4): ([(2, 176, 0), (2, 352, 0), (4, 652, 6)], 35, 10890),
}


def _first_width(N):
    """The first period-N seed batch's tuples, from _KAPPA_REF's row."""
    return next(w for n, w, _ in REFERENCE_SOLVES[7, 0, N][0] if n == N)


@lru_cache(maxsize=None)
def _reference_solve(kappa, rng_seed, N):
    """A REFERENCE_SOLVES row's report, solved once per session, with its
    _newton_batch calls as (period, tuples, joined) and _normal_equations
    widths; the points are shared and read-only, and counting is unpatched."""
    from cubicdyn import counting

    newton, normal = counting._newton_batch, counting._normal_equations
    batches, widths = [], []

    def record_batch(x, t, n, cfg, joining):
        batches.append((n, x.shape[1], sum(j.shape[1] for j in joining)))
        return newton(x, t, n, cfg, joining)

    def record_step(x, t, n):
        widths.append(x.shape[1])
        return normal(x, t, n)

    kappa = _KAPPA_FAR if kappa == "far" else random_offwall_kappa(np.random.default_rng(kappa))
    cfg = () if rng_seed is None else (SolverConfig(seeds=20000, rng_seed=rng_seed),)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_newton_batch", record_batch)
        mp.setattr(counting, "_normal_equations", record_step)
        report = solve_for_kappa(kappa, N, *cfg)
    report.points.flags.writeable = False
    return report, batches, widths


@pytest.mark.parametrize("kappa, rng_seed, N", list(REFERENCE_SOLVES))
def test_a_reference_solve_runs_its_batches_within_its_steps(kappa, rng_seed, N):
    batches, steps, tuple_steps = REFERENCE_SOLVES[kappa, rng_seed, N]
    report, calls, widths = _reference_solve(kappa, rng_seed, N)
    assert report.status == "complete" and report.found == per_count_closed(N)
    assert calls == batches
    assert len(widths) <= steps and sum(widths) <= tuple_steps


def test_the_reference_n3_solve_stops_within_its_first_batch():
    # 8 tuples for each of the 24 orbits, left at the closed form
    report, calls, widths = _reference_solve(7, 0, 3)
    assert report.found == 72 and [n for n, _, _ in calls] == [3] and max(widths) <= _first_width(3)


def test_the_reference_n4_solve_refines_its_lagging_points_in_the_running_batch():
    # lagging orbit images join the one period-4 batch and are refined there
    report, calls, widths = _reference_solve(7, 0, 4)
    assert report.found == 326 and [n for n, _, _ in calls] == [2, 4]
    assert sum(widths) <= REFERENCE_SOLVES[7, 0, 4][2]


@pytest.mark.parametrize("N, steps", [(N, REFERENCE_SOLVES[7, 0, N][1]) for N in (3, 4, 5)])
def test_the_reference_solves_take_few_newton_steps_from_the_theta_scaled_box(N, steps):
    report, _, widths = _reference_solve(7, 0, N)
    assert report.found == per_count_closed(N) and len(widths) <= steps


def _moment_residual(points, theta, N):
    """The largest relative residual of the exact moments of the roots of c^N
    over points: sum x_i = a_N theta_i (i = 1, 2, 3) and sum x1 x2 = b_N theta_3,
    with a_N = F_3N/2 + (-1)^N and b_N = L_3N - F_3N + 2(-1)^N."""
    fib = [0, 1]
    while len(fib) < 3 * N + 2:
        fib.append(fib[-1] + fib[-2])
    F, L, sign = fib[3 * N], fib[3 * N - 1] + fib[3 * N + 1], (-1) ** N
    a, b = F // 2 + sign, L - F + 2 * sign
    got = [*points.sum(axis=0), (points[:, 0] * points[:, 1]).sum()]
    want = [a * t for t in theta[:3]] + [b * theta[2]]
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_the_reference_roots_have_the_exact_moments(N):
    # the roots of a complete report, divisor periods included, sum to the
    # moments of the whole fibre of c^N = id; a missing root moves them
    theta = rh_params(_KAPPA_REF).as_tuple()
    points = _reference_solve(7, 0, N)[0].points
    assert _moment_residual(points, theta, N) <= 1e-9
    if N == 4:
        for i in range(len(points)):
            assert _moment_residual(np.delete(points, i, axis=0), theta, N) > 1e-9, i


def test_period_two_roots_that_lag_at_period_four_join_the_first_chunk():
    # period-2 roots that fail the tests at period 4 join its first batch
    calls = _reference_solve(7, 0, 4)[1]
    assert calls[1][:2] == (4, _first_width(4)) and calls[1][2] > 0


def test_every_map_call_of_a_solve_takes_theta_as_python_scalars(monkeypatch):
    from cubicdyn import counting, surface

    # the solver hands theta to surface's maps as a tuple of four Python
    # complex, never as a numpy array, which each call would turn into a
    # tuple of numpy scalars; the N = 4 solve runs the divisor search, the
    # lagging tuples that join a batch and the final pass
    thetas = {}

    def checked(name, fn):
        def call(*args, **kwargs):
            theta = args[2] if name == "sigma_apply" else args[1]
            thetas.setdefault(name, set()).add((type(theta), *map(type, theta)))
            return fn(*args, **kwargs)
        return call

    for name in ("sigma_apply", "cubic_eval", "cubic_gradient", "coxeter_apply", "coxeter_jacobian"):
        fn = getattr(surface, name)
        monkeypatch.setattr(surface, name, checked(name, fn))
        if hasattr(counting, name):
            monkeypatch.setattr(counting, name, checked(name, fn))
    report = solve_for_kappa(_KAPPA_REF, 4, SolverConfig(seeds=20000))
    assert report.status == "complete"
    assert set(thetas) == {"sigma_apply", "cubic_eval", "cubic_gradient", "coxeter_apply", "coxeter_jacobian"}
    assert all(kinds == {(tuple, complex, complex, complex, complex)} for kinds in thetas.values()), thetas


def test_a_lagging_point_of_a_converged_tuple_is_admitted_from_the_same_batch(monkeypatch):
    from cubicdyn import counting

    # theta is complex, so no conjugate stands in.  The one seed batch
    # holds the 2-cycles as tuples, with x_1 of the first moved past the
    # gate: every x_0 converges as offered, and the lagging x_1 joins the
    # running batch as the tuple (x_1, c(x_1)), is refined there and is
    # admitted, with no second batch
    cfg = SolverConfig(seeds=200, rng_seed=5)
    x, orbits = _two_cycles(_COMPLEX_THETA, cfg)
    tuples = np.array([x[o].ravel() for o in orbits])
    tuples[0, 3:] *= 1 + 1e-9
    t = _theta_array(_COMPLEX_THETA)
    assert not counting._converged(tuples[0, 3:, None], t, 2, cfg)[0]
    monkeypatch.setattr(counting, "_make_tuples", lambda count, n, t, rng: tuples.T.copy())
    calls = _record_newton_batch(monkeypatch)
    report = solve_periodic(_COMPLEX_THETA, 2, cfg)
    assert report.status == "complete" and report.found == 22
    assert calls == [(2, 11)]
    points = report.points
    assert np.abs(points - x[orbits[0][1]]).max(axis=1).min() < 1e-9


def test_a_singular_theta_stops_at_the_closed_form_and_raises():
    # S(0) is singular, and its roots run past the closed form 22 within
    # the first batch: the search stops there, and no report is made
    with pytest.raises(ValueError, match=r"roots of period 2 exceed the closed form 22"):
        solve_periodic((0, 0, 0, 0), 2, SolverConfig(seeds=300))


def test_a_batch_left_early_raises_no_warning_and_restores_the_errstate():
    from cubicdyn import counting

    # a nan tuple and tuples far past the escape radius overflow wherever
    # the batch does not silence them; the silencing must not outlast a
    # yield, and the batch is left at its first one
    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(1))))
    seeds = counting._make_tuples(200, 2, t, np.random.default_rng(0))
    seeds[:, 7] = np.nan
    seeds[:, 11:20] *= 1e50
    with pytest.warns(RuntimeWarning):
        coxeter_apply(seeds[:3, 11:20], t, 2)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = counting._newton_batch(seeds, t, 2, SolverConfig(), [])
        assert len(next(batch)) and np.geterr() == before
        batch.close()
    assert np.geterr() == before


def _dense(m):
    """The all-true pattern, under which _cholesky_solve is a dense solve."""
    return np.ones((m, m), dtype=bool)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cholesky_solve_matches_numpy_solve(n):
    from cubicdyn import counting

    rng = np.random.default_rng(n)
    m, count = 3 * n, 100
    jac = rng.normal(size=(count, 2 * m, m)) + 1j * rng.normal(size=(count, 2 * m, m))
    a = np.conj(jac.transpose(0, 2, 1)) @ jac
    y = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
    want = np.linalg.solve(a, y[:, :, None])[:, :, 0]
    cols, z = np.ascontiguousarray(a.transpose(1, 2, 0)), y.T.copy()
    assert counting._cholesky_solve(cols, z, _dense(m)).all()
    assert (np.abs(z.T - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)).all()


def test_cholesky_solve_flags_bad_systems_and_solves_each_other_one_as_alone():
    from cubicdyn import counting

    rng = np.random.default_rng(0)
    m, count = 6, 40
    jac = rng.normal(size=(count, 2 * m, m)) + 1j * rng.normal(size=(count, 2 * m, m))
    a = np.ascontiguousarray((np.conj(jac.transpose(0, 2, 1)) @ jac).transpose(1, 2, 0))
    y = rng.normal(size=(m, count)) + 1j * rng.normal(size=(m, count))
    a[m - 1, m - 1, 3] = -1  # indefinite, found at the last pivot
    a[2, 1, 7] = a[1, 2, 7] = np.nan
    z = y.copy()
    ok = counting._cholesky_solve(a.copy(), z, _dense(m))
    assert np.flatnonzero(~ok).tolist() == [3, 7]
    assert np.isnan(z[:, [3, 7]]).all()
    for k in np.flatnonzero(ok):
        alone = y[:, k:k + 1].copy()
        assert counting._cholesky_solve(a[:, :, k:k + 1].copy(), alone, _dense(m)).all()
        assert np.array_equal(alone.view(np.uint64), z[:, k:k + 1].view(np.uint64))


def _shooting_systems(n, count):
    """The shifted normal equations (a, -J^H r) of count period-n seed
    tuples at the reference kappa, as _newton_step solves them."""
    from cubicdyn import counting

    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(7))))
    x = counting._make_tuples(count, n, t, np.random.default_rng(n))
    a, jhr, _ = counting._normal_equations(x, t, n)
    shift = 1e-14 * np.diagonal(a).real.max(axis=1) + 1e-30
    for r in range(3 * n):
        a[r, r] += shift
    return a, -jhr


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_pattern_solve_of_a_shooting_system_equals_the_dense_one_bit_for_bit(n):
    from cubicdyn import counting

    # one system is indefinite and one holds a nan: both are flagged as
    # by the dense solve, and every other system comes out the same bit
    # for bit, in the batch and alone
    m = 3 * n
    a, y = _shooting_systems(n, 60)
    a[m - 1, m - 1, 3] = -1
    a[m - 1, m - 2, 7] = a[m - 2, m - 1, 7] = np.nan
    pattern = counting._cholesky_pattern(n)
    dense_a, dense_z = a.copy(), y.copy()
    dense_ok = counting._cholesky_solve(dense_a, dense_z, _dense(m))
    got_a, got_z = a.copy(), y.copy()
    ok = counting._cholesky_solve(got_a, got_z, pattern)
    assert np.flatnonzero(~ok).tolist() == np.flatnonzero(~dense_ok).tolist() == [3, 7]
    assert np.isnan(got_z[:, [3, 7]]).all()
    assert np.array_equal(got_z.view(np.uint64), dense_z.view(np.uint64))
    lower = np.tri(m, dtype=bool)
    assert np.array_equal(got_a[lower].view(np.uint64), dense_a[lower].view(np.uint64))
    for k in range(0, 60, 7):
        if ok[k]:
            alone = y[:, k:k + 1].copy()
            assert counting._cholesky_solve(a[:, :, k:k + 1].copy(), alone, pattern).all()
            assert np.array_equal(alone.view(np.uint64), got_z[:, k:k + 1].view(np.uint64))


@pytest.mark.parametrize("n, updates", [(1, 4), (2, 35), (3, 98), (4, 183), (5, 268), (6, 353), (7, 438)])
def test_the_symbolic_pattern_covers_the_numeric_factor(n, updates):
    from cubicdyn import counting

    # every entry of the dense factor of a shooting system that is not
    # zero lies in the pattern, and the pattern's column updates number
    # C(3n + 1, 3) while L is dense (n <= 2) and 85 n - 157 from n = 3 on.
    # At n = 3, 4 and 6, L has 42, 66 and 114 entries on and below the
    # diagonal, against 45, 69 and 117 from J^H J's whole 3x3 blocks
    m = 3 * n
    pattern = counting._cholesky_pattern(n)
    assert np.array_equal(pattern, np.tril(pattern)) and pattern.diagonal().all()
    a, y = _shooting_systems(n, 60)
    assert counting._cholesky_solve(a, y, _dense(m)).all()
    assert not ((a != 0).any(axis=2) & np.tri(m, dtype=bool) & ~pattern).any()
    below = [np.flatnonzero(pattern[j + 1:, j]) + j + 1 for j in range(m)]
    assert sum(np.count_nonzero(pattern[i:, j]) for j in range(m) for i in below[j]) == updates
    assert n < 3 or updates == 85 * n - 157
    assert (n <= 2) == (pattern.sum() == m * (m + 1) // 2)
    assert n < 3 or pattern.sum() == 24 * n - 30


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_cholesky_schedule_is_built_once_per_pattern(n):
    from cubicdyn import counting

    # the schedule lists the updates of column i as the rows of below[j]
    # from i on, for each j of left[i], as the loops took them when they
    # rebuilt both lists on every call; a solve under the same pattern, or
    # under an equal copy of it, builds no new schedule
    m = 3 * n
    pattern = counting._cholesky_pattern(n)
    a, y = _shooting_systems(n, 8)
    counting._cholesky_solve(a.copy(), y.copy(), pattern)
    built = counting._cholesky_schedule.cache_info().misses
    updates, below, left = counting._cholesky_schedule(m, pattern.tobytes())
    assert list(below) == [tuple(np.flatnonzero(pattern[j + 1:, j]) + j + 1) for j in range(m)]
    assert list(left) == [tuple(np.flatnonzero(pattern[i, :i])) for i in range(m)]
    for i in range(m):
        assert updates[i] == tuple((j, below[j][below[j].index(i):]) for j in left[i])
    counting._cholesky_solve(a.copy(), y.copy(), pattern.copy())
    assert counting._cholesky_schedule.cache_info().misses == built


def _cholesky_solve_by_division(a, y, pattern):
    """_cholesky_solve with each column divided by its real pivot L[j, j]
    in place of multiplied by its reciprocal: the reference it must agree
    with."""
    m = len(a)
    ok = np.ones(a.shape[2], dtype=bool)
    diag = np.diagonal(a).real.T
    col = [list(a[:, j]) for j in range(m)]
    z = list(y)
    below = [(np.flatnonzero(pattern[j + 1:, j]) + j + 1).tolist() for j in range(m)]
    left = [np.flatnonzero(pattern[i, :i]).tolist() for i in range(m)]
    for i in range(m):
        ci, d = col[i], diag[i]
        for j in left[i]:
            cj, u, rows = col[j], ci[j], below[j]
            for r in rows[rows.index(i):]:
                np.subtract(ci[r], cj[r] * u, out=ci[r])
        good = (d > 0) & (d < np.inf)
        ok &= good
        ci[i][...] = np.sqrt(np.where(good, d, 1))
        for r in below[i]:
            np.divide(ci[r], d, out=ci[r])
            np.conj(ci[r], out=col[r][i])
    for j in range(m):
        np.divide(z[j], diag[j], out=z[j])
        for r in below[j]:
            np.subtract(z[r], col[j][r] * z[j], out=z[r])
    for j in reversed(range(m)):
        np.divide(z[j], diag[j], out=z[j])
        for r in left[j]:
            np.subtract(z[r], col[j][r] * z[j], out=z[r])
    y[:, ~ok] = np.nan
    return ok


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_reciprocal_pivots_solve_as_division_by_the_pivots(n):
    from cubicdyn import counting

    # the factor and the solutions equal the division's, where == counts
    # -0 and 0 as equal, in the batch and with each system alone; the
    # indefinite and the nan system are flagged as by the division
    m = 3 * n
    a, y = _shooting_systems(n, 60)
    a[m - 1, m - 1, 3] = -1
    a[m - 1, m - 2, 7] = a[m - 2, m - 1, 7] = np.nan
    pattern = counting._cholesky_pattern(n)
    want_a, want_z = a.copy(), y.copy()
    want_ok = _cholesky_solve_by_division(want_a, want_z, pattern)
    got_a, got_z = a.copy(), y.copy()
    ok = counting._cholesky_solve(got_a, got_z, pattern)
    assert np.flatnonzero(~ok).tolist() == np.flatnonzero(~want_ok).tolist() == [3, 7]
    assert np.isnan(got_z[:, [3, 7]]).all()
    assert np.array_equal(got_z, want_z, equal_nan=True)
    lower = np.tri(m, dtype=bool)
    assert np.array_equal(got_a[lower], want_a[lower], equal_nan=True)
    for k in np.flatnonzero(ok):
        alone = y[:, k:k + 1].copy()
        assert counting._cholesky_solve(a[:, :, k:k + 1].copy(), alone, pattern).all()
        assert np.array_equal(alone, want_z[:, k:k + 1])


def _letter_system(x, t, n):
    """The letter residual of the tuples x, (3n, M) columns, written out
    coordinate by coordinate: sigma_3, sigma_2 and sigma_1 take x_k = p to
    x_{k+1 mod n} = q, one slot each, then f(x_0)."""
    res = np.empty((3 * n + 1, x.shape[1]), dtype=complex)
    for k in range(n):
        nxt = 3 * ((k + 1) % n)
        (p1, p2, p3), (q1, q2, q3) = x[3 * k:3 * k + 3], x[nxt:nxt + 3]
        res[3 * k + 2] = t[2] - p3 - p1 * p2 - q3
        res[3 * k + 1] = t[1] - p2 - p1 * q3 - q2
        res[3 * k] = t[0] - p1 - q2 * q3 - q1
    res[3 * n] = cubic_eval(x[:3], t)
    return res


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_equations_equal_a_dense_jhj(n):
    from cubicdyn import counting

    # the letter residual is quadratic in each unknown, so a central
    # difference of unit step is a column of its Jacobian up to rounding
    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(2))))
    x = counting._make_tuples(40, n, t, np.random.default_rng(n))
    a, jhr, res = counting._normal_equations(x, t, n)
    want = _letter_system(x, t, n)
    assert np.array_equal(res, want)
    jac = np.empty((x.shape[1], 3 * n + 1, 3 * n), dtype=complex)
    for c in range(3 * n):
        step = np.zeros((3 * n, 1))
        step[c] = 1
        jac[:, :, c] = ((_letter_system(x + step, t, n) - _letter_system(x - step, t, n)) / 2).T
    jh = np.conj(jac.transpose(0, 2, 1))
    jhj, jhr_dense = jh @ jac, (jh @ want.T[:, :, None])[:, :, 0]
    scale = np.abs(jhj).max(axis=(1, 2))
    assert (np.abs(a.transpose(2, 0, 1) - jhj).max(axis=(1, 2)) <= 1e-13 * scale).all()
    assert (np.abs(jhr.T - jhr_dense).max(axis=1) <= 1e-13 * np.abs(jhr_dense).max(axis=1)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_letter_residual_vanishes_along_an_orbit_segment(n):
    from cubicdyn import counting

    # on (x, c(x), ..., c^{n-1}(x)) each letter lands exactly on the next
    # point's coordinate, as coxeter_apply computes it, so every block but
    # the closing one, c(x_{n-1}) against x_0, is 0.  The seeds are not
    # periodic: no row of the closing block is 0, and its sigma_3 row is
    # c(x_{n-1})_3 - x_{0,3} bit for bit
    t = _theta_array(rh_params(random_offwall_kappa(np.random.default_rng(2))))
    x = counting._make_tuples(50, 1, t, np.random.default_rng(n))
    tuples = counting._orbit_tuples(x.T, t, n)
    res = counting._letter_residual(tuples, t, n)
    assert not res[:3 * n - 3].any()
    last = tuples[3 * n - 3:]
    assert np.array_equal(res[3 * n - 1], np.array(coxeter_apply(last, t))[2] - tuples[2])
    assert np.abs(res[3 * n - 3:3 * n]).min(axis=0).all()
    assert np.array_equal(res[3 * n], cubic_eval(tuples[:3], t))


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_cluster_index_matches_the_linear_scan(chunk):
    """The sorted-window search equals the scan over all pairs, whether the
    points come in one call (None) or in calls of `chunk` points each."""
    from cubicdyn import counting

    def search(reps, x, radius):
        step = chunk or max(len(x), 1)
        parts = [counting._cluster_index(reps, x[i:i + step], radius) for i in range(0, len(x), step)]
        return np.concatenate(parts or [counting._cluster_index(reps, x, radius)])

    def scan(reps, x, radius):
        for i, rep in enumerate(reps):
            if np.abs(x - rep).max() <= radius * (1 + np.abs(rep).max()):
                return i
        return -1

    rng = np.random.default_rng(0)
    radius = 0.05
    reps = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    reps[7] = reps[3] + 0.02  # overlapping clusters: the first one wins
    near = reps[rng.integers(0, 30, size=400)]
    x = near + radius * (1 + np.abs(near).max(axis=1))[:, None] * rng.uniform(-1.5, 1.5, size=(400, 3))
    nan = x[:20].copy()
    nan[::2, 0] = np.nan
    nan[1::2, 2] = np.nan
    wide = reps.copy()
    wide[11] *= 1e6  # a scale of 5e4 puts every representative in every window
    cases = [
        (reps, x),
        (reps, x[:0]),
        (reps, np.concatenate([nan, x[20:40]])),
        (np.concatenate([reps, reps]), np.repeat(reps, 200, axis=0)),  # each point has two exact copies
        (wide, np.concatenate([x, wide[11:12] * (1 + 1e-8)])),
        (reps[:0], x),
    ]
    for r, p in cases:
        assert search(r, p, radius).tolist() == [scan(r, q, radius) for q in p]
    want = [scan(reps, p, radius) for p in x]
    assert -1 in want and 3 in want and len(set(want)) > 10


def test_an_index_merged_yield_by_yield_matches_like_a_fresh_one():
    from cubicdyn import counting

    # representatives arrive in chunks, one empty and some repeating
    # earlier keys: the merged index stays sorted by Re x_1, and matching
    # through it gives what a fresh sort gives
    rng = np.random.default_rng(1)
    radius = 0.05
    reps = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))
    reps[40:50] = reps[:10] + 0.01j  # the same Re x_1 as earlier roots
    near = reps[rng.integers(0, 60, size=500)]
    x = near + radius * (1 + np.abs(near).max(axis=1))[:, None] * rng.uniform(-1.5, 1.5, size=(500, 3))
    index = counting._sort_reps(reps[:0], radius)
    for lo, hi in [(0, 7), (7, 7), (7, 30), (30, 31), (31, 60)]:
        index = counting._insert_reps(index, reps[lo:hi], radius)
        scale, order, key = index
        assert sorted(order) == list(range(hi)) and np.array_equal(key, reps[order, 0].real)
        assert np.all(np.diff(key) >= 0)
        assert np.array_equal(scale, counting._sort_reps(reps[:hi], radius)[0])
        got = counting._cluster_index(reps[:hi], x, radius, index)
        assert np.array_equal(got, counting._cluster_index(reps[:hi], x, radius))
    assert (got >= 40).any() and (got == -1).any()


def test_solve_n4_with_the_default_config_is_complete(monkeypatch):
    seed_chunk = _record_seed_chunks(monkeypatch)
    report = solve_for_kappa(_KAPPA_REF, 4)
    assert report.status == "complete"
    assert report.found == 326 == len(report.points)
    assert sorted(report.minimal_periods) == [2] * 22 + [4] * 304
    # the period-2 solve comes first; its 22 roots are absorbed as period-4
    # tuples and head the report (REFERENCE_SOLVES pins the batches).  Every
    # Newton batch runs on a seed chunk: the orbits come whole from the
    # tuples, not from a second batch on images
    assert seed_chunk and all(seed_chunk)
    assert report.minimal_periods[0] == 2


@pytest.mark.parametrize("kappa", [_KAPPA_REF, _KAPPA_FAR])
def test_the_seeds_lie_in_the_theta_scaled_box(kappa):
    from cubicdyn import counting

    t = _theta_array(rh_params(kappa))
    r = counting._seed_radius(t)
    assert r == 2 + np.sqrt(np.abs(t).max()) / 2
    x = counting._make_tuples(1000, 4, t, np.random.default_rng(0))
    assert x.shape == (12, 1000)
    # every coordinate of every seed spans the box, real and imaginary
    # parts alike
    for v in (x.real, x.imag):
        assert (np.abs(v).max(axis=1) <= r).all() and (np.abs(v).max(axis=1) > 0.99 * r).all()


def test_the_seed_radius_grows_with_theta():
    from cubicdyn import counting

    ref, far = (_theta_array(rh_params(k)) for k in (_KAPPA_REF, _KAPPA_FAR))
    assert round(counting._seed_radius(ref), 2) == 2.77 and round(counting._seed_radius(far), 2) == 4.08
    radii = [counting._seed_radius(s * far) for s in (0, 0.01, 0.1, 1, 10, 100)]
    assert radii[0] == 2 and all(a < b for a, b in zip(radii, radii[1:]))


def test_a_kappa_whose_roots_lie_outside_the_reference_box_completes_from_one_period_four_batch():
    from cubicdyn import counting

    # its REFERENCE_SOLVES row pins the one period-4 batch
    report = _reference_solve("far", 6, 4)[0]
    assert report.status == "complete" and report.found == 326
    assert np.abs(report.points).max() > counting._seed_radius(_theta_array(rh_params(_KAPPA_REF)))


def test_each_divisor_period_is_solved_once(monkeypatch):
    # no tuple ever converges: each search runs saturation_batches chunks
    # of one tuple, d = 2 once (not again for d = 4), then d = 4, then N = 8;
    # d = 1 has no root to find and is skipped
    calls = _record_newton_batch(monkeypatch, lambda *_: iter(()))
    report = solve_periodic(_COMPLEX_THETA, 8, SolverConfig(seeds=1))
    assert report.status == "saturated" and report.found == 0
    batches = SolverConfig.saturation_batches
    assert calls == [(2, 1)] * batches + [(4, 1)] * batches + [(8, 1)] * batches


def test_a_divisor_root_that_fails_the_period_n_recheck_is_not_admitted(monkeypatch):
    from cubicdyn import counting

    # the first period-2 root offered at N = 4, when the period-2 roots are
    # absorbed as period-4 tuples, is made to fail the recheck on
    # Python scalars at period 4: it is not admitted, and the report holds
    # another copy of it in its place
    kappa = random_offwall_kappa(np.random.default_rng(7))
    cfg = SolverConfig(seeds=20000)
    two = _reference_solve(7, 0, 2)[0].points.tolist()
    converged = counting._converged
    calls = _record_newton_batch(monkeypatch)
    rejected = []

    def reject_once_at_four(x, t, n, cfg):
        # numpy columns pass through: only a test of one point on scalars rejects
        if n == 4 and not rejected and not isinstance(x, np.ndarray):
            rejected.append((tuple(map(complex, x)), list(calls)))
            return False
        return converged(x, t, n, cfg)

    monkeypatch.setattr(counting, "_converged", reject_once_at_four)
    report = solve_for_kappa(kappa, 4, cfg)
    (point, before), = rejected
    # offered by the divisor solve
    assert min(max(abs(a - b) for a, b in zip(p, point)) for p in two) <= cfg.dedup_radius
    assert before == [(2, _first_width(2))]
    points = list(map(tuple, report.points.tolist()))
    assert point not in points
    assert sum(max(abs(a - b) for a, b in zip(p, point)) < 1e-6 for p in points) == 1
    assert report.status == "complete" and report.found == 326


@pytest.mark.parametrize("N, by_period", [(3, {1: 0, 3: 72}), (4, {1: 0, 2: 22, 4: 304})])
def test_reference_roots_pass_a_python_scalar_recheck(N, by_period):
    # the benchmark's output check re-evaluates every root on Python
    # complex scalars, which round differently from the solver's numpy
    # columns: each root must pass there too
    theta = tuple(complex(v) for v in rh_params(_KAPPA_REF).as_tuple())
    cfg = SolverConfig()
    report = _reference_solve(7, 0, N)[0]
    assert report.status == "complete"
    periods = dict.fromkeys(by_period, 0)
    for x in map(tuple, report.points.tolist()):
        images = [x]
        for _ in range(N):
            images.append(coxeter_apply(images[-1], theta))
        assert max(abs(a - b) for a, b in zip(images[N], x)) <= cfg.newton_tol
        assert abs(cubic_eval(x, theta)) <= surface_residual_bound(x, cfg.surface_tol)
        scale = cfg.dedup_radius * (1 + max(abs(v) for v in x))
        d = next(d for d in periods if max(abs(a - b) for a, b in zip(images[d], x)) <= scale)
        periods[d] += 1
    assert periods == by_period


@pytest.fixture(scope="module")
def roots_near_the_gate():
    """The roots of the reference kappa at N = 3 and 4, each as found and
    moved by 0 to 1e-13 relative in 25 random directions: 10348 points,
    on both sides of the convergence test, as (N, theta, points) per N."""
    theta = rh_params(_KAPPA_REF)
    cases = []
    for N in (3, 4):
        rng = np.random.default_rng(11)
        x = _reference_solve(7, 0, N)[0].points
        step = rng.uniform(-1, 1, (25, *x.shape)) + 1j * rng.uniform(-1, 1, (25, *x.shape))
        rel = rng.uniform(0, 1e-13, (25, len(x), 1))
        cases.append((N, theta, np.concatenate([x, (x * (1 + rel * step)).reshape(-1, 3)])))
    return cases


def test_the_gate_on_python_scalars_decides_as_a_scalar_reevaluation(roots_near_the_gate):
    from cubicdyn import counting

    cfg = SolverConfig()
    decided = []
    for N, theta, pts in roots_near_the_gate:
        t = tuple(complex(v) for v in theta.as_tuple())
        for x in pts.tolist():
            gap = max(abs(a - b) for a, b in zip(coxeter_apply(x, t, N), x))
            bound = cfg.surface_tol * (1 + max(abs(v) for v in x) ** 3)
            want = gap < cfg.newton_tol and abs(cubic_eval(x, t)) <= bound
            assert counting._converged(x, t, N, cfg) == want
            decided.append(want)
    assert len(decided) >= 10000
    assert sum(decided) >= 1000 and len(decided) - sum(decided) >= 1000


def test_the_gate_on_columns_decides_each_point_as_alone(roots_near_the_gate):
    from cubicdyn import counting

    cfg = SolverConfig()
    for N, theta, pts in roots_near_the_gate:
        t = _theta_array(theta)
        cols = pts.T
        got = counting._converged(cols, t, N, cfg)
        gap = np.abs(np.array(coxeter_apply(cols, t, N)) - cols).max(axis=0)
        bound = cfg.surface_tol * (1 + np.abs(cols).max(axis=0) ** 3)
        assert np.array_equal(got, (gap < cfg.newton_tol) & (np.abs(cubic_eval(cols, t)) <= bound))
        assert 0 < got.sum() < len(got)
        for i in range(0, len(pts), 13):
            assert counting._converged(cols[:, i:i + 1], t, N, cfg)[0] == got[i]


@pytest.mark.parametrize("kappa_seed, rng_seed, N, closed", [(7, 0, 3, 72), (7, 0, 4, 326), (1, 1, 5, 1360),
                                                           (None, 0, 2, 22), (None, 0, 3, 72)],
                         ids=["ref-3", "ref-4", "s1-5", "complex-2", "complex-3"])
def test_complete_root_sets_are_unions_of_orbits(kappa_seed, rng_seed, N, closed):
    from cubicdyn import counting

    # c permutes the roots, and so does conjugation for real theta (every
    # real kappa); report.orbits partitions them into c-orbits whose
    # lengths are their points' minimal periods
    if kappa_seed is None:
        theta = _COMPLEX_THETA
        report = solve_periodic(theta, N, SolverConfig(seeds=20000, rng_seed=rng_seed))
    else:
        theta = rh_params(random_offwall_kappa(np.random.default_rng(kappa_seed)))
        report = _reference_solve(kappa_seed, rng_seed, N)[0]
    assert report.status == "complete" and report.found == closed
    t = _theta_array(theta)
    x = report.points
    radius = SolverConfig.dedup_radius
    image = counting._cluster_index(x, np.array(coxeter_apply(x.T, t)).T, radius)
    assert sorted(image) == list(range(closed))
    if kappa_seed is not None:
        assert sorted(counting._cluster_index(x, x.conj(), radius)) == list(range(closed))
    orbit_of = np.full(closed, -1)
    for k, o in enumerate(report.orbits):
        orbit_of[o] = k
    assert sorted(i for o in report.orbits for i in o) == list(range(closed))
    assert np.array_equal(orbit_of[image], orbit_of)
    lengths = np.array([len(o) for o in report.orbits])[orbit_of]
    assert np.array_equal(lengths, report.minimal_periods)


@pytest.mark.parametrize("s", [1, 2])
def test_n5_solves_complete_from_at_most_two_newton_batches(s):
    # REFERENCE_SOLVES pins the one batch each of these solves runs
    report = _reference_solve(s, s, 5)[0]
    assert report.status == "complete" and report.found == 1360


def test_every_survey_kappa_completes_at_n3_within_its_first_seed_batch(monkeypatch):
    # the survey: _KAPPA_REF with rng 0, and random_offwall_kappa(default_rng(100 + s))
    # with rng s for s = 1-40; every period-3 search ends in its first batch,
    # as wide as _KAPPA_REF's
    calls = _record_newton_batch(monkeypatch)
    for s in range(41):
        kappa = _KAPPA_REF if s == 0 else random_offwall_kappa(np.random.default_rng(100 + s))
        calls.clear()
        report = solve_for_kappa(kappa, 3, SolverConfig(seeds=20000, rng_seed=s))
        assert report.status == "complete" and report.found == 72, s
        assert calls == [(3, _first_width(3))], s


def test_the_first_ten_survey_kappa_complete_at_n4_within_one_period_four_batch(monkeypatch):
    # s = 1-10 of the survey at N = 4: each period-4 search ends in its first
    # batch, as wide as _KAPPA_REF's; s = 5 alone takes a second period-2
    # batch
    calls = _record_newton_batch(monkeypatch)
    first = (4, _first_width(4))
    for s in range(1, 11):
        kappa = random_offwall_kappa(np.random.default_rng(100 + s))
        calls.clear()
        report = solve_for_kappa(kappa, 4, SolverConfig(seeds=20000, rng_seed=s))
        assert report.status == "complete" and report.found == 326, s
        assert [c for c in calls if c[0] == 4] == [first], s
        assert calls[-1] == first and len(calls) == (3 if s == 5 else 2), s


def test_a_root_that_fails_the_scalar_recheck_is_not_reported(monkeypatch):
    from cubicdyn import counting

    # the first candidate passes _converged on numpy columns but is made to
    # fail the recheck on Python scalars: it drops alone, and a later
    # duplicate of it joins in its place
    bound = counting.surface_residual_bound
    rejected = []

    def reject_once(x, tol):
        # numpy columns pass through: only a test of one point on scalars rejects
        if not rejected and not isinstance(x, np.ndarray):
            rejected.append(tuple(x))
            return -1.0
        return bound(x, tol)

    monkeypatch.setattr(counting, "surface_residual_bound", reject_once)
    kappa = random_offwall_kappa(np.random.default_rng(3))
    report = solve_for_kappa(kappa, 2, SolverConfig(seeds=6000, rng_seed=2))
    assert len(rejected) == 1
    points = list(map(tuple, report.points.tolist()))
    assert rejected[0] not in points
    assert sum(max(abs(a - b) for a, b in zip(p, rejected[0])) < 1e-6 for p in points) == 1
    assert report.status == "complete" and report.found == 22


def _record_newton_batch(monkeypatch, stub=None):
    """Record the period n and the tuple count of each _newton_batch call;
    stub, if given, stands in for the solve and returns an iterable of
    (K, 3n) arrays, and takes no tuples from the list joining."""
    from cubicdyn import counting

    calls = []
    newton = stub or counting._newton_batch

    def record(x, t, n, cfg, joining):
        assert x.shape[0] == 3 * n
        calls.append((n, x.shape[1]))
        return newton(x, t, n, cfg, joining)

    monkeypatch.setattr(counting, "_newton_batch", record)
    return calls


@pytest.mark.parametrize("k", [0, 4])
def test_batches_are_one_chunk_and_stop_quiet_past_seeds(monkeypatch, k):
    from cubicdyn import counting

    # the first k batches each find one new 2-cycle and no batch after does:
    # the batches double from the first width to one chunk, and the search stops
    # once 5000 seeds are drawn and saturation_batches batches in a row were
    # quiet (k = 0: 4688 are drawn after five batches, so a sixth runs).
    # theta is complex, so no conjugate is harvested
    x, orbits = _two_cycles(_COMPLEX_THETA, SolverConfig(seeds=200, rng_seed=5))
    answers = [[x[o].ravel()[None]] for o in orbits[:k]]
    calls = _record_newton_batch(
        monkeypatch, lambda *_: iter(answers.pop(0) if answers else []))
    report = solve_periodic(_COMPLEX_THETA, 2, SolverConfig(seeds=5000))
    assert report.status == "saturated" and report.found == 2 * k
    widths = [_first_width(2) * 2**k for k in range(4)] + [counting._SEED_CHUNK] * 5
    assert calls == [(2, w) for w in widths[:max(6, 5 + k)]]


# widths: how many batches double the first width, then the full batches
@pytest.mark.parametrize("seeds, widths, N", [(20000, (4, [2048] * 9), 2),
                                              (300, (1, [300] * 4), 2),
                                              (20000, (4, [2048] * 9), 3),
                                              (20000, (2, [2048] * 9), 4)])
def test_a_quiet_search_doubles_its_batches_and_counts_the_tuples_drawn(monkeypatch, seeds, widths, N):
    # no tuple converges: the first batch is as wide as at _KAPPA_REF, 8
    # tuples for every N roots to find, the points of one orbit, and never
    # fewer than 176 (at N = 2, 22 roots); each later one holds twice as
    # many up to min(_SEED_CHUNK, seeds), and the search stops once the
    # tuples drawn reach seeds and saturation_batches batches in a row were
    # quiet: 20000 after the thirteenth, thirteenth and eleventh batch, 300
    # before the fifth quiet one.
    # At N = 4 the quiet period-2 search runs first, and is left out here
    calls = _record_newton_batch(monkeypatch, lambda *_: iter(()))
    report = solve_periodic(_COMPLEX_THETA, N, SolverConfig(seeds=seeds))
    assert report.status == "saturated" and report.found == 0
    doubled, full = widths
    assert [w for n, w in calls if n == N] == [_first_width(N) * 2**k for k in range(doubled)] + full


def test_a_search_with_no_root_to_find_runs_no_newton_batch(monkeypatch):
    # per_count_closed(1) = 0: the fixed-point search is complete before
    # any seed is drawn
    calls = _record_newton_batch(monkeypatch)
    report = solve_periodic(_COMPLEX_THETA, 1, SolverConfig())
    assert report.status == "complete" and report.found == 0
    assert calls == []


def test_solve_stops_at_the_closed_form(monkeypatch):
    from cubicdyn import counting

    calls = _record_newton_batch(monkeypatch)
    kappa = random_offwall_kappa(np.random.default_rng(3))
    report = solve_for_kappa(kappa, 2, SolverConfig(seeds=200000))
    assert report.status == "complete" and report.found == 22
    sizes = [size for _, size in calls]
    assert max(sizes) <= counting._SEED_CHUNK
    assert sum(sizes) <= 10000


def test_a_failed_solve_drops_only_the_singular_tuples(monkeypatch):
    from cubicdyn import counting

    # one system of the first step is zeroed, so it is not positive
    # definite: its tuple alone leaves the batch, and every other tuple
    # runs as before, bit for bit
    kappa = random_offwall_kappa(np.random.default_rng(3))
    t = _theta_array(rh_params(kappa))
    seeds = counting._make_tuples(200, 2, t, np.random.default_rng(0))
    monkeypatch.setattr(SolverConfig, "newton_max_iter", 30)
    cfg = SolverConfig()
    want = np.concatenate(list(counting._newton_batch(seeds, t, 2, cfg, [])))
    cholesky, search = counting._cholesky_solve, counting._line_search
    oks, searched = [], []

    def zero_one_system(a, y, pattern):
        if not oks:
            a[:, :, 5] = 0
        oks.append(cholesky(a, y, pattern))
        return oks[-1]

    def record(x, dx, rnorm, t, n):
        searched.append(x.shape[1])
        return search(x, dx, rnorm, t, n)

    monkeypatch.setattr(counting, "_cholesky_solve", zero_one_system)
    monkeypatch.setattr(counting, "_line_search", record)
    got = np.concatenate(list(counting._newton_batch(seeds, t, 2, cfg, [])))
    assert np.flatnonzero(~oks[0]).tolist() == [5]
    assert all(ok.all() for ok in oks[1:])
    assert searched[0] == len(oks[0]) - 1
    rows = [x.tobytes() for x in want]
    assert len(got) >= len(want) - 1 and all(x.tobytes() in rows for x in got)
