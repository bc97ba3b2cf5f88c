"""Tests for the exact counts, zeta function, and the numeric solver."""

import dataclasses
import warnings
from fractions import Fraction

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
from cubicdyn.params import discriminant, kappa_to_eigen, rh_params, wall_membership
from cubicdyn.surface import (
    coxeter_apply,
    coxeter_jacobian,
    cubic_eval,
    cubic_gradient,
    surface_residual_bound,
)


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
    for n in range(1, 31):
        assert per_kappa_closed(n) == per_count_closed(2 * n, "affine")


def test_per_kappa_against_float_closed_form():
    for n in range(1, 15):
        closed = (9 + 4 * np.sqrt(5)) ** n + (9 - 4 * np.sqrt(5)) ** n + 4
        assert abs(per_kappa_closed(n) - closed) < 1e-5 * closed


def test_zeta_small_coefficients():
    assert zeta_coefficients(2) == [1, 22, 405]


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

    c_sequence, zeta = counting._c_sequence, counting.zeta_coefficients
    monkeypatch.setattr(counting, "_c_sequence", lambda n: [v + (i == 3) for i, v in enumerate(c_sequence(n))])
    with pytest.raises(AssertionError, match="per_kappa vs per_6 mismatch at N=3"):
        verify_counts(5)
    monkeypatch.setattr(counting, "_c_sequence", c_sequence)
    monkeypatch.setattr(counting, "zeta_coefficients", lambda n: [v + (i == 4) for i, v in enumerate(zeta(n))])
    with pytest.raises(AssertionError, match="zeta coefficient mismatch at order 4"):
        verify_counts(5)


def test_random_offwall_kappa_certified():
    rng = np.random.default_rng(0)
    for _ in range(5):
        kappa = random_offwall_kappa(rng)
        assert kappa.is_rational()
        assert not wall_membership(kappa, mode="exact").on_wall


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
    with pytest.raises(ValueError):
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
    for (p, r) in report.points:
        assert r < cfg.newton_tol
        assert p.on_surface(theta, cfg.surface_tol)


def test_solver_determinism():
    rng = np.random.default_rng(4)
    kappa = random_offwall_kappa(rng)
    cfg = SolverConfig(seeds=3000, rng_seed=7)
    r1 = solve_for_kappa(kappa, 2, cfg)
    r2 = solve_for_kappa(kappa, 2, cfg)
    def key(pt):
        return tuple(v for z in map(complex, pt.as_tuple()) for v in (z.real, z.imag))

    x1 = sorted((p for p, _ in r1.points), key=key)
    x2 = sorted((p for p, _ in r2.points), key=key)
    x1 = [tuple(map(complex, p.as_tuple())) for p in x1]
    x2 = [tuple(map(complex, p.as_tuple())) for p in x2]
    assert len(x1) == len(x2)
    for a, b in zip(x1, x2):
        assert max(abs(u - v) for u, v in zip(a, b)) < 1e-8


def test_count_report_json():
    report = CountReport(N=2, closed_form=22)
    data = report.to_json()
    assert data["N"] == 2 and data["status"] == "partial"
    assert data["points"] == [] and data["orbits"] == []


def test_lefschetz_check_raises_on_wrong_trace(monkeypatch):
    from cubicdyn import counting, lattice

    monkeypatch.setattr(counting, "trace_power", lambda m, n: 0)
    with pytest.raises(AssertionError, match="N=3"):
        lefschetz_number(3)
    monkeypatch.setattr(lattice.LatticeEndo, "trace", lambda self: 0)
    with pytest.raises(AssertionError, match="N=2"):
        verify_counts(5)


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

    t = counting._coerce_theta4(rh_params(random_offwall_kappa(np.random.default_rng(1))))
    x = counting._make_seeds(2000, t, np.random.default_rng(0))
    for kernel in (lambda x: cubic_eval(x, t), lambda x: np.array(coxeter_apply(x, t, 3))):
        batch = kernel(x)
        alone = np.concatenate([kernel(x[:, p:p + 1]) for p in range(x.shape[1])], axis=-1)
        assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))


def test_no_bad_point_reaches_the_line_search(monkeypatch):
    from cubicdyn import counting

    t = counting._coerce_theta4(rh_params(random_offwall_kappa(np.random.default_rng(1))))
    seeds = counting._make_tuples(50, 2, t, np.random.default_rng(0))
    seeds[:, 7] = np.nan
    searched = []
    search = counting._line_search

    def record(x, dx, rnorm, t, n):
        searched.append((x, dx))
        return search(x, dx, rnorm, t, n)

    monkeypatch.setattr(counting, "_line_search", record)
    monkeypatch.setattr(SolverConfig, "newton_max_iter", 20)
    list(counting._newton_batch(seeds, t, 2, SolverConfig()))
    assert searched
    for x, dx in searched:
        assert np.isfinite(x).all()
        assert (dx != 0).any(axis=0).all()


_COMPLEX_THETA = (1.3 + 0.4j, -0.7 + 0.2j, 2.1 - 0.3j, 0.5 + 0.1j)


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

    def newton_batch(x, t, n, cfg):
        seed_chunk.append(any(x is d for d in drawn))
        return newton(x, t, n, cfg) if answer is None else iter([answer])

    monkeypatch.setattr(counting, "_make_tuples", make_tuples)
    monkeypatch.setattr(counting, "_newton_batch", newton_batch)
    return seed_chunk


def _two_cycles(theta, cfg):
    """The roots (22, 3) of a complete N = 2 solve, and its 2-cycles."""
    report = solve_periodic(theta, 2, cfg)
    assert report.status == "complete" and len(report.orbits) == 11
    return np.array([p.as_tuple() for p, _ in report.points], dtype=complex), report.orbits


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
    points = np.array([p.as_tuple() for p, _ in report.points], dtype=complex)
    assert np.abs(points - x[orbits[0][1]]).max(axis=1).min() == 0
    assert calls == [(2, 200)]


@pytest.mark.parametrize("one_per_conjugate_pair", [False, True])
def test_whole_tuples_complete_a_solve_from_one_tuple_per_cycle(monkeypatch, one_per_conjugate_pair):
    from cubicdyn import counting

    # every seed chunk is answered by one converged tuple per 2-cycle, or
    # per pair of conjugate 2-cycles: the whole tuples and their conjugates
    # give all 22 roots, and no Newton batch runs but on seed chunks
    kappa = random_offwall_kappa(np.random.default_rng(5))
    cfg = SolverConfig(seeds=200, rng_seed=5)
    x, orbits = _two_cycles(rh_params(kappa), cfg)
    chosen = orbits
    if one_per_conjugate_pair:
        orbit_of = {i: k for k, o in enumerate(orbits) for i in o}
        partner = counting._cluster_index(x, x.conj(), cfg.dedup_radius)
        chosen = []
        for o in orbits:
            if orbits[orbit_of[partner[o[0]]]] not in chosen:
                chosen.append(o)
        assert len(chosen) < len(orbits)
    seed_chunk = _record_seed_chunks(monkeypatch, np.array([x[o].ravel() for o in chosen]))
    report = solve_for_kappa(kappa, 2, cfg)
    assert report.status == "complete" and report.found == 22
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
    points = np.array([p.as_tuple() for p, _ in report.points], dtype=complex)
    assert report.found == 21 and report.status != "complete"
    assert np.abs(points - tuples[0, 3:]).max(axis=1).min() > 1e-9
    assert np.abs(points - x[orbits[0][1]]).max(axis=1).min() > 1e-6
    assert np.abs(points - x[orbits[0][0]]).max(axis=1).min() == 0


@pytest.mark.parametrize("block", [1, 4, None])
def test_line_search_takes_the_first_improving_halving(monkeypatch, block):
    from cubicdyn import counting

    # residual |x1|: point 0 improves at once, point 1 at scale 2^-3
    # (1 - 8/8 = 0), point 2 never does and is reported stalled
    calls = []

    def residual(x, t, n):
        calls.append(x.shape[1])
        return np.abs(x[0])

    monkeypatch.setattr(counting, "_system_residual", residual)
    if block is not None:
        monkeypatch.setattr(counting, "_LINE_SEARCH_BLOCK", block)
    x = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [5.0, 6.0, 7.0]], dtype=complex)
    dx = np.array([[-1.0, -8.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
    xnew, improved = counting._line_search(x, dx, np.ones(3), None, 1)
    assert improved.tolist() == [True, True, False]
    assert list(xnew[1, :2]) == [1.0, 2.0**-3]
    assert list(xnew[0, :2]) == [0.0, 0.0]
    assert list(xnew[2, :2]) == [5.0, 6.0]
    if block == 1:  # one halving at a time, on the points still failing
        assert calls == [3] + [2] * 3 + [1] * 22
    if block is None:  # halvings 1-25 of the two failing points in one block
        assert calls == [3, 50]


def test_line_search_block_size_changes_no_bit():
    from cubicdyn import counting

    kappa = random_offwall_kappa(np.random.default_rng(1))
    t = counting._coerce_theta4(rh_params(kappa))
    steps = []
    search = counting._line_search

    def record(x, dx, rnorm, t, n):
        steps.append((x, dx, rnorm))
        return search(x, dx, rnorm, t, n)

    seeds = counting._make_tuples(300, 3, t, np.random.default_rng(0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_line_search", record)
        mp.setattr(SolverConfig, "newton_max_iter", 30)
        list(counting._newton_batch(seeds, t, 3, SolverConfig()))
    assert len(steps) == 30
    with np.errstate(over="ignore", invalid="ignore"):
        for x, dx, rnorm in steps:
            blocked, blocked_improved = search(x, dx, rnorm, t, 3)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "_LINE_SEARCH_BLOCK", 1)
                single, single_improved = search(x, dx, rnorm, t, 3)
            bits = [np.ascontiguousarray(v).view(np.uint64) for v in (blocked, single)]
            assert np.array_equal(*bits)
            assert np.array_equal(blocked_improved, single_improved)


def test_line_search_reports_a_point_no_halving_improves_as_stalled(monkeypatch):
    from cubicdyn import counting

    # residual |x1| against rnorm 1: point 0 stays at 1 under every trial,
    # point 1 grows along its step and point 2 improves at 2^-25 only.  A
    # residual equal to rnorm is no improvement, and all 26 trials are made
    calls = []

    def residual(x, t, n):
        calls.append(x.shape[1])
        return np.abs(x[0])

    monkeypatch.setattr(counting, "_system_residual", residual)
    monkeypatch.setattr(counting, "_LINE_SEARCH_BLOCK", 1)
    x = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    dx = np.array([[0.0, 1.0, -1.5 * 2.0**25], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], dtype=complex)
    xnew, improved = counting._line_search(x, dx, np.ones(3), None, 1)
    assert improved.tolist() == [False, False, True]
    assert xnew[0, 2] == -0.5 and xnew[2, 2] == 2.0**-25
    assert calls == [3] * 26


def test_newton_batch_drops_stalled_tuples(monkeypatch):
    from cubicdyn import counting

    # the solver's own first chunk at kappa_ref, N = 3: 83 tuples stall at
    # a local minimum of the merit and none converges, so once they leave
    # the batch it ends long before newton_max_iter (100)
    t = counting._coerce_theta4(rh_params(random_offwall_kappa(np.random.default_rng(7))))
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
    seeds = counting._make_tuples(counting._SEED_CHUNK, 3, t, rng)
    normal = counting._normal_equations
    calls = []

    def record(x, t, n):
        calls.append(x.shape[1])
        return normal(x, t, n)

    monkeypatch.setattr(counting, "_normal_equations", record)
    out = np.concatenate(list(counting._newton_batch(seeds, t, 3, SolverConfig())))
    assert out.shape == (1965, 9)
    assert len(calls) <= 60


def test_newton_batch_orders_by_iteration_then_seed():
    from cubicdyn import counting

    kappa = random_offwall_kappa(np.random.default_rng(3))
    t = counting._coerce_theta4(rh_params(kappa))
    cfg = SolverConfig(seeds=1500)
    found = np.concatenate(list(counting._newton_batch(
        counting._make_tuples(1500, 2, t, np.random.default_rng(0)), t, 2, cfg)))[:, :3]
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
    out = np.concatenate(list(counting._newton_batch(np.concatenate([x0, x1]), t, 2, cfg)))
    assert out.shape == (4, 6)
    out = out[:, :3]
    assert np.array_equal(out[0], r1) and np.array_equal(out[1], r3)
    assert np.abs(out[2] - r2).max() < 1e-7 and np.abs(out[3] - r0).max() < 1e-7


def test_the_reference_n3_solve_stops_within_its_first_batch(monkeypatch):
    from cubicdyn import counting

    # all 72 roots are in after 13 iterations of the first batch, which
    # would run on to 56 if it were not left at the closed form
    normal = counting._normal_equations
    calls = []

    def record(x, t, n):
        calls.append(n)
        return normal(x, t, n)

    monkeypatch.setattr(counting, "_normal_equations", record)
    report = solve_for_kappa(random_offwall_kappa(np.random.default_rng(7)), 3, SolverConfig(seeds=20000))
    assert report.status == "complete" and report.found == 72
    assert len(calls) <= 20


def test_a_batch_left_early_raises_no_warning_and_restores_the_errstate():
    from cubicdyn import counting

    # a nan tuple and tuples far past the escape radius overflow wherever
    # the batch does not silence them; the silencing must not outlast a
    # yield, and the batch is left at its first one
    t = counting._coerce_theta4(rh_params(random_offwall_kappa(np.random.default_rng(1))))
    seeds = counting._make_tuples(200, 2, t, np.random.default_rng(0))
    seeds[:, 7] = np.nan
    seeds[:, 11:20] *= 1e50
    with pytest.warns(RuntimeWarning):
        coxeter_apply(seeds[:3, 11:20], t, 2)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = counting._newton_batch(seeds, t, 2, SolverConfig())
        assert len(next(batch)) and np.geterr() == before
        batch.close()
    assert np.geterr() == before


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
    assert counting._cholesky_solve(cols, z).all()
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
    ok = counting._cholesky_solve(a.copy(), z)
    assert np.flatnonzero(~ok).tolist() == [3, 7]
    assert np.isnan(z[:, [3, 7]]).all()
    for k in np.flatnonzero(ok):
        alone = y[:, k:k + 1].copy()
        assert counting._cholesky_solve(a[:, :, k:k + 1].copy(), alone).all()
        assert np.array_equal(alone.view(np.uint64), z[:, k:k + 1].view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_equations_equal_a_dense_jhj(n):
    from cubicdyn import counting

    t = counting._coerce_theta4(rh_params(random_offwall_kappa(np.random.default_rng(2))))
    x = counting._make_tuples(40, n, t, np.random.default_rng(n))
    a, jhr, res = counting._normal_equations(x, t, n)
    m = x.shape[1]
    jac = np.zeros((m, 3 * n + 1, 3 * n), dtype=complex)
    want = np.empty((m, 3 * n + 1), dtype=complex)
    for k in range(n):
        nxt = 3 * ((k + 1) % n)
        y = coxeter_apply(x[3 * k:3 * k + 3], t)
        d = np.array(coxeter_jacobian(x[3 * k:3 * k + 3], t, 1, escape_radius=np.inf))
        jac[:, 3 * k:3 * k + 3, 3 * k:3 * k + 3] += d.transpose(2, 0, 1)
        jac[:, 3 * k:3 * k + 3, nxt:nxt + 3] -= np.eye(3)
        want[:, 3 * k:3 * k + 3] = (np.array(y) - x[nxt:nxt + 3]).T
    jac[:, 3 * n, :3] = np.array(cubic_gradient(x[:3], t)).T
    want[:, 3 * n] = cubic_eval(x[:3], t)
    assert np.array_equal(res, want.T)
    jh = np.conj(jac.transpose(0, 2, 1))
    jhj, jhr_dense = jh @ jac, (jh @ want[:, :, None])[:, :, 0]
    scale = np.abs(jhj).max(axis=(1, 2))
    assert (np.abs(a.transpose(2, 0, 1) - jhj).max(axis=(1, 2)) <= 1e-13 * scale).all()
    assert (np.abs(jhr.T - jhr_dense).max(axis=1) <= 1e-13 * np.abs(jhr_dense).max(axis=1)).all()


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


def test_solve_n4_with_the_default_config_is_complete(monkeypatch):
    seed_chunk = _record_seed_chunks(monkeypatch)
    calls = _record_newton_batch(monkeypatch)
    kappa = random_offwall_kappa(np.random.default_rng(7))
    report = solve_for_kappa(kappa, 4)
    assert report.status == "complete"
    assert report.found == 326 == len(report.points)
    assert sorted(report.minimal_periods) == [2] * 22 + [4] * 304
    # every Newton batch runs on a seed chunk: the orbits come whole from
    # the tuples, not from a second batch on images
    assert seed_chunk and all(seed_chunk)
    # the period-2 solve comes first, and its roots head the report; one
    # chunk of period-4 tuples finds the rest
    periods = [n for n, _ in calls]
    assert periods[-1] == 4 and periods.count(4) == 1 and periods[0] == 2
    assert report.minimal_periods[0] == 2


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

    # the first period-2 root offered at N = 4 is made to fail the recheck
    # on Python scalars at period 4: it is not admitted, and the report
    # holds another copy of it in its place
    kappa = random_offwall_kappa(np.random.default_rng(7))
    cfg = SolverConfig(seeds=20000)
    two = [tuple(map(complex, p.as_tuple())) for p, _ in solve_for_kappa(kappa, 2, cfg).points]
    scalar = counting._converged_scalar
    calls = _record_newton_batch(monkeypatch)
    rejected = []

    def reject_once_at_four(x, t, n, cfg):
        if n == 4 and not rejected:
            rejected.append((tuple(map(complex, x)), list(calls)))
            return False
        return scalar(x, t, n, cfg)

    monkeypatch.setattr(counting, "_converged_scalar", reject_once_at_four)
    report = solve_for_kappa(kappa, 4, cfg)
    (point, before), = rejected
    assert point in two and {n for n, _ in before} == {2}  # offered by the divisor solve
    points = [tuple(map(complex, p.as_tuple())) for p, _ in report.points]
    assert point not in points
    assert sum(max(abs(a - b) for a, b in zip(p, point)) < 1e-6 for p in points) == 1
    assert report.status == "complete" and report.found == 326


@pytest.mark.parametrize("N, by_period", [(3, {1: 0, 3: 72}), (4, {1: 0, 2: 22, 4: 304})])
def test_reference_roots_pass_a_python_scalar_recheck(N, by_period):
    # the benchmark's output check re-evaluates every root on Python
    # complex scalars, which round differently from the solver's numpy
    # columns: each root must pass there too
    kappa = random_offwall_kappa(np.random.default_rng(7))
    theta = tuple(complex(v) for v in rh_params(kappa).as_tuple())
    cfg = SolverConfig(seeds=20000)
    report = solve_for_kappa(kappa, N, cfg)
    assert report.status == "complete"
    periods = dict.fromkeys(by_period, 0)
    for p, _ in report.points:
        x = tuple(complex(v) for v in p.as_tuple())
        images = [x]
        for _ in range(N):
            images.append(coxeter_apply(images[-1], theta))
        assert max(abs(a - b) for a, b in zip(images[N], x)) <= cfg.newton_tol
        assert abs(cubic_eval(x, theta)) <= surface_residual_bound(x, cfg.surface_tol)
        scale = cfg.dedup_radius * (1 + max(abs(v) for v in x))
        d = next(d for d in periods if max(abs(a - b) for a, b in zip(images[d], x)) <= scale)
        periods[d] += 1
    assert periods == by_period


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
    else:
        theta = rh_params(random_offwall_kappa(np.random.default_rng(kappa_seed)))
    report = solve_periodic(theta, N, SolverConfig(seeds=20000, rng_seed=rng_seed))
    assert report.status == "complete" and report.found == closed
    t = counting._coerce_theta4(theta)
    x = np.array([p.as_tuple() for p, _ in report.points], dtype=complex)
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
def test_n5_solves_complete_from_at_most_two_newton_batches(monkeypatch, s):
    # the whole tuples of the first chunk and their conjugates hold every
    # root, so no later chunk has to converge to a root again
    calls = _record_newton_batch(monkeypatch)
    kappa = random_offwall_kappa(np.random.default_rng(s))
    report = solve_for_kappa(kappa, 5, SolverConfig(seeds=20000, rng_seed=s))
    assert report.status == "complete" and report.found == 1360
    assert len(calls) <= 2


def test_a_root_that_fails_the_scalar_recheck_is_not_reported(monkeypatch):
    from cubicdyn import counting

    # the first candidate passes _converged on numpy columns but is made to
    # fail the recheck on Python scalars: it drops alone, and a later
    # duplicate of it joins in its place
    bound = counting.surface_residual_bound
    rejected = []

    def reject_once(x, tol):
        if not rejected:
            rejected.append(x)
            return -1.0
        return bound(x, tol)

    monkeypatch.setattr(counting, "surface_residual_bound", reject_once)
    kappa = random_offwall_kappa(np.random.default_rng(3))
    report = solve_for_kappa(kappa, 2, SolverConfig(seeds=6000, rng_seed=2))
    assert len(rejected) == 1
    points = [tuple(map(complex, p.as_tuple())) for p, _ in report.points]
    assert rejected[0] not in points
    assert sum(max(abs(a - b) for a, b in zip(p, rejected[0])) < 1e-6 for p in points) == 1
    assert report.status == "complete" and report.found == 22


def _record_newton_batch(monkeypatch, stub=None):
    """Record the period n and the tuple count of each _newton_batch call;
    stub, if given, stands in for the solve and returns an iterable of
    (K, 3n) arrays."""
    from cubicdyn import counting

    calls = []
    newton = stub or counting._newton_batch

    def record(x, t, n, cfg):
        assert x.shape[0] == 3 * n
        calls.append((n, x.shape[1]))
        return newton(x, t, n, cfg)

    monkeypatch.setattr(counting, "_newton_batch", record)
    return calls


@pytest.mark.parametrize("k", [0, 4])
def test_batches_are_one_chunk_and_stop_quiet_past_seeds(monkeypatch, k):
    from cubicdyn import counting

    # the first k batches each find one new 2-cycle and no batch after does:
    # every batch holds one chunk, and the search stops once 5000 seeds are
    # drawn and saturation_batches batches in a row were quiet.  theta is
    # complex, so no conjugate is harvested
    x, orbits = _two_cycles(_COMPLEX_THETA, SolverConfig(seeds=200, rng_seed=5))
    answers = [[x[o].ravel()[None]] for o in orbits[:k]]
    calls = _record_newton_batch(
        monkeypatch, lambda *_: iter(answers.pop(0) if answers else []))
    report = solve_periodic(_COMPLEX_THETA, 2, SolverConfig(seeds=5000))
    assert report.status == "saturated" and report.found == 2 * k
    assert calls == [(2, counting._SEED_CHUNK)] * (5 + k)


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
    t = counting._coerce_theta4(rh_params(kappa))
    seeds = counting._make_tuples(200, 2, t, np.random.default_rng(0))
    monkeypatch.setattr(SolverConfig, "newton_max_iter", 30)
    cfg = SolverConfig()
    want = np.concatenate(list(counting._newton_batch(seeds, t, 2, cfg)))
    cholesky, search = counting._cholesky_solve, counting._line_search
    oks, searched = [], []

    def zero_one_system(a, y):
        if not oks:
            a[:, :, 5] = 0
        oks.append(cholesky(a, y))
        return oks[-1]

    def record(x, dx, rnorm, t, n):
        searched.append(x.shape[1])
        return search(x, dx, rnorm, t, n)

    monkeypatch.setattr(counting, "_cholesky_solve", zero_one_system)
    monkeypatch.setattr(counting, "_line_search", record)
    got = np.concatenate(list(counting._newton_batch(seeds, t, 2, cfg)))
    assert np.flatnonzero(~oks[0]).tolist() == [5]
    assert all(ok.all() for ok in oks[1:])
    assert searched[0] == len(oks[0]) - 1
    rows = [x.tobytes() for x in want]
    assert len(got) >= len(want) - 1 and all(x.tobytes() in rows for x in got)
